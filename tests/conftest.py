import pytest

from spinsieve.identities import primary_primitive


@pytest.fixture(scope="session")
def pp2000():
    return primary_primitive(2000)

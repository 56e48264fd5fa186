"""Shared plumbing: fixed-size range blocks and the tally of an identity
check."""

from __future__ import annotations


def split_range(lo: int, hi: int, block: int):
    """Half-open subranges [a, b) of [lo, hi) with fixed block size."""
    out = []
    a = lo
    while a < hi:
        b = min(a + block, hi)
        out.append((a, b))
        a = b
    return out


class Tally:
    """Cases and violations of one identity check, with its first three
    failing inputs."""

    def __init__(self):
        self.checked = self.violations = 0
        self.first: list[tuple] = []

    def case(self, ok: bool, *inputs) -> None:
        self.checked += 1
        if not ok:
            self.fail(*inputs)

    def fail(self, *inputs) -> None:
        self.violations += 1
        if len(self.first) < 3:
            self.first.append(inputs)

    def result(self) -> tuple[int, int, list[tuple]]:
        return self.checked, self.violations, self.first

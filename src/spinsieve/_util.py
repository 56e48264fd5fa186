"""Shared plumbing: the tally of an identity check."""

from __future__ import annotations

from collections.abc import Callable

import numpy as np


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

    def cases(self, ok: np.ndarray, inputs: Callable[[int], tuple]) -> None:
        """One case per entry of the boolean array ok, or per row when ok is
        2-D and a row holds the checks of one case in order; each False
        entry is one violation.  inputs(i) gives the inputs of flat entry i
        and is asked only for the first failures, in array order."""
        bad = np.flatnonzero(~ok)
        self.checked += len(ok)
        self.violations += bad.size
        self.first += [inputs(int(i)) for i in bad[: 3 - len(self.first)]]

    def fail(self, *inputs) -> None:
        self.violations += 1
        if len(self.first) < 3:
            self.first.append(inputs)

    def result(self) -> tuple[int, int, list[tuple]]:
        return self.checked, self.violations, self.first

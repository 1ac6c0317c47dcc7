"""Memoryless randomized schedulers over indexed state spaces."""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class DistributionError(ValueError):
    """The distribution at ``state`` does not sum to 1 or has a negative entry."""

    def __init__(self, state, problem: str):
        super().__init__(f"scheduler distribution at state {state} {problem}")
        self.state = state
        self.problem = problem


class MrScheduler:
    """Maps a state index to a distribution over enabled action ids.

    ``choices`` is checked on construction and cannot be reassigned; two
    schedulers are equal when their choices are."""

    def __init__(self, choices: dict[int, dict[str, Fraction]]):
        for s, dist in choices.items():
            if len(dist) == 1 and all(p.numerator == p.denominator for p in dist.values()):
                continue  # one action, played with probability 1
            d = lcm(*(p.denominator for p in dist.values()))
            nums = [p.numerator * (d // p.denominator) for p in dist.values()]
            if sum(nums) != d:
                raise DistributionError(s, f"sums to {sum(dist.values(), Fraction(0))}")
            if min(nums) < 0:
                raise DistributionError(s, "has a negative probability")
        self.__dict__["choices"] = choices

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: schedulers are immutable")

    def __eq__(self, other):
        return type(other) is type(self) and self.choices == other.choices

    def dist(self, s: int) -> dict[str, Fraction]:
        return self.choices[s]

"""Memoryless randomized schedulers over indexed state spaces."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm


@dataclass(frozen=True)
class MrScheduler:
    """Maps a state index to a distribution over enabled action ids."""

    choices: dict[int, dict[str, Fraction]]

    def __post_init__(self):
        for s, dist in self.choices.items():
            if len(dist) == 1 and 1 in dist.values():
                continue  # one action, played with probability 1
            d = lcm(*(p.denominator for p in dist.values()))
            nums = [p.numerator * (d // p.denominator) for p in dist.values()]
            if sum(nums) != d:
                total = sum(dist.values(), Fraction(0))
                raise ValueError(f"scheduler distribution at state {s} sums to {total}")
            if min(nums) < 0:
                raise ValueError(f"negative probability at state {s}")

    def dist(self, s: int) -> dict[str, Fraction]:
        return self.choices[s]


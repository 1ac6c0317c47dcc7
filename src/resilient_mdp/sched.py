"""Memoryless randomized schedulers over indexed state spaces."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class MrScheduler:
    """Maps a state index to a distribution over enabled action ids."""

    choices: dict[int, dict[str, Fraction]]

    def __post_init__(self):
        for s, dist in self.choices.items():
            total = sum(dist.values(), Fraction(0))
            if total != 1:
                raise ValueError(f"scheduler distribution at state {s} sums to {total}")
            if any(p < 0 for p in dist.values()):
                raise ValueError(f"negative probability at state {s}")

    def dist(self, s: int) -> dict[str, Fraction]:
        return self.choices[s]


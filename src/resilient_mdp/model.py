"""MDPs with repair: states split into operational, error and repair states.

Probabilities are exact rationals (``fractions.Fraction``), rewards are
nonnegative integers. The reward of an operational state is its payoff; the
reward of any other state is its repair cost. Models are immutable after
construction and validated separately, so a freshly parsed model can be
inspected even when it is broken.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .graph import reachable_from

OPERATIONAL = "op"
ERROR = "err"
REPAIR = "rep"

STATE_KINDS = (OPERATIONAL, ERROR, REPAIR)

TAU = "τ"  # reserved action id: the goal MDP's switch into a component


class Violation(NamedTuple):
    rule: str
    where: str
    message: str


class ValidationReport(NamedTuple):
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(f"[{v.rule}] {v.where}: {v.message}" for v in self.violations)


class MdpWithRepair:
    """States are indexed densely in input order; ids are arbitrary strings.

    ``actions[i]`` maps an action id to the successor distribution of state i,
    a list of (state index, probability) pairs. ``index`` maps an id back to
    its state. Attributes cannot be assigned; two models are equal when their
    ``_fields`` are.
    """

    _fields = ("ids", "kinds", "rewards", "actions", "initial")

    def __init__(self, ids: tuple[str, ...], kinds: tuple[str, ...], rewards: tuple[int, ...],
                 actions: tuple[dict[str, list[tuple[int, Fraction]]], ...], initial: int):
        self.__dict__.update(ids=ids, kinds=kinds, rewards=rewards, actions=actions,
                             initial=initial, index={s: i for i, s in enumerate(ids)})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: models are immutable")

    def __eq__(self, other):
        return type(other) is type(self) and all(
            getattr(self, f) == getattr(other, f) for f in self._fields)

    @property
    def n(self) -> int:
        return len(self.ids)

    def payoff(self, i: int) -> int:
        return self.rewards[i] if self.kinds[i] == OPERATIONAL else 0

    def cost(self, i: int) -> int:
        return self.rewards[i] if self.kinds[i] != OPERATIONAL else 0

    def is_op(self, i: int) -> bool:
        return self.kinds[i] == OPERATIONAL

    def errors(self) -> list[int]:
        return [i for i in range(self.n) if self.kinds[i] == ERROR]

    def enabled(self, i: int) -> list[str]:
        return sorted(self.actions[i])


def make_mdp(states, transitions, initial) -> MdpWithRepair:
    """Build a model from plain data.

    ``states``: iterable of (id, kind, reward). ``transitions``: iterable of
    (from_id, action_id, [(to_id, prob), ...]). Unknown state references and
    a (state, action) pair listed more than once are recorded and reported by
    validate_structure, except that the state list itself must be well formed
    enough to index.
    """
    ids, kinds, rewards = [], [], []
    for sid, kind, reward in states:
        ids.append(str(sid))
        kinds.append(kind)
        rewards.append(reward)
    index = {s: i for i, s in enumerate(ids)}
    if len(index) != len(ids):
        raise ValueError("duplicate state ids")
    actions: list[dict[str, list[tuple[int, Fraction]]]] = [{} for _ in ids]
    found: list[Violation] = []
    for frm, act, dist in transitions:
        where = f"{frm}/{act}"
        if frm not in index:
            found.append(Violation("dangling-reference", where,
                                   "transition references unknown source"))
            continue
        entries = []
        for to, prob in dist:
            if to not in index:
                found.append(Violation("dangling-reference", where,
                                       f"transition references unknown target {to}"))
                continue
            entries.append((index[to], Fraction(prob)))
        if str(act) in actions[index[frm]]:
            found.append(Violation("duplicate-action", where,
                                   "action listed more than once for this state"))
        actions[index[frm]][str(act)] = entries
    if initial not in index:
        raise ValueError(f"unknown initial state {initial!r}")
    m = MdpWithRepair(tuple(ids), tuple(kinds), tuple(rewards),
                      tuple(actions), index[initial])
    object.__setattr__(m, "_input_violations", tuple(found))
    return m


def validate_structure(m: MdpWithRepair) -> ValidationReport:
    """Check references, repeated actions, distributions, trap states,
    rewards and kind tags."""
    out: list[Violation] = list(getattr(m, "_input_violations", ()))
    for i, sid in enumerate(m.ids):
        if "#" in sid:
            # '#' is reserved for the ids of cost-annotated repair copies.
            out.append(Violation("bad-id", sid, "state ids must not contain '#'"))
        if TAU in m.actions[i]:
            out.append(Violation("bad-id", sid, f"action id {TAU!r} is reserved"))
        if m.kinds[i] not in STATE_KINDS:
            out.append(Violation("bad-kind", sid, f"unknown state kind {m.kinds[i]!r}"))
        if not isinstance(m.rewards[i], int) or m.rewards[i] < 0:
            out.append(Violation("bad-reward", sid,
                                 f"reward must be a nonnegative integer, got {m.rewards[i]!r}"))
        if not m.actions[i]:
            out.append(Violation("trap-state", sid, "state has no enabled action"))
        for act in m.enabled(i):
            dist = m.actions[i][act]
            total = sum((p for _, p in dist), Fraction(0))
            if total != 1:
                out.append(Violation("bad-distribution", f"{sid}/{act}",
                                     f"distribution sums to {total}"))
            if any(p <= 0 for _, p in dist):
                out.append(Violation("bad-distribution", f"{sid}/{act}",
                                     "nonpositive transition probability"))
    return ValidationReport(tuple(out))


def validate_repair_assumption(m: MdpWithRepair) -> ValidationReport:
    """Check that no new error can occur before a successful repair.

    The violating set V is the least fixpoint of
    V = Err  U  { s not in Op u Err : some action of s reaches V },
    found by one backward search from Err along the edges that leave states
    outside Op u Err. Any positive-probability transition from an error into
    V is a violation: from that successor, some path hits Err before Op.
    """
    pred: list[list[int]] = [[] for _ in range(m.n)]
    for i in range(m.n):
        if m.kinds[i] not in (OPERATIONAL, ERROR):
            for dist in m.actions[i].values():
                for t, _ in dist:
                    pred[t].append(i)
    bad = reachable_from(pred, m.errors())
    out = []
    for e in m.errors():
        for act in m.enabled(e):
            for t, p in m.actions[e][act]:
                if p > 0 and t in bad:
                    out.append(Violation(
                        "repair-assumption", f"{m.ids[e]}/{act}",
                        f"successor {m.ids[t]} can reach an error before an operational state"))
    return ValidationReport(tuple(out))

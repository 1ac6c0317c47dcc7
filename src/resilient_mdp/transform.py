"""Cost-tracking transformation of an MDP with repair.

The transformed MDP is again an MDP with repair. Its repair copies <e, s, r>
are in base state s, repairing the error e, with cost r accumulated since e
was entered. Past the budget R the cost is no longer tracked, but the repair
is still pending: non-operational states are entered through pending copies
until the next operational state, where every repair ends. Base
non-operational states are therefore only visited with no repair underway.
Only the fragment reachable from the initial state is materialized, at most
``MAX_STATES`` states (one copy per reachable cost value).

``_passed_on`` is the one statement of the budget rule, and ``transform``,
through ``_successor_key``, is its one reader in the package. Copies are
rendered as "e#s#r" in state ids, pending copies as "s#pending"; the
finite-memory rendering on the base model walks ``TransformedMdp.successor``.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from .model import ERROR, OPERATIONAL, REPAIR, MdpWithRepair

MAX_STATES = 100_000

PENDING = "pending"  # memory of a repair still unfinished past the budget


class TransformTooLargeError(ValueError):
    """The reachable transformed model has more than ``MAX_STATES`` states."""


class TransformedMdp(MdpWithRepair):
    """Repair copies are operational or repair states; every state has the
    reward of its base state. ``memory[i]`` is state i's repair memory, the
    label ``transform`` keys it by: (error, cost so far) for a repair copy,
    "pending" for a pending copy, None for a base state."""

    _fields = MdpWithRepair._fields + ("base", "cost_bound", "back", "memory")

    def __init__(self, ids, kinds, rewards, actions, initial, *, base: MdpWithRepair,
                 cost_bound: int,
                 back: tuple[int, ...],  # state -> base state index
                 memory: tuple[tuple[int, int] | str | None, ...]):
        super().__init__(ids, kinds, rewards, actions, initial)
        self.__dict__.update(base=base, cost_bound=cost_bound, back=back, memory=memory)

    def op_copies_of(self, e: int) -> list[int]:
        """Repair copies <e, s, r> with s operational (the Op_e set)."""
        base_e = self.back[e]
        return [i for i, mem in enumerate(self.memory)
                if isinstance(mem, tuple) and mem[0] == base_e and self.is_op(i)]

    def successor(self, i: int, act: str, target: int) -> int:
        """The state entered from i by ``act`` when the base move lands in
        ``target``; ``transform`` keeps the order of the base distribution."""
        base = self.base.actions[self.back[i]][act]
        return {t: j for (t, _), (j, _) in zip(base, self.actions[i][act])}[target]


def _passed_on(m: MdpWithRepair, bound: int, memory, s: int):
    """The budget rule: the repair memory that a state at base state ``s``
    holding ``memory`` passes on to its successors. That is (e, cost so far)
    while the cost spent on e's repair, s included, is at most ``bound``;
    ``PENDING`` once the budget is overrun; None when no repair is underway,
    either none began or it completed at the operational state s."""
    if memory == PENDING:
        return PENDING
    e, r = memory or (s, 0)  # with no memory, a repair begins at an error s
    if m.kinds[e] != ERROR or m.is_op(s):
        return None
    spent = r + m.cost(s)
    return (e, spent) if spent <= bound else PENDING


def _successor_key(m: MdpWithRepair, passed, target: int):
    """Key (memory, base state) of the state entered at ``target`` from a
    state passing on ``passed``: a tracked repair is kept whatever the
    target, a pending one ends at an operational state or a new error."""
    if passed == PENDING and m.kinds[target] in (OPERATIONAL, ERROR):
        return None, target
    return passed, target


def exact_threshold(threshold) -> Fraction:
    """``threshold`` as a ``Fraction`` in (0, 1], the library's one gate for
    it. A float is refused: it would stand for the binary double nearest the
    value meant, not the value."""
    if isinstance(threshold, float):
        raise TypeError(f"threshold must be a Fraction, an int or a str, not {threshold!r}")
    p = Fraction(threshold)
    if not 0 < p.numerator <= p.denominator:
        raise ValueError(f"threshold must be in (0, 1], got {p}")
    return p


def check_cost_bound(cost_bound) -> None:
    """Refuse a cost bound that is not a nonnegative ``int``."""
    if type(cost_bound) is not int:
        raise TypeError(f"cost bound must be an int, got {cost_bound!r}")
    if cost_bound < 0:
        raise ValueError("cost bound must be nonnegative")


def transform(m: MdpWithRepair, cost_bound: int) -> TransformedMdp:
    """Build the reachable fragment of the cost-annotated MDP, or raise
    ``TransformTooLargeError`` once it would exceed ``MAX_STATES`` states.
    Each state is found under its key (memory, base state), whose halves
    are stored as ``TransformedMdp.memory`` and ``TransformedMdp.back``."""
    check_cost_bound(cost_bound)
    keys = [(None, m.initial)]
    index: dict = {keys[0]: 0}
    queue = deque(keys)
    out_actions: list[dict[str, list[tuple[int, Fraction]]]] = []
    while queue:
        memory, base = queue.popleft()
        passed = _passed_on(m, cost_bound, memory, base)
        acts: dict[str, list[tuple[int, Fraction]]] = {}
        for act in m.enabled(base):
            dist = []
            for target, prob in m.actions[base][act]:
                succ = _successor_key(m, passed, target)
                if succ not in index:
                    if len(keys) == MAX_STATES:
                        raise TransformTooLargeError(
                            f"the transformed model exceeds {MAX_STATES} states "
                            f"at cost bound {cost_bound}")
                    index[succ] = len(keys)
                    keys.append(succ)
                    queue.append(succ)
                dist.append((index[succ], prob))
            acts[act] = dist
        out_actions.append(acts)

    states = []  # (id, kind) per key
    for memory, s in keys:
        if memory == PENDING:
            states.append((f"{m.ids[s]}#{PENDING}", REPAIR))
        elif memory is not None:
            e, r = memory
            states.append((f"{m.ids[e]}#{m.ids[s]}#{r}", OPERATIONAL if m.is_op(s) else REPAIR))
        else:
            states.append((m.ids[s], m.kinds[s]))
    ids, kinds = zip(*states)
    memory, back = zip(*keys)
    return TransformedMdp(ids, kinds, tuple(m.rewards[s] for s in back), tuple(out_actions), 0,
                          base=m, cost_bound=cost_bound, back=back, memory=memory)

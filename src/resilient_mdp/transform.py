"""Cost-tracking transformation of an MDP with repair.

The transformed MDP adds repair copies <e, s, r>: the system is in base
state s, repairing the error e, with cost r accumulated since e was entered.
Once the budget R would be exceeded the exact cost is no longer tracked, but
the repair is still pending, so non-operational states are entered through
pending copies until the next operational state; reaching an operational
state always drops back to the base states. Base non-operational states are
therefore only visited with no repair underway. Only the fragment reachable
from the initial state is materialized.

Repair copies are rendered as "e#s#r" in state ids, pending copies as
"s#pending". These rules live only here: the finite-memory rendering on the
base model walks ``TransformedMdp.successor``, and ``op_copies_of`` and
``build_weights`` read repair success and budget overrun off the copies.
One copy is made per reachable cost value, so the fragment is capped at
``MAX_STATES`` states.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from .model import ERROR, OPERATIONAL, REPAIR, MdpWithRepair

MAX_STATES = 100_000


class TransformTooLargeError(ValueError):
    """The reachable transformed model has more than ``MAX_STATES`` states."""


@dataclass(frozen=True)
class TransformedMdp:
    base: MdpWithRepair
    cost_bound: int
    ids: tuple[str, ...]
    kinds: tuple[str, ...]          # op/err/rep, repair copies are op or rep
    actions: tuple[dict[str, list[tuple[int, Fraction]]], ...]
    back: tuple[int, ...]           # state -> base state index
    triple: tuple[tuple[int, int, int] | None, ...]  # (e, s, r) for repair copies
    pending: tuple[bool, ...]       # post-overrun copies with a repair unfinished
    initial: int
    index: dict[str, int] = field(repr=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "index", {s: i for i, s in enumerate(self.ids)})

    @property
    def n(self) -> int:
        return len(self.ids)

    def payoff(self, i: int) -> int:
        return self.base.payoff(self.back[i])

    def cost(self, i: int) -> int:
        return self.base.cost(self.back[i])

    def is_op(self, i: int) -> bool:
        return self.kinds[i] == OPERATIONAL

    def enabled(self, i: int) -> list[str]:
        return sorted(self.actions[i])

    def errors(self) -> list[int]:
        return [i for i in range(self.n) if self.kinds[i] == ERROR]

    def op_copies_of(self, e: int) -> list[int]:
        """Repair copies <e, s, r> with s operational (the Op_e set)."""
        base_e = self.back[e]
        return [i for i, t in enumerate(self.triple)
                if t is not None and t[0] == base_e and self.base.kinds[t[1]] == OPERATIONAL]

    def memory(self, i: int) -> tuple[int, int] | str | None:
        """Memory label of state i on the base model: (error, cost so far) for
        a repair copy, "pending" for a pending copy, None for a base state."""
        t = self.triple[i]
        if t is not None:
            return t[0], t[2]
        return "pending" if self.pending[i] else None

    def successor(self, i: int, act: str, target: int) -> int:
        """The state entered from i by ``act`` when the base move lands in
        ``target``; ``transform`` keeps the order of the base distribution."""
        base = self.base.actions[self.back[i]][act]
        return {t: j for (t, _), (j, _) in zip(base, self.actions[i][act])}[target]


def build_weights(mt: TransformedMdp, threshold: Fraction) -> dict[int, dict[int, Fraction]]:
    """Per-error weight function over transformed states (sparse, zero omitted)."""
    threshold = Fraction(threshold)
    out: dict[int, dict[int, Fraction]] = {}
    for e in mt.errors():
        base_e = mt.back[e]
        wgt: dict[int, Fraction] = {}
        for i in range(mt.n):
            t = mt.triple[i]
            if t is None:
                continue
            te, ts, r = t
            if te != base_e:
                continue
            if mt.base.kinds[ts] == OPERATIONAL:
                wgt[i] = 1 - threshold
            elif r + mt.base.cost(ts) > mt.cost_bound:
                wgt[i] = -threshold
        if mt.base.cost(base_e) > mt.cost_bound:
            # Repair can never succeed within budget; the error state itself
            # carries the penalty so no end component may contain it.
            wgt[e] = -threshold
        out[e] = wgt
    return out


def _pending_successor(m: MdpWithRepair, target: int):
    """Past the budget the repair is still unfinished: non-operational
    successors stay pending, operational ones complete the repair."""
    if m.kinds[target] == OPERATIONAL or m.kinds[target] == ERROR:
        return target
    return ("!", target)


def _successor_key(m: MdpWithRepair, bound: int, src, target: int):
    """Transformed successor of ``src`` when the base move lands in ``target``.

    Keys are a base index, an (e, s, r) triple, or ("!", s) for a pending
    copy of the non-operational base state s."""
    if isinstance(src, tuple) and src[0] == "!":
        return _pending_successor(m, target)
    if isinstance(src, tuple):
        e, s, r = src
        if m.kinds[s] == OPERATIONAL:
            return target  # repair completed at s
        if r + m.cost(s) <= bound:
            return (e, target, r + m.cost(s))
        return _pending_successor(m, target)
    if m.kinds[src] == ERROR:
        if m.cost(src) <= bound:
            return (src, target, m.cost(src))
        # Budget already blown by the error itself; pending from the start.
        return _pending_successor(m, target)
    return target


def transform(m: MdpWithRepair, cost_bound: int) -> TransformedMdp:
    """Build the reachable fragment of the cost-annotated MDP, or raise
    ``TransformTooLargeError`` once it would exceed ``MAX_STATES`` states."""
    if cost_bound < 0:
        raise ValueError("cost bound must be nonnegative")
    keys = [m.initial]
    index: dict = {m.initial: 0}
    queue = deque([m.initial])
    out_actions: list[dict[str, list[tuple[int, Fraction]]]] = []
    while queue:
        key = queue.popleft()
        base = key[1] if isinstance(key, tuple) else key
        acts: dict[str, list[tuple[int, Fraction]]] = {}
        for act in m.enabled(base):
            dist = []
            for target, prob in m.actions[base][act]:
                succ = _successor_key(m, cost_bound, key, target)
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

    states = []  # (id, kind, base state, triple, pending) per key
    for key in keys:
        if isinstance(key, tuple) and key[0] == "!":
            states.append((f"{m.ids[key[1]]}#pending", REPAIR, key[1], None, True))
        elif isinstance(key, tuple):
            e, s, r = key
            kind = OPERATIONAL if m.kinds[s] == OPERATIONAL else REPAIR
            states.append((f"{m.ids[e]}#{m.ids[s]}#{r}", kind, s, key, False))
        else:
            states.append((m.ids[key], m.kinds[key], key, None, False))
    ids, kinds, back, triples, pending = zip(*states)
    return TransformedMdp(m, cost_bound, ids, kinds, tuple(out_actions), back,
                          triples, pending, 0)

"""End components usable by resilient schedulers.

The long-run behavior of any resilient scheduler is confined to end
components whose internal scheduler keeps, for every error e, the mean of a
weight function nonnegative: repair successes within budget earn 1 - p,
budget overruns pay -p, everything else is neutral. Maximizing availability
under these mean constraints is an occupation-measure linear program; its
recurrent frequencies are extracted into component triples (state set,
action sets, memoryless scheduler, availability). The availability is read
off those frequencies, not computed by a chain analysis, so the exact chain
analysis of ``analyze`` stays an independent check of the final result. An
elimination loop then re-runs the program on ever smaller sub-MDPs so that
components unreachable for the global optimum are still discovered. Each
step solves one program and keeps its triples as extracted (see ``compute_E``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graph import strongly_connected_components
from .lp import EQ, GE, OPTIMAL, LinearProgram, LpSolution, solve
from .sched import MrScheduler
from .transform import TransformedMdp, build_weights


@dataclass(frozen=True)
class SubMdp:
    """A sub-MDP of the transformed model: a state subset with, per state, a
    nonempty subset of enabled actions whose transitions stay inside."""

    mt: TransformedMdp
    members: tuple[int, ...]
    enabled_map: dict[int, tuple[str, ...]]

    def enabled(self, i: int) -> tuple[str, ...]:
        return self.enabled_map[i]

    @property
    def empty(self) -> bool:
        return not self.members


def full_sub_mdp(mt: TransformedMdp) -> SubMdp:
    return SubMdp(mt, tuple(range(mt.n)),
                  {i: tuple(mt.enabled(i)) for i in range(mt.n)})


def prune(q: SubMdp, removed: set[int]) -> SubMdp:
    """Largest sub-MDP of q avoiding ``removed``.

    Deleting a state disables every action with a transition into it; a state
    with no enabled action left is deleted in turn, until a fixpoint.
    """
    alive = {s: set(q.enabled_map[s]) for s in q.members if s not in removed}
    changed = True
    while changed:
        changed = False
        for s in list(alive):
            for a in list(alive[s]):
                if any(t not in alive for t, _ in q.mt.actions[s][a]):
                    alive[s].discard(a)
                    changed = True
            if not alive[s]:
                del alive[s]
                changed = True
    members = tuple(sorted(alive))
    return SubMdp(q.mt, members, {s: tuple(sorted(alive[s])) for s in members})


def mec_decomposition(q: SubMdp) -> list[tuple[list[int], dict[int, list[str]]]]:
    """Maximal end components of q, ordered by smallest contained state.

    Standard iteration: split into SCCs, disable actions leaving their SCC,
    drop action-less states, repeat until stable. Singleton SCCs without an
    internal action are discarded.
    """
    enabled = {s: list(q.enabled_map[s]) for s in q.members}
    while True:
        states = sorted(enabled)
        pos = {s: k for k, s in enumerate(states)}
        succ = [[] for _ in states]
        for s in states:
            for a in enabled[s]:
                for t, _ in q.mt.actions[s][a]:
                    if t in pos:
                        succ[pos[s]].append(pos[t])
        comps = strongly_connected_components(succ)
        changed = False
        for comp in comps:
            members = {states[v] for v in comp}
            for v in comp:
                s = states[v]
                for a in list(enabled[s]):
                    if any(t not in members for t, _ in q.mt.actions[s][a]):
                        enabled[s].remove(a)
                        changed = True
        for s in list(enabled):
            if not enabled[s]:
                del enabled[s]
                changed = True
        if not changed:
            break
    mecs = []
    for comp in comps:
        members = sorted(states[v] for v in comp if states[v] in enabled)
        if not members:
            continue
        if len(members) == 1:
            s = members[0]
            if not any(t == s for a in enabled[s] for t, _ in q.mt.actions[s][a]):
                continue
        mecs.append((members, {s: sorted(enabled[s]) for s in members}))
    mecs.sort(key=lambda me: me[0][0])
    return mecs


def flow_balance(states, enabled, actions, var) -> dict[int, dict[str, Fraction]]:
    """Outflow minus inflow of each state, over action variables ``var(s, a)``.

    The row of s has +1 per enabled action of s, then -p per transition of
    probability p into s, in the order of ``states``, ``enabled`` and the
    distributions. A target outside ``states`` gets a row of its inflow alone.
    """
    rows = {s: {var(s, a): Fraction(1) for a in enabled(s)} for s in states}
    for s in states:
        for a in enabled(s):
            v = var(s, a)
            for t, p in actions[s][a]:
                row = rows.setdefault(t, {})
                row[v] = row.get(v, Fraction(0)) - p
    return rows


def _yv(q: SubMdp, s: int, a: str) -> str:
    return f"y[{q.mt.ids[s]}|{a}]"


def _ys(q: SubMdp, s: int) -> str:
    return f"y[{q.mt.ids[s]}]"


def _xv(q: SubMdp, s: int, a: str) -> str:
    return f"x[{q.mt.ids[s]}|{a}]"


def build_multi_mp_lp(q: SubMdp, init: int,
                      weights: dict[int, dict[int, Fraction]]) -> LinearProgram:
    """Occupation-measure program for maximal availability under nonnegative
    per-error weight means.

    y[s|a] is expected transient visit mass, y[s] the mass switching to
    recurrent mode at s (allowed only inside maximal end components),
    x[s|a] the long-run state-action frequency. Flow conservation couples y,
    per-MEC matching couples x to the switch mass, and one inequality per
    error keeps that error's expected weight frequency nonnegative.
    """
    if init not in q.enabled_map:
        raise ValueError("initial state not in sub-MDP")
    mecs = mec_decomposition(q)
    mec_states = {s for members, _ in mecs for s in members}

    variables: list[str] = []
    for s in q.members:
        for a in q.enabled(s):
            variables.append(_yv(q, s, a))
        if s in mec_states:
            variables.append(_ys(q, s))
    for s in q.members:
        for a in q.enabled(s):
            variables.append(_xv(q, s, a))

    lp = LinearProgram(variables=variables, nonneg=set(variables))

    flow_y = flow_balance(q.members, q.enabled, q.mt.actions, lambda s, a: _yv(q, s, a))
    for s in q.members:  # transient flow: outflow + switch = source + inflow
        if s in mec_states:
            flow_y[s][_ys(q, s)] = Fraction(1)
        lp.add(flow_y[s], EQ, Fraction(1 if s == init else 0))

    lp.add({_ys(q, s): Fraction(1) for s in sorted(mec_states)}, EQ, 1)

    flow_x = flow_balance(q.members, q.enabled, q.mt.actions, lambda s, a: _xv(q, s, a))
    for s in q.members:  # recurrent flow conservation
        lp.add(flow_x[s], EQ, 0)

    for members, acts in mecs:  # recurrent mass appears where switching happened
        coeffs = {}
        for s in members:
            for a in q.enabled(s):
                coeffs[_xv(q, s, a)] = Fraction(1)
            coeffs[_ys(q, s)] = Fraction(-1)
        lp.add(coeffs, EQ, 0)

    for e in sorted(weights):
        if e not in q.enabled_map:
            continue
        wgt = weights[e]
        coeffs = {}
        for s in q.members:
            w = wgt.get(s)
            if w:
                for a in q.enabled(s):
                    coeffs[_xv(q, s, a)] = w
        lp.add(coeffs, GE, 0)

    lp.objective = {}
    for s in q.members:
        pay = q.mt.payoff(s)
        if pay:
            for a in q.enabled(s):
                lp.objective[_xv(q, s, a)] = Fraction(pay)
    lp.direction = "max"
    return lp


@dataclass(frozen=True)
class ComponentTriple:
    states: tuple[int, ...]
    action_sets: dict[int, tuple[str, ...]]
    scheduler: MrScheduler
    avail: Fraction


def extract_components(q: SubMdp, solution: LpSolution) -> list[ComponentTriple]:
    """Read component triples off the recurrent frequencies of a solution.

    The support of x is a union of bottom SCCs (a stationary measure only
    charges closed recurrent classes); each such SCC yields a triple with the
    frequency-proportional scheduler. That scheduler's chain is irreducible
    on the SCC and x restricted to it is stationary, so the availability is
    sum payoff(s) x_s / sum x_s over the SCC, with x_s = sum_a x[s|a].
    """
    if solution.status != OPTIMAL:
        raise ValueError("need an optimal solution")
    x = {}
    for s in q.members:
        for a in q.enabled(s):
            v = solution.assignment.get(_xv(q, s, a), Fraction(0))
            if v > 0:
                x[(s, a)] = v
    if not x:
        return []
    support_states = sorted({s for s, _ in x})
    pos = {s: k for k, s in enumerate(support_states)}
    succ = [[] for _ in support_states]
    for (s, a) in x:
        for t, p in q.mt.actions[s][a]:
            if p > 0:
                succ[pos[s]].append(pos[t])
    comps = strongly_connected_components(succ)
    triples = []
    for comp in sorted(comps, key=min):
        members = sorted(support_states[v] for v in comp)
        member_set = set(members)
        if any(support_states[w] not in member_set for v in comp for w in succ[v]):
            raise ValueError("x support SCC must be bottom")
        action_sets = {s: tuple(sorted(a for (t, a) in x if t == s)) for s in members}
        mass = {s: sum((x[(s, a)] for a in action_sets[s]), Fraction(0)) for s in members}
        choices = {s: {a: x[(s, a)] / mass[s] for a in action_sets[s]} for s in members}
        payoff = sum((q.mt.payoff(s) * xs for s, xs in mass.items()), Fraction(0))
        triples.append(ComponentTriple(tuple(members), action_sets, MrScheduler(choices),
                                       payoff / sum(mass.values())))
    return triples


def compute_E(mt: TransformedMdp, threshold: Fraction) -> list[ComponentTriple]:
    """Elimination loop producing the full set of usable component triples.

    Solve the availability program on the current sub-MDP; on success keep
    the extracted triples and remove their states, otherwise remove the
    current initial state. Repeat until nothing is left. The result may be
    empty, in which case no resilient scheduler exists.

    One program per step suffices. Let C be a support bottom SCC of the
    optimal x, with mass mu > 0 and availability a, and suppose a resilient
    component C' inside C had a' > a. C is strongly connected, so the y-flow
    that switched into C can go on to C' and switch there; moving mu onto
    the stationary frequencies of C' raises the objective by mu (a' - a) > 0.
    Every weight row stays nonnegative: error e's weights sit only on its
    repair copies, which recur only in the one bottom SCC holding e, so C'
    pays its own rows. That contradicts optimality, so a re-solve confined
    to C's states cannot find a better triple.
    """
    weights = build_weights(mt, threshold)
    q = full_sub_mdp(mt)
    s = mt.initial
    out: list[ComponentTriple] = []
    while not q.empty:
        sol = solve(build_multi_mp_lp(q, s, weights))
        if sol.status == OPTIMAL:
            triples = extract_components(q, sol)
            out.extend(triples)
            q = prune(q, {t for tr in triples for t in tr.states})
        else:
            q = prune(q, {s})
        if not q.empty and s not in q.enabled_map:
            s = q.members[0]
    return out

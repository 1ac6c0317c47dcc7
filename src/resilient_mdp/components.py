"""End components usable by resilient schedulers.

The long-run behavior of any resilient scheduler is confined to end
components whose internal scheduler enters, for every error e, the
operational copies of e at least p times as often as e itself: each visit
to e begins one repair, which succeeds within budget by entering one of
those copies (see ``repair_rows``). Maximizing availability under these
constraints on one maximal end component (MEC) is a linear program over
long-run frequencies, one variable per (state, action) pair of the MEC;
its recurrent frequencies are extracted into component triples (state
set, action sets, memoryless scheduler, availability). The availability is
read off those frequencies, not computed by a chain analysis, so the exact
chain analysis of ``analyze`` stays an independent check of the final
result. A worklist over MECs finds the components the optimum passes over
(see ``compute_E``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .graph import strongly_connected_components
from .lp import EQ, GE, OPTIMAL, LinearProgram, LpSolution, common_denominator, solve
from .sched import MrScheduler
from .transform import TransformedMdp, exact_threshold


def mec_decomposition(mt: TransformedMdp, enabled: dict[int, list[str]]
                      ) -> list[tuple[list[int], dict[int, list[str]]]]:
    """Maximal end components of the sub-MDP ``enabled``, ordered by smallest
    contained state.

    ``enabled`` maps each state of the sub-MDP to its allowed actions; an
    action with a target outside the map leaves the sub-MDP. Standard
    iteration: split into SCCs, disable actions leaving their SCC, drop
    action-less states, repeat until stable. Each state left keeps an action
    with all its targets in its SCC, so a singleton MEC has a self-loop
    (``validate_structure`` refuses the empty distribution that would not).
    """
    enabled = {s: list(acts) for s, acts in enabled.items()}
    while True:
        states = sorted(enabled)
        pos = {s: k for k, s in enumerate(states)}
        succ = [[] for _ in states]
        for s in states:
            for a in enabled[s]:
                for t, _ in mt.actions[s][a]:
                    if t in pos:
                        succ[pos[s]].append(pos[t])
        comps = strongly_connected_components(succ)
        changed = False
        for comp in comps:
            members = {states[v] for v in comp}
            for v in comp:
                s = states[v]
                for a in list(enabled[s]):
                    if any(t not in members for t, _ in mt.actions[s][a]):
                        enabled[s].remove(a)
                        changed = True
        for s in list(enabled):
            if not enabled[s]:
                del enabled[s]
                changed = True
        if not changed:
            break
    mecs = sorted(sorted(states[v] for v in comp) for comp in comps)  # disjoint: by first state
    return [(members, {s: sorted(enabled[s]) for s in members}) for members in mecs]


def flow_balance(states, enabled, actions) -> dict[int, dict[tuple[int, str], Fraction]]:
    """Outflow minus inflow of each state, over action variables (s, a).

    The row of s has +1 per enabled action of s, then -p per transition of
    probability p into s, in the order of ``states``, ``enabled`` and the
    distributions. A target outside ``states`` gets a row of its inflow alone.
    """
    rows = {s: {(s, a): Fraction(1) for a in enabled(s)} for s in states}
    for s in states:
        for a in enabled(s):
            v = (s, a)
            for t, p in actions[s][a]:
                row = rows.setdefault(t, {})
                row[v] = row[v] - p if v in row else -p
    return rows


def repair_rows(mt: TransformedMdp, threshold, enabled
                ) -> list[dict[tuple[int, str], Fraction]]:
    """The repair-success row of each error e, in ``mt.errors()`` order, over
    action variables (s, a): +1 per enabled action of each state of Op_e (the
    operational copies of e), -threshold per enabled action of e. Each visit
    to e begins one repair, which enters Op_e once if it succeeds within
    budget, so a row kept nonnegative by a frequency or visit count states
    the paper's repair-success constraint. ``enabled(s)`` lists the actions
    of s that have variables; the threshold is read by ``exact_threshold``.
    """
    p = exact_threshold(threshold)
    rows = []
    for e in mt.errors():
        row = {(s, a): Fraction(1) for s in mt.op_copies_of(e) for a in enabled(s)}
        row.update({(e, a): -p for a in enabled(e)})  # e is no op copy
        rows.append(row)
    return rows


def build_multi_mp_lp(mt: TransformedMdp, members: list[int], acts: dict[int, list[str]],
                      threshold: Fraction) -> LinearProgram:
    """Program for maximal availability on one MEC under the repair-success
    rows.

    Variable (s, a) is x_{s,a}, the long-run frequency of action a in state
    s of the MEC ``members`` with actions ``acts``. The rows are flow
    conservation per state, total frequency 1 and, per error with e or one
    of Op_e in the MEC, that error's ``repair_rows`` row kept nonnegative.
    """
    variables = [(s, a) for s in members for a in acts[s]]
    lp = LinearProgram(variables=variables)

    flow = flow_balance(members, acts.__getitem__, mt.actions)
    for s in members:
        lp.add(flow[s], EQ, 0)
    lp.add(dict.fromkeys(variables, Fraction(1)), EQ, 1)

    for coeffs in repair_rows(mt, threshold, lambda s: acts.get(s, ())):
        if coeffs:
            lp.add(coeffs, GE, 0)

    lp.objective = {(s, a): Fraction(mt.payoff(s))
                    for s in members if mt.payoff(s) for a in acts[s]}
    return lp


class ComponentTriple(NamedTuple):
    states: tuple[int, ...]
    action_sets: dict[int, tuple[str, ...]]
    scheduler: MrScheduler
    avail: Fraction


def extract_components(mt: TransformedMdp, solution: LpSolution) -> ComponentTriple:
    """Read the component triple off the frequencies x of a vertex solution,
    the positive entries of ``solution.assignment``.

    The support of x is a union of bottom SCCs (a stationary measure only
    charges closed recurrent classes), and at a vertex it is one bottom SCC
    (see ``compute_E``); any other support raises ``ValueError``. The triple
    has the frequency-proportional scheduler, over sorted states and action
    sets, so the order of the assignment does not matter. That scheduler's
    chain is irreducible on the SCC and x is stationary, so the availability
    is sum payoff(s) x_s / sum x_s over the SCC, with x_s = sum_a x_{s,a}.
    """
    if solution.status != OPTIMAL:
        raise ValueError("need an optimal solution")
    x = {v: q for v, q in solution.assignment.items() if q.numerator > 0}
    freq = dict(zip(x, common_denominator(list(x.values()))[0]))  # over one denominator
    members = sorted({s for s, _ in x})
    pos = {s: k for k, s in enumerate(members)}
    succ = [[] for _ in members]
    for (s, a) in x:
        succ[pos[s]].extend(pos.get(t) for t, p in mt.actions[s][a] if p.numerator > 0)
    # One closed SCC: no target without frequency (None), and each state reaches the others.
    if any(None in row for row in succ) or len(strongly_connected_components(succ)) != 1:
        raise ValueError("x support SCC must be bottom")
    action_sets = {s: tuple(sorted(a for (t, a) in x if t == s)) for s in members}
    mass = {s: sum(freq[(s, a)] for a in action_sets[s]) for s in members}
    choices = {s: {a: Fraction(freq[(s, a)], mass[s]) for a in action_sets[s]} for s in members}
    payoff = sum(mt.payoff(s) * ms for s, ms in mass.items())
    return ComponentTriple(tuple(members), action_sets, MrScheduler(choices),
                           Fraction(payoff, sum(mass.values())))


def switch_states(mt: TransformedMdp, states) -> list[int]:
    """The states of a component where a scheduler may settle in it: its
    operational states, or all of its states when none is operational and
    none carries repair memory. Those are entered with no repair underway,
    so settling there (availability 0) is allowed from any of them. A
    component with no switch state is unusable: it has no operational state
    and some state carries repair memory, so settling there would leave a
    repair unfinished forever.
    """
    op = [s for s in states if mt.is_op(s)]
    if not op and all(mt.memory(s) is None for s in states):
        return list(states)
    return op


def compute_E(mt: TransformedMdp, threshold: Fraction) -> list[ComponentTriple]:
    """Worklist over MECs producing the full set of usable component triples.

    Start from the MECs of the whole model. Solve each MEC's program: if it
    is infeasible, drop the MEC; otherwise keep the extracted triple and
    push the MECs of what remains once the triple's states are removed. An
    unusable triple (see ``switch_states``) is never kept: the MEC is solved
    again for the most anchor mass, below. The result is sorted by
    decreasing availability, then by states, so its order does not depend
    on the order of the work. It may be empty, in which case no resilient
    scheduler exists.

    Why one x-only program per MEC suffices:

    - Every end component lies in one MEC, and an end component of a MEC
      that avoids some of its states lies in one MEC of the rest.
    - Error e's row charges only e and Op_e. Leaving a repair copy resets
      the memory, and only e starts it again, so every cycle through an op
      copy of e passes through e: Op_e recurs only in the MEC that holds e.
      The rows therefore split by MEC, and a MEC's program holds every row
      its components pay.
    - The stationary frequencies of a resilient component of a MEC are a
      feasible point of its program. So an infeasible MEC contains no
      resilient component, and dropping all of it loses none.
    - Optimality. Let C be a support bottom SCC of an optimal x, with mass
      mu > 0 and availability a, and suppose a resilient component C' inside
      C had a' > a. By the split above each support SCC pays its own rows,
      and so does C'. Moving C's mass mu onto the stationary frequencies of
      C' keeps flow, total mass and every row, and raises the objective by
      mu (a' - a) > 0. That contradicts optimality, so removing a triple's
      states never loses a better component inside them.
    - One support SCC per vertex. Since each support SCC pays its own rows,
      the frequencies of each, rescaled to mass 1, are feasible, and x is
      their convex combination. The simplex returns a vertex, so its
      support is one bottom SCC, and so is that of any vertex of a face.
    - Usable components. The paper's resilient schedulers settle in end
      components where every repair ends, so a repair that never finishes
      must not count as resilient. An unusable SCC has no operational state,
      so its availability is 0, and it is an optimum only where the MEC's
      optimum is 0, where every feasible point is optimal. Keeping it and
      removing its states could destroy a usable component of availability
      0 that shares them, such as a pending cycle sharing an action with
      one. So the MEC is solved again, now minimizing as secondary objective
      minus the frequency of its anchor states (operational, or with no
      repair memory): the vertex returned has the most anchor mass.
    - A feasible SCC with an anchor state is usable, as the threshold is
      positive. Were it not, it would hold no operational state, an anchor
      state with no memory and a state with memory. Going from the one to
      the other begins a repair at an error e of the SCC, so the SCC holds e
      and none of Op_e, and its own part of e's row is negative.
    - So the second solve returns a usable SCC if the MEC holds a usable
      resilient component: the stationary frequencies of that component lie
      on the optimal face and charge anchor states, so the most anchor mass
      is positive, and the one support SCC of the vertex returned holds an
      anchor state. Otherwise the MEC holds none and is dropped.
    """
    work = mec_decomposition(mt, {s: mt.enabled(s) for s in range(mt.n)})
    out: list[ComponentTriple] = []
    while work:
        members, acts = work.pop()
        lp = build_multi_mp_lp(mt, members, acts, threshold)
        sol = solve(lp)
        if sol.status != OPTIMAL:
            continue
        triple = extract_components(mt, sol)
        if not switch_states(mt, triple.states):
            anchors = {(s, a): Fraction(-1) for s in members
                       if mt.is_op(s) or mt.memory(s) is None for a in acts[s]}
            triple = extract_components(mt, solve(lp, anchors))
            if not switch_states(mt, triple.states):
                continue
        out.append(triple)
        used = set(triple.states)
        work.extend(mec_decomposition(mt, {s: a for s, a in acts.items() if s not in used}))
    out.sort(key=lambda tr: (-tr.avail, tr.states))
    return out

"""Test-only helpers for the paper's identities.

Paths of the base and the transformed model, with projection and lifting
(both preserve cost and payoff); the paper's goal MDP, with one absorbing
reward state per usable component, its flow program, and the expected total
reward under the scheduler a flow solution induces (it equals availability);
and a reference search for usable end components through one global program
per elimination step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from resilient_mdp.analyze import (InducedChain, _solve_restricted, almost_sure_reach,
                                   induce_chain)
from resilient_mdp.components import ComponentTriple, flow_balance, switch_states
from resilient_mdp.graph import strongly_connected_components
from resilient_mdp.lp import EQ, GE, OPTIMAL, LinearProgram, LpSolution, solve
from resilient_mdp.sched import MrScheduler
from resilient_mdp.synth import TAU, _flow_policy
from resilient_mdp.transform import TransformedMdp, build_weights


def chain_rows(c: InducedChain) -> list[dict[int, Fraction]]:
    """P(i, t) of the chain as ``Fraction``s, row i mapping successor t to it."""
    return [{t: Fraction(x, d) for t, x in num.items()} for num, d in zip(c.nums, c.dens)]


def chain_from_rows(states: list[int], rows: list[dict[int, Fraction]],
                    index: dict[int, int]) -> InducedChain:
    """The induced chain whose ``chain_rows`` are the given probability rows."""
    dens = [lcm(*(p.denominator for p in row.values())) for row in rows]
    nums = [{t: p.numerator * (d // p.denominator) for t, p in row.items()}
            for row, d in zip(rows, dens)]
    return InducedChain(states, nums, dens, index)


@dataclass(frozen=True)
class PathRecord:
    """Alternating state/action id sequence: s0 a0 s1 a1 ... sn."""
    steps: tuple[str, ...]

    def states(self) -> list[str]:
        return list(self.steps[0::2])

    def actions(self) -> list[str]:
        return list(self.steps[1::2])


class InvalidPathError(ValueError):
    pass


def _check_path(ids_index, actions, p: PathRecord) -> None:
    if len(p.steps) % 2 == 0 or not p.steps:
        raise InvalidPathError("path must be s0 a0 s1 ... sn")
    for k in range(0, len(p.steps) - 1, 2):
        s, a, t = p.steps[k], p.steps[k + 1], p.steps[k + 2]
        if s not in ids_index or t not in ids_index:
            raise InvalidPathError(f"unknown state in path: {s} or {t}")
        dist = actions[ids_index[s]].get(a)
        if dist is None:
            raise InvalidPathError(f"action {a} not enabled in {s}")
        if not any(j == ids_index[t] and prob > 0 for j, prob in dist):
            raise InvalidPathError(f"no transition {s} -{a}-> {t}")


def path_cost(mt_or_m, p: PathRecord) -> int:
    return sum(mt_or_m.cost(mt_or_m.index[s]) for s in p.states())


def path_payoff(mt_or_m, p: PathRecord) -> int:
    return sum(mt_or_m.payoff(mt_or_m.index[s]) for s in p.states())


def project_path(mt: TransformedMdp, p: PathRecord) -> PathRecord:
    """Replace each repair copy by its base state; the result is a base path."""
    _check_path(mt.index, mt.actions, p)
    m = mt.base
    out = []
    for k, step in enumerate(p.steps):
        if k % 2:
            out.append(step)
        else:
            out.append(m.ids[mt.back[mt.index[step]]])
    projected = PathRecord(tuple(out))
    _check_path(m.index, m.actions, projected)
    return projected


def lift_path(mt: TransformedMdp, p: PathRecord) -> PathRecord:
    """Lift a base path starting in the initial state into the transformed MDP."""
    m = mt.base
    _check_path(m.index, m.actions, p)
    states = p.states()
    if m.index[states[0]] != m.initial:
        raise InvalidPathError("lifted paths must start in the initial state")
    i = mt.initial
    out = [mt.ids[i]]
    for a, nxt in zip(p.actions(), states[1:]):
        i = mt.successor(i, a, m.index[nxt])
        out += [a, mt.ids[i]]
    lifted = PathRecord(tuple(out))
    _check_path(mt.index, mt.actions, lifted)
    return lifted


def expected_total_reward(host, scheduler: MrScheduler, start: int) -> Fraction:
    """Expected accumulated reward before absorption in the goal state.

    ``host`` must expose ``actions``, ``reward`` and ``goal_index``. Raises if
    the goal is not reached almost surely from ``start``.
    """
    chain = induce_chain(host, scheduler, start)
    goal = host.goal_index
    sure = almost_sure_reach(chain, {goal})
    if not sure[start]:
        raise ValueError("goal not reached almost surely; total reward diverges")
    if chain.states[0] == goal:
        return Fraction(0)
    non_goal = [i for i in range(chain.n) if chain.states[i] != goal]
    # Row i of the system is scaled by chain.dens[i], its right-hand side too.
    return _solve_restricted(
        chain, non_goal,
        lambda i: [chain.dens[i] * Fraction(host.reward(chain.states[i]))])[0][0]


@dataclass(frozen=True)
class ReferenceGoalMdp:
    """The paper's goal MDP: the transformed MDP plus one state goal[k] per
    component (reward = its availability) and an absorbing goal state, linked
    by the switch action. Its states below ``mt.n`` are those of ``mt``."""

    mt: TransformedMdp
    comps: list[ComponentTriple]
    ids: tuple[str, ...]
    actions: tuple[dict[str, list[tuple[int, Fraction]]], ...]
    goal_index: int

    @property
    def n(self) -> int:
        return len(self.ids)

    def goal_of(self, k: int) -> int:
        return self.mt.n + k

    def reward(self, i: int) -> Fraction:
        k = i - self.mt.n
        if 0 <= k < len(self.comps):
            return self.comps[k].avail
        return Fraction(0)

    def enabled(self, i: int) -> list[str]:
        return sorted(self.actions[i])


def reference_goal_mdp(mt: TransformedMdp, comps: list[ComponentTriple]) -> ReferenceGoalMdp:
    """Copy every action dict of ``mt`` and add the goal states. The switch
    rule: a component's operational states, or all of its states when none is
    operational and none carries repair memory."""
    ids = list(mt.ids)
    actions: list[dict[str, list[tuple[int, Fraction]]]] = [dict(a) for a in mt.actions]
    for k, comp in enumerate(comps):
        goal_k = len(ids)
        ids.append(f"goal[{mt.ids[comp.states[0]]}]")
        switch_states = [s for s in comp.states if mt.is_op(s)]
        if not switch_states and all(mt.memory(s) is None for s in comp.states):
            switch_states = list(comp.states)
        for s in switch_states:
            actions[s] = dict(actions[s])
            actions[s][TAU] = [(goal_k, Fraction(1))]
        actions.append({})  # filled below once goal exists
    goal = len(ids)
    ids.append("goal")
    for k in range(len(comps)):
        actions[mt.n + k] = {TAU: [(goal, Fraction(1))]}
    actions.append({TAU: [(goal, Fraction(1))]})
    return ReferenceGoalMdp(mt, list(comps), tuple(ids), tuple(actions), goal)


def _goal_var(n: ReferenceGoalMdp, s: int, a: str) -> str:
    return f"y[{n.ids[s]}|{a}]"


def reference_resiliency_lp(n: ReferenceGoalMdp, threshold: Fraction) -> LinearProgram:
    """Expected-action-count flow program of the goal MDP with the
    repair-success rows. The goal state has no variables: its inflow must be
    at least 1. The objective collects each goal[k]'s reward on its one
    action."""
    threshold = Fraction(threshold)
    mt = n.mt
    non_goal = [s for s in range(n.n) if s != n.goal_index]
    lp = LinearProgram(variables=[_goal_var(n, s, a) for s in non_goal for a in n.enabled(s)])
    balance = flow_balance(non_goal, n.enabled, n.actions, lambda s, a: _goal_var(n, s, a))
    for s in non_goal:
        lp.add(balance[s], EQ, Fraction(1 if s == mt.initial else 0))
    lp.add({v: -c for v, c in balance.get(n.goal_index, {}).items()}, GE, 1)
    for e in mt.errors():
        coeffs: dict[str, Fraction] = {}
        for s in mt.op_copies_of(e):
            for a in n.enabled(s):
                coeffs[_goal_var(n, s, a)] = Fraction(1)
        for a in n.enabled(e):
            coeffs[_goal_var(n, e, a)] = coeffs.get(_goal_var(n, e, a), Fraction(0)) - threshold
        lp.add(coeffs, GE, 0)
    lp.objective = {_goal_var(n, n.goal_of(k), TAU): comp.avail
                    for k, comp in enumerate(n.comps) if comp.avail != 0}
    return lp


def goal_mr_scheduler(n: ReferenceGoalMdp, solution: LpSolution) -> MrScheduler:
    """The goal-MDP scheduler induced by a flow solution (for total-reward
    analysis): flow-proportional where visited, uniform elsewhere. The
    solution may be of either goal program: they share the y[s|a] names of
    the transformed states, and a goal state has only τ."""
    return MrScheduler({s: _flow_policy(n.mt, solution.assignment, s, n.enabled(s))
                        if s < n.mt.n else {TAU: Fraction(1)} for s in range(n.n)})


# A sub-MDP below is a map from each of its states to a nonempty tuple of
# enabled actions whose transitions stay inside the map.

def _prune(mt: TransformedMdp, enabled: dict, removed: set) -> dict:
    """Largest sub-MDP of ``enabled`` avoiding ``removed``: deleting a state
    disables every action into it, and a state left without actions is
    deleted in turn, until a fixpoint."""
    alive = {s: set(acts) for s, acts in enabled.items() if s not in removed}
    changed = True
    while changed:
        changed = False
        for s in list(alive):
            for a in list(alive[s]):
                if any(t not in alive for t, _ in mt.actions[s][a]):
                    alive[s].discard(a)
                    changed = True
            if not alive[s]:
                del alive[s]
                changed = True
    return {s: tuple(sorted(alive[s])) for s in sorted(alive)}


def _mecs(mt: TransformedMdp, enabled: dict) -> list[list[int]]:
    """State sets of the maximal end components of a sub-MDP."""
    enabled = {s: list(acts) for s, acts in enabled.items()}
    while True:
        states = sorted(enabled)
        pos = {s: k for k, s in enumerate(states)}
        succ = [[pos[t] for a in enabled[s] for t, _ in mt.actions[s][a] if t in pos]
                for s in states]
        comps = strongly_connected_components(succ)
        changed = False
        for comp in comps:
            members = {states[v] for v in comp}
            for s in members:
                for a in list(enabled[s]):
                    if any(t not in members for t, _ in mt.actions[s][a]):
                        enabled[s].remove(a)
                        changed = True
                if not enabled[s]:
                    del enabled[s]
                    changed = True
        if not changed:
            break
    out = []
    for comp in comps:
        members = sorted(states[v] for v in comp)
        if len(members) > 1 or any(t == members[0] for a in enabled[members[0]]
                                   for t, _ in mt.actions[members[0]][a]):
            out.append(members)
    return sorted(out)


def _global_program(mt: TransformedMdp, enabled: dict, init: int, weights) -> LinearProgram:
    """Availability program of a whole sub-MDP. y[s|a] is the expected
    transient visit mass, y[s] the mass switching to recurrent mode at s
    (only inside a MEC), x[s|a] the long-run frequency. Flow couples y,
    per-MEC matching couples x to the switch mass, and one row per error
    keeps its weight frequency nonnegative."""
    def yv(s, a):
        return f"y[{mt.ids[s]}|{a}]"

    def xv(s, a):
        return f"x[{mt.ids[s]}|{a}]"

    members = sorted(enabled)
    mecs = _mecs(mt, enabled)
    switch = {s for m in mecs for s in m}
    variables = []
    for s in members:
        variables += [yv(s, a) for a in enabled[s]]
        if s in switch:
            variables.append(f"y[{mt.ids[s]}]")
    variables += [xv(s, a) for s in members for a in enabled[s]]
    lp = LinearProgram(variables=variables)
    flow_y = flow_balance(members, enabled.__getitem__, mt.actions, yv)
    for s in members:
        if s in switch:
            flow_y[s][f"y[{mt.ids[s]}]"] = Fraction(1)
        lp.add(flow_y[s], EQ, Fraction(1 if s == init else 0))
    lp.add({f"y[{mt.ids[s]}]": Fraction(1) for s in sorted(switch)}, EQ, 1)
    flow_x = flow_balance(members, enabled.__getitem__, mt.actions, xv)
    for s in members:
        lp.add(flow_x[s], EQ, 0)
    for m in mecs:
        coeffs = {}
        for s in m:
            for a in enabled[s]:
                coeffs[xv(s, a)] = Fraction(1)
            coeffs[f"y[{mt.ids[s]}]"] = Fraction(-1)
        lp.add(coeffs, EQ, 0)
    for e in sorted(weights):
        if e in enabled:
            lp.add({xv(s, a): weights[e][s] for s in members if weights[e].get(s)
                    for a in enabled[s]}, GE, 0)
    lp.objective = {xv(s, a): Fraction(mt.payoff(s))
                    for s in members if mt.payoff(s) for a in enabled[s]}
    return lp


def _support_triples(mt: TransformedMdp, enabled: dict, solution: LpSolution):
    """One triple per SCC of the x-support, with the frequency-proportional
    scheduler and the availability its frequencies give."""
    x = {(s, a): solution.assignment.get(f"x[{mt.ids[s]}|{a}]", Fraction(0))
         for s in sorted(enabled) for a in enabled[s]}
    x = {sa: v for sa, v in x.items() if v > 0}
    support = sorted({s for s, _ in x})
    pos = {s: k for k, s in enumerate(support)}
    succ = [[pos[t] for (u, a) in x if u == s for t, p in mt.actions[s][a] if p > 0]
            for s in support]
    triples = []
    for comp in sorted(strongly_connected_components(succ), key=min):
        members = sorted(support[v] for v in comp)
        action_sets = {s: tuple(sorted(a for (t, a) in x if t == s)) for s in members}
        mass = {s: sum((x[(s, a)] for a in action_sets[s]), Fraction(0)) for s in members}
        choices = {s: {a: x[(s, a)] / mass[s] for a in action_sets[s]} for s in members}
        payoff = sum((mt.payoff(s) * xs for s, xs in mass.items()), Fraction(0))
        triples.append(ComponentTriple(tuple(members), action_sets, MrScheduler(choices),
                                       payoff / sum(mass.values())))
    return triples


def global_compute_E(mt: TransformedMdp, threshold: Fraction) -> list[ComponentTriple]:
    """Reference for ``compute_E``: one global program per elimination step.

    Solve the program of the current sub-MDP from a start state; on success
    keep the extracted triples and remove their states, otherwise remove the
    start state. An unusable triple (no switch state) is never kept: as in
    ``compute_E``, the program is solved again for the most frequency on
    anchor states (operational, or with no repair memory) over its optima,
    and only the usable triples are kept. With none left, no usable
    resilient component is reachable from the start state, which is then
    removed. Repeat until nothing is left. The triples are returned in E's
    documented order, by decreasing availability and then by states, so the
    goal programs built from either E have the same column order.
    """
    weights = build_weights(mt, threshold)
    enabled = {s: tuple(mt.enabled(s)) for s in range(mt.n)}
    s = mt.initial
    out = []
    while enabled:
        program = _global_program(mt, enabled, s, weights)
        sol = solve(program)
        triples = _support_triples(mt, enabled, sol) if sol.status == OPTIMAL else []
        if not all(switch_states(mt, tr.states) for tr in triples):
            anchors = {f"x[{mt.ids[t]}|{a}]": Fraction(-1) for t in enabled
                       if mt.is_op(t) or mt.memory(t) is None for a in enabled[t]}
            triples = [tr for tr in _support_triples(mt, enabled, solve(program, anchors))
                       if switch_states(mt, tr.states)]
        if triples:
            out.extend(triples)
            enabled = _prune(mt, enabled, {t for tr in triples for t in tr.states})
        else:
            enabled = _prune(mt, enabled, {s})
        if enabled and s not in enabled:
            s = min(enabled)
    return sorted(out, key=lambda tr: (-tr.avail, tr.states))

"""Top of the pipeline: optimal resilient scheduler synthesis.

Availability maximization reduces to expected total reward in a goal MDP:
the transformed model is extended with one absorbing reward state per usable
end component, entered by a fresh switch action from the component's
operational states. A flow linear program over expected action counts, with
one extra inequality per error bounding the repair-success frequency from
below, yields the optimal switch probabilities; its solution is decomposed
into a memoryless transient scheduler plus the per-component schedulers, and
rendered as a finite-memory scheduler of the original model whose memory is
the current transformed state; on the base model it reads as the pair
(current error, repair cost so far), "pending" or nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import analyze
from .components import ComponentTriple, compute_E, flow_balance
from .lp import EQ, GE, INFEASIBLE, OPTIMAL, LinearProgram, LpSolution, solve_lexicographic
from .model import TAU, MdpWithRepair, validate_repair_assumption, validate_structure
from .sched import MrScheduler
from .transform import TransformedMdp, transform


class InvalidModelError(ValueError):
    def __init__(self, report):
        super().__init__(report.render())
        self.report = report


class VerificationFailedError(AssertionError):
    """The synthesized scheduler failed its mandatory exact re-verification."""


@dataclass(frozen=True)
class GoalMdp:
    """Transformed MDP plus goal_E states (reward = component availability)
    and an absorbing goal state, linked by the switch action."""

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


def build_goal_mdp(mt: TransformedMdp, comps: list[ComponentTriple]) -> GoalMdp:
    for i in range(mt.n):
        if TAU in mt.actions[i]:
            raise ValueError(f"action id {TAU!r} is reserved")
    ids = list(mt.ids)
    actions: list[dict[str, list[tuple[int, Fraction]]]] = [dict(a) for a in mt.actions]
    for k, comp in enumerate(comps):
        goal_k = len(ids)
        ids.append(f"goal[{mt.ids[comp.states[0]]}]")
        switch_states = [s for s in comp.states if mt.is_op(s)]
        if not switch_states and all(mt.memory(s) is None for s in comp.states):
            # Repair-only component of plain base states: those are entered
            # with no repair underway, so settling there (availability 0) is
            # allowed from any of them. Components of repair copies or
            # pending copies never get the switch action; stopping there
            # would leave a repair unfinished forever.
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
    return GoalMdp(mt, list(comps), tuple(ids), tuple(actions), goal)


def _var(n: GoalMdp, s: int, a: str) -> str:
    return f"y[{n.ids[s]}|{a}]"


def build_resiliency_lp(n: GoalMdp, threshold: Fraction) -> LinearProgram:
    """Expected-action-count flow program with the repair-success constraint.

    The goal state has no variables: its expected visit count is infinite, so
    its inflow stands in for it and must be at least 1 (by flow conservation
    it is exactly 1, the full probability mass).
    """
    threshold = Fraction(threshold)
    mt = n.mt
    non_goal = [s for s in range(n.n) if s != n.goal_index]
    variables = [_var(n, s, a) for s in non_goal for a in n.enabled(s)]
    lp = LinearProgram(variables=variables)

    balance = flow_balance(non_goal, n.enabled, n.actions, lambda s, a: _var(n, s, a))
    for s in non_goal:
        lp.add(balance[s], EQ, Fraction(1 if s == mt.initial else 0))
    # With no usable component nothing flows into goal: the row reads 0 >= 1.
    lp.add({v: -c for v, c in balance.get(n.goal_index, {}).items()}, GE, 1)

    for e in mt.errors():
        coeffs: dict[str, Fraction] = {}
        for s in mt.op_copies_of(e):
            for a in n.enabled(s):
                coeffs[_var(n, s, a)] = Fraction(1)
        for a in n.enabled(e):
            coeffs[_var(n, e, a)] = coeffs.get(_var(n, e, a), Fraction(0)) - threshold
        lp.add(coeffs, GE, 0)

    lp.objective = {_var(n, n.goal_of(k), TAU): comp.avail
                    for k, comp in enumerate(n.comps) if comp.avail != 0}
    return lp


class FiniteMemoryScheduler:
    """Finite-memory rendering on the original model.

    The memory is the current transformed state, so the cost-tracking rules
    stay in the transformation: the update is the successor ``transform``
    computed, the decision that of the memoryless transformed-MDP scheduler
    there. ``mt.memory`` reads it as (error, cost so far), "pending" or None.
    """

    def __init__(self, mt: TransformedMdp, mr: MrScheduler):
        self.mt = mt
        self.mr = mr
        self.initial_memory = mt.initial

    def decide(self, s: int, mem: int) -> dict[str, Fraction]:
        if mem not in self.mr.choices:
            raise analyze.SchedulerDomainError(f"no decision for state {self.mt.ids[mem]}")
        return self.mr.dist(mem)

    def update(self, s: int, mem: int, act: str, nxt: int) -> int:
        return self.mt.successor(mem, act, nxt)

    def memory_values(self) -> list:
        """The distinct memory labels of the transformed states other than
        None: the (error, cost) pairs in order, then "pending" if reachable."""
        labels = {self.mt.memory(i) for i in range(self.mt.n)} - {None}
        return sorted(labels, key=lambda v: (isinstance(v, str), v))


@dataclass
class ComposedScheduler:
    """Transient scheduler on F plus the adopted component schedulers.

    Memoryless on the transformed MDP: the component scheduler takes over on
    first entry into its state set and is never left.
    """

    mt: TransformedMdp
    transient: MrScheduler
    components: list[ComponentTriple]

    def as_mr(self) -> MrScheduler:
        choices = dict(self.transient.choices)
        for comp in self.components:
            for s in comp.states:
                choices[s] = dict(comp.scheduler.dist(s))
        return MrScheduler(choices)

    def render(self) -> FiniteMemoryScheduler:
        return FiniteMemoryScheduler(self.mt, self.as_mr())


def extract_scheduler(n: GoalMdp, solution: LpSolution) -> ComposedScheduler:
    """Decompose an optimal flow into transient and component parts."""
    if solution.status != OPTIMAL:
        raise ValueError("need an optimal solution")
    mt = n.mt
    y = solution.assignment
    selected = [comp for k, comp in enumerate(n.comps)
                if y[_var(n, n.goal_of(k), TAU)] > 0]
    in_component = {s for comp in selected for s in comp.states}

    choices: dict[int, dict[str, Fraction]] = {}
    for s in range(mt.n):
        if s in in_component:
            continue
        if TAU in n.actions[s] and y[_var(n, s, TAU)] != 0:
            raise VerificationFailedError(
                f"switch mass at {mt.ids[s]} outside selected components")
        choices[s] = _flow_policy(n, y, s, mt.enabled(s))
    return ComposedScheduler(mt, MrScheduler(choices), selected)


def _flow_policy(n: GoalMdp, y: dict[str, Fraction], s: int,
                 acts: list[str]) -> dict[str, Fraction]:
    """Flow-proportional over ``acts`` where s has positive flow, uniform otherwise."""
    mass = {a: y[_var(n, s, a)] for a in acts}
    total = sum(mass.values(), Fraction(0))
    if total > 0:
        return {a: v / total for a, v in mass.items()}
    return {a: Fraction(1, len(acts)) for a in acts}


@dataclass
class SynthesisResult:
    feasible: bool
    scheduler: ComposedScheduler | None = None
    availability: Fraction | None = None
    report: analyze.VerificationReport | None = None
    goal_mdp: GoalMdp | None = None
    lp: LinearProgram | None = None
    solution: LpSolution | None = None
    components: list[ComponentTriple] | None = None


def synthesize(m: MdpWithRepair, threshold: Fraction, cost_bound: int) -> SynthesisResult:
    """Decide existence of a resilient scheduler and build an optimal one.

    Pipeline: validate, transform, compute usable end components, build and
    solve the resiliency flow program (with a secondary minimization of total
    flow, which strips value-free circulations), extract and compose the
    scheduler, then re-verify everything exactly. A verification mismatch is
    raised, never papered over.
    """
    threshold = Fraction(threshold)
    if not 0 < threshold <= 1:
        raise ValueError("threshold must be in (0, 1]")
    for report in (validate_structure(m), validate_repair_assumption(m)):
        if not report.ok:
            raise InvalidModelError(report)

    mt = transform(m, cost_bound)
    comps = compute_E(mt, threshold)
    n = build_goal_mdp(mt, comps)
    lp = build_resiliency_lp(n, threshold)
    solution = solve_lexicographic(lp, dict.fromkeys(lp.variables, Fraction(1)))
    if solution.status == INFEASIBLE:
        return SynthesisResult(False, goal_mdp=n, lp=lp, solution=solution,
                               components=comps)
    if solution.status != OPTIMAL:
        raise VerificationFailedError(f"unexpected LP status {solution.status}")

    scheduler = extract_scheduler(n, solution)
    report = analyze.verify_resilient(mt, scheduler.as_mr(), threshold)
    if not report.ok:
        raise VerificationFailedError("synthesized scheduler failed verification:\n"
                                      + report.render(mt, threshold))
    if report.availability != solution.objective_value:
        raise VerificationFailedError(
            f"availability mismatch: chain {report.availability}, "
            f"program {solution.objective_value}")
    return SynthesisResult(True, scheduler, report.availability, report,
                           n, lp, solution, comps)

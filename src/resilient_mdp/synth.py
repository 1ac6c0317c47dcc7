"""Top of the pipeline: optimal resilient scheduler synthesis.

Availability maximization reduces to expected total reward in a goal MDP.
That MDP needs no absorbing reward state per component: it is the
transformed model plus a switch action τ at the switch states of each usable
end component, and τ settles in that component, earning its availability
once (``components.switch_states`` states the switch rule). A flow linear
program over expected action counts, with one extra inequality per error
bounding the repair-success frequency from below, yields the optimal switch
probabilities; its solution is decomposed into a memoryless transient
scheduler plus the per-component schedulers, and rendered as a
finite-memory scheduler of the original model whose memory is the current
transformed state; on the base model it reads as the pair (current error,
repair cost so far), "pending" or nothing.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import analyze
from .components import ComponentTriple, compute_E, flow_balance, switch_states
from .lp import (EQ, GE, INFEASIBLE, OPTIMAL, LinearProgram, LpSolution, common_denominator,
                 solve_lexicographic)
from .model import TAU, MdpWithRepair, validate_repair_assumption, validate_structure
from .sched import MrScheduler
from .transform import TransformedMdp, transform


class InvalidModelError(ValueError):
    def __init__(self, report):
        super().__init__(report.render())
        self.report = report


class VerificationFailedError(AssertionError):
    """The synthesized scheduler failed its mandatory exact re-verification."""


class GoalMdp(NamedTuple):
    """The transformed MDP plus the switch action: at a switch state s, τ
    settles in the component ``comps[switch[s]]`` and collects its
    availability as a one-time reward."""

    mt: TransformedMdp
    comps: list[ComponentTriple]
    switch: dict[int, int]  # switch state -> component index

    def enabled(self, s: int) -> list[str]:
        acts = self.mt.enabled(s)
        return sorted(acts + [TAU]) if s in self.switch else acts


def build_goal_mdp(mt: TransformedMdp, comps: list[ComponentTriple]) -> GoalMdp:
    for i in range(mt.n):
        if TAU in mt.actions[i]:
            raise ValueError(f"action id {TAU!r} is reserved")
    switch: dict[int, int] = {}
    for k, comp in enumerate(comps):
        switch.update(dict.fromkeys(switch_states(mt, comp.states), k))
    return GoalMdp(mt, list(comps), switch)


def _var(mt: TransformedMdp, s: int, a: str) -> str:
    return f"y[{mt.ids[s]}|{a}]"


def build_resiliency_lp(n: GoalMdp, threshold: Fraction) -> LinearProgram:
    """Expected-action-count flow program with the repair-success constraint.

    y[s|τ] is the probability of settling at s in its component. Every run
    must settle, so the switch mass is at least 1 (by flow conservation it
    is exactly 1, the full probability mass).
    """
    threshold = Fraction(threshold)
    mt = n.mt
    states = range(mt.n)
    lp = LinearProgram(variables=[_var(mt, s, a) for s in states for a in n.enabled(s)])

    balance = flow_balance(states, mt.enabled, mt.actions, lambda s, a: _var(mt, s, a))
    for s in states:
        if s in n.switch:
            balance[s][_var(mt, s, TAU)] = Fraction(1)
        lp.add(balance[s], EQ, Fraction(1 if s == mt.initial else 0))
    # With no usable component there is no switch: the row reads 0 >= 1.
    lp.add({_var(mt, s, TAU): Fraction(1) for s in n.switch}, GE, 1)

    for e in mt.errors():
        coeffs: dict[str, Fraction] = {}
        for s in mt.op_copies_of(e):
            for a in n.enabled(s):
                coeffs[_var(mt, s, a)] = Fraction(1)
        for a in n.enabled(e):
            v = _var(mt, e, a)
            coeffs[v] = coeffs[v] - threshold if v in coeffs else -threshold
        lp.add(coeffs, GE, 0)

    lp.objective = {_var(mt, s, TAU): n.comps[k].avail
                    for s, k in n.switch.items() if n.comps[k].avail != 0}
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


class ComposedScheduler(NamedTuple):
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
    """Decompose an optimal flow into transient and component parts: the
    components are those with switch flow, the transient scheduler is
    flow-proportional on the other states."""
    if solution.status != OPTIMAL:
        raise ValueError("need an optimal solution")
    mt = n.mt
    y = solution.assignment
    selected = sorted({k for s, k in n.switch.items() if y[_var(mt, s, TAU)].numerator > 0})
    components = [n.comps[k] for k in selected]
    in_component = {s for comp in components for s in comp.states}
    choices = {s: _flow_policy(mt, y, s, mt.enabled(s))
               for s in range(mt.n) if s not in in_component}
    return ComposedScheduler(mt, MrScheduler(choices), components)


def _flow_policy(mt: TransformedMdp, y: dict[str, Fraction], s: int,
                 acts: list[str]) -> dict[str, Fraction]:
    """Flow-proportional over ``acts`` where s has positive flow, uniform otherwise."""
    mass, _ = common_denominator([y[_var(mt, s, a)] for a in acts])
    total = sum(mass)
    if total > 0:
        return {a: Fraction(v, total) for a, v in zip(acts, mass)}
    return {a: Fraction(1, len(acts)) for a in acts}


class SynthesisResult(NamedTuple):
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

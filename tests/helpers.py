"""Test-only helpers for the paper's identities.

Paths of the base and the transformed model, with projection and lifting
(both preserve cost and payoff), and the expected total reward of the goal
MDP under the scheduler a flow solution induces (it equals availability).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from resilient_mdp.analyze import _solve_restricted, almost_sure_reach, induce_chain
from resilient_mdp.lp import LpSolution
from resilient_mdp.sched import MrScheduler
from resilient_mdp.synth import TAU, GoalMdp, _flow_policy
from resilient_mdp.transform import TransformedMdp


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
    return _solve_restricted(chain, non_goal,
                             lambda i: [Fraction(host.reward(chain.states[i]))])[0][0]


def goal_mr_scheduler(n: GoalMdp, solution: LpSolution) -> MrScheduler:
    """The goal-MDP scheduler induced by a flow solution (for total-reward
    analysis): flow-proportional where visited, uniform elsewhere."""
    return MrScheduler({s: {TAU: Fraction(1)} if s == n.goal_index
                        else _flow_policy(n, solution.assignment, s, n.enabled(s))
                        for s in range(n.n)})

import random
from fractions import Fraction

import pytest

from resilient_mdp import (build_goal_mdp, build_resiliency_lp, compute_E,
                           make_mdp, synthesize, transform, verify_resilient)
from resilient_mdp.analyze import (brute_force_optimum, expected_total_reward,
                                   induce_chain)
from resilient_mdp.lp import EQ, INFEASIBLE, OPTIMAL, solve
from resilient_mdp.synth import (TAU, InvalidModelError, extract_scheduler,
                                 goal_mr_scheduler, solve_lexicographic)

from conftest import random_model


def _pipeline(m, threshold, bound):
    mt = transform(m, bound)
    comps = compute_E(mt, threshold)
    n = build_goal_mdp(mt, comps)
    lp = build_resiliency_lp(n, threshold)
    return mt, comps, n, lp


def test_goal_mdp_fig1_shape(fig1):
    mt, comps, n, _ = _pipeline(fig1, Fraction(4, 5), 2)
    assert len(comps) == 2
    assert n.n == 15  # 12 annotated states + two goal_E + goal
    tau_states = sorted(n.ids[i] for i in range(n.n) if TAU in n.actions[i])
    assert tau_states == ["goal", "goal[op1]", "goal[op2]", "op1", "op2"]
    by_name = {n.ids[n.goal_of(k)]: comps[k].avail for k in range(len(comps))}
    assert {n.reward(n.goal_of(k)) for k in range(len(comps))} == set(by_name.values())
    assert n.reward(n.goal_index) == 0 and n.reward(mt.initial) == 0


def test_goal_mdp_without_components(fig1):
    mt = transform(fig1, 2)
    n = build_goal_mdp(mt, [])
    assert n.n == mt.n + 1
    assert n.actions[n.goal_index] == {TAU: [(n.goal_index, Fraction(1))]}


def test_goal_mdp_tau_on_operational_copies():
    # A model whose usable component must include annotated repair copies:
    # the op-copy inside the component gets the switch action too.
    m = make_mdp(
        [("o", "op", 1), ("e", "err", 0), ("r", "rep", 0)],
        [("o", "a", [("e", 1)]), ("e", "a", [("r", 1)]),
         ("r", "a", [("o", 1)])],
        "o")
    mt, comps, n, lp = _pipeline(m, Fraction(1), 1)
    assert len(comps) == 1
    names = sorted(mt.ids[s] for s in comps[0].states)
    assert "e#o#0" in names
    op_copy = mt.index["e#o#0"]
    assert TAU in n.actions[op_copy]


def test_resiliency_lp_goldens(fig1):
    _, _, _, lp = _pipeline(fig1, Fraction(4, 5), 2)
    assert solve(lp).objective_value == Fraction(9, 10)
    _, _, _, lp1 = _pipeline(fig1, Fraction(1), 2)
    assert solve(lp1).objective_value == Fraction(1, 2)
    _, _, _, lp0 = _pipeline(fig1, Fraction(1, 2), 0)
    assert solve(lp0).status == INFEASIBLE


def test_flow_conservation_and_goal_inflow(fig1):
    mt, comps, n, lp = _pipeline(fig1, Fraction(4, 5), 2)
    sol = solve_lexicographic(lp, {v: Fraction(1) for v in lp.variables}, "min")
    assert sol.status == OPTIMAL
    # Inflow into goal is exactly 1: full probability mass is absorbed.
    inflow = sum((sol.assignment[f"y[{n.ids[n.goal_of(k)]}|{TAU}]"]
                  for k in range(len(comps))), Fraction(0))
    assert inflow == 1
    for c in lp.constraints:
        if c.relation == EQ:
            lhs = sum((q * sol.assignment[v] for v, q in c.coeffs.items()),
                      Fraction(0))
            assert lhs == c.rhs


def test_extracted_scheduler_fig1(fig1):
    result = synthesize(fig1, Fraction(4, 5), 2)
    mt = result.scheduler.mt
    mr = result.scheduler.as_mr()
    assert mr.dist(mt.index["error#rep#1"])["β"] == Fraction(4, 5)
    assert mr.dist(mt.index["error#rep#1"])["α"] == Fraction(1, 5)
    assert mr.dist(mt.index["error#rep#0"])["β"] == 1
    assert result.availability == Fraction(9, 10)
    assert result.report.ok


def test_synthesize_goldens(fig1):
    assert synthesize(fig1, Fraction(3, 4), 2).availability == 1
    assert synthesize(fig1, Fraction(1), 2).availability == Fraction(1, 2)
    assert not synthesize(fig1, Fraction(1, 2), 0).feasible


def test_synthesize_value_identity(fig1):
    # Stationary availability, LP objective, and expected total reward in the
    # goal model agree exactly, computed by three independent routes.
    result = synthesize(fig1, Fraction(4, 5), 2)
    n = result.goal_mdp
    tr = expected_total_reward(n, goal_mr_scheduler(n, result.solution),
                               n.mt.initial)
    assert result.availability == result.solution.objective_value == tr


def test_same_value_from_every_component_state():
    rng = random.Random(47)
    done = 0
    while done < 20:
        m = random_model(rng)
        bound = rng.randint(0, 3)
        mt = transform(m, bound)
        if mt.n > 16:
            continue
        result = synthesize(m, Fraction(1, 2), bound)
        if not result.feasible:
            continue
        n = result.goal_mdp
        rn = goal_mr_scheduler(n, result.solution)
        chain = induce_chain(n, rn, n.mt.initial)
        for comp in result.scheduler.components:
            goal_k = next(n.goal_of(k) for k, c in enumerate(n.comps)
                          if c is comp)
            for s in comp.states:
                if s in chain.index:
                    assert expected_total_reward(n, rn, s) == n.reward(goal_k)
        done += 1


def test_unreachable_transient_states_defaulted(fig1):
    result = synthesize(fig1, Fraction(4, 5), 2)
    mt = result.scheduler.mt
    chain = induce_chain(mt, result.scheduler.as_mr(), mt.initial)
    y = result.solution.assignment
    n = result.goal_mdp
    comp_states = {s for c in result.scheduler.components for s in c.states}
    for s in range(mt.n):
        if s in comp_states:
            continue
        mass = sum((y[f"y[{mt.ids[s]}|{a}]"] for a in mt.enabled(s)), Fraction(0))
        if mass == 0:
            assert s not in chain.index  # uniform default is never exercised


def test_rendered_memory_matches_annotated_walk(fig1):
    result = synthesize(fig1, Fraction(4, 5), 2)
    fm = result.scheduler.render()
    mt = result.scheduler.mt
    m = fig1
    # (error, cost) pairs plus at most the single pending marker.
    assert len(fm.memory_values()) <= sum(
        1 for k in m.kinds if k == "err") * (mt.cost_bound + 1) + 1
    rng = random.Random(3)
    for _ in range(200):
        state_t = mt.initial
        s = mt.back[mt.initial]
        mem = fm.initial_memory
        for _ in range(15):
            assert fm.state_for(s, mem) == state_t
            acts = mt.enabled(state_t)
            a = rng.choice(acts)
            succ_t = rng.choice([t for t, p in mt.actions[state_t][a] if p > 0])
            nxt = mt.back[succ_t]
            mem = fm.update(s, mem, a, nxt)
            s, state_t = nxt, succ_t


def test_parking_in_clean_repair_component_is_feasible():
    # The only way to avoid the hopeless error is to settle in the repair
    # state forever; entered directly it carries no unfinished repair, so a
    # resilient scheduler with availability 0 exists.
    m = make_mdp(
        [("o0", "op", 1), ("e", "err", 0), ("r", "rep", 1)],
        [("o0", "a", [("e", 1)]), ("o0", "b", [("r", 1)]),
         ("e", "a", [("r", 1)]), ("r", "a", [("r", 1)])],
        "o0")
    result = synthesize(m, Fraction(1), 0)
    assert result.feasible
    assert result.availability == 0
    assert result.report.ok
    mt = result.scheduler.mt
    assert result.scheduler.as_mr().dist(mt.initial)["b"] == 1
    from resilient_mdp import brute_force_optimum
    assert brute_force_optimum(mt, Fraction(1)).best_availability == 0


def test_parking_with_pending_repair_is_rejected():
    # Same trap but the error is unavoidable: the repair never completes, so
    # settling in the pending copy must not count as resilient.
    m = make_mdp(
        [("o0", "op", 1), ("e", "err", 0), ("r", "rep", 1)],
        [("o0", "a", [("e", 1)]), ("e", "a", [("r", 1)]), ("r", "a", [("r", 1)])],
        "o0")
    result = synthesize(m, Fraction(1, 2), 0)
    assert not result.feasible
    assert result.solution.status == INFEASIBLE
    mt = transform(m, 0)
    from resilient_mdp import brute_force_optimum
    assert brute_force_optimum(mt, Fraction(1, 2)).best_availability is None


def test_invalid_model_rejected():
    m = make_mdp([("s", "op", 0), ("t", "op", 0)],
                 [("s", "a", [("t", 1)])], "s")
    with pytest.raises(InvalidModelError):
        synthesize(m, Fraction(1, 2), 1)


def test_threshold_domain_checked(fig1):
    with pytest.raises(ValueError, match="threshold"):
        synthesize(fig1, Fraction(0), 1)
    with pytest.raises(ValueError, match="threshold"):
        synthesize(fig1, Fraction(3, 2), 1)


def test_extract_requires_optimal(fig1):
    mt, comps, n, lp = _pipeline(fig1, Fraction(1, 2), 0)
    sol = solve(lp)
    with pytest.raises(ValueError):
        extract_scheduler(n, sol, Fraction(1, 2))


def test_synthesized_schedulers_verify_on_random_models():
    rng = random.Random(53)
    done = 0
    while done < 30:
        m = random_model(rng)
        bound = rng.randint(0, 3)
        for threshold in (Fraction(1, 2), Fraction(1)):
            result = synthesize(m, threshold, bound)
            if result.feasible:
                mt = result.scheduler.mt
                report = verify_resilient(mt, result.scheduler.as_mr(), threshold)
                assert report.ok
                assert report.availability == result.availability
        done += 1


@pytest.mark.xfail(strict=True, reason="compute_E keeps only the zero-availability "
                   "a1 self-loop at e0#r0#0 and prunes the repair cycle o0 -> e0 -> r0")
def test_zero_availability_repair_cycle_is_found():
    # Benchmark small-batch seed 12, job 87. Always playing a0 repairs with
    # probability 1 at zero cost, so a resilient scheduler exists; its
    # availability is 0 because every reward is 0.
    m = make_mdp([("o0", "op", 0), ("e0", "err", 0), ("r0", "rep", 0)],
                 [("o0", "a0", [("e0", 1)]),
                  ("e0", "a0", [("r0", 1)]),
                  ("r0", "a0", [("o0", Fraction(1, 4)), ("r0", Fraction(3, 4))]),
                  ("r0", "a1", [("r0", 1)])],
                 "o0")
    oracle = brute_force_optimum(transform(m, 1), Fraction(3, 4))
    assert oracle.best_availability == 0
    result = synthesize(m, Fraction(3, 4), 1)
    assert result.feasible
    assert result.availability == oracle.best_availability

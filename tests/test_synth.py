import hashlib
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resilient_mdp import (MrScheduler, build_goal_mdp, build_resiliency_lp, compute_E, make_mdp,
                           synthesize, transform, validate_repair_assumption, validate_structure,
                           verify_resilient)
from resilient_mdp.analyze import brute_force_optimum, induce_chain, simulate
from resilient_mdp.components import build_multi_mp_lp, mec_decomposition
from resilient_mdp.lp import EQ, INFEASIBLE, OPTIMAL, solve
from resilient_mdp.synth import (TAU, FiniteMemoryScheduler, InvalidModelError,
                                 extract_scheduler, solve_lexicographic)

from conftest import _PROB_SPLITS, fig1_model, random_model
from helpers import (expected_total_reward, goal_mr_scheduler, lift_path, reference_goal_mdp,
                     reference_resiliency_lp)
from test_components import _SPLITS, _THRESHOLDS
from test_docs_cli import chain_model
from test_transform import _random_base_path


def _pipeline(m, threshold, bound):
    mt = transform(m, bound)
    comps = compute_E(mt, threshold)
    n = build_goal_mdp(mt, comps)
    lp = build_resiliency_lp(n, threshold)
    return mt, comps, n, lp


def test_build_goal_mdp_refuses_the_reserved_action():
    # Validation refuses τ first, so the pipeline never reaches this check.
    m = make_mdp([("s", "op", 1)], [("s", TAU, [("s", 1)])], "s")
    assert [v.rule for v in validate_structure(m).violations] == ["bad-id"]
    with pytest.raises(ValueError, match=f"action id {TAU!r} is reserved"):
        build_goal_mdp(transform(m, 0), [])


def test_goal_mdp_fig1_shape(fig1):
    mt, comps, n, lp = _pipeline(fig1, Fraction(4, 5), 2)
    assert len(comps) == 2
    assert sorted(mt.ids[s] for s in n.switch) == ["op1", "op2"]
    for s, k in n.switch.items():
        assert s in comps[k].states
        assert n.enabled(s) == sorted(mt.enabled(s) + [TAU])
    assert all(n.enabled(s) == mt.enabled(s) for s in range(mt.n) if s not in n.switch)
    # One column per transformed state and enabled action, τ included; one
    # flow row per transformed state, the goal row and one row per error.
    assert len(lp.variables) == sum(len(n.enabled(s)) for s in range(mt.n))
    assert len(lp.constraints) == mt.n + 1 + len(mt.errors())
    # Switching at op2 earns its component's availability 1; op1's is 0.
    assert lp.objective == {(mt.index["op2"], TAU): 1}
    assert {mt.ids[s]: comps[k].avail for s, k in n.switch.items()} == {"op1": 0, "op2": 1}


def test_goal_mdp_without_components(fig1):
    mt = transform(fig1, 2)
    n = build_goal_mdp(mt, [])
    assert n.switch == {}
    assert all(n.enabled(s) == mt.enabled(s) for s in range(mt.n))
    assert solve(build_resiliency_lp(n, Fraction(4, 5))).status == INFEASIBLE


def _repair_cycle():
    """o -> e -> r -> o: the only component holds the repair copies."""
    return make_mdp([("o", "op", 1), ("e", "err", 0), ("r", "rep", 0)],
                    [("o", "a", [("e", 1)]), ("e", "a", [("r", 1)]), ("r", "a", [("o", 1)])],
                    "o")


def op_copy_cycle_model(rng: random.Random):
    """``_repair_cycle`` with random sizes and probabilities: a path of op
    states to ``o``, which always meets the error ``e``, and a chain of
    repair states back to ``o``, each of which may gamble on the rest of the
    chain by looping on itself. Repaired within budget, ``o`` is entered as
    an op copy, so a component of ``e`` and its copies switches only there."""
    path = [f"p{k}" for k in range(rng.randint(0, 2))] + ["o"]
    chain = [f"r{k}" for k in range(rng.randint(1, 3))]
    states = [(s, "op", rng.randint(0, 3)) for s in path]
    states += [("e", "err", rng.randint(0, 1))] + [(r, "rep", rng.randint(0, 2)) for r in chain]
    transitions = [(s, "a", [(t, 1)]) for s, t in zip(path, path[1:] + ["e"])]
    transitions.append(("e", "a", [(chain[0], 1)]))
    for r, t in zip(chain, chain[1:] + ["o"]):
        transitions.append((r, "a", [(t, 1)]))
        if rng.random() < 0.5:
            p, q = rng.choice(_SPLITS)
            transitions.append((r, "gamble", [(t, p), (r, q)]))
    return make_mdp(states, transitions, path[0])


def test_goal_mdp_tau_on_operational_copies():
    # A model whose usable component must include annotated repair copies:
    # the op-copy inside the component gets the switch action too.
    mt, comps, n, lp = _pipeline(_repair_cycle(), Fraction(1), 1)
    assert len(comps) == 1
    names = sorted(mt.ids[s] for s in comps[0].states)
    assert "e#o#0" in names
    op_copy = mt.index["e#o#0"]
    assert n.switch[op_copy] == 0
    assert TAU in n.enabled(op_copy)


def test_resiliency_lp_goldens(fig1):
    _, _, _, lp = _pipeline(fig1, Fraction(4, 5), 2)
    assert solve(lp).objective_value == Fraction(9, 10)
    _, _, _, lp1 = _pipeline(fig1, Fraction(1), 2)
    assert solve(lp1).objective_value == Fraction(1, 2)
    _, _, _, lp0 = _pipeline(fig1, Fraction(1, 2), 0)
    assert solve(lp0).status == INFEASIBLE


def _lp_digest(lp, name) -> str:
    """sha256 of a program, each variable rendered as ``name(variable)``, up
    to the order of terms within a row."""
    names = [name(v) for v in lp.variables]

    def terms(coeffs):
        return sorted((name(v), q) for v, q in coeffs.items())
    rendering = (names, [(terms(c.coeffs), c.relation, c.rhs) for c in lp.constraints],
                 terms(lp.objective), "max", sorted(names))
    return hashlib.sha256(repr(rendering).encode()).hexdigest()


# Variable order, row order, coefficients and relations all feed Bland's
# rule, so every scheduler document depends on them. ``multi_mp`` digests the
# availability programs of the model's MECs in order. "fig1-none" is the
# resiliency program with no usable component, whose goal row has no inflow
# and must still read 0 >= 1. The digests render the (s, a) keys as the
# names x[id|a] and y[id|a], so they are those of the string-named programs.
@pytest.mark.parametrize("model, threshold, bound, multi_mp, resiliency", [
    (fig1_model(), Fraction(4, 5), 2,
     "3754c5527da3f9a8de77fef165fa396a44e34a0dc14a8944dceaa065aa4af36b",
     "473b4c51d4e544b7d4560825583c26cdc791f2dddc3853c933d0303f0fe0fc4d"),
    (chain_model(1, 3), Fraction(4, 5), 3,
     "d5e65a10a50245acf38a1d254d875ac186325bb8b182dffeb1313e610c7bbd4a",
     "99f000fffa11d19b9417dfc3587d24ee10d928de54fbcacfdf1efbc937c47a85"),
    (chain_model(2, 3), Fraction(4, 5), 3,
     "95c3f47b6b63afb51c2e636eb95b04f74877f150f772df836fdf2b3a3c8f42e0",
     "2e83ceb636af3c59c30d9969bb50c8674efafe5716eb4cc683053d6ebfcfe5ec"),
    (fig1_model(), Fraction(4, 5), 2, None,
     "b346a8e0c0f6a0360eccab93c8e6b0268a7eb036654b83884538f7509cab7743"),
], ids=["fig1", "chain-1-3-3", "chain-2-3-3", "fig1-none"])
def test_lp_golden_hashes(model, threshold, bound, multi_mp, resiliency):
    mt = transform(model, bound)
    if multi_mp is None:
        comps = []
    else:
        mecs = mec_decomposition(mt, {s: mt.enabled(s) for s in range(mt.n)})
        digests = [_lp_digest(build_multi_mp_lp(mt, members, acts, threshold),
                              lambda v: f"x[{mt.ids[v[0]]}|{v[1]}]")
                   for members, acts in mecs]
        assert hashlib.sha256(" ".join(digests).encode()).hexdigest() == multi_mp
        comps = compute_E(mt, threshold)
    n = build_goal_mdp(mt, comps)
    assert _lp_digest(build_resiliency_lp(n, threshold), n.name) == resiliency


def test_goal_program_matches_paper_goal_mdp_program():
    # The goal program on the transformed model and the program of the
    # paper's goal MDP, with a goal[k] state per component and a goal state
    # (``reference_resiliency_lp``), have the same status and optimum, and
    # ``synthesize`` returns that optimum. Read in the paper's goal MDP, the
    # flow of the synthesized program earns it as expected total reward.
    # ``random_model`` almost never gives a usable component whose only
    # switch states are op copies, so ``op_copy_cycle_model`` is drawn too,
    # and the example is such a model.
    seen = {OPTIMAL: 0, INFEASIBLE: 0, "op copies only": 0}

    @settings(max_examples=120, deadline=None)
    @given(m=st.one_of(
               st.builds(lambda seed, any_target: random_model(random.Random(seed), any_target),
                         st.integers(0, 10 ** 9), st.booleans()),
               st.integers(0, 10 ** 9).map(lambda seed: op_copy_cycle_model(random.Random(seed)))),
           bound=st.integers(0, 3),
           threshold=st.sampled_from([Fraction(1, 2), Fraction(3, 4), Fraction(9, 10),
                                      Fraction(1)]))
    @example(m=_repair_cycle(), bound=1, threshold=Fraction(1))
    def check(m, bound, threshold):
        if not (validate_structure(m).ok and validate_repair_assumption(m).ok):
            return
        mt = transform(m, bound)
        comps = compute_E(mt, threshold)
        n = build_goal_mdp(mt, comps)
        got = solve(build_resiliency_lp(n, threshold))
        ref = solve(reference_resiliency_lp(reference_goal_mdp(mt, comps), threshold))
        assert (got.status, got.objective_value) == (ref.status, ref.objective_value)
        result = synthesize(m, threshold, bound)
        assert result.feasible == (got.status == OPTIMAL)
        if result.feasible:
            assert result.availability == got.objective_value
            reference = reference_goal_mdp(mt, result.goal_mdp.comps)
            assert expected_total_reward(reference, goal_mr_scheduler(reference, result.solution),
                                         mt.initial) == result.availability
        seen[got.status] += 1
        seen["op copies only"] += any(
            all(isinstance(mt.memory[s], tuple) for s in n.switch if n.switch[s] == k)
            for k in set(n.switch.values()))

    check()
    assert all(seen.values()), seen


def test_flow_conservation_and_goal_inflow(fig1):
    mt, comps, n, lp = _pipeline(fig1, Fraction(4, 5), 2)
    sol = solve_lexicographic(lp, {v: Fraction(1) for v in lp.variables})
    assert sol.status == OPTIMAL
    # The switch mass is exactly 1: every run settles in a component.
    switched = sum((sol.assignment[s, TAU] for s in n.switch), Fraction(0))
    assert switched == 1
    for c in lp.constraints:
        if c.relation == EQ:
            lhs = sum((q * sol.assignment[v] for v, q in c.coeffs.items()),
                      Fraction(0))
            assert lhs == c.rhs


def test_extracted_scheduler_fig1(fig1):
    result = synthesize(fig1, Fraction(4, 5), 2)
    mt = result.scheduler.mt
    mr = result.scheduler.mr
    assert mr.choices[mt.index["error#rep#1"]]["β"] == Fraction(4, 5)
    assert mr.choices[mt.index["error#rep#1"]]["α"] == Fraction(1, 5)
    assert mr.choices[mt.index["error#rep#0"]]["β"] == 1
    assert result.availability == Fraction(9, 10)
    assert result.report.ok


def test_synthesize_goldens(fig1):
    assert synthesize(fig1, Fraction(3, 4), 2).availability == 1
    assert synthesize(fig1, Fraction(1), 2).availability == Fraction(1, 2)
    assert not synthesize(fig1, Fraction(1, 2), 0).feasible


def test_synthesize_value_identity(fig1):
    # Stationary availability, LP objective, and expected total reward in the
    # paper's goal model under the scheduler of the program's flow agree
    # exactly, computed by three independent routes.
    result = synthesize(fig1, Fraction(4, 5), 2)
    n = reference_goal_mdp(result.goal_mdp.mt, result.goal_mdp.comps)
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
        n = reference_goal_mdp(result.goal_mdp.mt, result.goal_mdp.comps)
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
    chain = induce_chain(mt, result.scheduler.mr, mt.initial)
    y = result.solution.assignment
    n = result.goal_mdp
    comp_states = {s for c in result.scheduler.components for s in c.states}
    for s in range(mt.n):
        if s in comp_states:
            continue
        mass = sum((y[s, a] for a in mt.enabled(s)), Fraction(0))
        if mass == 0:
            assert s not in chain.index  # uniform default is never exercised


def test_rendered_memory_matches_annotated_walk(fig1):
    result = synthesize(fig1, Fraction(4, 5), 2)
    mt = result.scheduler.mt
    mr = result.scheduler.mr
    fm = FiniteMemoryScheduler(mt, mr)
    m = fig1
    # (error, cost) pairs plus at most the single pending marker.
    assert len(set(mt.memory) - {None}) <= sum(
        1 for k in m.kinds if k == "err") * (mt.cost_bound + 1) + 1
    rng = random.Random(3)
    for _ in range(200):
        state_t = mt.initial
        s = mt.back[mt.initial]
        mem = fm.initial_memory
        for _ in range(15):
            assert mem == state_t
            assert fm.decide(s, mem) == mr.choices[state_t]
            acts = mt.enabled(state_t)
            a = rng.choice(acts)
            succ_t = rng.choice([t for t, p in mt.actions[state_t][a] if p > 0])
            nxt = mt.back[succ_t]
            mem = fm.update(s, mem, a, nxt)
            s, state_t = nxt, succ_t


def test_memory_updates_follow_lifted_paths():
    # Random models, some starting in an error or repair state, and random
    # base paths: the memories FiniteMemoryScheduler.update produces are the
    # states of the lifted path, each a copy of the base state it labels.
    rng = random.Random(11)
    for _ in range(150):
        m = random_model(rng)
        m = make_mdp([(m.ids[i], m.kinds[i], m.rewards[i]) for i in range(m.n)],
                     [(m.ids[i], a, [(m.ids[t], p) for t, p in dist])
                      for i in range(m.n) for a, dist in m.actions[i].items()],
                     rng.choice(m.ids))
        mt = transform(m, rng.randint(0, 3))
        fm = FiniteMemoryScheduler(mt, MrScheduler({}))
        for _ in range(10):
            p = _random_base_path(rng, m, 20)
            mem = fm.initial_memory
            memories = [mem]
            for s, a, nxt in zip(p.steps[0::2], p.steps[1::2], p.steps[2::2]):
                mem = fm.update(m.index[s], mem, a, m.index[nxt])
                memories.append(mem)
            assert [mt.ids[i] for i in memories] == lift_path(mt, p).states()
            assert [m.ids[mt.back[i]] for i in memories] == p.states()


def test_rendered_scheduler_runs_from_an_initial_error():
    # The run starts inside a repair, so after e the memory is the repair
    # copy e#r#0, not the plain state r, which is unreachable and has no
    # decision in the synthesized scheduler.
    m = make_mdp([("e", "err", 0), ("r", "rep", 1), ("up", "op", 1), ("down", "op", 0)],
                 [("e", "a", [("r", 1)]), ("r", "safe", [("down", 1)]),
                  ("r", "gamble", [("up", Fraction(1, 2)), ("r", Fraction(1, 2))]),
                  ("up", "a", [("up", 1)]), ("down", "a", [("down", 1)])],
                 "e")
    result = synthesize(m, Fraction(1, 2), 1)
    assert result.availability == 1
    policy = FiniteMemoryScheduler(result.scheduler.mt, result.scheduler.mr)
    stats = simulate(m, policy, steps=50, trials=4, seed=0, cost_bound=1)
    assert stats.repair_episodes == 4


def test_zero_cost_repairs_synthesize_at_any_budget():
    # With free repairs every copy has cost 0, so the transformed model stays
    # at its R = 0 size and a budget far past the state cap is no problem.
    m = make_mdp([("s_init", "op", 0), ("error", "err", 0), ("rep", "rep", 0),
                  ("op1", "op", 0), ("op2", "op", 1)],
                 [("s_init", "a", [("error", 1)]), ("error", "a", [("rep", 1)]),
                  ("rep", "α", [("op1", 1)]),
                  ("rep", "β", [("rep", Fraction(1, 2)), ("op2", Fraction(1, 2))]),
                  ("op1", "a", [("op1", 1)]), ("op2", "a", [("op2", 1)])],
                 "s_init")
    result = synthesize(m, Fraction(4, 5), 10 ** 11)
    assert result.feasible and result.availability == 1
    assert result.scheduler.mt.n == transform(m, 0).n


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
    assert result.scheduler.mr.choices[mt.initial]["b"] == 1
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


def test_inexact_inputs_refused(fig1):
    # The float 0.8 is 3602879701896397/4503599627370496: synthesis would
    # solve for that, not for 4/5. A float or bool bound would be written
    # into the document, whose reader refuses it.
    with pytest.raises(TypeError, match="threshold must be a Fraction, an int or a str"):
        synthesize(fig1, 0.8, 2)
    for bound in (2.0, True):
        with pytest.raises(TypeError, match="cost bound must be an int"):
            synthesize(fig1, Fraction(4, 5), bound)
    assert synthesize(fig1, "4/5", 2).availability == Fraction(9, 10)
    # Both flow programs read the threshold through ``repair_rows``.
    mt, _, n, _ = _pipeline(fig1, Fraction(4, 5), 2)
    (members, acts), *_ = mec_decomposition(mt, {s: mt.enabled(s) for s in range(mt.n)})
    for build in (lambda: build_resiliency_lp(n, 0.8),
                  lambda: build_multi_mp_lp(mt, members, acts, 0.8), lambda: compute_E(mt, 0.8)):
        with pytest.raises(TypeError, match="threshold must be a Fraction, an int or a str"):
            build()


def test_extract_requires_optimal(fig1):
    mt, comps, n, lp = _pipeline(fig1, Fraction(1, 2), 0)
    sol = solve(lp)
    with pytest.raises(ValueError):
        extract_scheduler(n, sol)


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
                report = verify_resilient(mt, result.scheduler.mr, threshold)
                assert report.ok
                assert report.availability == result.availability
        done += 1


def stalling_repair_model(rng: random.Random):
    """A small model in which repairs may stall at availability 0: every
    reward of an op state is 0, errors and repair states cost 0 half of the
    time, and a repair state may take a second action that stays among the
    repair states. Looping there costs nothing, or, past the budget,
    cycles among pending copies, which may share an action with a
    component that does finish the repair."""
    n_op, n_err, n_rep = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
    states = [(f"o{k}", "op", 0) for k in range(n_op)]
    states += [(f"e{k}", "err", rng.choice([0, 0, 1, 2])) for k in range(n_err)]
    reps = [f"r{k}" for k in range(n_rep)]
    states += [(r, "rep", rng.choice([0, 0, 1, 2])) for r in reps]
    all_ids = [s for s, _, _ in states]
    safe_ids = [s for s, kind, _ in states if kind != "err"]
    transitions = []
    for sid, kind, _ in states:
        pool = all_ids if kind == "op" else safe_ids
        moves = [pool] + ([reps] if kind == "rep" and rng.random() < 0.8 else [])
        for a, targets in enumerate(moves):
            split = rng.choice(_PROB_SPLITS)
            chosen = rng.sample(targets, min(len(split), len(targets)))
            probs = list(split[:len(chosen)])
            probs[-1] = 1 - sum(probs[:-1], Fraction(0))
            transitions.append((sid, f"a{a}", list(zip(chosen, probs))))
    return make_mdp(states, transitions, "o0")


def _pending_cycle_model():
    """Benchmark small-batch seed 25, job 157 (R = 3, threshold 1/2). The
    self-loop of the pending copy r1#pending is a free optimum of value 0;
    the cycle {r1#pending: a1, r0#pending: a1} shares the action
    (r1#pending, a1) with the only usable component, which also plays
    r0#pending: a0 and so can return to o0."""
    return make_mdp([("o0", "op", 0), ("e0", "err", 1), ("e1", "err", 0), ("r0", "rep", 0),
                     ("r1", "rep", 2)],
                    [("o0", "a0", [("o0", Fraction(1, 4)), ("e1", Fraction(3, 4))]),
                     ("e0", "a0", [("o0", Fraction(1, 4)), ("r0", Fraction(3, 4))]),
                     ("e1", "a0", [("r0", Fraction(1, 3)), ("o0", Fraction(2, 3))]),
                     ("r0", "a0", [("o0", Fraction(1, 2)), ("r1", Fraction(1, 2))]),
                     ("r0", "a1", [("r1", Fraction(1, 2)), ("r0", Fraction(1, 2))]),
                     ("r1", "a0", [("r1", 1)]),
                     ("r1", "a1", [("r0", 1)])],
                    "o0")


def test_stalled_repairs_match_the_oracle():
    # ``compute_E`` keeps no component without a switch state. Where one is
    # the optimum of its MEC, the MEC is solved again for the most anchor
    # mass; a usable component of availability 0 that shares its states or
    # actions must still be found, or the verdict is wrongly negative.
    seen = {"feasible": 0, "infeasible": 0, "solved again": 0}
    solve_again = []

    def counting_solve(lp, secondary=None):
        solve_again.append(secondary is not None)
        return solve(lp, secondary)

    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(0, 10 ** 9).map(lambda seed: stalling_repair_model(random.Random(seed))),
           bound=st.integers(0, 3), threshold=st.sampled_from(_THRESHOLDS))
    @example(m=_pending_cycle_model(), bound=3, threshold=Fraction(1, 2))
    def check(m, bound, threshold):
        if not (validate_structure(m).ok and validate_repair_assumption(m).ok):
            return
        mt = transform(m, bound)
        if mt.n > 14 or sum(len(acts) > 1 for acts in mt.actions) > 6:
            return  # outside the oracle's enumeration budget
        solve_again.clear()
        with mock.patch("resilient_mdp.components.solve", counting_solve):
            result = synthesize(m, threshold, bound)
        oracle = brute_force_optimum(mt, threshold, max_choice_states=6)
        if oracle.best_availability is not None:
            # The oracle enumerates deterministic schedulers only.
            assert result.feasible
            assert result.availability >= oracle.best_availability
        seen["feasible" if result.feasible else "infeasible"] += 1
        seen["solved again"] += any(solve_again) and result.feasible

    check()
    assert all(seen.values()), seen


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

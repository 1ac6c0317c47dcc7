import random
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resilient_mdp.analyze as analyze_module
from resilient_mdp import (MrScheduler, brute_force_optimum, compute_E, induce_chain, make_mdp,
                           simulate, synthesize, transform, validate_structure,
                           verify_resilient)
from resilient_mdp.analyze import (InducedChain, SchedulerDomainError, SimulationStats,
                                   almost_sure_reach, long_run_value,
                                   stationary_distribution, until_probability)
from resilient_mdp.analyze import _bscc_masses, _draw_table
from resilient_mdp.graph import bottom_sccs, reachable_from
from resilient_mdp.model import ERROR, OPERATIONAL
from resilient_mdp.sched import DistributionError
from resilient_mdp.synth import FiniteMemoryScheduler

from conftest import beta_always, random_model
from helpers import (build_weights, chain_from_rows, chain_rows, expected_total_reward,
                     fraction_operator_calls)
from test_docs_cli import chain_model, gamble_scheduler
from test_linsolve import _random_scheduler


def alpha_always(mt):
    choices = {}
    for i in range(mt.n):
        acts = mt.enabled(i)
        choices[i] = {("α" if "α" in acts else acts[0]): Fraction(1)}
    return MrScheduler(choices)


def test_induced_chain_rows_sum_to_one(fig1):
    mt = transform(fig1, 2)
    chain = induce_chain(mt, beta_always(mt), mt.initial)
    # α-branches absent; reachable: s_init, error, rep-copies 0..2, two op2
    # copies, the pending rep copy (after budget overrun) and base op2.
    assert chain.n == 9
    for row in chain_rows(chain):
        assert sum(row.values(), Fraction(0)) == 1


def test_chain_restricted_to_reachable(fig1):
    mt = transform(fig1, 2)
    chain = induce_chain(mt, alpha_always(mt), mt.initial)
    assert mt.index["op2"] not in chain.index


def test_domain_error_on_missing_state(fig1):
    mt = transform(fig1, 2)
    sched = MrScheduler({mt.initial: {"a": Fraction(1)}})
    with pytest.raises(SchedulerDomainError):
        induce_chain(mt, sched, mt.initial)


@pytest.mark.parametrize("dist, problem", [
    ({"a": Fraction(1, 2), "b": Fraction(2, 5)}, "sums to 9/10"),
    ({"a": Fraction(3, 2), "b": Fraction(-1, 2)}, "has a negative probability"),
], ids=["sum-not-one", "negative"])
def test_scheduler_rejects_a_distribution_and_names_its_state(dist, problem):
    with pytest.raises(DistributionError) as info:
        MrScheduler({0: {"a": Fraction(1)}, 7: dist})
    assert (info.value.state, info.value.problem) == (7, problem)
    assert str(info.value) == f"scheduler distribution at state 7 {problem}"


def test_until_probability_fig1(fig1):
    mt = transform(fig1, 2)
    chain = induce_chain(mt, beta_always(mt), mt.initial)
    copies = {i for i in range(mt.n) if isinstance(mt.memory[i], tuple)}
    op_e = set(mt.op_copies_of(mt.index["error"]))
    pr = until_probability(chain, copies, op_e)
    # One step after the error: 1 - 1/2^R with R = 2.
    assert pr[mt.index["error#rep#0"]] == Fraction(3, 4)
    assert pr[mt.index["error#op2#1"]] == 1
    assert pr[mt.index["op2"]] == 0


def test_almost_sure_reach(fig1):
    mt = transform(fig1, 2)
    op_states = {i for i in range(mt.n) if mt.is_op(i)}
    chain = induce_chain(mt, beta_always(mt), mt.initial)
    assert all(almost_sure_reach(chain, op_states).values())
    # An absorbing non-target state breaks almost-sure reachability.
    m = make_mdp([("s", "rep", 1), ("t", "op", 1), ("u", "rep", 1)],
                 [("s", "a", [("t", Fraction(1, 2)), ("u", Fraction(1, 2))]),
                  ("t", "a", [("t", 1)]), ("u", "a", [("u", 1)])], "s")
    mt2 = transform(m, 1)
    chain2 = induce_chain(mt2, beta_always(mt2), mt2.initial)
    reach = almost_sure_reach(chain2, {mt2.index["t"]})
    assert not reach[mt2.index["s"]] and reach[mt2.index["t"]]


def test_stationary_distribution_two_cycle():
    m = make_mdp([("s", "op", 1), ("t", "op", 0)],
                 [("s", "a", [("t", 1)]),
                  ("t", "a", [("s", Fraction(1, 3)), ("t", Fraction(2, 3))])],
                 "s")
    sched = MrScheduler({0: {"a": Fraction(1)}, 1: {"a": Fraction(1)}})
    chain = induce_chain(m, sched, 0)
    # pi = (1/4, 3/4), as coprime masses over their sum.
    assert stationary_distribution(chain, [0, 1]) == ({0: 1, 1: 3}, 4)
    assert long_run_value(chain, m.payoff) == Fraction(1, 4)


def test_availability_goldens(fig1):
    mt = transform(fig1, 2)
    chain_b = induce_chain(mt, beta_always(mt), mt.initial)
    assert long_run_value(chain_b, mt.payoff) == 1
    chain_a = induce_chain(mt, alpha_always(mt), mt.initial)
    assert long_run_value(chain_a, mt.payoff) == 0


def test_availability_ignores_transient_payoff():
    # A payoff-carrying transient state does not move the long-run average.
    m = make_mdp([("s", "op", 3), ("t", "op", 1)],
                 [("s", "a", [("t", 1)]), ("t", "a", [("t", 1)])], "s")
    sched = MrScheduler({0: {"a": Fraction(1)}, 1: {"a": Fraction(1)}})
    assert long_run_value(induce_chain(m, sched, 0), m.payoff) == 1


def test_mp_values_beta_always(fig1):
    mt = transform(fig1, 2)
    chain = induce_chain(mt, beta_always(mt), mt.initial)
    weight = build_weights(mt, Fraction(4, 5))[mt.index["error"]]
    # The long run sits on a zero-weight state.
    assert long_run_value(chain, lambda s: weight.get(s, 0)) == 0



def _random_chain(rng: random.Random) -> InducedChain:
    """Transient states 0..t-1 (0 initial, each able to move on to the next),
    then two or three irreducible blocks, each entered from some transient
    state, so every state is reachable and every block is a BSCC."""
    t = rng.randint(1, 4)
    blocks, start = [], t
    for _ in range(rng.randint(2, 3)):
        size = rng.randint(1, 3)
        blocks.append(list(range(start, start + size)))
        start += size
    succ: list[set[int]] = [set() for _ in range(start)]
    for i in range(t):
        succ[i].update(rng.sample(range(start), rng.randint(1, 3)))
        if i + 1 < t:
            succ[i].add(i + 1)
    for block in blocks:
        succ[rng.randrange(t)].add(block[0])
        for k, s in enumerate(block):  # a cycle through the block, plus extras
            succ[s].add(block[(k + 1) % len(block)])
            succ[s].update(rng.sample(block, rng.randint(0, len(block))))
    rows = []
    for targets in succ:
        weights = {j: rng.randint(1, 4) for j in sorted(targets)}
        total = sum(weights.values())
        rows.append({j: Fraction(w, total) for j, w in weights.items()})
    return chain_from_rows(list(range(start)), rows, {i: i for i in range(start)})


def _almost_sure_reach_per_state(c: InducedChain, target: set[int]) -> dict[int, bool]:
    """Reference: one forward search per state, looking for a bottom SCC
    disjoint from target once target states are made absorbing."""
    loc_target = {c.index[s] for s in target if s in c.index}
    succ = [[] if i in loc_target else sorted(row) for i, row in enumerate(chain_rows(c))]
    bad = set()
    for comp in bottom_sccs(succ):
        if not any(v in loc_target for v in comp):
            bad.update(comp)
    return {s: not (reachable_from(succ, {i}) & bad) for i, s in enumerate(c.states)}


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 9), st.data())
def test_almost_sure_reach_matches_per_state_search(seed, data):
    c = _random_chain(random.Random(seed))
    recurrent = sorted(v for comp in bottom_sccs(c.nums) for v in comp)
    targets = [set(),  # every state ends in some BSCC, so nothing is sure
               data.draw(st.sets(st.sampled_from(recurrent), min_size=1)),
               data.draw(st.sets(st.sampled_from(range(c.n))))]
    for target in targets:
        assert almost_sure_reach(c, target) == _almost_sure_reach_per_state(c, target)
    assert not any(almost_sure_reach(c, set()).values())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_long_run_value_on_random_chains(seed):
    rng = random.Random(seed)
    c = _random_chain(rng)
    comps = bottom_sccs(c.nums)
    assert len(comps) >= 2 and not any(0 in comp for comp in comps)
    for comp in comps:
        masses, total = stationary_distribution(c, comp)
        assert sum(masses.values()) == total and gcd(*masses.values()) == 1
        for s in comp:  # pi P = pi, exactly, in masses
            assert sum((masses[t] * chain_rows(c)[t].get(s, 0) for t in comp),
                       Fraction(0)) == masses[s]
    f = {s: rng.randint(-3, 3) for s in range(c.n)}
    g = {s: Fraction(rng.randint(0, 5), rng.randint(1, 3)) for s in range(c.n)}
    parts = _bscc_masses(c)
    assert long_run_value(c, f.get, parts=parts) == long_run_value(c, f.get)
    assert long_run_value(c, g.get, parts=parts) == long_run_value(c, g.get)
    assert long_run_value(c, lambda s: 1) == 1
    # Independent check of the reach probabilities: started from each state,
    # the long-run time share of a BSCC is harmonic on the transient states.
    owner = {s: k for k, comp in enumerate(comps) for s in comp}
    transient = [s for s in range(c.n) if s not in owner]
    shares = {s: [long_run_value(_rerooted(c, s), lambda t, k=k: owner.get(t) == k)
                  for k in range(len(comps))]
              for s in transient}
    shares.update({s: [Fraction(owner[s] == k) for k in range(len(comps))] for s in owner})
    for s in transient:
        for k in range(len(comps)):
            assert shares[s][k] == sum((p * shares[t][k] for t, p in chain_rows(c)[s].items()),
                                       Fraction(0))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_stationary_distribution_on_random_irreducible_chains(seed):
    # A cycle through every state in random order keeps the chain
    # irreducible; sparse extra edges and weights vary it.
    rng = random.Random(seed)
    n = rng.randint(1, 30)
    order = rng.sample(range(n), n)
    rows = []
    for s in range(n):
        targets = {order[(order.index(s) + 1) % n]}
        targets.update(rng.sample(range(n), rng.randint(0, min(3, n))))
        weights = {t: rng.randint(1, 5) for t in sorted(targets)}
        rows.append({t: Fraction(w, sum(weights.values())) for t, w in weights.items()})
    c = chain_from_rows(list(range(n)), rows, {s: s for s in range(n)})
    assert [sorted(comp) for comp in bottom_sccs(c.nums)] == [list(range(n))]
    masses, total = stationary_distribution(c, rng.sample(range(n), n))
    assert all(type(masses[s]) is int and masses[s] > 0 for s in range(n))
    assert sum(masses.values()) == total and gcd(*masses.values()) == 1
    for s in range(n):  # pi P = pi, exactly, in masses
        assert sum((masses[t] * rows[t].get(s, 0) for t in range(n)), Fraction(0)) == masses[s]


def _rerooted(c: InducedChain, s: int) -> InducedChain:
    """The same chain with local state s swapped into the initial position."""
    order = list(range(c.n))
    order[0], order[s] = s, 0
    rows = [{order[t]: p for t, p in chain_rows(c)[old].items()} for old in order]
    return chain_from_rows([c.states[old] for old in order], rows,
                                  {c.states[old]: new for new, old in enumerate(order)})


def test_verify_chain_golden():
    # The chain family at k = 2, L = 3, R = 4 under gamble 3/4, safe 1/4;
    # values recorded from the dense-elimination implementation.
    mt = transform(chain_model(2, 3), 4)
    report = verify_resilient(mt, gamble_scheduler(mt), Fraction(4, 5))
    assert report.availability == Fraction(78, 229)
    assert sorted(mt.ids[e] for e in report.per_error) == ["e_1", "e_2"]
    for check in report.per_error.values():
        assert check.res_probability == Fraction(3583, 4096)
        assert check.weight_mean == Fraction(38275, 5627904)
    assert report.ok


def test_verify_chain_at_scale():
    # The same scheduler at R = 40: 608 transformed states, one large
    # stationary system; the availability does not depend on R here.
    mt = transform(chain_model(3, 3), 40)
    assert mt.n == 608
    report = verify_resilient(mt, gamble_scheduler(mt), Fraction(4, 5))
    assert report.availability == Fraction(78, 229)
    assert report.ok
    assert report.render(mt, Fraction(4, 5)).endswith("resilient: yes")


def _refuse(*args):
    raise RuntimeError("not expected here")


@pytest.mark.parametrize("k, L, R", [(2, 3, 4), (3, 3, 4)])
def test_verify_reads_recurrent_errors_off_the_stationary_masses(monkeypatch, k, L, R):
    # Under gamble 3/4, safe 1/4 the whole chain is one bottom SCC, so every
    # error is recurrent: its stationary solve is the only linear system,
    # and the until system is not used.
    mt = transform(chain_model(k, L), R)
    sched = gamble_scheduler(mt)
    want = verify_resilient(mt, sched, Fraction(4, 5))
    solves = []
    solve = analyze_module.solve_linear_system
    monkeypatch.setattr(analyze_module, "solve_linear_system",
                        lambda *args: solves.append(args) or solve(*args))
    monkeypatch.setattr(analyze_module, "until_probability", _refuse)
    assert verify_resilient(mt, sched, Fraction(4, 5)) == want
    assert len(solves) == 1 and want.ok


def test_verify_reads_availability_through_one_long_run_value_call(fig1, monkeypatch):
    # One call per report, given the BSCC masses verify already holds, so
    # that a trace of analyze.long_run_value sees every availability.
    fig1_mt, chain_mt = transform(fig1, 2), transform(chain_model(2, 3), 4)
    cases = [(fig1_mt, beta_always(fig1_mt)), (fig1_mt, alpha_always(fig1_mt)),
             (chain_mt, gamble_scheduler(chain_mt))]
    calls = []
    monkeypatch.setattr(analyze_module, "long_run_value",
                        lambda c, f, parts=None: calls.append(parts) or long_run_value(c, f, parts))
    for mt, sched in cases:
        calls.clear()
        report = verify_resilient(mt, sched, Fraction(4, 5))
        assert len(calls) == 1 and calls[0] is not None
        assert report.availability == long_run_value(induce_chain(mt, sched, mt.initial),
                                                     mt.payoff)


def test_verify_solves_the_until_system_for_a_transient_error(fig1, monkeypatch):
    # Under β-always fig1's error is left for good once its repair ends, so
    # its repair-success probability still comes from the until system.
    mt = transform(fig1, 2)
    chain = induce_chain(mt, beta_always(mt), mt.initial)
    e = mt.index["error"]
    assert not any(chain.index[e] in comp for comp in chain.bsccs)
    untils = []
    monkeypatch.setattr(analyze_module, "until_probability",
                        lambda *args: untils.append(args) or until_probability(*args))
    report = verify_resilient(mt, beta_always(mt), Fraction(4, 5))
    assert len(untils) == 1
    check = report.per_error[e]
    assert check.res_probability == Fraction(3, 4) and check.weight_mean == 0


def test_verify_beta_always_fails_at_four_fifths(fig1):
    mt = transform(fig1, 2)
    report = verify_resilient(mt, beta_always(mt), Fraction(4, 5))
    e = mt.index["error"]
    assert report.per_error[e].res_probability == Fraction(3, 4)
    assert not report.per_error[e].res_ok
    assert report.per_error[e].asrep_ok
    assert not report.ok


@pytest.mark.parametrize("threshold", [Fraction(0), -1, Fraction(3, 2)], ids=str)
def test_library_calls_refuse_a_threshold_outside_the_unit_interval(fig1, threshold):
    # At 0 and -1 the beta-always scheduler, whose repair succeeds with
    # probability 3/4, used to read as resilient, and the oracle's optimum
    # was availability 1 instead of 1/2.
    mt = transform(fig1, 2)
    message = rf"^threshold must be in \(0, 1\], got {threshold}$"
    for call in (lambda: verify_resilient(mt, beta_always(mt), threshold),
                 lambda: compute_E(mt, threshold),
                 lambda: brute_force_optimum(mt, threshold, grid_denominator=5)):
        with pytest.raises(ValueError, match=message):
            call()


def test_verify_refuses_a_float_threshold(fig1):
    # At the double nearest 0.8, above 4/5, the optimal 4/5 scheduler would
    # read as not resilient.
    result = synthesize(fig1, Fraction(4, 5), 2)
    mt, mr = result.goal_mdp.mt, result.scheduler.mr
    with pytest.raises(TypeError, match="threshold must be a Fraction, an int or a str"):
        verify_resilient(mt, mr, 0.8)
    assert verify_resilient(mt, mr, "4/5").ok


def test_verify_alpha_always_ok_any_threshold(fig1):
    mt = transform(fig1, 2)
    report = verify_resilient(mt, alpha_always(mt), Fraction(1))
    assert report.ok
    assert report.availability == 0
    e = mt.index["error"]
    assert report.per_error[e].res_probability == 1


def test_verify_res_probability_equals_bounded_reach():
    # The one-step until computation must agree with direct cost-bounded
    # reachability evaluated on the annotated copies.
    rng = random.Random(11)
    checked = 0
    while checked < 30:
        m = random_model(rng)
        bound = rng.randint(0, 3)
        mt = transform(m, bound)
        if mt.n > 14:
            continue
        sched = beta_always(mt)
        threshold = Fraction(1, 2)
        report = verify_resilient(mt, sched, threshold)
        chain = induce_chain(mt, sched, mt.initial)
        for e, check in report.per_error.items():
            # Independent route: probability of hitting an operational copy
            # of e before leaving the annotated fragment, one step after e.
            op_e = set(mt.op_copies_of(e))
            stay = {i for i in range(mt.n)
                    if isinstance(mt.memory[i], tuple) and not mt.is_op(i)}
            pr = until_probability(chain, stay, op_e)
            expect = sum((p * pr[chain.states[t]]
                          for t, p in chain_rows(chain)[chain.index[e]].items()),
                         Fraction(0))
            assert check.res_probability == expect
        checked += 1


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 9), st.booleans(), st.integers(0, 3))
def test_verify_res_probability_matches_per_error_until(seed, any_target, bound):
    # ``verify_resilient`` solves one until over every operational copy; the
    # reference solves one per error, with only that error's copies as target.
    rng = random.Random(seed)
    mt = transform(random_model(rng, any_target), bound)
    choices = {}
    for i in range(mt.n):
        acts = mt.enabled(i)
        if len(acts) > 1 and rng.random() < 0.5:
            p = Fraction(rng.randint(1, 3), 4)
            choices[i] = {acts[0]: p, acts[1]: 1 - p}
        else:
            choices[i] = {rng.choice(acts): Fraction(1)}
    sched = MrScheduler(choices)
    report = verify_resilient(mt, sched, Fraction(1, 2))
    chain = induce_chain(mt, sched, mt.initial)
    copies = {i for i in range(mt.n) if isinstance(mt.memory[i], tuple)}
    assert set(report.per_error) == {e for e in mt.errors() if e in chain.index}
    for e, check in report.per_error.items():
        pr = until_probability(chain, copies, set(mt.op_copies_of(e)))
        assert check.res_probability == sum(
            (p * pr[chain.states[t]] for t, p in chain_rows(chain)[chain.index[e]].items()),
            Fraction(0))


def test_mp_nonnegative_for_verified_schedulers():
    rng = random.Random(13)
    done = 0
    while done < 25:
        m = random_model(rng)
        mt = transform(m, rng.randint(0, 3))
        report = verify_resilient(mt, beta_always(mt), Fraction(1, 2))
        if report.ok:
            assert all(ch.weight_mean >= 0 for ch in report.per_error.values())
            done += 1


class _RewardHost:
    """Tiny goal-reward host: linear chain s0 -> s1 -> goal."""

    def __init__(self, scale):
        self.actions = [{"a": [(1, Fraction(1))]},
                        {"a": [(2, Fraction(1))]},
                        {"a": [(2, Fraction(1))]}]
        self.goal_index = 2
        self._scale = scale

    def reward(self, i):
        return [Fraction(1), Fraction(3), Fraction(0)][i] * self._scale


def test_expected_total_reward_linearity():
    sched = MrScheduler({i: {"a": Fraction(1)} for i in range(3)})
    base = expected_total_reward(_RewardHost(Fraction(1)), sched, 0)
    assert base == 4
    scaled = expected_total_reward(_RewardHost(Fraction(5, 7)), sched, 0)
    assert scaled == base * Fraction(5, 7)


def test_expected_total_reward_requires_goal():
    host = _RewardHost(Fraction(1))
    host.actions[1] = {"a": [(1, Fraction(1))]}  # loop forever before goal
    sched = MrScheduler({i: {"a": Fraction(1)} for i in range(3)})
    with pytest.raises(ValueError, match="almost surely"):
        expected_total_reward(host, sched, 0)


def test_brute_force_fig1_goldens(fig1):
    mt = transform(fig1, 2)
    assert brute_force_optimum(mt, Fraction(1)).best_availability == Fraction(1, 2)
    assert brute_force_optimum(mt, Fraction(3, 4)).best_availability == 1
    res = brute_force_optimum(mt, Fraction(4, 5))
    assert res.best_availability == Fraction(1, 2)  # deterministic only
    assert res.candidates == 16


def test_brute_force_grid_reaches_randomized_optimum(fig1):
    mt = transform(fig1, 2)
    res = brute_force_optimum(mt, Fraction(4, 5), grid_denominator=5)
    assert res.best_availability == Fraction(9, 10)
    r1 = mt.index["error#rep#1"]
    assert res.witness.choices[r1]["β"] == Fraction(4, 5)


def test_brute_force_rejects_large_models(fig1):
    rng = random.Random(3)
    while True:
        mt = transform(random_model(rng), 3)
        if mt.n > 14:
            break
    with pytest.raises(ValueError, match="limited to 14 states"):
        brute_force_optimum(mt, Fraction(1, 2))
    with pytest.raises(ValueError, match="few nondeterministic states"):
        brute_force_optimum(transform(fig1, 2), Fraction(1, 2), max_choice_states=1)
    three = make_mdp([("s", "op", 1)], [("s", a, [("s", 1)]) for a in "abc"], "s")
    with pytest.raises(ValueError, match="two actions per state"):
        brute_force_optimum(transform(three, 0), Fraction(1, 2))


def test_until_agrees_with_monte_carlo(fig1):
    mt = transform(fig1, 2)
    chain = induce_chain(mt, beta_always(mt), mt.initial)
    copies = {i for i in range(mt.n) if isinstance(mt.memory[i], tuple)}
    op_e = set(mt.op_copies_of(mt.index["error"]))
    start = chain.index[mt.index["error#rep#0"]]
    exact = until_probability(chain, copies, op_e)[mt.index["error#rep#0"]]
    rng = random.Random(99)
    trials, hits = 20000, 0
    for _ in range(trials):
        pos = start
        while True:
            if chain.states[pos] in op_e:
                hits += 1
                break
            if chain.states[pos] not in copies:
                break
            r = rng.random()
            acc = 0.0
            for t, p in sorted(chain_rows(chain)[pos].items()):
                acc += float(p)
                if r < acc:
                    pos = t
                    break
    p = float(exact)
    se = (p * (1 - p) / trials) ** 0.5
    assert abs(hits / trials - p) < 3 * se + 1e-9


class _ConstantPolicy:
    initial_memory = None

    def __init__(self, action_of):
        self._action_of = action_of

    def decide(self, s, mem):
        return {self._action_of(s): Fraction(1)}

    def update(self, s, mem, act, nxt):
        return None


def test_simulate_deterministic_and_seed_sensitivity(fig1):
    policy = _ConstantPolicy(lambda s: "β" if s == fig1.index["rep"] else
                             sorted(fig1.actions[s])[0])
    a = simulate(fig1, policy, steps=200, trials=5, seed=4, cost_bound=2)
    b = simulate(fig1, policy, steps=200, trials=5, seed=4, cost_bound=2)
    assert a == b
    c = simulate(fig1, policy, steps=200, trials=5, seed=5, cost_bound=2)
    assert a != c


def test_simulate_zero_trials(fig1):
    policy = _ConstantPolicy(lambda s: sorted(fig1.actions[s])[0])
    stats = simulate(fig1, policy, steps=10, trials=0, seed=0, cost_bound=2)
    assert stats.trials == 0 and stats.mean_payoff_per_step is None
    assert stats.render() == "no trials"


def test_simulate_refuses_negative_counts(fig1):
    # A negative count used to give an empty walk and a mean payoff of 0.
    policy = _ConstantPolicy(lambda s: sorted(fig1.actions[s])[0])
    for steps, trials, name in [(-5, 2, "steps"), (10, -2, "trials"), (-1, -1, "steps")]:
        with pytest.raises(ValueError, match=f"^{name} must be nonnegative$"):
            simulate(fig1, policy, steps=steps, trials=trials, seed=0, cost_bound=2)
    assert simulate(fig1, policy, steps=0, trials=2, seed=0, cost_bound=2).render() == "no trials"


def test_simulate_refuses_what_transform_refuses_as_a_cost_bound(fig1):
    # A bound of -1 used to count every repair episode as over budget, and
    # 2.5 was compared with the integer episode costs.
    policy = _ConstantPolicy(lambda s: sorted(fig1.actions[s])[0])
    for bound, error, message in [(-1, ValueError, "^cost bound must be nonnegative$"),
                                  (2.5, TypeError, "^cost bound must be an int, got 2.5$"),
                                  (True, TypeError, "^cost bound must be an int, got True$")]:
        for call in (lambda: simulate(fig1, policy, 2000, 2, 0, cost_bound=bound),
                     lambda: transform(fig1, bound)):
            with pytest.raises(error, match=message):
                call()


def test_simulate_counts_repair_budget(fig1):
    # α-repair costs exactly 1, so with cost bound 1 every episode fits.
    policy = _ConstantPolicy(lambda s: "α" if s == fig1.index["rep"] else
                             sorted(fig1.actions[s])[0])
    stats = simulate(fig1, policy, steps=100, trials=3, seed=0, cost_bound=1)
    assert stats.repair_episodes == 3
    assert stats.budget_fraction == 1


def _reference_simulate(m, policy, steps, trials, seed, cost_bound, keep_traces=False):
    """The step-by-step Fraction simulator that ``simulate`` replaced, kept as
    the specification of its random stream: one uniform u = r / 2**64 per
    choice, keys in ``str`` order, the first key whose cumulative probability
    exceeds u (the last key as fallback). A target listed twice in one
    distribution is one key with the summed probability."""
    def sample(rng, dist):
        u = Fraction(rng.getrandbits(64), 2 ** 64)
        acc = Fraction(0)
        items = sorted(dist.items(), key=lambda kv: str(kv[0]))
        for key, p in items:
            acc += Fraction(p)
            if u < acc:
                return key
        return items[-1][0]

    total_payoff = Fraction(0)
    episodes = within = 0
    traces = [] if keep_traces else None
    for trial in range(trials):
        rng = random.Random(f"{seed}:{trial}")
        s, mem, episode_cost = m.initial, policy.initial_memory, None
        trace = [m.ids[s]] if keep_traces else None
        for _ in range(steps):
            total_payoff += m.payoff(s)
            if m.kinds[s] == ERROR and episode_cost is None:
                episode_cost = 0
            if episode_cost is not None:
                episode_cost += m.cost(s)
                if m.kinds[s] == OPERATIONAL:
                    episodes += 1
                    if episode_cost <= cost_bound:
                        within += 1
                    episode_cost = None
            act = sample(rng, policy.decide(s, mem))
            dist: dict = {}
            for t, p in m.actions[s][act]:
                dist[t] = dist.get(t, 0) + p
            nxt = sample(rng, dist)
            mem = policy.update(s, mem, act, nxt)
            if keep_traces:
                trace.extend([act, m.ids[nxt]])
            s = nxt
        if keep_traces:
            traces.append(trace)
    mean = total_payoff / (trials * steps) if trials and steps else None
    return SimulationStats(trials, steps, mean, episodes, within, traces)


@settings(max_examples=60, deadline=None)
@given(model_seed=st.integers(0, 10 ** 6), chain=st.booleans(), bound=st.integers(0, 3),
       steps=st.integers(1, 60), trials=st.integers(1, 3),
       seed=st.integers(-5, 10 ** 9), keep_traces=st.booleans())
def test_simulate_matches_fraction_reference(model_seed, chain, bound, steps, trials, seed,
                                             keep_traces):
    # Random valid models (no duplicated targets) under a random finite-memory
    # scheduler with non-dyadic probabilities: the integer draw tables must
    # reproduce the Fraction loop exactly, traces included. Chain models have
    # up to 17 states; listed in random order, their successor indices often
    # sort differently as strings than as numbers.
    rng = random.Random(model_seed)
    m = chain_model(rng.randint(1, 3), rng.randint(1, 4)) if chain else random_model(rng)
    order = rng.sample(range(m.n), m.n)
    m = make_mdp([(m.ids[i], m.kinds[i], m.rewards[i]) for i in order],
                 [(m.ids[i], a, [(m.ids[t], p) for t, p in dist])
                  for i in range(m.n) for a, dist in m.actions[i].items()],
                 m.ids[m.initial])
    mt = transform(m, bound)
    choices = {}
    for i in range(mt.n):
        weights = {a: rng.randint(1, 6) for a in mt.enabled(i)}
        total = sum(weights.values())
        choices[i] = {a: Fraction(w, total) for a, w in weights.items()}
    policy = FiniteMemoryScheduler(mt, MrScheduler(choices))
    args = (m, policy, steps, trials, seed, bound, keep_traces)
    assert simulate(*args) == _reference_simulate(*args)


def test_simulate_sums_duplicated_targets():
    # "up" lists itself twice (1/4 + 1/4), so both states are visited half
    # the time, as the exact analysis says; keeping only the last entry made
    # the simulated mean about 0.4.
    m = make_mdp([("up", "op", 1), ("down", "op", 0)],
                 [("up", "a", [("up", Fraction(1, 4)), ("down", Fraction(1, 2)),
                               ("up", Fraction(1, 4))]),
                  ("down", "a", [("up", Fraction(1, 2)), ("down", Fraction(1, 2))])],
                 "up")
    mt = transform(m, 1)
    scheduler = MrScheduler({i: {"a": Fraction(1)} for i in range(mt.n)})
    assert verify_resilient(mt, scheduler, Fraction(1, 2)).availability == Fraction(1, 2)
    stats = simulate(m, FiniteMemoryScheduler(mt, scheduler), steps=20000, trials=2,
                     seed=1, cost_bound=1)
    assert abs(stats.mean_payoff_per_step - Fraction(1, 2)) < Fraction(1, 20)


def test_draw_table_bounds_are_exact():
    # Targets sort by str ("10" before "2"), the repeated target 2 sums to
    # 2/3, and the bound ceil(2**64 / 3) splits the draws exactly where
    # r / 2**64 < 1/3 stops holding.
    keys, bounds = _draw_table([(2, Fraction(1, 3)), (10, Fraction(1, 3)), (2, Fraction(1, 3))])
    assert keys == [10, 2]
    assert bounds == [6148914691236517206, 2 ** 64]
    assert Fraction(bounds[0] - 1, 2 ** 64) < Fraction(1, 3) <= Fraction(bounds[0], 2 ** 64)
    # A total below one leaves the excess draws to the last key.
    assert _draw_table({"x": Fraction(1, 4), "y": Fraction(1, 4)}.items())[1] == [2 ** 62, 2 ** 64]


class _TablePolicy:
    """Memoryless: a fixed {action: probability} map per state."""

    initial_memory = None

    def __init__(self, dists):
        self.dists = dists

    def decide(self, s, mem):
        return self.dists[s]

    def update(self, s, mem, act, nxt):
        return None


def _draw_table_model(rng: random.Random):
    """States with one to three actions, each a distribution over one to four
    entries that may repeat a target, and a policy that randomizes over every
    action; weights over a random total make most probabilities non-dyadic,
    and a zero weight makes a key that is never drawn."""
    n = rng.randint(1, 5)
    ids = [f"s{i}" for i in range(n)]
    states = [(sid, rng.choice(["op", "err", "rep"]), rng.randint(0, 3)) for sid in ids]
    transitions, dists = [], {}
    for i, sid in enumerate(ids):
        acts = [f"a{k}" for k in range(rng.randint(1, 3))]
        for act in acts:
            targets = [rng.choice(ids) for _ in range(rng.randint(1, 4))]
            weights = [rng.randint(1, 5) for _ in targets]
            transitions.append((sid, act, [(t, Fraction(w, sum(weights)))
                                           for t, w in zip(targets, weights)]))
        weights = [rng.randint(0, 4) for _ in acts]
        weights[rng.randrange(len(acts))] += 1
        dists[i] = {a: Fraction(w, sum(weights)) for a, w in zip(acts, weights)}
    return make_mdp(states, transitions, ids[0]), _TablePolicy(dists)


def test_simulate_matches_fraction_reference_on_every_draw_table_size(monkeypatch):
    # One-comparison reads of 1- and 2-entry tables and bisection of longer
    # ones must consume the same draws as the reference, traces included.
    # The hypothesis test above uses valid models only; these tables also
    # repeat targets and hold zero-probability keys.
    sizes: dict[type, set[int]] = {str: set(), int: set()}
    seen = {"repeated": False, "non-dyadic": False}
    real = analyze_module._draw_table

    def recording(pairs):
        pairs = list(pairs)
        keys, bounds = real(pairs)
        sizes[type(keys[0])].add(min(len(keys), 3))
        seen["repeated"] |= len(keys) < len(pairs)
        seen["non-dyadic"] |= any(p.denominator & (p.denominator - 1) for _, p in pairs)
        return keys, bounds

    monkeypatch.setattr(analyze_module, "_draw_table", recording)
    rng = random.Random(31)
    for seed in range(60):
        m, policy = _draw_table_model(rng)
        args = (m, policy, rng.randint(1, 40), rng.randint(1, 3), seed, rng.randint(0, 3), True)
        assert simulate(*args) == _reference_simulate(*args)
    assert sizes == {str: {1, 2, 3}, int: {1, 2, 3}}  # decision and transition tables
    assert seen == {"repeated": True, "non-dyadic": True}


@pytest.mark.parametrize("block", [1, 2, 3])
def test_simulate_matches_fraction_reference_across_blocks(monkeypatch, block):
    # With blocks of 1-3 steps, runs end mid-block, exactly at a block's end
    # and after several blocks, and each trial starts a fresh block of its
    # own stream; traces included.
    monkeypatch.setattr(analyze_module, "_BLOCK", block)
    rng = random.Random(block)
    for seed in range(12):
        m, policy = _draw_table_model(rng)
        for steps in range(1, 3 * block + 2):
            args = (m, policy, steps, rng.randint(1, 3), seed, rng.randint(0, 3),
                    rng.random() < 0.5)
            assert simulate(*args) == _reference_simulate(*args)


def test_simulate_matches_fraction_reference_past_a_full_block(fig1):
    block = analyze_module._BLOCK
    policy = _TablePolicy({s: {a: Fraction(1, len(fig1.actions[s])) for a in fig1.actions[s]}
                           for s in range(fig1.n)})
    for steps in (block, block + 1, 2 * block + 7):
        args = (fig1, policy, steps, 2, 11, 1, True)
        assert simulate(*args) == _reference_simulate(*args)


class _RecordingPolicy(_TablePolicy):
    def __init__(self, dists):
        super().__init__(dists)
        self.decided = []

    def decide(self, s, mem):
        self.decided.append(s)
        return super().decide(s, mem)


@pytest.mark.parametrize("block", [1, 2, 3, None])
def test_simulate_decides_lazily_and_refuses_a_disabled_action_in_a_later_block(
        monkeypatch, block):
    # s0 -> s1 -> s2 -> s3 deterministically, and the policy picks, at s3,
    # an action s3 does not enable. Three steps reach s3 only at the end, so
    # it is never decided and the run succeeds; the fourth step is the first
    # to draw that action, in the block after the first for blocks of 1-3.
    if block is not None:
        monkeypatch.setattr(analyze_module, "_BLOCK", block)
    ids = ["s0", "s1", "s2", "s3"]
    m = make_mdp([(sid, "op", 1) for sid in ids],
                 [(sid, "a", [(ids[min(k + 1, 3)], 1)]) for k, sid in enumerate(ids)], "s0")
    dists = {0: {"a": Fraction(1)}, 1: {"a": Fraction(1)}, 2: {"a": Fraction(1)},
             3: {"a": Fraction(1, 2), "zz": Fraction(1, 2)}}
    policy = _RecordingPolicy(dists)
    stats = simulate(m, policy, steps=3, trials=2, seed=0, cost_bound=0, keep_traces=True)
    assert policy.decided == [0, 1, 2]
    assert stats.traces == [["s0", "a", "s1", "a", "s2", "a", "s3"]] * 2
    dists[3] = {"zz": Fraction(1)}
    with pytest.raises(SchedulerDomainError, match="^action 'zz' not enabled in state s3$"):
        simulate(m, _RecordingPolicy(dists), steps=4, trials=1, seed=0, cost_bound=0)


def test_block_words_are_successive_64_bit_draws():
    # The block layout simulate relies on: on this Python, the words of one
    # getrandbits(128 * n) call are the next 2n getrandbits(64) draws.
    for n in (1, 2, 3, 1024):
        for seed in ("0:0", "5:3"):
            stream = random.Random(seed)
            block = analyze_module._words(random.Random(seed).getrandbits, n)
            assert list(block) == [stream.getrandbits(64) for _ in range(2 * n)]


def test_simulate_draws_a_long_run_in_small_blocks(fig1):
    # 100000 steps take 1.6 MB of draws, which one getrandbits call would
    # hold twice over, as an int and as its bytes.
    policy = _ConstantPolicy(lambda s: sorted(fig1.actions[s])[0])
    tracemalloc.start()
    try:
        simulate(fig1, policy, steps=100_000, trials=1, seed=0, cost_bound=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 400_000


def test_verify_and_simulate_apply_no_fraction_operator(fig1):
    # The chain analysis, the draw tables and the distribution check read
    # numerators and denominators only: on fig1 (one scheduler that misses
    # 4/5), chain (2,3,4) under gamble and random models, no ``Fraction``
    # operator runs. The random draws include an initial state outside every
    # bottom SCC, where the reach probabilities are solved.
    fig1_mt = transform(fig1, 2)
    cases = [(fig1, fig1_mt, beta_always(fig1_mt), Fraction(4, 5)),
             (fig1, fig1_mt, alpha_always(fig1_mt), Fraction(1))]
    chain = chain_model(2, 3)
    chain_mt = transform(chain, 4)
    cases.append((chain, chain_mt, gamble_scheduler(chain_mt), Fraction(4, 5)))
    rng = random.Random(17)
    for _ in range(40):
        m = random_model(rng, rng.random() < 0.3)
        mt = transform(m, rng.randint(0, 3))
        cases.append((m, mt, _random_scheduler(mt, rng), rng.choice(
            [Fraction(1, 3), Fraction(1, 2), Fraction(4, 5), Fraction(1)])))
    transient = [not any(0 in comp for comp in bottom_sccs(
                     induce_chain(mt, sched, mt.initial).nums))
                 for _, mt, sched, _ in cases]
    verdicts, sims = [], []
    with fraction_operator_calls() as calls:
        for k, (m, mt, sched, threshold) in enumerate(cases):
            verdicts.append(verify_resilient(mt, sched, threshold).ok)
            sims.append(simulate(m, FiniteMemoryScheduler(mt, sched), steps=30, trials=2,
                                 seed=k, cost_bound=mt.cost_bound, keep_traces=True))
            assert validate_structure(m).ok
    assert calls == []
    assert any(transient) and not verdicts[0] and all(verdicts[1:3])
    assert all(stats.traces for stats in sims)

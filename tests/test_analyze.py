import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilient_mdp import (MrScheduler, brute_force_optimum, induce_chain,
                           make_mdp, simulate, transform, verify_resilient)
from resilient_mdp.analyze import (InducedChain, SchedulerDomainError, SimulationStats,
                                   almost_sure_reach, long_run_value,
                                   long_run_values,
                                   stationary_distribution, until_probability)
from resilient_mdp.analyze import _draw_table
from resilient_mdp.graph import bottom_sccs, reachable_from
from resilient_mdp.model import ERROR, OPERATIONAL
from resilient_mdp.sched import DistributionError
from resilient_mdp.synth import FiniteMemoryScheduler
from resilient_mdp.transform import build_weights

from conftest import beta_always, random_model
from helpers import chain_from_rows, chain_rows, expected_total_reward
from test_docs_cli import chain_model, gamble_scheduler


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
    triples = {i for i in range(mt.n) if mt.triple[i] is not None}
    op_e = set(mt.op_copies_of(mt.index["error"]))
    pr = until_probability(chain, triples, op_e)
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
    pi = stationary_distribution(chain, [0, 1])
    assert pi == {0: Fraction(1, 4), 1: Fraction(3, 4)}
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
    assert long_run_values(chain, [lambda s: weight.get(s, 0)]) == [0]



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
    recurrent = sorted(v for comp in bottom_sccs(c.succ_lists()) for v in comp)
    targets = [set(),  # every state ends in some BSCC, so nothing is sure
               data.draw(st.sets(st.sampled_from(recurrent), min_size=1)),
               data.draw(st.sets(st.sampled_from(range(c.n))))]
    for target in targets:
        assert almost_sure_reach(c, target) == _almost_sure_reach_per_state(c, target)
    assert not any(almost_sure_reach(c, set()).values())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_long_run_values_on_random_chains(seed):
    rng = random.Random(seed)
    c = _random_chain(rng)
    comps = bottom_sccs(c.succ_lists())
    assert len(comps) >= 2 and not any(0 in comp for comp in comps)
    for comp in comps:
        pi = stationary_distribution(c, comp)
        assert sum(pi.values()) == 1
        for s in comp:  # pi P = pi, exactly
            assert sum((pi[t] * chain_rows(c)[t].get(s, 0) for t in comp), Fraction(0)) == pi[s]
    f = {s: rng.randint(-3, 3) for s in range(c.n)}
    g = {s: Fraction(rng.randint(0, 5), rng.randint(1, 3)) for s in range(c.n)}
    assert long_run_values(c, [f.get, g.get]) == [long_run_value(c, f.get),
                                                  long_run_value(c, g.get)]
    assert long_run_value(c, lambda s: 1) == 1
    # Independent check of the reach probabilities: started from each state,
    # the long-run time share of a BSCC is harmonic on the transient states.
    owner = {s: k for k, comp in enumerate(comps) for s in comp}
    transient = [s for s in range(c.n) if s not in owner]
    shares = {s: long_run_values(_rerooted(c, s), [lambda t, k=k: owner.get(t) == k
                                                   for k in range(len(comps))])
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
    assert [sorted(comp) for comp in bottom_sccs(c.succ_lists())] == [list(range(n))]
    pi = stationary_distribution(c, rng.sample(range(n), n))
    assert all(pi[s] > 0 for s in range(n))
    assert sum(pi.values()) == 1
    for s in range(n):  # pi P = pi, exactly
        assert sum((pi[t] * rows[t].get(s, 0) for t in range(n)), Fraction(0)) == pi[s]


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
    for e, check in report.per_error.items():
        assert check.res_probability == Fraction(3583, 4096)
        assert report.mp[e] == Fraction(38275, 5627904)
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


def test_verify_beta_always_fails_at_four_fifths(fig1):
    mt = transform(fig1, 2)
    report = verify_resilient(mt, beta_always(mt), Fraction(4, 5))
    e = mt.index["error"]
    assert report.per_error[e].res_probability == Fraction(3, 4)
    assert not report.per_error[e].res_ok
    assert report.per_error[e].asrep_ok
    assert not report.ok


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
                    if mt.triple[i] is not None and not mt.is_op(i)}
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
    triples = {i for i in range(mt.n) if mt.triple[i] is not None}
    assert set(report.per_error) == {e for e in mt.errors() if e in chain.index}
    for e, check in report.per_error.items():
        pr = until_probability(chain, triples, set(mt.op_copies_of(e)))
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
            assert all(v >= 0 for v in report.mp.values())
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
    assert res.witness.dist(r1)["β"] == Fraction(4, 5)


def test_brute_force_rejects_large_models():
    rng = random.Random(3)
    while True:
        mt = transform(random_model(rng), 3)
        if mt.n > 14:
            break
    with pytest.raises(ValueError):
        brute_force_optimum(mt, Fraction(1, 2))


def test_until_agrees_with_monte_carlo(fig1):
    mt = transform(fig1, 2)
    chain = induce_chain(mt, beta_always(mt), mt.initial)
    triples = {i for i in range(mt.n) if mt.triple[i] is not None}
    op_e = set(mt.op_copies_of(mt.index["error"]))
    start = chain.index[mt.index["error#rep#0"]]
    exact = until_probability(chain, triples, op_e)[mt.index["error#rep#0"]]
    rng = random.Random(99)
    trials, hits = 20000, 0
    for _ in range(trials):
        pos = start
        while True:
            if chain.states[pos] in op_e:
                hits += 1
                break
            if chain.states[pos] not in triples:
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
    exceeds u (the last key as fallback)."""
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
            nxt = sample(rng, {t: p for t, p in m.actions[s][act]})
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

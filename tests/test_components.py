import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilient_mdp import build_weights, compute_E, mec_decomposition, transform
from resilient_mdp.analyze import induce_chain, long_run_value, mp_values
from resilient_mdp.components import (_xv, build_multi_mp_lp, extract_components,
                                      full_sub_mdp, prune)
from resilient_mdp.graph import strongly_connected_components
from resilient_mdp.lp import OPTIMAL, LpSolution, solve

from conftest import random_model
from test_docs_cli import chain_model


def test_weights_fig1(fig1):
    mt = transform(fig1, 2)
    threshold = Fraction(4, 5)
    weights = build_weights(mt, threshold)
    e = mt.index["error"]
    wgt = weights[e]
    for sid in ("error#op1#1", "error#op1#2", "error#op2#1", "error#op2#2"):
        assert wgt[mt.index[sid]] == 1 - threshold
    # 2 + cost(rep) = 3 > 2: continuing from there cannot succeed in budget.
    assert wgt[mt.index["error#rep#2"]] == -threshold
    assert mt.index["error#rep#0"] not in wgt
    assert mt.index["error#rep#1"] not in wgt
    assert e not in wgt


def test_weights_error_exceeding_budget_is_penalized():
    from resilient_mdp import make_mdp
    m = make_mdp(
        [("s", "op", 0), ("e", "err", 3), ("r", "rep", 1)],
        [("s", "a", [("e", 1)]), ("e", "a", [("r", 1)]),
         ("r", "a", [("s", Fraction(1, 2)), ("r", Fraction(1, 2))])],
        "s")
    mt = transform(m, 2)
    weights = build_weights(mt, Fraction(1, 2))
    assert weights[mt.index["e"]][mt.index["e"]] == Fraction(-1, 2)


def test_prune_removes_dependents(fig1):
    mt = transform(fig1, 2)
    q = prune(full_sub_mdp(mt), {mt.index["op2"]})
    # Every β-action reaches op2 through some chain of repair copies, so the
    # entire β-side of the model unravels; α-reachable states survive.
    assert mt.index["op2"] not in q.enabled_map
    assert q.enabled(mt.index["rep#pending"]) == ("α",)
    assert mt.index["op1"] in q.enabled_map


def test_prune_to_empty():
    from resilient_mdp import make_mdp
    m = make_mdp([("s", "op", 0)], [("s", "a", [("s", 1)])], "s")
    mt = transform(m, 0)
    assert prune(full_sub_mdp(mt), {0}).empty


def test_mec_decomposition_fig1(fig1):
    mt = transform(fig1, 2)
    mecs = mec_decomposition(full_sub_mdp(mt))
    found = [sorted(mt.ids[s] for s in members) for members, _ in mecs]
    assert found == [["op1"], ["op2"]]


def _brute_force_mecs(q):
    """Exponential reference: all inclusion-maximal end components."""
    mt = q.mt
    members = list(q.members)
    candidates = []
    for size in range(1, len(members) + 1):
        for subset in itertools.combinations(members, size):
            inside = set(subset)
            acts = {}
            ok = True
            for s in subset:
                kept = [a for a in q.enabled(s)
                        if all(t in inside for t, _ in mt.actions[s][a])]
                if not kept:
                    ok = False
                    break
                acts[s] = kept
            if not ok:
                continue
            pos = {s: k for k, s in enumerate(subset)}
            succ = [[] for _ in subset]
            for s in subset:
                for a in acts[s]:
                    for t, _ in mt.actions[s][a]:
                        succ[pos[s]].append(pos[t])
            sccs = strongly_connected_components(succ)
            if len(sccs) == 1 and (size > 1 or any(
                    t == subset[0] for a in acts[subset[0]]
                    for t, _ in mt.actions[subset[0]][a])):
                candidates.append(set(subset))
    return sorted(c for c in candidates
                  if not any(c < other for other in candidates))


def test_mec_decomposition_matches_brute_force():
    rng = random.Random(21)
    done = 0
    while done < 8:
        mt = transform(random_model(rng), rng.randint(0, 2))
        if mt.n > 10:
            continue
        q = full_sub_mdp(mt)
        got = sorted(set(members) for members, _ in mec_decomposition(q))
        assert got == _brute_force_mecs(q)
        done += 1


def test_multi_mp_lp_fig1_optimum(fig1):
    mt = transform(fig1, 2)
    q = full_sub_mdp(mt)
    weights = build_weights(mt, Fraction(4, 5))
    sol = solve(build_multi_mp_lp(q, mt.initial, weights))
    assert sol.status == OPTIMAL
    # Unconstrained availability 1 is attainable on average: the weight mean
    # of the error stays nonnegative when the long run sits on op2.
    assert sol.objective_value == 1


def test_extract_components_are_bottom_and_normalized(fig1):
    mt = transform(fig1, 2)
    q = full_sub_mdp(mt)
    weights = build_weights(mt, Fraction(4, 5))
    sol = solve(build_multi_mp_lp(q, mt.initial, weights))
    triples = extract_components(q, sol)
    assert triples
    for t in triples:
        for s in t.states:
            assert sum(t.scheduler.dist(s).values(), Fraction(0)) == 1


def test_extract_components_rejects_non_bottom_support(fig1):
    # x charges rep#pending|α, which leaves for op1 and never comes back:
    # no stationary measure has this support.
    mt = transform(fig1, 2)
    q = full_sub_mdp(mt)
    sol = LpSolution(OPTIMAL, {"x[rep#pending|α]": Fraction(1, 2),
                               "x[op1|a]": Fraction(1, 2)}, Fraction(0))
    with pytest.raises(ValueError, match="must be bottom"):
        extract_components(q, sol)


def test_compute_E_fig1(fig1):
    mt = transform(fig1, 2)
    comps = compute_E(mt, Fraction(4, 5))
    by_states = {tuple(mt.ids[s] for s in c.states): c.avail for c in comps}
    assert by_states == {("op2",): Fraction(1), ("op1",): Fraction(0)}


def test_compute_E_zero_budget_still_finds_components(fig1):
    # With R = 0 no repair can succeed in budget, but the operational sinks
    # contain no weighted state, so they remain valid components; the
    # infeasibility surfaces only in the later reachability program.
    mt = transform(fig1, 0)
    comps = compute_E(mt, Fraction(1, 2))
    names = {tuple(mt.ids[s] for s in c.states) for c in comps}
    assert names == {("op1",), ("op2",)}


def test_compute_E_empty_when_no_safe_recurrence():
    from resilient_mdp import make_mdp
    # The only recurrent behavior cycles through the error, and with R = 0
    # the repair step always busts the budget, so its weight mean is negative.
    m = make_mdp(
        [("s", "op", 1), ("e", "err", 0), ("r", "rep", 1)],
        [("s", "a", [("e", 1)]), ("e", "a", [("r", 1)]),
         ("r", "a", [("s", 1)])],
        "s")
    mt = transform(m, 0)
    assert compute_E(mt, Fraction(1, 2)) == []


def test_compute_E_disjoint_strongly_connected_end_components():
    rng = random.Random(31)
    done = 0
    while done < 40:
        mt = transform(random_model(rng), rng.randint(0, 3))
        if mt.n > 16:
            continue
        comps = compute_E(mt, Fraction(1, 2))
        seen = set()
        for c in comps:
            inside = set(c.states)
            assert not (inside & seen)  # pairwise disjoint
            seen |= inside
            pos = {s: k for k, s in enumerate(c.states)}
            succ = [[] for _ in c.states]
            for s in c.states:
                assert c.action_sets[s]
                for a in c.action_sets[s]:
                    for t, p in mt.actions[s][a]:
                        assert t in inside  # closed under chosen actions
                        succ[pos[s]].append(pos[t])
            if len(c.states) > 1:
                assert len(strongly_connected_components(succ)) == 1
            assert set(c.scheduler.choices) == inside
        done += 1


def _recompute_components(mt, threshold) -> int:
    """Check each triple of compute_E against the exact chain analysis of its
    own scheduler, which is the reference for the availability that
    extract_components reads off the LP frequencies. Returns the count."""
    weights = build_weights(mt, threshold)
    comps = compute_E(mt, threshold)
    for c in comps:
        chain = induce_chain(mt, c.scheduler, c.states[0])
        assert set(chain.states) <= set(c.states)
        assert long_run_value(chain, mt.payoff) == c.avail
        for e, mean in mp_values(chain, weights).items():
            assert mean >= 0
    return len(comps)


def test_component_availability_and_weight_means_recompute(fig1):
    assert _recompute_components(transform(fig1, 2), Fraction(4, 5)) > 0
    assert _recompute_components(transform(chain_model(2, 3), 3), Fraction(4, 5)) > 0
    rng = random.Random(37)
    done = 0
    while done < 25:
        mt = transform(random_model(rng), rng.randint(0, 3))
        if mt.n > 16:
            continue
        _recompute_components(mt, Fraction(2, 3))
        done += 1


def _certified_compute_E(mt, threshold):
    """Reference: the elimination loop with a per-component re-solve.

    Each extracted triple is solved again on the sub-MDP it came from, from
    its first state, with every x[s|a] outside the triple's states removed;
    a strictly better component found inside replaces it. Returns the
    triples and the number of replacements.
    """
    weights = build_weights(mt, threshold)

    def certify(q, triple):
        lp = build_multi_mp_lp(q, triple.states[0], weights)
        inside = set(triple.states)
        pinned = {_xv(q, s, a) for s in q.members if s not in inside for a in q.enabled(s)}
        lp.variables = [v for v in lp.variables if v not in pinned]
        lp.nonneg -= pinned
        lp.objective = {v: c for v, c in lp.objective.items() if v not in pinned}
        for con in lp.constraints:
            con.coeffs = {v: c for v, c in con.coeffs.items() if v not in pinned}
        sol = solve(lp)
        if sol.status != OPTIMAL:
            return triple
        candidates = [t for t in extract_components(q, sol) if set(t.states) <= inside]
        if not candidates:
            return triple
        best = max(candidates, key=lambda t: t.avail)
        return best if best.avail > triple.avail else triple

    q = full_sub_mdp(mt)
    s = mt.initial
    out, replaced = [], 0
    while not q.empty:
        sol = solve(build_multi_mp_lp(q, s, weights))
        if sol.status == OPTIMAL:
            triples = []
            for t in extract_components(q, sol):
                best = certify(q, t)
                replaced += best is not t
                triples.append(best)
            out.extend(triples)
            q = prune(q, {t for tr in triples for t in tr.states})
        else:
            q = prune(q, {s})
        if not q.empty and s not in q.enabled_map:
            s = q.members[0]
    return out, replaced


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 9), any_target=st.booleans(), bound=st.integers(0, 3),
       threshold=st.sampled_from([Fraction(1, 2), Fraction(3, 4), Fraction(9, 10),
                                  Fraction(1)]))
def test_compute_E_matches_certified_reference(seed, any_target, bound, threshold):
    # An optimum leaves no better resilient component inside any of its
    # bottom SCCs (see compute_E), so re-solving each triple changes nothing.
    mt = transform(random_model(random.Random(seed), any_target), bound)
    expected, replaced = _certified_compute_E(mt, threshold)
    assert replaced == 0

    def key(t):
        return t.states, t.scheduler.choices, t.avail

    assert [key(t) for t in compute_E(mt, threshold)] == [key(t) for t in expected]

import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resilient_mdp import compute_E, make_mdp, mec_decomposition, synthesize, transform
from resilient_mdp.analyze import induce_chain, long_run_value
from resilient_mdp.components import (build_multi_mp_lp, extract_components, flow_balance,
                                      repair_rows)
from resilient_mdp.docs import serialize_scheduler
from resilient_mdp.graph import strongly_connected_components
from resilient_mdp.lp import OPTIMAL, LpSolution, solve
from resilient_mdp.synth import InvalidModelError

from conftest import fig1_model, random_model
from helpers import build_weights, global_compute_E
from test_docs_cli import chain_model


def _full(mt):
    return {s: mt.enabled(s) for s in range(mt.n)}


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


def test_mec_decomposition_fig1(fig1):
    mt = transform(fig1, 2)
    mecs = mec_decomposition(mt, _full(mt))
    found = [sorted(mt.ids[s] for s in members) for members, _ in mecs]
    assert found == [["op1"], ["op2"]]


def _brute_force_mecs(mt, enabled):
    """Exponential reference: all inclusion-maximal end components of the
    sub-MDP ``enabled``, whose actions may leave it."""
    members = sorted(enabled)
    candidates = []
    for size in range(1, len(members) + 1):
        for subset in itertools.combinations(members, size):
            inside = set(subset)
            acts = {}
            ok = True
            for s in subset:
                kept = [a for a in enabled[s]
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


def _check_mecs(mt, enabled):
    mecs = mec_decomposition(mt, enabled)
    assert sorted(set(members) for members, _ in mecs) == _brute_force_mecs(mt, enabled)
    return mecs


def test_prune_removes_dependents(fig1):
    # Without op2 every β-action leaves the map, through some chain of
    # repair copies, so only op1's self-loop is left.
    mt = transform(fig1, 2)
    enabled = {s: acts for s, acts in _full(mt).items() if mt.ids[s] != "op2"}
    assert [[mt.ids[s] for s in members] for members, _ in _check_mecs(mt, enabled)] == [["op1"]]


def test_prune_to_empty():
    # Removing the only state leaves nothing.
    mt = transform(make_mdp([("s", "op", 0)], [("s", "a", [("s", 1)])], "s"), 0)
    assert _check_mecs(mt, {}) == []
    # Withholding its only action leaves nothing either.
    assert _check_mecs(mt, {0: []}) == []


def test_mec_decomposition_matches_brute_force():
    rng = random.Random(21)
    done = 0
    while done < 8:
        mt = transform(random_model(rng), rng.randint(0, 2))
        if mt.n > 10:
            continue
        _check_mecs(mt, _full(mt))
        # A random sub-MDP: some states dropped, some actions withheld, so
        # that actions leave the map.
        kept = {s: [a for a in mt.enabled(s) if rng.random() < 0.8]
                for s in range(mt.n) if rng.random() < 0.8}
        _check_mecs(mt, {s: acts for s, acts in kept.items() if acts})
        done += 1


def test_multi_mp_lp_fig1_optimum(fig1):
    # fig1's MECs are the sinks op1 and op2. Neither holds an error or an
    # op copy, so each program has no repair row and its optimum is the
    # sink's payoff.
    mt = transform(fig1, 2)
    optima = []
    for members, acts in mec_decomposition(mt, _full(mt)):
        lp = build_multi_mp_lp(mt, members, acts, Fraction(4, 5))
        assert len(lp.constraints) == len(members) + 1
        sol = solve(lp)
        assert sol.status == OPTIMAL
        optima.append(sol.objective_value)
    assert optima == [0, 1]


def test_extract_components_are_bottom_and_normalized():
    mt = transform(chain_model(2, 3), 3)
    (members, acts), = mec_decomposition(mt, _full(mt))
    sol = solve(build_multi_mp_lp(mt, members, acts, Fraction(4, 5)))
    t = extract_components(mt, sol)
    assert t.states
    for s in t.states:
        assert sum(t.scheduler.dist(s).values(), Fraction(0)) == 1
    # Built over sorted states and action sets: the assignment's order does
    # not matter, down to the order of the scheduler's maps.
    u = extract_components(mt, sol._replace(assignment=dict(reversed(sol.assignment.items()))))
    assert u == t
    assert [(s, list(d.items())) for s, d in u.scheduler.choices.items()] == \
        [(s, list(d.items())) for s, d in t.scheduler.choices.items()]


def test_extract_components_rejects_non_bottom_support(fig1):
    # x charges rep#pending|α, which leaves for op1 and never comes back:
    # no stationary measure has this support.
    mt = transform(fig1, 2)
    sol = LpSolution(OPTIMAL, {(mt.index["rep#pending"], "α"): Fraction(1, 2),
                               (mt.index["op1"], "a"): Fraction(1, 2)}, Fraction(0))
    assert all(a in _full(mt)[s] for s, a in sol.assignment)  # a support, not an empty one
    with pytest.raises(ValueError, match="must be bottom"):
        extract_components(mt, sol)


def test_extract_components_rejects_support_leading_outside(fig1):
    # x charges rep#pending|α alone, whose target op1 has no frequency.
    mt = transform(fig1, 2)
    sol = LpSolution(OPTIMAL, {(mt.index["rep#pending"], "α"): Fraction(1)}, Fraction(0))
    assert all(a in _full(mt)[s] for s, a in sol.assignment)
    with pytest.raises(ValueError, match="must be bottom"):
        extract_components(mt, sol)


def test_compute_E_fig1(fig1):
    mt = transform(fig1, 2)
    comps = compute_E(mt, Fraction(4, 5))
    by_states = {tuple(mt.ids[s] for s in c.states): c.avail for c in comps}
    assert by_states == {("op2",): Fraction(1), ("op1",): Fraction(0)}


def test_compute_E_zero_budget_still_finds_components(fig1):
    # With R = 0 no repair can succeed in budget, but the operational sinks
    # contain no error or op copy, so they remain valid components; the
    # infeasibility surfaces only in the later reachability program.
    mt = transform(fig1, 0)
    comps = compute_E(mt, Fraction(1, 2))
    names = {tuple(mt.ids[s] for s in c.states) for c in comps}
    assert names == {("op1",), ("op2",)}


def test_compute_E_empty_when_no_safe_recurrence():
    from resilient_mdp import make_mdp
    # The only recurrent behavior cycles through the error, and with R = 0
    # the repair step always busts the budget: e recurs, and no op copy of e.
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
        for w in weights.values():
            assert long_run_value(chain, w.get) >= 0
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


_SPLITS = [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 3)),
           (Fraction(1, 4), Fraction(3, 4))]


def two_cycle_model(rng: random.Random):
    """Two op cycles that the initial state enters with fixed probabilities,
    so a scheduler ends in both. Each cycle has an error repaired back into
    it by a risky repair (``gamble``) or a sure one (``safe``), and may take
    a risky step (``a1``) that meets the error or a safe one (``a0``)."""
    states = [("o0", "op", rng.randint(0, 3))]
    split = rng.choice(_SPLITS)
    transitions = [("o0", "a0", [("p0", split[0]), ("q0", split[1])])]
    for side in "pq":
        size = rng.randint(1, 3)
        cycle = [f"{side}{k}" for k in range(size)]
        err, rep = f"e{side}", f"r{side}"
        states += [(s, "op", rng.randint(0, 3)) for s in cycle]
        states += [(err, "err", rng.randint(0, 2)), (rep, "rep", rng.randint(1, 3))]
        for k, s in enumerate(cycle):
            after = cycle[(k + 1) % size]
            transitions.append((s, "a0", [(after, 1)]))
            if rng.random() < 0.5:
                p, q = rng.choice(_SPLITS)
                transitions.append((s, "a1", [(after, p), (err, q)]))
        transitions += [(err, "a0", [(rep, 1)]),
                        (rep, "gamble", [(cycle[0], Fraction(1, 2)), (rep, Fraction(1, 2))]),
                        (rep, "safe", [(cycle[-1], 1)])]
    return make_mdp(states, transitions, "o0")


_THRESHOLDS = [Fraction(1, 2), Fraction(3, 4), Fraction(9, 10), Fraction(1)]


def _plus(row, other, factor):
    """row + factor · other, zero coefficients dropped."""
    out = dict(row)
    for v, q in other.items():
        out[v] = out.get(v, 0) + factor * q
    return {v: q for v, q in out.items() if q}


def test_repair_rows_differ_from_the_weight_rows_by_flow_rows():
    # Over a MEC's frequencies, e's row of ``repair_rows`` minus its weight
    # row (``build_weights``) is threshold times the flow rows of e's repair
    # copies <e, s, r> in the MEC. Those copies are entered only from e and
    # from copies that keep the repair tracked, and left at an op copy or
    # where the budget is overrun. So both rows state one constraint on the
    # points that keep the flow rows.
    seen = {"rows differ": 0, "own cost overrun": 0}

    @settings(max_examples=150, deadline=None)
    @given(m=st.one_of(
               st.builds(lambda seed, any_target: random_model(random.Random(seed), any_target),
                         st.integers(0, 10 ** 9), st.booleans()),
               st.builds(chain_model, st.integers(1, 3), st.integers(1, 3))),
           bound=st.integers(0, 4), threshold=st.sampled_from(_THRESHOLDS))
    def check(m, bound, threshold):
        mt = transform(m, bound)
        weights = build_weights(mt, threshold)
        for members, acts in mec_decomposition(mt, _full(mt)):
            flow = flow_balance(members, acts.__getitem__, mt.actions)
            rows = repair_rows(mt, threshold, lambda s: acts.get(s, ()))
            for e, row in zip(mt.errors(), rows):
                weight_row = {(s, a): weights[e][s] for s in members if s in weights[e]
                              for a in acts[s]}
                want = {}
                for s in members:
                    if mt.triple[s] is not None and mt.triple[s][0] == mt.back[e]:
                        want = _plus(want, flow[s], threshold)
                assert _plus(row, weight_row, -1) == want
                seen["rows differ"] += bool(want)
                seen["own cost overrun"] += e in members and e in weights[e]

    check()
    assert all(seen.values()), seen


def test_compute_E_matches_global_program_reference():
    # The per-MEC worklist finds the same triples as one global program per
    # elimination step (``global_compute_E``), and synthesis gives the same
    # verdict, availability and document from them. Documents with two or
    # more components, whose column order follows the order of E, come from
    # fig1 and from ``two_cycle_model``.
    components = []

    @settings(max_examples=90, deadline=None)
    @given(m=st.one_of(
               st.builds(lambda seed, any_target: random_model(random.Random(seed), any_target),
                         st.integers(0, 10 ** 9), st.booleans()),
               st.integers(0, 10 ** 9).map(lambda seed: two_cycle_model(random.Random(seed)))),
           bound=st.integers(0, 3), threshold=st.sampled_from(_THRESHOLDS))
    @example(m=fig1_model(), bound=2, threshold=Fraction(4, 5))
    def check(m, bound, threshold):
        mt = transform(m, bound)

        def keys(triples):
            return {(t.states, tuple((s, tuple(sorted(d.items())))
                                     for s, d in sorted(t.scheduler.choices.items())), t.avail)
                    for t in triples}

        def outcome():
            try:
                result = synthesize(m, threshold, bound)
            except InvalidModelError:
                return "invalid"
            if not result.feasible:
                return None
            document = serialize_scheduler(result.scheduler, threshold, result.availability)
            return result.availability, document, len(result.scheduler.components)

        assert keys(compute_E(mt, threshold)) == keys(global_compute_E(mt, threshold))
        got = outcome()
        with mock.patch("resilient_mdp.synth.compute_E", global_compute_E):
            assert outcome() == got
        if isinstance(got, tuple):
            components.append(got[2])

    check()
    assert max(components) >= 2

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilient_mdp import (MdpWithRepair, MrScheduler, TransformedMdp, make_mdp, transform,
                           validate_repair_assumption)
from resilient_mdp.transform import PENDING, _passed_on, _successor_key
from helpers import (InvalidPathError, PathRecord, build_weights, lift_path, path_cost,
                     path_payoff, project_path)

from conftest import random_model


def test_fig1_reachable_fragment(fig1):
    mt = transform(fig1, 2)
    assert mt.n == 12
    expected = {"s_init", "error", "rep#pending", "op1", "op2",
                "error#rep#0", "error#rep#1", "error#rep#2",
                "error#op1#1", "error#op1#2", "error#op2#1", "error#op2#2"}
    assert set(mt.ids) == expected


def test_models_and_schedulers_refuse_assignment_and_compare_by_value(fig1):
    mt = transform(fig1, 2)
    sched = MrScheduler({0: {"a": Fraction(1)}})
    for record, name in ((fig1, "ids"), (mt, "base"), (mt, "new"), (sched, "choices")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    fields = dict(base=fig1, cost_bound=2, back=mt.back, memory=mt.memory)
    same = TransformedMdp(mt.ids, mt.kinds, mt.rewards, mt.actions, mt.initial, **fields)
    assert same == mt and same.index == mt.index and transform(fig1, 1) != mt != fig1
    assert TransformedMdp(mt.ids, mt.kinds, mt.rewards, mt.actions, mt.initial,
                          **dict(fields, cost_bound=3)) != mt
    assert MrScheduler({0: {"a": Fraction(1)}}) == sched != MrScheduler({})


def test_budget_overrun_enters_pending_copies(fig1):
    mt = transform(fig1, 2)
    src = mt.index["error#rep#2"]
    dist = dict(mt.actions[src]["β"])
    # 2 + cost(rep) = 3 > 2: cost tracking stops but the repair is pending.
    assert dist[mt.index["rep#pending"]] == Fraction(1, 2)
    assert dist[mt.index["op2"]] == Fraction(1, 2)
    pend = mt.index["rep#pending"]
    assert mt.memory[pend] == "pending"
    # Pending copies leave only through an operational state.
    assert dict(mt.actions[pend]["β"]) == {pend: Fraction(1, 2),
                                           mt.index["op2"]: Fraction(1, 2)}
    assert dict(mt.actions[pend]["α"]) == {mt.index["op1"]: Fraction(1)}


def test_within_budget_stays_annotated(fig1):
    mt = transform(fig1, 2)
    src = mt.index["error#rep#0"]
    dist = dict(mt.actions[src]["β"])
    assert dist[mt.index["error#rep#1"]] == Fraction(1, 2)
    assert dist[mt.index["error#op2#1"]] == Fraction(1, 2)


def test_error_entry_records_error_cost():
    m = make_mdp(
        [("s", "op", 0), ("e", "err", 2), ("r", "rep", 1)],
        [("s", "a", [("e", 1)]), ("e", "a", [("r", 1)]),
         ("r", "a", [("s", Fraction(1, 2)), ("r", Fraction(1, 2))])],
        "s")
    mt = transform(m, 3)
    e = mt.index["e"]
    assert dict(mt.actions[e]["a"]) == {mt.index["e#r#2"]: Fraction(1)}


def test_error_cost_beyond_budget_skips_annotation():
    m = make_mdp(
        [("s", "op", 0), ("e", "err", 2), ("r", "rep", 1)],
        [("s", "a", [("e", 1)]), ("e", "a", [("r", 1)]),
         ("r", "a", [("s", Fraction(1, 2)), ("r", Fraction(1, 2))])],
        "s")
    mt = transform(m, 1)
    e = mt.index["e"]
    assert dict(mt.actions[e]["a"]) == {mt.index["r#pending"]: Fraction(1)}
    assert not any(isinstance(mem, tuple) for mem in mt.memory)


def test_no_errors_means_identity():
    m = make_mdp([("s", "op", 1), ("t", "rep", 2)],
                 [("s", "a", [("t", 1)]), ("t", "a", [("s", 1)])], "s")
    mt = transform(m, 5)
    assert mt.n == m.n
    assert set(mt.ids) == set(m.ids)


def test_repair_copies_never_hold_error_states():
    rng = random.Random(5)
    for _ in range(40):
        mt = transform(random_model(rng), rng.randint(0, 3))
        for i, mem in enumerate(mt.memory):
            if isinstance(mem, tuple):
                assert mt.base.kinds[mt.back[i]] != "err"
                assert 0 <= mem[1] <= mt.cost_bound


def test_memory_labels_match_state_ids():
    # ``memory[i]`` is the label of state i's id and of transform's key:
    # (e, r) for "e#s#r", "pending" for a pending copy "s#pending", None for
    # the base id; successors carry the label the budget rule passes on.
    # Under the repair assumption no copy sits at an error.
    seen = set()

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10 ** 9), any_target=st.booleans(), bound=st.integers(0, 3))
    def check(seed, any_target, bound):
        mt = transform(random_model(random.Random(seed), any_target), bound)
        m = mt.base
        assumed = validate_repair_assumption(m).ok
        assert len(mt.memory) == mt.n and len(set(zip(mt.memory, mt.back))) == mt.n
        for i, (mem, s) in enumerate(zip(mt.memory, mt.back)):
            sid = mt.ids[i]
            tracked = isinstance(mem, tuple)
            assert tracked == (sid.count("#") == 2)
            if tracked:
                e, r = mem
                assert sid == f"{m.ids[e]}#{m.ids[s]}#{r}" and m.kinds[e] == "err"
                assert 0 <= r <= bound and (m.kinds[s] != "err" or not assumed)
            assert (mem == PENDING) == (sid.endswith("#pending") and mt.kinds[i] == "rep")
            assert (mem is None) == (sid == m.ids[s])
            assert tracked or mem in (PENDING, None)
            passed = _passed_on(m, bound, mem, s)
            for act in mt.enabled(i):
                for j, _ in mt.actions[i][act]:
                    assert (mt.memory[j], mt.back[j]) == _successor_key(m, passed, mt.back[j])
            seen.add("tracked" if tracked else mem)

    check()
    assert seen == {"tracked", PENDING, None}


def test_copies_keep_base_actions_and_rewards():
    rng = random.Random(6)
    for _ in range(40):
        mt = transform(random_model(rng), rng.randint(0, 3))
        assert isinstance(mt, MdpWithRepair)
        for i in range(mt.n):
            b = mt.back[i]
            assert mt.rewards[i] == mt.base.rewards[b]
            assert mt.enabled(i) == mt.base.enabled(b)
            assert mt.payoff(i) == mt.base.payoff(b)
            assert mt.cost(i) == mt.base.cost(b)


def _arithmetic_weights(mt, threshold):
    """The weights spelled out as budget arithmetic, one pass per error."""
    out = {}
    for e in mt.errors():
        base_e = mt.back[e]
        wgt = {}
        for i, mem in enumerate(mt.memory):
            if not isinstance(mem, tuple) or mem[0] != base_e:
                continue
            ts, r = mt.back[i], mem[1]
            if mt.base.kinds[ts] == "op":
                wgt[i] = 1 - threshold
            elif r + mt.base.cost(ts) > mt.cost_bound:
                wgt[i] = -threshold
        if mt.base.cost(base_e) > mt.cost_bound:
            wgt[e] = -threshold
        out[e] = wgt
    return out


def test_build_weights_matches_budget_arithmetic():
    # ``build_weights`` reads budget overrun off transform's budget rule; the
    # reference restates the rule as cost arithmetic on the repair copies.
    seen = set()

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10 ** 9), any_target=st.booleans(), bound=st.integers(0, 3),
           threshold=st.sampled_from([Fraction(1, 2), Fraction(3, 4), Fraction(9, 10),
                                      Fraction(1)]))
    def check(seed, any_target, bound, threshold):
        mt = transform(random_model(random.Random(seed), any_target), bound)
        weights = build_weights(mt, threshold)
        assert weights == _arithmetic_weights(mt, threshold)
        for e, wgt in weights.items():
            seen.update("op copy" if mt.is_op(i) else "own cost" if i == e else "overrun"
                        for i in wgt)

    check()
    assert seen == {"op copy", "overrun", "own cost"}


def test_state_count_bound():
    rng = random.Random(8)
    for _ in range(30):
        m = random_model(rng)
        bound = rng.randint(0, 3)
        mt = transform(m, bound)
        n_err = sum(1 for k in m.kinds if k == "err")
        n_rep = sum(1 for k in m.kinds if k == "rep")
        # Base states, one copy per (error, state, cost), one pending copy
        # per repair state.
        assert mt.n <= m.n + n_err * m.n * (bound + 1) + n_rep


def test_cost_bound_is_a_nonnegative_int(fig1):
    for bound in (2.0, True, "2"):
        with pytest.raises(TypeError, match="cost bound must be an int"):
            transform(fig1, bound)
    with pytest.raises(ValueError, match="cost bound must be nonnegative"):
        transform(fig1, -1)


def test_project_example(fig1):
    mt = transform(fig1, 2)
    p = PathRecord(("s_init", "a", "error", "a", "error#rep#0", "β", "error#op2#1"))
    q = project_path(mt, p)
    assert q.steps == ("s_init", "a", "error", "a", "rep", "β", "op2")
    assert path_cost(mt, p) == path_cost(fig1, q) == 1
    assert path_payoff(mt, p) == path_payoff(fig1, q) == 1


def test_lift_example(fig1):
    mt = transform(fig1, 2)
    p = PathRecord(("s_init", "a", "error", "a", "rep", "β", "op2"))
    assert lift_path(mt, p).steps == (
        "s_init", "a", "error", "a", "error#rep#0", "β", "error#op2#1")


def test_lift_through_overrun(fig1):
    mt = transform(fig1, 2)
    p = PathRecord(("s_init", "a", "error", "a", "rep", "β", "rep",
                    "β", "rep", "β", "rep", "β", "op2"))
    lifted = lift_path(mt, p)
    assert lifted.steps == (
        "s_init", "a", "error", "a", "error#rep#0", "β", "error#rep#1",
        "β", "error#rep#2", "β", "rep#pending", "β", "op2")
    assert project_path(mt, lifted) == p
    assert path_cost(mt, lifted) == path_cost(fig1, p)


def test_invalid_paths_rejected(fig1):
    mt = transform(fig1, 2)
    with pytest.raises(InvalidPathError):
        project_path(mt, PathRecord(("s_init", "a", "op2")))
    with pytest.raises(InvalidPathError):
        lift_path(mt, PathRecord(("error", "a", "rep")))  # must start initial
    with pytest.raises(InvalidPathError):
        project_path(mt, PathRecord(("s_init", "a")))


def _random_base_path(rng, m, max_len):
    s = m.initial
    steps = [m.ids[s]]
    for _ in range(rng.randint(0, max_len)):
        a = rng.choice(m.enabled(s))
        targets = [t for t, p in m.actions[s][a] if p > 0]
        s = rng.choice(targets)
        steps.extend([a, m.ids[s]])
    return PathRecord(tuple(steps))


def test_round_trip_and_value_preservation_on_random_paths():
    # Lift/project round-trip plus cost and payoff equality, 1000 paths.
    rng = random.Random(42)
    paths = 0
    while paths < 1000:
        m = random_model(rng)
        mt = transform(m, rng.randint(0, 3))
        for _ in range(25):
            p = _random_base_path(rng, m, 20)
            lifted = lift_path(mt, p)
            assert project_path(mt, lifted) == p
            assert path_cost(mt, lifted) == path_cost(m, p)
            assert path_payoff(mt, lifted) == path_payoff(m, p)
            paths += 1

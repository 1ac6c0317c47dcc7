import random
from fractions import Fraction

import pytest

from resilient_mdp import make_mdp, validate_repair_assumption, validate_structure

from conftest import random_model


def test_fig1_validates(fig1):
    assert validate_structure(fig1).ok
    assert validate_repair_assumption(fig1).ok
    assert validate_structure(fig1).render() == "ok"


def test_payoff_and_cost_sides(fig1):
    op2 = fig1.index["op2"]
    rep = fig1.index["rep"]
    assert fig1.payoff(op2) == 1 and fig1.cost(op2) == 0
    assert fig1.cost(rep) == 1 and fig1.payoff(rep) == 0


def test_bad_distribution_reported():
    m = make_mdp(
        [("s", "rep", 0), ("t", "op", 1)],
        [("s", "b", [("s", Fraction(1, 2)), ("t", Fraction(1, 3))]),
         ("t", "a", [("t", 1)])],
        "s")
    report = validate_structure(m)
    assert not report.ok
    assert any(v.rule == "bad-distribution" and "5/6" in v.message
               for v in report.violations)


def test_trap_state_reported():
    m = make_mdp([("s", "op", 0), ("t", "op", 0)],
                 [("s", "a", [("t", 1)])], "s")
    report = validate_structure(m)
    assert [v.rule for v in report.violations] == ["trap-state"]
    assert report.violations[0].where == "t"


def test_dangling_reference_reported():
    m = make_mdp([("s", "op", 0)], [("s", "a", [("ghost", 1)]),
                                    ("phantom", "a", [("s", 1)])], "s")
    rules = [v.rule for v in validate_structure(m).violations]
    assert rules.count("dangling-reference") == 2


def test_repeated_state_action_reported():
    m = make_mdp([("s", "op", 0), ("t", "op", 0)],
                 [("s", "a", [("t", 1)]), ("t", "a", [("t", 1)]), ("s", "a", [("s", 1)])], "s")
    report = validate_structure(m)
    assert [(v.rule, v.where) for v in report.violations] == [("duplicate-action", "s/a")]


def test_bad_kind_and_reward_reported():
    m = make_mdp([("s", "operational", -1)], [("s", "a", [("s", 1)])], "s")
    rules = {v.rule for v in validate_structure(m).violations}
    assert {"bad-kind", "bad-reward"} <= rules


def test_reward_of_over_4300_digits_reported_without_its_digits():
    # repr() of a 5001-digit int raises ValueError; the violation names the
    # sign instead.
    for reward, message in [(-10 ** 5000, "reward must be nonnegative"),
                            (10 ** 5000, "reward must be at most 2**1023")]:
        m = make_mdp([("s", "op", reward)], [("s", "a", [("s", 1)])], "s")
        report = validate_structure(m)
        assert report.violations == (("bad-reward", "s", message),)
        assert report.render() == f"[bad-reward] s: {message}"


def test_bool_and_non_int_rewards_rejected():
    # As in docs.parse_model, a bool is not an integer reward.
    for reward, name in [(True, "bool"), (False, "bool"), (1.0, "float"),
                         (Fraction(1), "Fraction")]:
        m = make_mdp([("s", "op", reward)], [("s", "a", [("s", 1)])], "s")
        assert validate_structure(m).violations == (
            ("bad-reward", "s", f"reward must be an integer, got {name}"),)


def test_reserved_id_characters_rejected():
    m = make_mdp([("a#b", "op", 0)], [("a#b", "τ", [("a#b", 1)])], "a#b")
    rules = [v.rule for v in validate_structure(m).violations]
    assert rules.count("bad-id") == 2


def test_duplicate_ids_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        make_mdp([("s", "op", 0), ("s", "op", 0)], [], "s")


def test_unknown_initial_rejected():
    with pytest.raises(ValueError, match="initial"):
        make_mdp([("s", "op", 0)], [("s", "a", [("s", 1)])], "t")


def test_repair_assumption_violation():
    # A repair state that can fall back into the error violates the
    # no-new-error-before-repair condition.
    m = make_mdp(
        [("s", "op", 0), ("e", "err", 0), ("r", "rep", 1), ("o", "op", 1)],
        [("s", "a", [("e", 1)]),
         ("e", "a", [("r", 1)]),
         ("r", "b", [("e", Fraction(1, 2)), ("o", Fraction(1, 2))]),
         ("o", "a", [("o", 1)])],
        "s")
    assert validate_structure(m).ok
    report = validate_repair_assumption(m)
    assert not report.ok
    assert report.violations[0].where == "e/a"


def test_error_straight_to_op_is_fine():
    m = make_mdp(
        [("s", "op", 0), ("e", "err", 2)],
        [("s", "a", [("e", 1)]), ("e", "a", [("s", 1)])],
        "s")
    assert validate_repair_assumption(m).ok


def _first_hit_ok(m, start: int, limit: int) -> bool:
    """Depth-limited path enumeration: no Err state strictly before an Op one."""
    stack = [(start, 0)]
    while stack:
        s, depth = stack.pop()
        if m.kinds[s] == "err":
            return False
        if m.kinds[s] == "op" or depth >= limit:
            continue
        for a in m.enabled(s):
            for t, p in m.actions[s][a]:
                if p > 0:
                    stack.append((t, depth + 1))
    return True


def test_repair_assumption_matches_path_enumeration():
    # Models whose errors and repairs may target any state violate the
    # assumption at some error/action locations; each must be reported.
    violated = 0
    for any_target in (False, True):
        rng = random.Random(7)
        for _ in range(60):
            m = random_model(rng, any_target)
            expected = {
                f"{m.ids[e]}/{a}"
                for e in range(m.n) if m.kinds[e] == "err"
                for a in m.enabled(e) for t, p in m.actions[e][a]
                if p > 0 and not _first_hit_ok(m, t, m.n)}
            report = validate_repair_assumption(m)
            assert {v.where for v in report.violations} == expected
            assert report.ok == (not expected)
            violated += bool(expected)
    assert violated >= 10


def test_random_models_are_valid():
    rng = random.Random(1)
    for _ in range(40):
        m = random_model(rng)
        assert validate_structure(m).ok
        assert validate_repair_assumption(m).ok

"""Acceptance gate: end-to-end checks with one printed verdict per criterion.

All comparisons are exact rational equality; runtime budgets are asserted
with a wall clock. The random-model criteria cross-check the LP pipeline
against the independent brute-force enumeration oracle.
"""

import random
import time
from fractions import Fraction

import pytest

from resilient_mdp import (brute_force_optimum, cli, compute_E, docs, synthesize, transform,
                           verify_resilient)
from resilient_mdp.analyze import induce_chain, until_probability
from resilient_mdp.graph import strongly_connected_components
from resilient_mdp.lp import INFEASIBLE

from conftest import beta_always, fig1_model, random_model
from helpers import (chain_rows, expected_total_reward, goal_mr_scheduler, lift_path,
                     path_cost, path_payoff, project_path, reference_goal_mdp)
from test_transform import _random_base_path


def _verdict(capsys, num: int, ok: bool, detail: str):
    with capsys.disabled():
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_fig1_golden_synthesis(capsys):
    t0 = time.monotonic()
    result = synthesize(fig1_model(), Fraction(4, 5), 2)
    elapsed = time.monotonic() - t0
    mt = result.scheduler.mt
    dist = result.scheduler.mr.dist(mt.index["error#rep#1"])
    ok = (result.availability == Fraction(9, 10)
          and dist["β"] == Fraction(4, 5) and elapsed < 1.0)
    _verdict(capsys, 1, ok,
             f"availability {result.availability}, β at r=1 is {dist['β']}, "
             f"{elapsed:.2f}s")


def test_criterion_2_fig1_boundary(capsys):
    t0 = time.monotonic()
    result = synthesize(fig1_model(), Fraction(3, 4), 2)
    elapsed = time.monotonic() - t0
    ok = result.availability == 1 and elapsed < 1.0
    _verdict(capsys, 2, ok, f"availability {result.availability} at ℘=3/4, "
                            f"{elapsed:.2f}s")


def test_criterion_3_fig1_certainty(capsys):
    t0 = time.monotonic()
    result = synthesize(fig1_model(), Fraction(1), 2)
    elapsed = time.monotonic() - t0
    ok = result.availability == Fraction(1, 2) and elapsed < 1.0
    _verdict(capsys, 3, ok, f"availability {result.availability} at ℘=1, "
                            f"{elapsed:.2f}s")


def test_criterion_4_infeasibility(capsys, tmp_path):
    t0 = time.monotonic()
    result = synthesize(fig1_model(), Fraction(1, 2), 0)
    path = tmp_path / "fig1.json"
    path.write_text(docs.serialize_model(fig1_model()), encoding="utf-8")
    code = cli.main(["synthesize", str(path), "--threshold", "1/2",
                     "--cost-bound", "0"])
    capsys.readouterr()
    elapsed = time.monotonic() - t0
    ok = not result.feasible and code == 1 and elapsed < 1.0
    _verdict(capsys, 4, ok,
             f"infeasible={not result.feasible}, exit code {code}, {elapsed:.2f}s")


def test_criterion_5_non_resilience_detection(capsys):
    t0 = time.monotonic()
    mt = transform(fig1_model(), 2)
    report = verify_resilient(mt, beta_always(mt), Fraction(4, 5))
    elapsed = time.monotonic() - t0
    res = report.per_error[mt.index["error"]].res_probability
    ok = res == Fraction(3, 4) and not report.ok and elapsed < 1.0
    _verdict(capsys, 5, ok,
             f"β-always repair-success {res}, resilient={report.ok}, "
             f"{elapsed:.2f}s")


def test_criterion_6_family_check(capsys):
    t0 = time.monotonic()
    m = fig1_model()
    ok = True
    for bound in (1, 2, 3, 4):
        mt = transform(m, bound)
        sched = beta_always(mt)
        edge = 1 - Fraction(1, 2 ** bound)
        for threshold in (edge, edge + Fraction(1, 100)):
            resilient = verify_resilient(mt, sched, threshold).ok
            ok = ok and (resilient == (threshold <= edge))
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    _verdict(capsys, 6, ok,
             f"β-always resilient iff ℘ ≤ 1 − 1/2^R over R ∈ {{1..4}}, "
             f"{elapsed:.2f}s")


def test_criterion_7_oracle_equivalence(capsys):
    t0 = time.monotonic()
    rng = random.Random(2026)
    thresholds = [Fraction(1, 2), Fraction(2, 3), Fraction(4, 5), Fraction(1)]
    checked = 0
    ok = True
    detail = ""
    while checked < 200 and ok:
        m = random_model(rng)
        bound = rng.randint(0, 3)
        mt = transform(m, bound)
        choice_states = sum(1 for i in range(mt.n) if len(mt.actions[i]) > 1)
        if mt.n > 14 or choice_states > 6:
            continue  # outside the oracle's enumeration budget
        threshold = thresholds[checked % len(thresholds)]
        result = synthesize(m, threshold, bound)
        oracle = brute_force_optimum(mt, threshold, max_choice_states=6)
        if result.feasible:
            if oracle.best_availability is not None and \
                    result.availability < oracle.best_availability:
                ok = False
                detail = (f"model {checked}: synthesized {result.availability} "
                          f"< oracle {oracle.best_availability}")
        else:
            lp_infeasible = result.solution.status == INFEASIBLE
            if oracle.best_availability is not None or not lp_infeasible:
                ok = False
                detail = (f"model {checked}: reported infeasible but oracle "
                          f"found {oracle.best_availability}")
        checked += 1
    elapsed = time.monotonic() - t0
    ok = ok and checked >= 200 and elapsed < 300
    _verdict(capsys, 7, ok, detail or
             f"{checked} random models vs deterministic oracle, {elapsed:.1f}s")


def test_criterion_8_structural_lemma_suite(capsys):
    t0 = time.monotonic()
    rng = random.Random(8888)
    ok = True
    detail = ""

    # Cost/payoff preservation of the path correspondence, 1000 lifted paths.
    paths = 0
    while paths < 1000 and ok:
        m = random_model(rng)
        mt = transform(m, rng.randint(0, 3))
        for _ in range(25):
            p = _random_base_path(rng, m, 20)
            lifted = lift_path(mt, p)
            if (project_path(mt, lifted) != p
                    or path_cost(mt, lifted) != path_cost(m, p)
                    or path_payoff(mt, lifted) != path_payoff(m, p)):
                ok = False
                detail = "path correspondence mismatch"
                break
            paths += 1

    # On oracle-sized models: the one-step until computation of the repair
    # success agrees with cost-bounded reachability over the annotated
    # copies; verified-resilient schedulers have nonnegative weight means;
    # computed components are disjoint and strongly connected; the expected
    # total reward from every reachable component state equals that
    # component's goal reward.
    models = 0
    while models < 30 and ok:
        m = random_model(rng)
        bound = rng.randint(0, 3)
        mt = transform(m, bound)
        if mt.n > 14:
            continue
        threshold = Fraction(1, 2)
        sched = beta_always(mt)
        report = verify_resilient(mt, sched, threshold)
        chain = induce_chain(mt, sched, mt.initial)
        for e, check in report.per_error.items():
            stay = {i for i in range(mt.n)
                    if mt.triple[i] is not None and not mt.is_op(i)}
            pr = until_probability(chain, stay, set(mt.op_copies_of(e)))
            other = sum((p * pr[chain.states[t]]
                         for t, p in chain_rows(chain)[chain.index[e]].items()),
                        Fraction(0))
            if check.res_probability != other:
                ok, detail = False, "repair-success probability mismatch"
        if report.ok and any(v < 0 for v in report.mp.values()):
            ok, detail = False, "negative weight mean on resilient scheduler"

        comps = compute_E(mt, threshold)
        seen = set()
        for c in comps:
            inside = set(c.states)
            if inside & seen:
                ok, detail = False, "components overlap"
            seen |= inside
            pos = {s: k for k, s in enumerate(c.states)}
            succ = [[] for _ in c.states]
            for s in c.states:
                for a in c.action_sets[s]:
                    for t, _ in mt.actions[s][a]:
                        if t not in inside:
                            ok, detail = False, "component not closed"
                        else:
                            succ[pos[s]].append(pos[t])
            if len(c.states) > 1 and \
                    len(strongly_connected_components(succ)) != 1:
                ok, detail = False, "component not strongly connected"

        result = synthesize(m, threshold, bound)
        if result.feasible:
            n = reference_goal_mdp(mt, result.components)
            rn = goal_mr_scheduler(n, result.solution)
            goal_chain = induce_chain(n, rn, n.mt.initial)
            for comp in result.scheduler.components:
                goal_k = next(n.goal_of(k) for k, c in enumerate(n.comps)
                              if c is comp)
                for s in comp.states:
                    if s in goal_chain.index and \
                            expected_total_reward(n, rn, s) != n.reward(goal_k):
                        ok, detail = False, "total reward differs inside component"
        models += 1

    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120
    _verdict(capsys, 8, ok, detail or
             f"path/probability/component/total-reward identities hold, "
             f"{elapsed:.1f}s")


def test_criterion_9_determinism(capsys, tmp_path):
    model_path = tmp_path / "fig1.json"
    model_path.write_text(docs.serialize_model(fig1_model()), encoding="utf-8")
    commands = [
        ["validate", str(model_path)],
        ["synthesize", str(model_path), "--threshold", "4/5",
         "--cost-bound", "2", "--out", str(tmp_path / "s.json")],
        ["synthesize", str(model_path), "--threshold", "1/2", "--cost-bound", "0"],
    ]
    ok = True
    outputs = []
    for argv in commands:
        runs = []
        for _ in range(2):
            code = cli.main(argv)
            captured = capsys.readouterr()
            runs.append((code, captured.out))
        ok = ok and runs[0] == runs[1]
        outputs.append(runs[0])
    sched_path = tmp_path / "s.json"
    first = sched_path.read_bytes()
    cli.main(commands[1])
    capsys.readouterr()
    ok = ok and sched_path.read_bytes() == first
    for argv in (["verify", str(model_path), str(sched_path)],
                 ["simulate", str(model_path), str(sched_path),
                  "--steps", "1000", "--trials", "10", "--seed", "3"]):
        runs = []
        for _ in range(2):
            code = cli.main(argv)
            captured = capsys.readouterr()
            runs.append((code, captured.out))
        ok = ok and runs[0] == runs[1]
    _verdict(capsys, 9, ok, "byte-identical repeated runs of every command")

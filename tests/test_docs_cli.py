import copy
import functools
import hashlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import resilient_mdp
import resilient_mdp.lp as lp_module
import resilient_mdp.synth as synth_module
from resilient_mdp import MrScheduler, cli, docs, make_mdp, synthesize, transform, verify_resilient
from resilient_mdp.docs import DocumentError
from resilient_mdp.lp import LinearProgram, SolverError
from resilient_mdp.synth import ComposedScheduler, VerificationFailedError

from conftest import fig1_model, random_model
from helpers import fraction_operator_calls


@pytest.fixture
def fig1_path(tmp_path):
    path = tmp_path / "fig1.json"
    path.write_text(docs.serialize_model(fig1_model()), encoding="utf-8")
    return str(path)


def test_fraction_parsing():
    assert docs.parse_fraction("4/5") == Fraction(4, 5)
    assert docs.parse_fraction("0.8") == Fraction(4, 5)
    assert docs.parse_fraction("1") == 1
    assert docs.parse_fraction(1e-05) == docs.parse_fraction("1e-05") == Fraction(1, 100000)
    assert docs.parse_fraction("25e-1") == Fraction(5, 2)
    limit = docs.MAX_EXPONENT
    assert docs.parse_fraction(f"1e-{limit}") == Fraction(1, 10 ** limit)
    for text in (f"1e{limit + 1}", f"1E-{limit + 1}", f"1e+{limit + 1}"):
        with pytest.raises(DocumentError, match="exponent"):
            docs.parse_fraction(text)
    with pytest.raises(DocumentError):
        docs.parse_fraction("1/0")
    with pytest.raises(DocumentError):
        docs.parse_fraction("one half")


def test_fraction_parsing_remembers_only_accepted_strings():
    # The grammar holds the same with every accepted string already parsed
    # once, an accepted string gives the one shared Fraction, and a rejected
    # string is not remembered: it raises again on every call.
    test_fraction_parsing()
    test_fraction_parsing()
    assert docs.parse_fraction("3/8") is docs.parse_fraction("3/8")
    assert docs.parse_fraction(1) is docs.parse_fraction("1")
    for text in ("1/0", "one half", f"1e{docs.MAX_EXPONENT + 1}", "1/2_0", "٣/٤", ""):
        for _ in range(3):
            with pytest.raises(DocumentError):
                docs.parse_fraction(text)


def test_model_round_trip(fig1):
    assert docs.parse_model(json.loads(docs.serialize_model(fig1))) == fig1


def test_model_round_trip_random():
    rng = random.Random(61)
    for _ in range(25):
        m = random_model(rng)
        assert docs.parse_model(json.loads(docs.serialize_model(m))) == m


def test_model_serialization_stable(fig1):
    assert docs.serialize_model(fig1) == docs.serialize_model(fig1)


def test_scheduler_round_trip(fig1):
    result = synthesize(fig1, Fraction(4, 5), 2)
    text = docs.serialize_scheduler(result.scheduler, Fraction(4, 5),
                                    result.availability)
    doc = docs.parse_scheduler(json.loads(text))
    assert doc.threshold == Fraction(4, 5)
    assert doc.cost_bound == 2
    assert doc.availability == Fraction(9, 10)
    mt = result.scheduler.mt
    assert doc.to_mr(mt).choices == result.scheduler.mr.choices


def test_scheduler_document_errors():
    with pytest.raises(DocumentError):
        docs.parse_scheduler({"format": "something-else"})
    with pytest.raises(DocumentError):
        docs.parse_scheduler({"format": docs.SCHEDULER_FORMAT, "threshold": "1/2",
                              "costBound": -1, "transient": []})


def test_model_document_errors(tmp_path):
    with pytest.raises(DocumentError):
        docs.parse_model({"format": docs.MODEL_FORMAT, "states": []})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(DocumentError):
        docs.load_model(str(bad))
    with pytest.raises(DocumentError):
        docs.load_model(str(tmp_path / "missing.json"))


def _run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_validate_ok(fig1_path, capsys):
    code, out, err = _run(["validate", fig1_path], capsys)
    assert (code, out, err) == (0, "ok\n", "")


def test_cli_validate_invalid_model(tmp_path, capsys):
    data = json.loads(docs.serialize_model(fig1_model()))
    # rep falls back into the error: repair assumption violated
    data["transitions"][3]["to"] = [{"target": "error", "prob": "1/2"},
                                    {"target": "op2", "prob": "1/2"}]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = _run(["validate", str(path)], capsys)
    assert code == 2
    assert "repair-assumption" in out


def test_cli_validate_parse_error(tmp_path, capsys):
    data = json.loads(docs.serialize_model(fig1_model()))
    data["transitions"][0]["to"][0]["prob"] = "1/0"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = _run(["validate", str(path)], capsys)
    assert code == 3
    assert "parse error" in err


@pytest.mark.parametrize("text", ["1/2_0", "٣/٤", "1_0", "٣"])
def test_numbers_take_only_ascii_digits(fig1_path, tmp_path, capsys, text):
    # ``Fraction`` reads "1/2_0" as 1/20 from Python 3.11 on, and ``Fraction``
    # and ``int`` read "٣/٤" and "٣" as 3/4 and 3; no Python version may.
    data = json.loads(docs.serialize_model(fig1_model()))
    data["transitions"][0]["to"][0]["prob"] = text
    model = tmp_path / "bad.json"
    model.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
    sched = tmp_path / "sched.json"
    _run(["synthesize", fig1_path, "--threshold", "4/5", "--cost-bound", "2",
          "--out", str(sched)], capsys)
    for argv in (["validate", str(model)],
                 ["verify", fig1_path, str(sched), "--threshold", text],
                 ["verify", fig1_path, str(sched), "--cost-bound", text],
                 ["synthesize", fig1_path, "--threshold", "4/5", "--cost-bound", text]):
        code, out, err = _run(argv, capsys)
        assert code == 3, argv


@pytest.mark.parametrize("version", [2, "banana", True, 1.0])
def test_document_version_must_be_integer_one(fig1_path, tmp_path, capsys, version):
    sched = tmp_path / "sched.json"
    _run(["synthesize", fig1_path, "--threshold", "4/5", "--cost-bound", "2",
          "--out", str(sched)], capsys)
    model = tmp_path / "model.json"
    model_data = json.loads(Path(fig1_path).read_text(encoding="utf-8"))
    sched_data = json.loads(sched.read_text(encoding="utf-8"))
    for data, path in ((model_data, model), (sched_data, sched)):
        data["version"] = version
        path.write_text(json.dumps(data), encoding="utf-8")
    for argv in (["validate", str(model)], ["verify", fig1_path, str(sched)]):
        code, out, err = _run(argv, capsys)
        assert code == 3 and "unsupported version" in err, argv
    # A document without a version is still read.
    for data, path in ((model_data, model), (sched_data, sched)):
        del data["version"]
        path.write_text(json.dumps(data), encoding="utf-8")
    assert _run(["validate", str(model)], capsys)[0] == 0
    assert _run(["verify", fig1_path, str(sched)], capsys)[0] == 0


def test_cli_synthesize_writes_scheduler(fig1_path, tmp_path, capsys):
    out_path = tmp_path / "sched.json"
    code, out, err = _run(["synthesize", fig1_path, "--threshold", "4/5",
                           "--cost-bound", "2", "--out", str(out_path)], capsys)
    assert code == 0 and err == ""
    assert "9/10" in out
    doc = docs.load_scheduler(str(out_path))
    assert doc.availability == Fraction(9, 10)


def test_cli_synthesize_unwritable_out_is_usage_error(fig1_path, tmp_path, capsys):
    out_path = tmp_path / "missing" / "x.json"
    code, out, err = _run(["synthesize", fig1_path, "--threshold", "4/5",
                           "--cost-bound", "2", "--out", str(out_path)], capsys)
    assert code == 3
    assert out.startswith("availability: 9/10 ")
    assert err.startswith(f"usage error: cannot write {out_path}: ") and err.count("\n") == 1
    assert not out_path.exists()


def test_cli_synthesize_infeasible(fig1_path, capsys):
    code, out, err = _run(["synthesize", fig1_path, "--threshold", "1/2",
                           "--cost-bound", "0"], capsys)
    assert code == 1
    assert "no resilient scheduler" in out


def test_cli_synthesize_usage_errors(fig1_path, capsys):
    code, _, err = _run(["synthesize", fig1_path, "--threshold", "0",
                         "--cost-bound", "2"], capsys)
    assert code == 3 and "threshold" in err
    code, _, err = _run(["synthesize", fig1_path, "--threshold", "1/2",
                         "--cost-bound", "x"], capsys)
    assert code == 3 and "cost bound" in err
    code, _, err = _run(["synthesize", fig1_path, "--threshold", "1/2",
                         "--cost-bound", "-1"], capsys)
    assert code == 3 and "cost bound must be nonnegative" in err
    # Past CPython's 4300-digit limit for int(), which raises ValueError.
    code, _, err = _run(["synthesize", fig1_path, "--threshold", "1/2",
                         "--cost-bound", "1" + "0" * 5000], capsys)
    assert code == 3 and "cost bound must be a decimal integer" in err


def test_cli_synthesize_validates_the_model_once(fig1_path, capsys, monkeypatch):
    calls = []

    def counted(check):
        def wrapper(m):
            calls.append(check.__name__)
            return check(m)
        return wrapper

    for module in (cli, synth_module):
        for name in ("validate_structure", "validate_repair_assumption"):
            monkeypatch.setattr(module, name, counted(getattr(module, name)))
    assert _run(["synthesize", fig1_path, "--threshold", "4/5", "--cost-bound", "2"],
                capsys)[0] == 0
    assert calls == ["validate_structure", "validate_repair_assumption"]


def test_cli_synthesize_dumps(fig1_path, capsys):
    code, out, _ = _run(["synthesize", fig1_path, "--threshold", "4/5",
                         "--cost-bound", "2", "--dump-lp",
                         "--dump-components"], capsys)
    assert code == 0
    assert "component 0" in out
    assert "subject to:" in out


def test_cli_verify_round(fig1_path, tmp_path, capsys):
    sched = tmp_path / "sched.json"
    _run(["synthesize", fig1_path, "--threshold", "4/5", "--cost-bound", "2",
          "--out", str(sched)], capsys)
    code, out, err = _run(["verify", fig1_path, str(sched)], capsys)
    assert code == 0 and err == ""
    assert "resilient: yes" in out


def _beta_always_doc(tmp_path):
    m = fig1_model()
    mt = transform(m, 2)
    rules = []
    for i in range(mt.n):
        acts = mt.enabled(i)
        act = "β" if "β" in acts else acts[0]
        rules.append({"state": mt.ids[i], "choice": {act: "1"}})
    data = {"format": docs.SCHEDULER_FORMAT, "version": 1, "threshold": "4/5",
            "costBound": 2, "availability": None, "transient": rules,
            "components": []}
    path = tmp_path / "beta.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_cli_verify_beta_always_fails(fig1_path, tmp_path, capsys):
    path = _beta_always_doc(tmp_path)
    code, out, err = _run(["verify", fig1_path, path], capsys)
    assert code == 1
    assert "3/4" in out and "resilient: NO" in out


def test_cli_verify_missing_state(fig1_path, tmp_path, capsys):
    data = {"format": docs.SCHEDULER_FORMAT, "version": 1, "threshold": "1/2",
            "costBound": 2, "availability": None,
            "transient": [{"state": "s_init", "choice": {"a": "1"}}],
            "components": []}
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, _, err = _run(["verify", fig1_path, str(path)], capsys)
    assert code == 2
    assert "invalid scheduler" in err


def test_cli_simulate_deterministic(fig1_path, tmp_path, capsys):
    sched = tmp_path / "sched.json"
    _run(["synthesize", fig1_path, "--threshold", "4/5", "--cost-bound", "2",
          "--out", str(sched)], capsys)
    runs = []
    for _ in range(2):
        code, out, err = _run(["simulate", fig1_path, str(sched),
                               "--steps", "500", "--trials", "4",
                               "--seed", "11"], capsys)
        assert code == 0 and err == ""
        runs.append(out)
    assert runs[0] == runs[1]
    code, other, _ = _run(["simulate", fig1_path, str(sched), "--steps", "500",
                           "--trials", "4", "--seed", "12"], capsys)
    assert other != runs[0]


_CHAIN_SIMULATE_GOLDEN = """\
trials: 2, steps per trial: 2000
mean payoff per step: 1313/4000 (~0.32825)
repair episodes: 708, completed within budget: 620 (fraction 0.875706)
"""

_FIG1_SIMULATE_GOLDEN = """\
trials: 6, steps per trial: 10
mean payoff per step: 13/30 (~0.433333)
repair episodes: 6, completed within budget: 6 (fraction 1)
trial 0: s_init a error a rep β op2 a op2 a op2 a op2 a op2 a op2 a op2 a op2
trial 1: s_init a error a rep β rep α op1 a op1 a op1 a op1 a op1 a op1 a op1
trial 2: s_init a error a rep β op2 a op2 a op2 a op2 a op2 a op2 a op2 a op2
trial 3: s_init a error a rep β rep α op1 a op1 a op1 a op1 a op1 a op1 a op1
trial 4: s_init a error a rep β rep β op2 a op2 a op2 a op2 a op2 a op2 a op2
trial 5: s_init a error a rep β rep β op2 a op2 a op2 a op2 a op2 a op2 a op2
"""


def test_cli_simulate_golden_reports(fig1_path, tmp_path, capsys):
    # Seed-0 reports recorded from the step-by-step Fraction simulator: the
    # chain family at k = 2, L = 3, R = 4 under the memoryless gamble 3/4 /
    # safe 1/4 scheduler, and fig1's synthesized (finite-memory) scheduler
    # with traces.
    m = chain_model(2, 3)
    model = tmp_path / "chain.json"
    model.write_text(docs.serialize_model(m), encoding="utf-8")
    mt = transform(m, 4)
    sched = tmp_path / "chain.sched.json"
    sched.write_text(docs.serialize_scheduler(ComposedScheduler(mt, gamble_scheduler(mt), []),
                                              Fraction(4, 5), None), encoding="utf-8")
    assert _run(["simulate", str(model), str(sched), "--steps", "2000", "--trials", "2",
                 "--seed", "0"], capsys) == (0, _CHAIN_SIMULATE_GOLDEN, "")

    sched = tmp_path / "fig1.sched.json"
    _run(["synthesize", fig1_path, "--threshold", "4/5", "--cost-bound", "2",
          "--out", str(sched)], capsys)
    assert _run(["simulate", fig1_path, str(sched), "--steps", "10", "--trials", "6",
                 "--seed", "0", "--traces"], capsys) == (0, _FIG1_SIMULATE_GOLDEN, "")


@pytest.mark.parametrize("flags", [["--steps", "-5"], ["--trials", "-2"], ["--steps", "0"],
                                   ["--trials", "0"]])
def test_cli_simulate_rejects_nonpositive_counts(fig1_path, tmp_path, capsys, flags):
    sched = tmp_path / "sched.json"
    _run(["synthesize", fig1_path, "--threshold", "4/5", "--cost-bound", "2",
          "--out", str(sched)], capsys)
    code, out, err = _run(["simulate", fig1_path, str(sched)] + flags, capsys)
    assert code == 3 and out == ""
    assert "usage error" in err


@pytest.mark.parametrize("flags", [["--steps", "٣_0"], ["--steps", "1_0"], ["--trials", "1_0"],
                                   ["--trials", "٣"], ["--seed", "٧"], ["--seed", "1_0"]])
def test_cli_simulate_counts_take_only_ascii_digits(fig1_path, tmp_path, capsys, flags):
    # ``int`` reads "٣_0" as 30 and "1_0" as 10; every integer option takes
    # the grammar of ``--cost-bound``.
    sched = tmp_path / "sched.json"
    _run(["synthesize", fig1_path, "--threshold", "4/5", "--cost-bound", "2",
          "--out", str(sched)], capsys)
    code, out, err = _run(["simulate", fig1_path, str(sched), "--steps", "30",
                           "--trials", "1"] + flags, capsys)
    assert code == 3 and out == ""
    assert "not a decimal integer" in err


@pytest.mark.parametrize("argv", [["simulate", "{model}", "{sched}", "--steps", "abc"],
                                  ["verify", "{model}"], []])
def test_cli_argparse_errors_are_usage_errors(fig1_path, tmp_path, capsys, argv):
    # A bad option value or a missing argument is a usage error (exit 3),
    # not argparse's exit 2, which means "invalid model or scheduler".
    sched = tmp_path / "sched.json"
    _run(["synthesize", fig1_path, "--threshold", "4/5", "--cost-bound", "2",
          "--out", str(sched)], capsys)
    argv = [a.format(model=fig1_path, sched=sched) for a in argv]
    code, out, err = _run(argv, capsys)
    assert code == 3 and out == ""
    assert "usage error: resilient-mdp" in err


@pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"], ["verify", "-h"]])
def test_cli_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert "usage: resilient-mdp" in capsys.readouterr().out


def test_cli_synthesize_verification_failure(fig1_path, capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise VerificationFailedError("availability mismatch")

    monkeypatch.setattr(cli, "synthesize", failing)
    code, _, err = _run(["synthesize", fig1_path, "--threshold", "4/5",
                         "--cost-bound", "2"], capsys)
    assert code == 1
    assert err == "verification failed: availability mismatch\n"


def test_solver_error_reaches_the_library_and_the_cli(fig1, fig1_path, capsys, monkeypatch):
    # ``_verify`` re-checks a point shifted by 1 in every variable, so the
    # total-frequency row fails and the solver's own check raises.
    real = lp_module._verify
    monkeypatch.setattr(lp_module, "_verify",
                        lambda lp, assignment: real(lp, {v: x + 1 for v, x in assignment.items()}))
    with pytest.raises(SolverError, match="infeasible point"):
        synthesize(fig1, Fraction(4, 5), 2)
    code, out, err = _run(["synthesize", fig1_path, "--threshold", "4/5",
                           "--cost-bound", "2"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("verification failed: solver produced infeasible point: ")
    assert err.count("\n") == 1
    with pytest.raises(SolverError, match="nonnegativity violated for x"):
        real(LinearProgram(["x"]), {"x": Fraction(-1)})


def test_cli_dump_lp_golden_hash(fig1_path, capsys):
    # stdout of `synthesize --dump-lp` prints the resiliency program term by
    # term, so it also pins the order of terms within each row.
    code, out, _ = _run(["synthesize", fig1_path, "--threshold", "4/5",
                         "--cost-bound", "2", "--dump-lp"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5eaf4cb84a994551679865fbfae116d89c995a2570ad31e8e9acbf321150e47a")


def test_cli_byte_identical_outputs(fig1_path, tmp_path, capsys):
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    texts = []
    for out_path in (out_a, out_b):
        _, text, _ = _run(["synthesize", fig1_path, "--threshold", "4/5",
                           "--cost-bound", "2", "--out", str(out_path)], capsys)
        texts.append(text)
    assert texts[0] == texts[1]
    assert out_a.read_bytes() == out_b.read_bytes()


def chain_model(k, L):
    """Op states up (reward 1) and deg (0); k errors, each starting an L-step
    repair chain whose states offer safe (advance, from the last step to
    deg) and gamble (to up or stay, 1/2 each)."""
    errors = [f"e_{i}" for i in range(1, k + 1)]
    states = [("up", "op", 1), ("deg", "op", 0)] + [(e, "err", 0) for e in errors]
    transitions = []
    for s in ("up", "deg"):
        transitions.append((s, "run", [(s, Fraction(1, 2))]
                            + [(e, Fraction(1, 2 * k)) for e in errors]))
    for i in range(1, k + 1):
        transitions.append((f"e_{i}", "go", [(f"r_{i}_1", 1)]))
        for j in range(1, L + 1):
            r = f"r_{i}_{j}"
            states.append((r, "rep", 1))
            transitions.append((r, "safe", [(f"r_{i}_{j + 1}" if j < L else "deg", 1)]))
            transitions.append((r, "gamble", [("up", Fraction(1, 2)), (r, Fraction(1, 2))]))
    return make_mdp(states, transitions, "up")


def gamble_scheduler(mt):
    """Memoryless: gamble 3/4, safe 1/4 at every repair copy, else the only action."""
    choices = {}
    for i in range(mt.n):
        acts = mt.enabled(i)
        choices[i] = ({"gamble": Fraction(3, 4), "safe": Fraction(1, 4)}
                      if acts == ["gamble", "safe"] else {acts[0]: Fraction(1)})
    return MrScheduler(choices)


def all_zero_model():
    """Every operational reward is 0, so every resilient scheduler is optimal
    and the document records whichever vertex the simplex pivots reach."""
    return make_mdp(
        [("o0", "op", 0), ("e0", "err", 0), ("r0", "rep", 3)],
        [("o0", "a0", [("r0", Fraction(1, 3)), ("e0", Fraction(2, 3))]),
         ("o0", "a1", [("o0", Fraction(1, 4)), ("e0", Fraction(3, 4))]),
         ("e0", "a0", [("r0", 1)]),
         ("e0", "a1", [("o0", 1)]),
         ("r0", "a0", [("o0", Fraction(1, 3)), ("r0", Fraction(2, 3))]),
         ("r0", "a1", [("o0", Fraction(1, 3)), ("r0", Fraction(2, 3))])],
        "o0")


# The scheduler documents written by `synthesize --out`. fig1 and the chain
# have one optimal document; all-zero has many, so a change to the LP pivot
# path shows up there even when the optimum stays the same.
@pytest.mark.parametrize("model, threshold, bound, sha256", [
    (fig1_model(), "4/5", "2",
     "a59b37c910904b64b9e9e9571b18ece1ba01e65ec02735a3f6df593fc076d7c3"),
    (chain_model(1, 3), "4/5", "3",
     "391b9e2f744b54a029cfcabb69382724005a318a6006cd80deb3be23ccf3cf3a"),
    (all_zero_model(), "9/10", "3",
     "728463ee741bc69d8926472acd91f86acb491eb31cbb3606e04c75d5d18d909c"),
], ids=["fig1", "chain-k1-L3", "all-zero"])
def test_synthesized_document_golden_hash(tmp_path, capsys, model, threshold,
                                          bound, sha256):
    model_path = tmp_path / "model.json"
    model_path.write_text(docs.serialize_model(model), encoding="utf-8")
    out = tmp_path / "sched.json"
    assert cli.main(["synthesize", str(model_path), "--threshold", threshold,
                     "--cost-bound", bound, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


@functools.cache
def _fig1_documents() -> tuple[dict, dict]:
    """The fig1 model document and its synthesized scheduler document (4/5, R = 2)."""
    result = synthesize(fig1_model(), Fraction(4, 5), 2)
    return (docs.model_to_data(fig1_model()),
            json.loads(docs.serialize_scheduler(result.scheduler, Fraction(4, 5),
                                                result.availability)))


def _verify_documents(directory, model, scheduler, command: str) -> int:
    """Run ``command`` on the two documents, each a dict or the file's text."""
    model_path, sched_path = directory / "model.json", directory / "sched.json"
    for path, document in ((model_path, model), (sched_path, scheduler)):
        text = document if isinstance(document, str) else json.dumps(document)
        path.write_text(text, encoding="utf-8")
    argv = [command, str(model_path)] + ([str(sched_path)] if command != "validate" else [])
    return cli.main(argv, out=io.StringIO())


def _without_rep0_rule(scheduler):
    scheduler["transient"] = [rule for rule in scheduler["transient"]
                              if rule["state"] != "error#rep#0"]


def _bogus_action_at_error(scheduler):
    rule = next(r for r in scheduler["transient"] if r["state"] == "error")
    rule["choice"] = {"bogus": "1"}


@pytest.mark.parametrize("command, edit, message", [
    ("verify", _without_rep0_rule,
     "scheduler undefined on reachable state error#rep#0"),
    ("simulate", _without_rep0_rule, "no decision for state error#rep#0"),
    ("verify", _bogus_action_at_error, "action 'bogus' not enabled in state error"),
    ("simulate", _bogus_action_at_error, "action 'bogus' not enabled in state error"),
], ids=["verify-missing", "simulate-missing", "verify-not-enabled", "simulate-not-enabled"])
def test_cli_bad_decision_names_the_state(tmp_path, capsys, command, edit, message):
    model, scheduler = copy.deepcopy(_fig1_documents())
    edit(scheduler)
    assert _verify_documents(tmp_path, model, scheduler, command) == 2
    assert capsys.readouterr().err == f"invalid scheduler: {message}\n"


def _rep0_rule_in_component(scheduler):
    # A second rule for error#rep#0, which the transient part already holds.
    scheduler["components"][0]["choice"].append({"state": "error#rep#0",
                                                 "choice": {"α": "1", "β": "0"}})


def _rep0_in_transient_and_component(scheduler):
    scheduler["components"][0]["states"].append("error#rep#0")
    _rep0_rule_in_component(scheduler)


def _op2_in_two_components(scheduler):
    scheduler["components"][1]["states"].append("op2")
    scheduler["components"][1]["choice"].append({"state": "op2", "choice": {"a": "1"}})


def _op1_rule_in_first_component(scheduler):
    scheduler["components"][0]["choice"].append({"state": "op1", "choice": {"a": "1"}})


def _rep0_choice(choice):
    def edit(model, scheduler):
        next(r for r in scheduler["transient"] if r["state"] == "error#rep#0")["choice"] = choice
    return edit


@pytest.mark.parametrize("edit, message", [
    (lambda m, s: s["transient"][0].__delitem__("state"), "missing key 'state'"),
    (lambda m, s: s.update(transient=7), "'transient' in scheduler document must be a list"),
    (lambda m, s: s.update(components=7), "'components' in scheduler document must be a list"),
    (lambda m, s: m.update(states=7), "'states' in model document must be a list"),
    (lambda m, s: m["transitions"][0].update(to=7), "'to' in transition entry must be a list"),
    (lambda m, s: s.update(threshold="0"), "threshold must be in (0, 1], got 0"),
    (lambda m, s: s.update(threshold="3/2"), "threshold must be in (0, 1], got 3/2"),
    (lambda m, s: s["transient"].insert(0, {"state": "error#rep#0",
                                            "choice": {"α": "1", "β": "0"}}),
     "more than one transient rule for state 'error#rep#0'"),
    (lambda m, s: s["components"][0]["choice"].append(dict(s["components"][0]["choice"][0])),
     "more than one component rule for state 'op2'"),
    (lambda m, s: _rep0_rule_in_component(s),
     "component 0 has a rule for state 'error#rep#0' outside its states"),
    (lambda m, s: _rep0_in_transient_and_component(s),
     "state 'error#rep#0' is listed in transient and again in component 0"),
    (lambda m, s: _op2_in_two_components(s),
     "state 'op2' is listed in component 0 and again in component 1"),
    (lambda m, s: _op1_rule_in_first_component(s),
     "component 0 has a rule for state 'op1' outside its states"),
    # Named by the document's state id, not the transformed model's index.
    (_rep0_choice({"α": "1/2", "β": "2/5"}),
     "scheduler distribution at state error#rep#0 sums to 9/10"),
    (_rep0_choice({"α": "3/2", "β": "-1/2"}),
     "scheduler distribution at state error#rep#0 has a negative probability"),
    # Edits that return the model file's text: nesting too deep for the
    # decoder, and an integer over CPython's 4300-digit limit.
    (lambda m, s: "[" * 100_000 + "]" * 100_000, "exceeds the JSON reader's limits"),
    (lambda m, s: json.dumps(m).replace('"reward": 1', '"reward": 1' + "0" * 5000, 1),
     "exceeds the JSON reader's limits"),
], ids=["rule-without-state", "transient-not-list", "components-not-list",
        "states-not-list", "to-not-list", "threshold-zero", "threshold-above-one",
        "transient-rule-repeated", "component-rule-repeated", "component-rule-for-transient",
        "state-in-transient-and-component", "state-in-two-components",
        "component-rule-outside-states", "distribution-sum-not-one", "negative-probability",
        "model-nested-too-deep", "reward-over-digit-limit"])
def test_cli_malformed_documents_are_parse_errors(tmp_path, capsys, edit, message):
    model, scheduler = copy.deepcopy(_fig1_documents())
    original = copy.deepcopy(model)
    model = edit(model, scheduler) or model  # edited in place, or replaced by a text
    # A malformed model fails validate too.
    commands = ("verify", "simulate") if model == original else ("validate", "verify", "simulate")
    for command in commands:
        assert _verify_documents(tmp_path, model, scheduler, command) == 3
        err = capsys.readouterr().err
        assert err.startswith("parse error:") and message in err


def test_cli_verify_checks_the_stated_availability(tmp_path, capsys):
    # fig1's synthesized document states 9/10, which its scheduler achieves.
    # The same decisions claiming 1/2 fail verification; claiming nothing,
    # or under another cost bound, they are not compared. At R = 2 the report
    # on stdout is the same throughout.
    model, scheduler = copy.deepcopy(_fig1_documents())
    model_path, sched_path = tmp_path / "model.json", tmp_path / "sched.json"
    model_path.write_text(json.dumps(model), encoding="utf-8")

    def verify(availability, *flags):
        sched_path.write_text(json.dumps(dict(scheduler, availability=availability)),
                              encoding="utf-8")
        return _run(["verify", str(model_path), str(sched_path), *flags], capsys)

    code, report, err = verify("9/10")
    assert (code, err) == (0, "")
    assert report.startswith("availability: 9/10 ") and report.endswith("resilient: yes\n")
    assert verify("1/2") == (1, report, "verification failed: the document states "
                                        "availability 1/2, the scheduler achieves 9/10\n")
    assert verify("1/2", "--cost-bound", "2") == verify("1/2")
    assert verify(None) == (0, report, "")
    # At R = 1 the decisions are not resilient (repair-success 1/2).
    assert verify("1/2", "--cost-bound", "1") == verify(None, "--cost-bound", "1")
    assert verify("1/2", "--cost-bound", "1")[::2] == (1, "")


def test_cli_verify_and_simulate_apply_no_fraction_operator(tmp_path):
    # From reading the documents to printing the report, ``verify`` and
    # ``simulate`` read numerators and denominators only: on fig1's
    # synthesized document and on the chain (2,3,4) gamble document, each
    # stating its availability, also under a threshold override.
    chain = chain_model(2, 3)
    mt = transform(chain, 4)
    sched = gamble_scheduler(mt)
    stated = verify_resilient(mt, sched, Fraction(4, 5)).availability
    documents = [_fig1_documents(), (docs.model_to_data(chain), json.loads(
        docs.serialize_scheduler(ComposedScheduler(mt, sched, []), Fraction(4, 5), stated)))]
    runs = []
    for k, (model, scheduler) in enumerate(documents):
        model_path, sched_path = tmp_path / f"model{k}.json", tmp_path / f"sched{k}.json"
        model_path.write_text(json.dumps(model), encoding="utf-8")
        sched_path.write_text(json.dumps(scheduler), encoding="utf-8")
        paths = [str(model_path), str(sched_path)]
        runs += [["verify", *paths], ["verify", *paths, "--threshold", "3/4"],
                 ["simulate", *paths, "--steps", "500", "--trials", "2"]]
    out = io.StringIO()
    with fraction_operator_calls() as calls:
        codes = [cli.main(argv, out=out) for argv in runs]
    assert calls == []
    assert codes == [0] * len(runs)
    assert out.getvalue().count("resilient: yes") == 4


def test_cli_state_and_action_ids_holding_a_bar(tmp_path, capsys):
    # The pairs (s, x|a) and (s|x, a) both print as y[s|x|a] in --dump-lp,
    # but the programs key their variables by (state, action), so this model
    # synthesizes and verifies like any other.
    model = make_mdp([("s", "op", 1), ("s|x", "op", 1)],
                     [("s", "x|a", [("s|x", 1)]), ("s|x", "a", [("s", 1)])], "s")
    model_path, sched_path = tmp_path / "model.json", tmp_path / "sched.json"
    model_path.write_text(docs.serialize_model(model), encoding="utf-8")
    assert _run(["validate", str(model_path)], capsys) == (0, "ok\n", "")
    code, out, err = _run(["synthesize", str(model_path), "--threshold", "1", "--cost-bound",
                           "0", "--out", str(sched_path), "--dump-lp"], capsys)
    assert (code, err) == (0, "")
    assert out.endswith("  y[s|x|a], y[s|x|a], y[s|x|τ], y[s|τ] >= 0\navailability: 1 (~1)\n")
    code, out, err = _run(["verify", str(model_path), str(sched_path)], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("availability: 1 ") and out.endswith("resilient: yes\n")


@pytest.mark.parametrize("flag", ["--threshold", "--cost-bound"])
def test_cli_verify_rejects_an_empty_override_as_synthesize_does(tmp_path, capsys, flag):
    # An empty value is an invalid override, not an absent one.
    model, scheduler = _fig1_documents()
    model_path, sched_path = tmp_path / "model.json", tmp_path / "sched.json"
    model_path.write_text(json.dumps(model), encoding="utf-8")
    sched_path.write_text(json.dumps(scheduler), encoding="utf-8")
    given = {"--threshold": "4/5", "--cost-bound": "2", flag: ""}
    synthesized = _run(["synthesize", str(model_path), "--threshold", given["--threshold"],
                        "--cost-bound", given["--cost-bound"]], capsys)
    verified = _run(["verify", str(model_path), str(sched_path), flag, ""], capsys)
    assert synthesized[:2] == verified[:2] == (3, "")
    assert synthesized[2] == verified[2] != ""


@pytest.mark.parametrize("command", ["synthesize", "verify", "simulate"])
def test_cli_rejects_oversized_transform(tmp_path, capsys, monkeypatch, command):
    # fig1 makes one repair copy per cost value, so R = 10**11 would need
    # about 3 * 10**11 states; with the cap lowered to 50 the guard trips
    # before anything large is built.
    monkeypatch.setattr(importlib.import_module("resilient_mdp.transform"), "MAX_STATES", 50)
    model, scheduler = copy.deepcopy(_fig1_documents())
    scheduler["costBound"] = 10 ** 11
    model_path, sched_path = tmp_path / "model.json", tmp_path / "sched.json"
    model_path.write_text(json.dumps(model), encoding="utf-8")
    sched_path.write_text(json.dumps(scheduler), encoding="utf-8")
    argv = {"synthesize": ["synthesize", str(model_path), "--threshold", "4/5",
                           "--cost-bound", str(10 ** 11)],
            "verify": ["verify", str(model_path), str(sched_path)],
            "simulate": ["simulate", str(model_path), str(sched_path)]}[command]
    code, out, err = _run(argv, capsys)
    assert code == 2 and out == ""
    assert err == ("model too large: the transformed model exceeds 50 states "
                   "at cost bound 100000000000; lower the cost bound\n")


def test_cli_rejects_oversized_program(fig1_path, capsys, monkeypatch):
    # fig1 at R = 2: the first program compute_E solves, 14 rows by 20
    # columns, has 294 tableau entries; with the cap lowered to 100 the
    # solver refuses it before building the tableau.
    monkeypatch.setattr(lp_module, "MAX_TABLEAU_ENTRIES", 100)
    code, out, err = _run(["synthesize", fig1_path, "--threshold", "4/5", "--cost-bound", "2"],
                          capsys)
    assert code == 2 and out == ""
    assert err == ("model too large: a linear program of 14 rows and 20 columns exceeds "
                   "the limit of 100 tableau entries; lower the cost bound\n")


def test_cli_refuses_the_chain_program_at_a_large_budget(tmp_path, capsys):
    # Chain (3, 3, 1000) has 15 008 transformed states, well under the
    # transform cap, and an availability program of 15 012 rows; a dense
    # tableau of that program would need gigabytes.
    path = tmp_path / "chain.json"
    path.write_text(docs.serialize_model(chain_model(3, 3)), encoding="utf-8")
    code, out, err = _run(["synthesize", str(path), "--threshold", "4/5",
                           "--cost-bound", "1000"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("model too large: a linear program of 15012 rows and ")
    assert err.endswith(" tableau entries; lower the cost bound\n")


@pytest.mark.parametrize("command", ["validate", "synthesize", "verify", "simulate"])
def test_cli_repeated_state_action_is_invalid(tmp_path, capsys, command):
    # Two entries for up/run: the first fails into e half the time, the
    # second never fails. Keeping either one alone would misread the model.
    def move(frm, act, *to):
        return {"from": frm, "action": act,
                "to": [{"target": t, "prob": p} for t, p in to]}
    model = {"format": "mdp-with-repair", "version": 1, "initial": "up",
             "states": [{"id": "up", "kind": "op", "reward": 1},
                        {"id": "e", "kind": "err", "reward": 0},
                        {"id": "r", "kind": "rep", "reward": 1}],
             "transitions": [move("up", "run", ("e", "1/2"), ("up", "1/2")),
                             move("up", "run", ("up", "1")),
                             move("e", "go", ("r", "1")),
                             move("r", "fix", ("up", "1"))]}
    model_path, sched_path = tmp_path / "model.json", tmp_path / "sched.json"
    model_path.write_text(json.dumps(model), encoding="utf-8")
    once = dict(model, transitions=[t for k, t in enumerate(model["transitions"]) if k != 1])
    mt = transform(docs.parse_model(once), 1)
    sched_path.write_text(docs.serialize_scheduler(
        ComposedScheduler(mt, MrScheduler({i: {mt.enabled(i)[0]: Fraction(1)}
                                           for i in range(mt.n)}), []),
        Fraction(1, 2), None), encoding="utf-8")
    argv = {"validate": ["validate", str(model_path)],
            "synthesize": ["synthesize", str(model_path), "--threshold", "1/2",
                           "--cost-bound", "1"],
            "verify": ["verify", str(model_path), str(sched_path)],
            "simulate": ["simulate", str(model_path), str(sched_path)]}[command]
    code, out, err = _run(argv, capsys)
    violation = "[duplicate-action] up/run: action listed more than once for this state\n"
    assert code == 2
    if command == "validate":
        assert (out, err) == (violation, "")
    else:
        assert (out, err) == ("", "invalid model:\n" + violation)


def test_cli_ignores_scheduler_memory_block(tmp_path):
    model, scheduler = copy.deepcopy(_fig1_documents())
    scheduler["memory"] = 7  # the finite-memory rendering is output only
    assert _verify_documents(tmp_path, model, scheduler, "verify") == 0


def _paths(node, prefix=()):
    """Every key or index path into a JSON value, the root excluded."""
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


OTHER_JSON = [None, True, 0, 7, -1, 1.5, "", "x", "1/2", [], {}, [{}], {"state": "x"}]


@st.composite
def _mutated(draw, document: dict) -> dict:
    """``document`` with one key or list item deleted, or one value replaced
    by a value of some JSON type, at a random path."""
    out = copy.deepcopy(document)
    path = draw(st.sampled_from(list(_paths(out))))
    parent = functools.reduce(lambda node, key: node[key], path[:-1], out)
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(st.sampled_from(OTHER_JSON))
    return out


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), command=st.sampled_from(["validate", "verify"]))
def test_fuzz_model_documents_exit_with_contract_codes(tmp_path, data, command):
    model, scheduler = _fig1_documents()
    model = data.draw(_mutated(model))
    assert _verify_documents(tmp_path, model, scheduler, command) in (0, 1, 2, 3)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzz_scheduler_documents_exit_with_contract_codes(tmp_path, data):
    model, scheduler = _fig1_documents()
    scheduler = data.draw(_mutated(scheduler))
    assert _verify_documents(tmp_path, model, scheduler, "verify") in (0, 1, 2, 3)


@pytest.mark.parametrize("command", ["validate", "verify"])
def test_cli_non_utf8_documents_are_parse_errors(tmp_path, capsys, command):
    # A UTF-16 file with its byte-order mark: the model for validate, the
    # scheduler for verify.
    model, scheduler = _fig1_documents()
    model_path, bad_path = tmp_path / "model.json", tmp_path / "bad.json"
    model_path.write_text(json.dumps(model), encoding="utf-8")
    bad = model if command == "validate" else scheduler
    bad_path.write_bytes(b"\xff\xfe" + json.dumps(bad).encode("utf-16-le"))
    argv = ([command, str(bad_path)] if command == "validate"
            else [command, str(model_path), str(bad_path)])
    code, out, err = _run(argv, capsys)
    assert (code, out) == (3, "")
    assert err.startswith("parse error: ") and "is not UTF-8" in err


def test_cli_huge_exponents_are_parse_errors_quickly(tmp_path):
    # Fraction("1e999999999") computes 10**999999999 and never returns, so
    # each command runs in a child process that is killed after a timeout.
    model, scheduler = copy.deepcopy(_fig1_documents())
    sched_path = tmp_path / "sched.json"
    sched_path.write_text(json.dumps(scheduler), encoding="utf-8")
    fig1_path = tmp_path / "fig1.json"
    fig1_path.write_text(json.dumps(model), encoding="utf-8")
    model["transitions"][0]["to"][0]["prob"] = "1e999999999"
    huge_path = tmp_path / "huge.json"
    huge_path.write_text(json.dumps(model), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(resilient_mdp.__file__).resolve().parents[1]))
    for argv in (["validate", str(huge_path)],
                 ["verify", str(fig1_path), str(sched_path), "--threshold", "1e-99999999999"]):
        run = subprocess.run([sys.executable, "-m", "resilient_mdp.cli", *argv], env=env,
                             capture_output=True, text=True, timeout=20)
        assert run.returncode == 3, run.stderr
        assert run.stderr.startswith("parse error: ") and "exponent" in run.stderr


def test_cli_refuses_a_reward_past_the_float_range(tmp_path):
    # The reports print each availability and mean payoff, at most the
    # largest reward, as a float too. 2**1023 converts; 10**400, a 401-digit
    # JSON integer, would raise OverflowError. So validation refuses a reward
    # above 2**1023 and every command exits 2 with that violation, printed
    # by a child process so that a traceback would show.
    model, _ = _fig1_documents()
    env = dict(os.environ, PYTHONPATH=str(Path(resilient_mdp.__file__).resolve().parents[1]))
    sched_path = tmp_path / "sched.json"

    def run(reward, command):
        data = copy.deepcopy(model)
        next(s for s in data["states"] if s["id"] == "op2")["reward"] = reward
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(data), encoding="utf-8")
        args = {"validate": [str(model_path)],
                "synthesize": [str(model_path), "--threshold", "4/5", "--cost-bound", "2",
                               "--out", str(sched_path)],
                "verify": [str(model_path), str(sched_path)],
                "simulate": [str(model_path), str(sched_path), "--steps", "100"]}[command]
        return subprocess.run([sys.executable, "-m", "resilient_mdp.cli", command, *args],
                              env=env, capture_output=True, text=True, timeout=60)

    commands = ["validate", "synthesize", "verify", "simulate"]
    for command in commands:  # synthesize first writes the scheduler document
        done = run(2 ** 1023, command)
        assert (done.returncode, done.stderr) == (0, ""), done.stderr
    violation = "[bad-reward] op2: reward must be at most 2**1023\n"
    for reward in (2 ** 1023 + 1, 10 ** 400):
        for command in commands:
            done = run(reward, command)
            assert done.returncode == 2 and "Traceback" not in done.stdout + done.stderr
            if command == "validate":
                assert (done.stdout, done.stderr) == (violation, "")
            else:
                assert (done.stdout, done.stderr) == ("", "invalid model:\n" + violation)

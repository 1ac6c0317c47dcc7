"""End-to-end benchmark of the resilient-mdp command line.

    python3 perfbench/run.py --workload synth-chain --seed 0 --seconds 55 --trace 0

Drives ``resilient_mdp.cli.main`` in-process, one call at a time (a closed
loop with one client), on model and scheduler files generated from the
seed. Workloads:

  synth-chain   synthesize --threshold 4/5 on the chain family at
                (k, L, R) = (1,3,3), (2,2,2), (2,3,3): few, large LPs.
  verify-chain  verify and simulate a fixed memoryless scheduler on the
                chain family at (2,3,4) and (3,3,4): dense chain analysis,
                no LP at all.
  small-batch   validate, synthesize --out and verify on 192 small random
                models: many tiny LPs plus document and CLI overhead. Not in
                BENCHMARK.json, whose time budget holds two workloads at the
                run length they need; run it by name.
  all           every workload above, one process each.

With ``--trace 0`` the run is untraced and its last output line is a JSON
object with the end-to-end metrics, whose times are scaled to a reference
speed of the machine measured while they run (see SpeedProbe). With ``--trace 1`` it alternates
untraced and traced passes over the workload, and reports the per-layer
metrics of the traced passes and the tracing overhead instead. Every
outcome is checked after the timed region (see checks.py); the result line
counts the failed ops. ``--record-reference`` stores this run's outputs as
the reference table for its workload.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("synth-chain", "verify-chain", "small-batch")
SETUP_REPEATS = 5
SIM_STEPS = 20000
MAX_LOOP_SECONDS = 120   # a pass that runs longer than this is cut short
PROBE_PERIOD_S = 0.05
# Mean time of one probe sample while the process is busy, on a 2-core
# x86-64 Xeon under Python 3.11.7; it only sets the scale of the metrics.
PROBE_REFERENCE_S = 4.0e-4
_PROBE_TERMS = [Fraction(i + 1, i + 7) for i in range(12)]


def _probe_work() -> Fraction:
    acc = Fraction(0)
    for _ in range(6):
        for x in _PROBE_TERMS:
            acc = acc * Fraction(1, 2) + x
    return acc


class SpeedProbe:
    """Samples how fast the processor runs this process's kind of work.

    On a shared machine the speed of one core switches between a fast and a
    slow state (about 1.8 times apart) several times a second, and the share
    of slow time drifts by 20-40% over minutes, so raw times of the same code
    spread from run to run past any useful bound. Every ``PROBE_PERIOD_S``
    a timer signal runs a fixed piece of exact Fraction arithmetic, the kind
    the package does, and records how long it took. Samples are evenly
    spaced in time, so their mean over an interval is how much slower than
    the reference the machine ran over that interval on average."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0    # time inside samples, taken out of op times

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        _probe_work()
        took = time.perf_counter() - t0
        self.samples.append(took)
        self.spent += took

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        """Take a sample now; return where the next interval starts."""
        self._sample()
        return len(self.samples) - 1

    def slowdown(self, since: int) -> float:
        """Mean sample time from sample ``since`` on, over the reference."""
        return statistics.fmean(self.samples[since:]) / PROBE_REFERENCE_S


PROBE = SpeedProbe()


def import_package():
    """The resilient_mdp package of this checkout, never an installed copy."""
    sys.path.insert(0, SRC)
    try:
        import resilient_mdp
        from resilient_mdp import cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import resilient_mdp from {SRC}: {exc}")
    if not os.path.abspath(resilient_mdp.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: resilient_mdp comes from {resilient_mdp.__file__}, not {SRC}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help="store this run's outputs as the workload's reference table")
    return p.parse_args(argv)


def write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def setup(workload: str, seed: int, work: str) -> tuple:
    """Write the workload's inputs under ``work``; return (warm-up, cases)."""
    import gen
    from checks import Case
    from resilient_mdp import docs, transform
    from resilient_mdp.sched import MrScheduler
    from resilient_mdp.synth import ComposedScheduler

    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    fig1 = write(os.path.join(work, "fig1.json"), gen.dump(gen.fig1_model()))
    warmup = Case("warmup.fig1", fig1, [["synthesize", fig1, "--threshold", "4/5",
                                         "--cost-bound", "2", "--out", fig1 + ".out"]],
                  doc=fig1 + ".out")
    cases = []
    if workload == "synth-chain":
        for k, L, R in [(1, 3, 3), (2, 2, 2), (2, 3, 3)]:
            name = f"k{k}L{L}R{R}"
            model = write(os.path.join(work, name + ".json"),
                          gen.dump(gen.shuffled_listing(gen.chain_model(k, L), seed)))
            doc = os.path.join(work, name + ".sched.json")
            cases.append(Case(f"synth.{name}", model, [[
                "synthesize", model, "--threshold", "4/5", "--cost-bound", str(R),
                "--out", doc]], doc=doc))
    elif workload == "verify-chain":
        for k, L, R in [(2, 3, 4), (3, 3, 4)]:
            name = f"k{k}L{L}R{R}"
            text = gen.dump(gen.shuffled_listing(gen.chain_model(k, L), seed))
            model = write(os.path.join(work, name + ".json"), text)
            mt = transform(docs.parse_model(json.loads(text)), R)
            choices = {}
            for i in range(mt.n):
                acts = mt.enabled(i)
                choices[i] = ({"gamble": Fraction(3, 4), "safe": Fraction(1, 4)}
                              if acts == ["gamble", "safe"] else {acts[0]: Fraction(1)})
            sched = write(os.path.join(work, name + ".sched.json"), docs.serialize_scheduler(
                ComposedScheduler(mt, MrScheduler(choices), []), Fraction(4, 5), None))
            cases.append(Case(f"verify.{name}", model, [["verify", model, sched]]))
            cases.append(Case(f"simulate.{name}", model, [[
                "simulate", model, sched, "--steps", str(SIM_STEPS), "--trials", "1",
                "--seed", str(seed)]], seeded=True))
    else:
        for j, (model_doc, threshold, bound) in enumerate(gen.small_batch(seed)):
            name = f"job{j:03d}"
            model = write(os.path.join(work, name + ".json"), gen.dump(model_doc))
            doc = os.path.join(work, name + ".sched.json")
            cases.append(Case(f"batch.{name}", model, [
                ["validate", model],
                ["synthesize", model, "--threshold", threshold, "--cost-bound", str(bound),
                 "--out", doc],
                ["verify", model, doc]], doc=doc, seeded=True,
                threshold=Fraction(threshold), bound=bound))
    return warmup, cases


def run_case(case, tracer=None):
    """One op: the case's CLI calls, timed together, outputs kept for checking."""
    from checks import Outcome
    from resilient_mdp import cli

    if case.doc and os.path.exists(case.doc):
        os.remove(case.doc)
    out = Outcome(case, 0.0)
    root = tracer.open("op", {"case": case.name}) if tracer and tracer.active else None
    probed = PROBE.spent
    start = time.perf_counter()
    try:
        for argv in case.steps:
            buf = io.StringIO()
            out.codes.append(cli.main(argv, out=buf))
            out.stdout.append(buf.getvalue())
            if out.codes[-1] != 0:
                break
    except Exception:
        out.error = traceback.format_exc()
    out.seconds = time.perf_counter() - start - (PROBE.spent - probed)
    if root is not None:
        tracer.close(root)
    if case.doc and os.path.exists(case.doc):
        with open(case.doc, "rb") as fh:
            out.doc = fh.read()
    return out


def one_pass(cases, tracer=None, deadline=math.inf) -> list:
    outcomes = []
    for case in cases:
        if time.perf_counter() > deadline:
            break
        outcomes.append(run_case(case, tracer))
    return outcomes


def passes(cases, seconds: float) -> list:
    """Whole passes over the cases while another pass still fits."""
    outcomes = []
    start = time.perf_counter()
    deadline = start + MAX_LOOP_SECONDS
    while True:
        t0 = time.perf_counter()
        outcomes += one_pass(cases, deadline=deadline)
        if time.perf_counter() - start + (time.perf_counter() - t0) > seconds:
            return outcomes


def traced(cases, seconds: float, tracer) -> tuple:
    """Pairs of an untraced and a traced pass while another pair fits.
    Returns (outcomes, per traced pass: (spans, counters), overheads)."""
    outcomes, traces, overheads = [], [], []
    start = time.perf_counter()
    deadline = start + MAX_LOOP_SECONDS
    while True:
        t0 = time.perf_counter()
        plain = one_pass(cases, deadline=deadline)
        tracer.spans = []
        for counter in tracer.counters.values():
            counter[:] = [0, 0.0]
        tracer.active = True
        try:
            seen = one_pass(cases, tracer, deadline=deadline)
        finally:
            tracer.active = False
        outcomes += plain + seen
        traces.append((tracer.spans, {k: list(v) for k, v in tracer.counters.items()}))
        if len(seen) == len(plain):
            overheads.append(sum(o.seconds for o in seen) - sum(o.seconds for o in plain))
        if time.perf_counter() - start + (time.perf_counter() - t0) > seconds:
            return outcomes, traces, overheads


def median_by_case(outcomes) -> dict:
    by_case: dict[str, list[float]] = {}
    for o in outcomes:
        by_case.setdefault(o.case.name, []).append(o.seconds)
    return {name: statistics.median(times) for name, times in by_case.items()}


def end_to_end(outcomes, setup_s: float, setup_slowdown: float, run_slowdown: float) -> dict:
    """The metrics of BENCHMARK.json, defined the same way on every workload.
    Times are scaled to the reference speed of the machine (see SpeedProbe)."""
    medians = list(median_by_case(outcomes).values())
    return {
        "setup_s": (setup_s / setup_slowdown, "s"),
        "case_geomean_s": (statistics.geometric_mean(medians) / run_slowdown, "s"),
        "throughput_per_s": (len(medians) / sum(medians) * run_slowdown, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def workload_metrics(workload: str, outcomes, setup_s: float, slowdowns: tuple, failed: int,
                     attempted: int):
    """The workload's own metrics, under the names the ROADMAP uses, in
    wall-clock time as measured, with the machine's slowdown beside them."""
    medians = median_by_case(outcomes)
    out = {"setup_wall_s": (setup_s, "s"), "slowdown.setup": (slowdowns[0], "ratio"),
           "slowdown.run": (slowdowns[1], "ratio")}
    if workload == "synth-chain":
        for name, value in medians.items():
            out[name.replace("synth.", "synth_s.")] = (value, "s")
    elif workload == "verify-chain":
        for name, value in medians.items():
            if name.startswith("verify."):
                out[name.replace("verify.", "verify_s.")] = (value, "s")
        sims = [o.seconds for o in outcomes if o.case.name.startswith("simulate.")]
        out["sim_steps_per_s"] = (SIM_STEPS * len(sims) / sum(sims), "steps/s")
    else:
        times = [o.seconds for o in outcomes]
        out["cli_p50_s"] = (statistics.median(times), "s")
        out["cli_p90_s"] = (statistics.quantiles(times, n=10, method="inclusive")[-1], "s")
        out["cli_per_s"] = (len(times) / sum(times), "jobs/s")
    out["fail_ratio"] = (failed / attempted, "ratio")
    return out


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    code = 0
    for workload in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        code = max(code, subprocess.run(argv, check=False).returncode)
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not args.trace:
        PROBE.start()
    try:
        return measure(args)
    finally:
        PROBE.stop()


def measure(args) -> int:
    since_setup = PROBE.mark()
    import_package()
    import_s = time.perf_counter() - START - PROBE.spent
    from checks import Checker
    from layers import LAYER_UNITS, Tracer, case_table, layer_metrics

    work = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    results = os.path.join(HERE, "_work", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        setups, warmups = [], []
        for _ in range(SETUP_REPEATS):
            t0, probed = time.perf_counter(), PROBE.spent
            warmup, cases = setup(args.workload, args.seed, work)
            warmups.append(run_case(warmup))
            setups.append(time.perf_counter() - t0 - (PROBE.spent - probed))
        setup_s = import_s + statistics.median(setups)
        setup_slowdown = PROBE.slowdown(since_setup)
        since_run = PROBE.mark()

        tracer = Tracer()
        if args.trace:
            tracer.install()
            outcomes, traces, overheads = traced(cases, args.seconds, tracer)
        else:
            outcomes = passes(cases, args.seconds)
            run_slowdown = PROBE.slowdown(since_run)
            PROBE.stop()

        checker = Checker(args.seed, load_reference().get(args.workload, {}))
        problems, failed = {}, 0
        for o in warmups + outcomes:
            found = checker.problems(o)
            if found:
                failed += 1
                problems.setdefault(o.case.name, []).extend(found)
        attempted = len(warmups) + len(outcomes)
        if args.record_reference:
            record_reference(args.workload, args.seed, outcomes)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = [f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
             f"{len(outcomes)} ops, {failed} failed of {attempted} checked"]
    for name, found in sorted(problems.items()):
        lines += [f"  FAILED {name}: {p}" for p in found[:3]]
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "attempted": attempted, "failed": failed, "problems": problems,
              "case_median_s": median_by_case(outcomes)}
    if args.trace:
        per_pass = [layer_metrics(spans, counters, tracer.missing) for spans, counters in traces]
        metrics = {name: (statistics.median(p[name] for p in per_pass), unit)
                   for name, unit in LAYER_UNITS.items() if name in per_pass[0]}
        metrics["trace.overhead_s"] = (statistics.median(overheads) if overheads else 0.0, "s")
        report["missing"] = tracer.missing
        report["cases"] = case_table(traces[0][0])
        lines += render_trace(report, metrics)
        with open(results + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump(traces[0][0], fh)
    else:
        metrics = end_to_end(outcomes, setup_s, setup_slowdown, run_slowdown)
        shown = workload_metrics(args.workload, outcomes, setup_s,
                                 (setup_slowdown, run_slowdown), failed, attempted)
        lines += [f"  {name:<24} {value:>14.6g} {unit}" for name, (value, unit) in metrics.items()]
        lines += ["  wall clock:"]
        lines += [f"  {name:<24} {value:>14.6g} {unit}" for name, (value, unit) in shown.items()]
        report["workload_metrics"] = shown
    report["metrics"] = metrics
    with open(results + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def render_trace(report: dict, metrics: dict) -> list[str]:
    lines = [f"  {name:<44} {value:>14.6g} {unit}" for name, (value, unit) in metrics.items()]
    if report["missing"]:
        lines.append("  missing (renamed or removed): " + ", ".join(report["missing"]))
    if report["workload"] == "synth-chain":
        lines += ["", "| case | transformed states | total | compute_E | goal LP | verify |",
                  "|---|---|---|---|---|---|"]
        lines += [f"| {r['case']} | {r['states']} | {r['total_s']:.3g} s | "
                  f"{r['compute_E_s']:.3g} s | {r['goal_lp_s']:.3g} s | {r['verify_s']:.3g} s |"
                  for r in report["cases"]]
    return lines


def load_reference() -> dict:
    if not os.path.exists(REFERENCE):
        return {}
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def record_reference(workload: str, seed: int, outcomes) -> None:
    table = load_reference()
    cases = {}
    for o in outcomes:
        cases.setdefault(o.case.name, o.summary())
    table[workload] = {"seed": seed, "cases": cases}
    # One line per case, so that a changed output shows as a one-line diff.
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(
            f' "{w}": {{"seed": {t["seed"]}, "cases": {{\n'
            + ",\n".join(f'  "{c}": {json.dumps(e)}' for c, e in sorted(t["cases"].items()))
            + "}}" for w, t in sorted(table.items())) + "\n}\n")


if __name__ == "__main__":
    sys.exit(main())

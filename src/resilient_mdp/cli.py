"""Command-line interface.

Subcommands: validate, synthesize, verify, simulate. Exit codes:
0 success / resilient, 1 no resilient scheduler or verification failure,
2 invalid model or scheduler, or a cost bound too large to handle (a
transformed model past ``transform.MAX_STATES``, or a linear program whose
tableau is past ``lp.MAX_TABLEAU_ENTRIES``), 3 parse or usage error.
Successful runs write nothing to standard error.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction

from . import analyze, docs
from .lp import ProgramTooLargeError, SolverError
from .model import validate
from .synth import FiniteMemoryScheduler, InvalidModelError, VerificationFailedError, synthesize
from .transform import TransformTooLargeError, transform

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INVALID = 2
EXIT_PARSE = 3


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a command-line error as a ``UsageError`` (exit 3) instead of
    argparse's ``SystemExit(2)``, which would read as "invalid model".
    Subcommand parsers inherit this class; ``--help`` still exits 0."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(f"{self.prog}: {message}")


def _threshold(text: str) -> Fraction:
    value = docs.parse_fraction(text)
    if not 0 < value.numerator <= value.denominator:
        raise UsageError(f"threshold must be in (0, 1], got {value}")
    return value


def _integer(text: str) -> int:
    """A decimal integer in ASCII digits with an optional sign, for every
    integer option; ``int()`` alone also takes "1_0" and "٣"."""
    try:
        if re.fullmatch(r"\s*[-+]?[0-9]+\s*", text):
            return int(text, 10)
    except ValueError:  # past the interpreter's digit limit
        pass
    raise argparse.ArgumentTypeError(f"not a decimal integer: {text!r}")


def _cost_bound(text: str) -> int:
    try:
        value = _integer(text)
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"cost bound must be a decimal integer, got {text!r}") from exc
    if value < 0:
        raise UsageError("cost bound must be nonnegative")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="resilient-mdp",
        description="Synthesis and verification of resilient schedulers "
                    "for MDPs with repair.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model file")
    p.add_argument("model")

    p = sub.add_parser("synthesize", help="build an optimal resilient scheduler")
    p.add_argument("model")
    p.add_argument("--threshold", required=True,
                   help="repair-success probability bound, fraction or decimal in (0,1]")
    p.add_argument("--cost-bound", required=True,
                   help="repair cost budget R, nonnegative decimal integer")
    p.add_argument("--out", help="write the scheduler document here")
    p.add_argument("--dump-lp", action="store_true",
                   help="print the resiliency (goal) linear program")
    p.add_argument("--dump-components", action="store_true",
                   help="print the usable end components")

    p = sub.add_parser("verify", help="check a scheduler document against a model")
    p.add_argument("model")
    p.add_argument("scheduler")
    p.add_argument("--threshold", help="override the document's threshold")
    p.add_argument("--cost-bound", help="override the document's cost bound")

    p = sub.add_parser("simulate", help="Monte Carlo trials of a scheduler")
    p.add_argument("model")
    p.add_argument("scheduler")
    p.add_argument("--steps", type=_integer, default=10000)
    p.add_argument("--trials", type=_integer, default=10)
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--traces", action="store_true", help="print one trace per trial")
    return parser


# Built once per process: parsing reads the parser and never modifies it.
_PARSER = _build_parser()


def cmd_validate(args, out) -> int:
    report = validate(docs.load_model(args.model))
    print(report.render(), file=out)
    return EXIT_OK if report.ok else EXIT_INVALID


def cmd_synthesize(args, out) -> int:
    m = docs.load_model(args.model)  # ``synthesize`` validates it
    threshold = _threshold(args.threshold)
    cost_bound = _cost_bound(args.cost_bound)
    result = synthesize(m, threshold, cost_bound)
    if args.dump_components:
        mt = result.goal_mdp.mt
        for k, comp in enumerate(result.goal_mdp.comps):
            print(f"component {k}: availability {comp.avail}", file=out)
            for s, choice in comp.scheduler.choices.items():  # over comp.states, in order
                dist = ", ".join(f"{a}: {p}" for a, p in sorted(choice.items()))
                print(f"  {mt.ids[s]}: {dist}", file=out)
    if args.dump_lp:
        print(result.lp.dump(result.goal_mdp.name), file=out)
    if not result.feasible:
        print("no resilient scheduler exists", file=out)
        return EXIT_NEGATIVE
    print(f"availability: {result.availability} "
          f"(~{float(result.availability):.6g})", file=out)
    if args.out:
        document = docs.serialize_scheduler(result.scheduler, threshold, result.availability)
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(document)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc}") from exc
    return EXIT_OK


def cmd_verify(args, out) -> int:
    m = docs.load_model(args.model)
    if not (report := validate(m)).ok:
        raise InvalidModelError(report)
    doc = docs.load_scheduler(args.scheduler)
    threshold = doc.threshold if args.threshold is None else _threshold(args.threshold)
    cost_bound = doc.cost_bound if args.cost_bound is None else _cost_bound(args.cost_bound)
    mt = transform(m, cost_bound)
    mr = doc.to_mr(mt)
    report = analyze.verify_resilient(mt, mr, threshold)
    print(report.render(mt, threshold), file=out)
    if cost_bound == doc.cost_bound and doc.availability is not None and \
            doc.availability.as_integer_ratio() != report.availability.as_integer_ratio():
        raise VerificationFailedError(f"the document states availability {doc.availability}, "
                                      f"the scheduler achieves {report.availability}")
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def cmd_simulate(args, out) -> int:
    if args.steps < 1 or args.trials < 1:
        raise UsageError("--steps and --trials must be positive")
    m = docs.load_model(args.model)
    if not (report := validate(m)).ok:
        raise InvalidModelError(report)
    doc = docs.load_scheduler(args.scheduler)
    mt = transform(m, doc.cost_bound)
    mr = doc.to_mr(mt)
    policy = FiniteMemoryScheduler(mt, mr)
    stats = analyze.simulate(m, policy, args.steps, args.trials, args.seed,
                             doc.cost_bound, keep_traces=args.traces)
    print(stats.render(), file=out)
    if args.traces and stats.traces:
        for k, trace in enumerate(stats.traces):
            print(f"trial {k}: " + " ".join(trace), file=out)
    return EXIT_OK


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    handlers = {"validate": cmd_validate, "synthesize": cmd_synthesize,
                "verify": cmd_verify, "simulate": cmd_simulate}
    try:
        args = _PARSER.parse_args(argv)
        return handlers[args.command](args, out)
    except docs.DocumentError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InvalidModelError as exc:
        print(f"invalid model:\n{exc}", file=sys.stderr)
        return EXIT_INVALID
    except analyze.SchedulerDomainError as exc:
        print(f"invalid scheduler: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (TransformTooLargeError, ProgramTooLargeError) as exc:
        print(f"model too large: {exc}; lower the cost bound", file=sys.stderr)
        return EXIT_INVALID
    except (VerificationFailedError, SolverError) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE


if __name__ == "__main__":
    sys.exit(main())

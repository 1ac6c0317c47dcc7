"""Output checks for the benchmark, run after the timed region.

Every op outcome is checked against hand-checked anchors, against the
recorded reference table (exit codes, exact availability and the sha256 of
the scheduler document or of the printed report), and, for each written
scheduler document, by an independent re-check: parse the document again,
``transform`` the model, and run ``verify_resilient`` on the result. On
small-batch models that the brute-force oracle can enumerate, the
synthesized availability must be at least the oracle's, and a negative
verdict stands only when the oracle finds no resilient scheduler.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction

from resilient_mdp import analyze, docs, transform

# Hand-checked values: availability and transformed states per case. The
# states are compared where a written scheduler document is re-checked.
ANCHORS = {
    "warmup.fig1": (Fraction(9, 10), 12),
    "synth.k1L3R3": (Fraction(2, 5), 19),
    "synth.k2L2R2": (Fraction(8, 25), 24),
    "synth.k2L3R3": (Fraction(2, 5), 36),
    "verify.k2L3R4": (Fraction(78, 229), 46),
    "verify.k3L3R4": (Fraction(78, 229), 68),
    "simulate.k2L3R4": (Fraction(78, 229), 46),
    "simulate.k3L3R4": (Fraction(78, 229), 68),
}
# A simulated mean payoff this far from the exact availability is wrong
# (about ten standard deviations at the simulated lengths).
SIM_TOLERANCE = Fraction(1, 20)
ORACLE_MAX_STATES = 14
ORACLE_MAX_CHOICE_STATES = 6


@dataclass
class Case:
    name: str
    model: str                 # model file
    steps: list[list[str]]     # CLI calls, run in order until one exits non-zero
    doc: str | None = None     # scheduler document the calls write, if any
    seeded: bool = False       # inputs depend on the seed
    threshold: Fraction | None = None   # small-batch job parameters
    bound: int | None = None


@dataclass
class Outcome:
    case: Case
    seconds: float
    codes: list[int] = field(default_factory=list)
    stdout: list[str] = field(default_factory=list)
    doc: bytes | None = None
    error: str | None = None

    @property
    def availability(self) -> str | None:
        for text in self.stdout:
            match = re.match(r"availability: (\S+)", text)
            if match:
                return match.group(1)
        return None

    @property
    def sha256(self) -> str:
        data = self.doc if self.doc is not None else "\n".join(self.stdout).encode()
        return hashlib.sha256(data).hexdigest()

    def summary(self) -> dict:
        return {"codes": self.codes, "availability": self.availability, "sha256": self.sha256}


class Checker:
    def __init__(self, seed: int, reference: dict):
        self.seed = seed
        self.reference = reference     # {"seed": n, "cases": {case: summary}}
        self._rechecked: dict[tuple, tuple] = {}
        self._oracle: dict[str, object] = {}

    def problems(self, out: Outcome) -> list[str]:
        """Everything wrong with one outcome; empty when it is correct."""
        if out.error:
            return [f"exception: {out.error.strip().splitlines()[-1]}"]
        try:
            return self._problems(out)
        except Exception as exc:  # a check that cannot run counts as a failure
            return [f"check raised {type(exc).__name__}: {exc}"]

    def _problems(self, out: Outcome) -> list[str]:
        case = out.case
        kind = case.name.split(".")[0]
        found = []
        ref = self.reference.get("cases", {}).get(case.name)
        if ref is not None and (not case.seeded or self.seed == self.reference.get("seed")):
            if ref != out.summary():
                found.append(f"differs from reference: {out.summary()} != {ref}")
        if kind in ("warmup", "synth"):
            found += self._synthesized(out, *ANCHORS[case.name])
        elif kind == "verify":
            want, _ = ANCHORS[case.name]
            if out.codes != [0] or out.availability != str(want) \
                    or not out.stdout[0].rstrip().endswith("resilient: yes"):
                found.append(f"verify: exit {out.codes}, availability {out.availability}")
        elif kind == "simulate":
            found += self._simulated(out, ANCHORS[case.name][0])
        else:
            found += self._job(out)
        return found

    def _synthesized(self, out: Outcome, want: Fraction, states: int) -> list[str]:
        if out.codes != [0] or out.availability != str(want):
            return [f"synthesize: exit {out.codes}, availability {out.availability}, want {want}"]
        return self._recheck(out, want, states)

    def _simulated(self, out: Outcome, exact: Fraction) -> list[str]:
        match = re.search(r"mean payoff per step: (\S+)", out.stdout[0] if out.stdout else "")
        if out.codes != [0] or not match:
            return [f"simulate: exit {out.codes}"]
        if abs(Fraction(match.group(1)) - exact) > SIM_TOLERANCE:
            return [f"simulate: mean payoff {match.group(1)} far from {exact}"]
        return []

    def _job(self, out: Outcome) -> list[str]:
        case = out.case
        if not out.codes or out.codes[0] != 0:
            return [f"validate: exit {out.codes}"]
        verdict = out.codes[1:2]
        oracle = self.oracle(case)
        if verdict == [1]:
            if len(out.codes) != 2 or out.doc is not None \
                    or "no resilient scheduler exists" not in out.stdout[1]:
                return [f"negative verdict: exit {out.codes}, document written"]
            if oracle is not None and oracle.best_availability is not None:
                return [f"negative verdict, oracle found {oracle.best_availability}"]
            return []
        if verdict != [0] or out.codes[2:] != [0] or out.doc is None:
            return [f"job: exit {out.codes}"]
        want = Fraction(out.availability)
        found = self._recheck(out, want, None)
        reported = re.match(r"availability: (\S+)", out.stdout[2])
        if not reported or Fraction(reported.group(1)) != want:
            found.append("verify reports another availability than synthesize")
        if oracle is not None and oracle.best_availability is not None \
                and want < oracle.best_availability:
            found.append(f"availability {want} < oracle {oracle.best_availability}")
        return found

    def _recheck(self, out: Outcome, want: Fraction, states: int | None) -> list[str]:
        if out.doc is None:
            return ["no scheduler document written"]
        key = (out.case.model, out.sha256)
        if key not in self._rechecked:
            self._rechecked[key] = recheck(out.case.model, out.doc)
        ok, avail, n, doc_avail = self._rechecked[key]
        found = []
        if not ok or avail != want or doc_avail != want:
            found.append(f"re-check: resilient {ok}, availability {avail}, "
                         f"document says {doc_avail}, want {want}")
        if states is not None and n != states:
            found.append(f"re-check: {n} transformed states, want {states}")
        return found

    def oracle(self, case: Case):
        """Brute-force optimum of a small-batch job, or None outside its limits."""
        if case.threshold is None:
            return None
        if case.name not in self._oracle:
            mt = transform(docs.load_model(case.model), case.bound)
            choice = [i for i in range(mt.n) if len(mt.actions[i]) > 1]
            self._oracle[case.name] = None
            if mt.n <= ORACLE_MAX_STATES and len(choice) <= ORACLE_MAX_CHOICE_STATES \
                    and all(len(mt.actions[i]) == 2 for i in choice):
                self._oracle[case.name] = analyze.brute_force_optimum(
                    mt, case.threshold, max_states=ORACLE_MAX_STATES,
                    max_choice_states=ORACLE_MAX_CHOICE_STATES)
        return self._oracle[case.name]


def recheck(model_path: str, doc: bytes) -> tuple:
    """(resilient, availability, transformed states, document's availability)
    of a scheduler document, by exact chain analysis of the parsed document
    rather than by the synthesis that wrote it."""
    m = docs.load_model(model_path)
    sd = docs.parse_scheduler(json.loads(doc))
    mt = transform(m, sd.cost_bound)
    report = analyze.verify_resilient(mt, sd.to_mr(mt), sd.threshold)
    return report.ok, report.availability, mt.n, sd.availability

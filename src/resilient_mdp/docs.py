"""Document formats for models and schedulers.

Both are JSON with a fixed key order, so serialized artifacts are stable and
diff-friendly. Probabilities and thresholds are written as exact fraction
strings ("4/5"); on input, "a/b" fractions and decimals with an optional
exponent, each an optional sign and ASCII digits, are accepted and converted
exactly. A ``version``, when present, must be the integer 1.
"""

from __future__ import annotations

import functools
import json
import re
from fractions import Fraction
from typing import NamedTuple

from .model import MdpWithRepair, make_mdp
from .sched import DistributionError, MrScheduler
from .synth import ComposedScheduler
from .transform import TransformedMdp

MODEL_FORMAT = "mdp-with-repair"
SCHEDULER_FORMAT = "resilient-scheduler"
FORMAT_VERSION = 1


class DocumentError(ValueError):
    """The file is not a well-formed document of the expected format."""


# CPython's default digit limit for an int read from a string. ``Fraction``
# builds 10**exponent exactly, so "1e999999999" would never return.
MAX_EXPONENT = 4300
# ASCII digits, unlike ``Fraction`` ("1/2_0" from 3.11 on, "٣/٤"); group 1 is the exponent.
_NUMBER = re.compile(
    r"\s*[-+]?(?:[0-9]+/[0-9]+|(?=\.?[0-9])[0-9]*(?:\.[0-9]*)?(?:[eE]([-+]?[0-9]+))?)\s*")


def parse_fraction(text) -> Fraction:
    """Exact rational from an "a/b" string or a terminating decimal string,
    whose exponent, if any, is at most ``MAX_EXPONENT`` in magnitude.

    Documents repeat a few probabilities many times (a chain-family model
    and its scheduler hold about 128 probability strings, 6 of them
    distinct), so each distinct string is parsed once; ``Fraction``s are
    immutable and safe to share. A rejected string is not remembered and
    raises again on every call."""
    return _parse_fraction(str(text))


@functools.lru_cache(maxsize=1024)
def _parse_fraction(text: str) -> Fraction:
    number = _NUMBER.fullmatch(text)
    try:
        if number is None:
            raise ValueError("expected an optional sign and ASCII digits, as a/b or a decimal")
        if number[1] and abs(int(number[1])) > MAX_EXPONENT:
            raise ValueError(f"exponent beyond {MAX_EXPONENT} in magnitude")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"not a fraction or decimal: {text!r} ({exc})") from exc


def _require(data: dict, key: str, where: str):
    if not isinstance(data, dict) or key not in data:
        raise DocumentError(f"missing key {key!r} in {where}")
    return data[key]


def _require_list(data: dict, key: str, where: str) -> list:
    value = _require(data, key, where)
    if not isinstance(value, list):
        raise DocumentError(f"{key!r} in {where} must be a list")
    return value


def _check_header(data, expected: str, where: str) -> None:
    """Format ``expected``, and version 1 if any (not ``true`` or ``1.0``)."""
    if _require(data, "format", where) != expected:
        raise DocumentError(f"expected format {expected!r}")
    version = data.get("version", FORMAT_VERSION)
    if type(version) is not int or version != FORMAT_VERSION:
        raise DocumentError(f"unsupported version {version!r}, expected {FORMAT_VERSION}")


def parse_model(data) -> MdpWithRepair:
    _check_header(data, MODEL_FORMAT, "model document")
    states = []
    for entry in _require_list(data, "states", "model document"):
        reward = _require(entry, "reward", "state entry")
        if not isinstance(reward, int) or isinstance(reward, bool):
            raise DocumentError(f"reward must be an integer, got {reward!r}")
        states.append((str(_require(entry, "id", "state entry")),
                       str(_require(entry, "kind", "state entry")), reward))
    transitions = []
    for entry in _require_list(data, "transitions", "model document"):
        dist = [(str(_require(t, "target", "transition target")),
                 parse_fraction(_require(t, "prob", "transition target")))
                for t in _require_list(entry, "to", "transition entry")]
        transitions.append((str(_require(entry, "from", "transition entry")),
                            str(_require(entry, "action", "transition entry")), dist))
    try:
        return make_mdp(states, transitions, str(_require(data, "initial", "model document")))
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def model_to_data(m: MdpWithRepair) -> dict:
    return {
        "format": MODEL_FORMAT,
        "version": FORMAT_VERSION,
        "initial": m.ids[m.initial],
        "states": [{"id": m.ids[i], "kind": m.kinds[i], "reward": m.rewards[i]}
                   for i in range(m.n)],
        "transitions": [
            {"from": m.ids[i], "action": a,
             "to": [{"target": m.ids[t], "prob": str(p)} for t, p in m.actions[i][a]]}
            for i in range(m.n) for a in m.enabled(i)
        ],
    }


def serialize_model(m: MdpWithRepair) -> str:
    return json.dumps(model_to_data(m), indent=2, ensure_ascii=False) + "\n"


def load_model(path: str) -> MdpWithRepair:
    return parse_model(_load_json(path))


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path} is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # too deep, or too many digits
        raise DocumentError(f"{path} exceeds the JSON reader's limits: {exc}") from exc


def _dist_to_data(dist: dict[str, Fraction]) -> dict[str, str]:
    return {a: str(p) for a, p in sorted(dist.items())}


def _dist_from_data(data, where: str) -> dict[str, Fraction]:
    if not isinstance(data, dict):
        raise DocumentError(f"expected an action distribution in {where}")
    return {str(a): parse_fraction(p) for a, p in data.items()}


class SchedulerDocument(NamedTuple):
    """Parsed scheduler artifact: decisions are keyed by transformed-state id."""

    threshold: Fraction
    cost_bound: int
    availability: Fraction | None
    transient: dict[str, dict[str, Fraction]]
    components: list[dict]  # {"states": [ids], "choice": {id: dist}, "availability": Fraction}

    def to_mr(self, mt: TransformedMdp) -> MrScheduler:
        """Decisions as a memoryless scheduler on a transformed MDP.

        Entries for states absent from this particular reachable fragment are
        dropped; missing reachable states surface later as domain errors.
        """
        choices: dict[int, dict[str, Fraction]] = {}
        parts = [self.transient] + [comp["choice"] for comp in self.components]
        for part in parts:
            for sid, dist in part.items():
                if sid in mt.index:
                    choices[mt.index[sid]] = dict(dist)
        try:
            return MrScheduler(choices)
        except DistributionError as exc:
            # The same message, naming the state by its id.
            raise DocumentError(str(DistributionError(mt.ids[exc.state], exc.problem))) from exc


def parse_scheduler(data) -> SchedulerDocument:
    _check_header(data, SCHEDULER_FORMAT, "scheduler document")
    cost_bound = _require(data, "costBound", "scheduler document")
    if not isinstance(cost_bound, int) or isinstance(cost_bound, bool) or cost_bound < 0:
        raise DocumentError(f"costBound must be a nonnegative integer, got {cost_bound!r}")
    transient = _rules(_require_list(data, "transient", "scheduler document"), "transient rule")
    listed = (_require_list(data, "components", "scheduler document")
              if "components" in data else [])
    components = []
    for entry in listed:
        components.append({
            "states": [str(s) for s in _require_list(entry, "states", "component entry")],
            "choice": _rules(_require_list(entry, "choice", "component entry"),
                             "component rule"),
            "availability": parse_fraction(_require(entry, "availability", "component entry")),
        })
    _check_parts(transient, components)
    threshold = parse_fraction(_require(data, "threshold", "scheduler document"))
    if not 0 < threshold <= 1:
        raise DocumentError(f"threshold must be in (0, 1], got {threshold}")
    avail = data.get("availability")
    return SchedulerDocument(
        threshold=threshold,
        cost_bound=cost_bound,
        availability=None if avail is None else parse_fraction(avail),
        transient=transient,
        components=components,
    )


def _check_parts(transient: dict, components: list[dict]) -> None:
    """Every state belongs to at most one part of the document, ``transient``
    or one component's ``states``, and a component has rules only for its
    own states; otherwise ``to_mr`` would silently keep one of two rules."""
    part_of = dict.fromkeys(transient, "transient")
    for k, comp in enumerate(components):
        for state in comp["states"]:
            if state in part_of:
                raise DocumentError(f"state {state!r} is listed in {part_of[state]} "
                                    f"and again in component {k}")
            part_of[state] = f"component {k}"
    for k, comp in enumerate(components):
        for state in comp["choice"]:
            if part_of.get(state) != f"component {k}":
                raise DocumentError(f"component {k} has a rule for state {state!r} "
                                    f"outside its states")


def _rules(entries: list, where: str) -> dict[str, dict[str, Fraction]]:
    rules: dict[str, dict[str, Fraction]] = {}
    for e in entries:
        state = str(_require(e, "state", where))
        if state in rules:
            raise DocumentError(f"more than one {where} for state {state!r}")
        rules[state] = _dist_from_data(e.get("choice"), where)
    return rules


def scheduler_to_data(composed: ComposedScheduler, threshold: Fraction,
                      availability: Fraction | None) -> dict:
    mt = composed.mt
    m = mt.base
    mr = composed.as_mr()
    rules = []
    for i in range(mt.n):
        memory = mt.memory(i)
        if isinstance(memory, tuple):
            memory = {"error": m.ids[memory[0]], "cost": memory[1]}
        rules.append({"state": m.ids[mt.back[i]], "memory": memory,
                      "choice": _dist_to_data(mr.dist(i))})
    return {
        "format": SCHEDULER_FORMAT,
        "version": FORMAT_VERSION,
        "threshold": str(Fraction(threshold)),
        "costBound": mt.cost_bound,
        "availability": None if availability is None else str(availability),
        "transient": [{"state": mt.ids[s], "choice": _dist_to_data(dist)}
                      for s, dist in sorted(composed.transient.choices.items())],
        "components": [
            {"states": [mt.ids[s] for s in comp.states],
             "choice": [{"state": mt.ids[s],
                         "choice": _dist_to_data(comp.scheduler.dist(s))}
                        for s in comp.states],
             "availability": str(comp.avail)}
            for comp in composed.components
        ],
        # Finite-memory rendering on the base model: one rule per transformed
        # state, its memory as ``TransformedMdp.memory`` labels it.
        "memory": {"initial": None, "rules": rules},
    }


def serialize_scheduler(composed: ComposedScheduler, threshold: Fraction,
                        availability: Fraction | None) -> str:
    return json.dumps(scheduler_to_data(composed, threshold, availability),
                      indent=2, ensure_ascii=False) + "\n"


def load_scheduler(path: str) -> SchedulerDocument:
    return parse_scheduler(_load_json(path))

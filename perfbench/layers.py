"""Per-layer tracing of the resilient_mdp package from outside it.

``Tracer.install`` replaces each public function named in SPANS by a
wrapper that records a span (name, start, end, parent, attributes) while
the tracer is active, in every module namespace of the package that holds
that function object, so ``synth.compute_E`` and ``components.compute_E``
are the same traced layer. Per-step methods (COUNTERS) only count calls and
add up their time. Spans stay in memory; ``layer_metrics`` turns the spans
of one pass over a workload into the per-layer metrics, self time being a
span's duration minus that of its direct child spans.

A function that a later version renames or removes is listed in
``Tracer.missing`` and its metrics are left out rather than failing.
"""

from __future__ import annotations

import copy
import functools
import sys
from time import perf_counter


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _lp_sizes(args, result) -> dict:
    lp = args[0]
    values = list((result.assignment or {}).values())
    if result.objective_value is not None:
        values.append(result.objective_value)
    return {"rows": len(lp.constraints), "cols": len(lp.variables),
            "nnz": sum(1 for c in lp.constraints for q in c.coeffs.values() if q),
            "status": result.status, "bits": max(map(_bits, values), default=0)}


def _linsolve_sizes(args, result) -> dict:
    return {"unknowns": len(args[0][0]) if args[0] else 0}


def _transform_sizes(args, result) -> dict:
    return {"states": result.n,
            "transitions": sum(len(dist) for acts in result.actions for dist in acts.values())}


def _triples(args, result) -> dict:
    return {"triples": len(result)}


# (module, function, size observer) per traced layer boundary.
SPANS = [
    ("cli", "main", None),
    ("docs", "parse_model", None),
    ("docs", "parse_scheduler", None),
    ("docs", "serialize_scheduler", None),
    ("model", "validate_structure", None),
    ("model", "validate_repair_assumption", None),
    ("transform", "transform", _transform_sizes),
    ("components", "compute_E", _triples),
    ("components", "build_multi_mp_lp", None),
    ("components", "mec_decomposition", None),
    ("components", "extract_components", None),
    ("lp", "solve", _lp_sizes),
    ("lp", "solve_lexicographic", None),
    ("synth", "synthesize", None),
    ("synth", "build_goal_mdp", None),
    ("synth", "build_resiliency_lp", None),
    ("synth", "extract_scheduler", None),
    ("analyze", "verify_resilient", None),
    ("analyze", "induce_chain", None),
    ("analyze", "until_probability", None),
    ("analyze", "long_run_value", None),
    ("analyze", "stationary_distribution", None),
    ("analyze", "simulate", None),
    ("linsolve", "solve_linear_system", _linsolve_sizes),
    ("graph", "strongly_connected_components", None),
]

# (module, class, method, counter name): called once per simulated step.
COUNTERS = [
    ("synth", "FiniteMemoryScheduler", "update", "synth.fms_update"),
    ("synth", "FiniteMemoryScheduler", "decide", "synth.fms_decide"),
]


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list[list] = []   # [name, start, end, parent index, attrs]
        self.counters: dict[str, list] = {}   # name -> [calls, seconds]
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self, package: str = "resilient_mdp") -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == package or name.startswith(package + ".")]
        for mod_name, fn_name, observe in SPANS:
            mod = sys.modules.get(f"{package}.{mod_name}")
            original = getattr(mod, fn_name, None)
            if not callable(original):
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._span(f"{mod_name}.{fn_name}", original, observe)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, attr, wrapper)
        for mod_name, cls_name, meth, name in COUNTERS:
            cls = getattr(sys.modules.get(f"{package}.{mod_name}"), cls_name, None)
            original = getattr(cls, meth, None)
            if not callable(original):
                self.missing.append(name)
                continue
            self.counters[name] = [0, 0.0]
            self._patch(cls, meth, self._counted(self.counters[name], original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def open(self, name: str, attrs: dict | None = None) -> int:
        self._stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), None,
                           self._stack[-2] if len(self._stack) > 1 else None, attrs])
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def _span(self, name, fn, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if observe is not None:
                self.spans[index][4] = observe(args, result)
            return result
        return wrapper

    def _counted(self, counter, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            start = perf_counter()
            result = fn(*args, **kwargs)
            counter[0] += 1
            counter[1] += perf_counter() - start
            return result
        return wrapper


class SpanView:
    """Derived quantities over a list of closed spans, optionally restricted
    to the spans below one root span."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.children: list[list[int]] = [[] for _ in spans]
        for i, span in enumerate(spans):
            if span[3] is not None:
                self.children[span[3]].append(i)
        self.child_time = [sum(self.duration(c) for c in kids) for kids in self.children]
        self.pool = range(len(spans))

    def below(self, root: int) -> "SpanView":
        """The same view, restricted to the spans nested in ``root``."""
        view = copy.copy(self)
        view.pool, stack = [], list(self.children[root])
        while stack:
            i = stack.pop()
            view.pool.append(i)
            stack.extend(self.children[i])
        return view

    def duration(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def under(self, i: int, names) -> bool:
        parent = self.spans[i][3]
        while parent is not None:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def named(self, *names) -> list[int]:
        return [i for i in self.pool if self.spans[i][0] in names]

    def inclusive(self, *names, within=None) -> float:
        """Time in spans of ``names`` not nested in another of them,
        optionally only those nested in a span named in ``within``."""
        return sum((self.duration(i) for i in self.named(*names)
                    if not self.under(i, names)
                    and (within is None or self.under(i, within))), 0.0)

    def self_time(self, name: str) -> float:
        return sum((self.duration(i) - self.child_time[i] for i in self.named(name)), 0.0)

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def attr_values(self, name: str, key: str) -> list:
        return [self.spans[i][4][key] for i in self.named(name) if self.spans[i][4]]


# Per-layer metric -> unit. Times and counts are per pass over the workload.
LAYER_UNITS = {
    "lp.solve.s": "s", "lp.solve.calls": "count", "lp.solve.infeasible": "count",
    "lp.solve.rows_max": "count", "lp.solve.cols_max": "count",
    "lp.solve.nnz_max": "count", "lp.solve.bits_max": "bits",
    "lp.solve_lexicographic.s": "s", "lp.share_of_synth": "ratio",
    "components.compute_E.s": "s", "components.compute_E.self_s": "s",
    "components.build_multi_mp_lp.s": "s", "components.mec_decomposition.s": "s",
    "components.extract_components.s": "s", "components.triples": "count",
    "components.useful_solve_ratio": "ratio",
    "synth.synthesize.self_s": "s", "synth.build_goal_mdp.s": "s",
    "synth.build_resiliency_lp.s": "s", "synth.extract_scheduler.s": "s",
    "synth.fms_update.calls": "count", "synth.fms_update.s": "s",
    "synth.fms_decide.calls": "count", "synth.fms_decide.s": "s",
    "analyze.verify_resilient.s": "s", "analyze.induce_chain.s": "s",
    "analyze.until_probability.s": "s", "analyze.long_run_value.s": "s",
    "analyze.long_run_value.calls": "count", "analyze.stationary_distribution.calls": "count",
    "analyze.simulate.s": "s",
    "linsolve.solve_linear_system.s": "s", "linsolve.solve_linear_system.calls": "count",
    "linsolve.solve_linear_system.unknowns_max": "count",
    "graph.strongly_connected_components.s": "s",
    "graph.strongly_connected_components.calls": "count",
    "transform.s": "s", "transform.calls": "count",
    "transform.states_out": "count", "transform.transitions_out": "count",
    "docs.parse_model.s": "s", "docs.parse_scheduler.s": "s",
    "docs.serialize_scheduler.s": "s", "model.validate.s": "s", "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}

# Layer metric -> the spans (or counter) it is read from, for reporting
# metrics as missing when a traced function no longer exists.
_SOURCES = {
    "lp.share_of_synth": ("lp.solve", "synth.synthesize"),
    "components.useful_solve_ratio": ("lp.solve", "components.compute_E"),
    "components.triples": ("components.compute_E",),
    "synth.fms_update": ("synth.fms_update",),
    "synth.fms_decide": ("synth.fms_decide",),
    "model.validate": ("model.validate_structure", "model.validate_repair_assumption"),
    "transform": ("transform.transform",),
    "trace": (),
}


def _sources(metric: str) -> tuple:
    base = metric.rsplit(".", 1)[0]
    return _SOURCES.get(metric) or _SOURCES.get(base) or (base,)


def layer_metrics(spans: list[list], counters: dict[str, list],
                  missing: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (spans and counters of that pass)."""
    v = SpanView(spans)
    lp_names = ("lp.solve", "lp.solve_lexicographic")
    solves = v.named("lp.solve")
    in_compute_e = [i for i in solves if v.under(i, ("components.compute_E",))]
    synth_s = v.inclusive("synth.synthesize")

    def biggest(name, key):
        return max(v.attr_values(name, key), default=0)

    out = {
        "lp.solve.s": v.inclusive("lp.solve"),
        "lp.solve.calls": len(solves),
        "lp.solve.infeasible": v.attr_values("lp.solve", "status").count("infeasible"),
        "lp.solve.rows_max": biggest("lp.solve", "rows"),
        "lp.solve.cols_max": biggest("lp.solve", "cols"),
        "lp.solve.nnz_max": biggest("lp.solve", "nnz"),
        "lp.solve.bits_max": biggest("lp.solve", "bits"),
        "lp.solve_lexicographic.s": v.inclusive("lp.solve_lexicographic"),
        "lp.share_of_synth": (v.inclusive(*lp_names, within=("synth.synthesize",)) / synth_s
                              if synth_s else 0.0),
        "components.compute_E.s": v.inclusive("components.compute_E"),
        "components.compute_E.self_s": v.self_time("components.compute_E"),
        "components.triples": sum(v.attr_values("components.compute_E", "triples")),
        "components.useful_solve_ratio": (
            sum(1 for i in in_compute_e if v.spans[i][4]["status"] == "optimal")
            / len(in_compute_e) if in_compute_e else 0.0),
        "synth.synthesize.self_s": v.self_time("synth.synthesize"),
        "analyze.long_run_value.calls": v.calls("analyze.long_run_value"),
        "analyze.stationary_distribution.calls": v.calls("analyze.stationary_distribution"),
        "linsolve.solve_linear_system.calls": v.calls("linsolve.solve_linear_system"),
        "linsolve.solve_linear_system.unknowns_max": biggest("linsolve.solve_linear_system",
                                                             "unknowns"),
        "graph.strongly_connected_components.calls": v.calls("graph.strongly_connected_components"),
        "transform.s": v.inclusive("transform.transform"),
        "transform.calls": v.calls("transform.transform"),
        "transform.states_out": sum(v.attr_values("transform.transform", "states")),
        "transform.transitions_out": sum(v.attr_values("transform.transform", "transitions")),
        "model.validate.s": v.inclusive("model.validate_structure",
                                        "model.validate_repair_assumption"),
        "cli.main.self_s": v.self_time("cli.main"),
    }
    for name in ("components.build_multi_mp_lp", "components.mec_decomposition",
                 "components.extract_components", "synth.build_goal_mdp",
                 "synth.build_resiliency_lp", "synth.extract_scheduler",
                 "analyze.verify_resilient", "analyze.induce_chain",
                 "analyze.until_probability", "analyze.long_run_value", "analyze.simulate",
                 "linsolve.solve_linear_system", "graph.strongly_connected_components",
                 "docs.parse_model", "docs.parse_scheduler", "docs.serialize_scheduler"):
        out[f"{name}.s"] = v.inclusive(name)
    for name, (calls, seconds) in counters.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = seconds
    return {k: val for k, val in out.items()
            if not any(src in missing for src in _sources(k))}


def case_table(spans: list[list]) -> list[dict]:
    """Per-op breakdown of a traced pass, in the ROADMAP baseline's columns."""
    rows = []
    view = SpanView(spans)
    for i in view.named("op"):
        v = view.below(i)
        rows.append({"case": spans[i][4]["case"],
                     "states": max(v.attr_values("transform.transform", "states"), default=0),
                     "total_s": v.inclusive("synth.synthesize"),
                     "compute_E_s": v.inclusive("components.compute_E"),
                     "goal_lp_s": v.inclusive("lp.solve_lexicographic"),
                     "verify_s": v.inclusive("analyze.verify_resilient")})
    return rows

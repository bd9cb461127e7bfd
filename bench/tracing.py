"""Spans around pharmonic's public functions, recorded from outside the program.

``Tracer.install`` replaces every binding of each listed function: the
defining module's attribute, every other ``pharmonic`` module that imported
it by name, or the class attribute for methods. Each call then records a
span (layer, start, end, parent span, case id) in memory, and self times
(span minus the time its child spans cover) are summed per layer. A listed
function that no longer exists is reported as absent instead of failing, so
that refactors of the program do not break the benchmark. ``uninstall``
puts the original bindings back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Callable, Dict, List, Tuple

# (layer, module, qualified name); the layer's self time is reported as "<layer>_s"
LAYERS = [
    ("groups.ball", "groups", "GroupModel.ball"),
    ("groups.full_adj", "groups", "CayleyBall.full_adj"),
    ("dirichlet.problem", "dirichlet", "DirichletProblem.__init__"),
    ("dirichlet.linear", "dirichlet", "linear_dirichlet"),
    ("dirichlet.solve", "dirichlet", "solve_dirichlet"),
    ("dirichlet.capacity", "dirichlet", "capacity"),
    ("exhaustion.witness", "exhaustion", "boundary_witness"),
    ("exhaustion.parabolicity", "exhaustion", "parabolicity_profile"),
    ("exhaustion.royden", "exhaustion", "royden_decompose"),
    ("exhaustion.massive", "exhaustion", "inner_potential"),
    ("roughiso.fit", "roughiso", "CoarseMap.fit"),
    ("roughiso.fit_constants", "roughiso", "fit_rough_constants"),
    ("roughiso.coverage", "roughiso", "coverage_radius"),
    ("roughiso.validate", "roughiso", "validate_rough_map"),
    ("roughiso.inverse", "roughiso", "rough_inverse"),
    ("roughiso.pullback", "roughiso", "pullback"),
    ("roughiso.transport", "roughiso", "transport_harmonic"),
    ("energy.seminorm", "energy", "seminorm_p"),
    ("energy.pairing", "energy", "pairing"),
    ("energy.restrict", "energy", "ScalarField.restrict"),
    ("tilf.translate", "tilf", "translate"),
    ("tilf.evaluate", "tilf", "tilf_evaluate"),
    ("tilf.defect", "tilf", "invariance_defect"),
    ("cli.main", "cli", "main"),
]

# counts read off calls and results (see _observe); cli.report_bytes is added by the runner
COUNTERS = [
    "groups.ball_calls",
    "groups.vertices",
    "dirichlet.linear_calls",
    "dirichlet.solves",
    "dirichlet.iterations",
    "dirichlet.solves_converged",
    "cli.tasks",
    "cli.report_bytes",
]


def _observe(layer: str, result, counts: Dict[str, float]) -> None:
    """Counts read off a call's result."""
    if layer == "groups.ball":
        counts["groups.ball_calls"] += 1
        counts["groups.vertices"] += len(result)
    elif layer == "dirichlet.linear":
        counts["dirichlet.linear_calls"] += 1
    elif layer == "dirichlet.solve":
        report = result[1]
        counts["dirichlet.solves"] += 1
        counts["dirichlet.iterations"] += report.iterations
        counts["dirichlet.solves_converged"] += bool(report.converged)
    elif layer == "cli.main":
        counts["cli.tasks"] += 1


class Tracer:
    def __init__(self):
        self.spans: List[Tuple[str, float, float, int, object]] = []
        self.self_time: Dict[str, float] = {layer: 0.0 for layer, _, _ in LAYERS}
        self.counts: Dict[str, float] = {name: 0 for name in COUNTERS}
        self.absent: List[str] = []
        self.case_id = None  # (pass, case name) of the case being run; the spans' request id
        self._stack: List[list] = []  # [layer, start, child time, span id]
        self._restore: List[Tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def _wrap(self, layer: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(tracer.spans)
            tracer.spans.append(None)  # reserve the id so children can name their parent
            parent = tracer._stack[-1][3] if tracer._stack else -1
            frame = [layer, time.perf_counter(), 0.0, span_id]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - frame[1]
                tracer.self_time[layer] += duration - frame[2]
                if tracer._stack:
                    tracer._stack[-1][2] += duration
                tracer.spans[span_id] = (layer, frame[1], end, parent, tracer.case_id)
            _observe(layer, result, tracer.counts)
            return result

        return wrapper

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        self.absent = []
        modules = [m for name, m in sorted(sys.modules.items()) if name == "pharmonic" or name.startswith("pharmonic.")]
        for layer, module_name, qualname in LAYERS:
            home = sys.modules.get(f"pharmonic.{module_name}")
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                self.absent.append(f"{module_name}.{qualname}")
                continue
            if owner_name:
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(layer, raw.__func__))
                else:
                    new = self._wrap(layer, raw)
                self._rebind(owner, attr, raw, new)
                continue
            new = self._wrap(layer, raw)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is raw:
                        self._rebind(module, name, raw, new)

    def _rebind(self, owner, name: str, old, new) -> None:
        setattr(owner, name, new)
        self._restore.append((owner, name, old))

    def uninstall(self) -> None:
        for owner, name, old in reversed(self._restore):
            setattr(owner, name, old)
        self._restore.clear()

    # -- output ------------------------------------------------------------
    def metrics(self, passes: int) -> Dict[str, float]:
        """Per-pass self seconds of every layer and per-pass counts."""
        out = {f"{layer}_s": self.self_time[layer] / passes for layer, _, _ in LAYERS}
        out.update({name: self.counts[name] / passes for name in COUNTERS})
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"absent": self.absent, "self_time_s": self.self_time, "counts": self.counts}) + "\n")
            for span_id, (layer, start, end, parent, case) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": span_id, "layer": layer, "start": start, "end": end, "parent": parent, "case": case}
                    )
                    + "\n"
                )

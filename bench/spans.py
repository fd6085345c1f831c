"""Per-layer spans recorded at the layer boundaries, from the benchmark side.

The tracer wraps the public functions of each layer where their caller
binds the name: ``descent`` imports ``energy``, ``residual``, ``retract``
and ``compute_direction`` by name, so the wrappers replace
``stiefel_rgd.descent.energy`` and so on. A name that no longer exists is
skipped and every metric built from it is reported as absent. Spans are
kept in memory while a pass runs and reduced to metrics afterwards.
"""

from __future__ import annotations

import importlib
import inspect
import time

# (module of the caller, bound name, span name). The span name's prefix
# is the layer the callee belongs to.
PATCHES = (
    ("descent", "energy", "models.energy"),
    ("descent", "residual", "models.residual"),
    ("models", "residual", "models.residual"),  # called by eigenvalues_at
    ("descent", "eigenvalues_at", "models.eigenvalues_at"),
    ("cli", "validate_coercivity", "models.validate_coercivity"),
    ("descent", "retract", "geometry.retract"),
    ("descent", "retract_qr_mgs", "geometry.retract_qr_mgs"),
    ("descent", "compute_direction", "directions.compute_direction"),
    ("directions", "riemannian_gradient", "directions.riemannian_gradient"),
    ("directions", "safeguarded_inexact_gradient", "directions.safeguarded_inexact_gradient"),
    ("directions", "inexact_gradient", "directions.inexact_gradient"),
    ("directions", "dcm_direction", "directions.dcm_direction"),
    ("directions", "solve", "solvers.solve"),
)

LINE_SEARCH_METHODS = ("rgd_ls", "rgd_ls_inexact", "dcm")


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.attrs = {}
        self.end = None
        self.start = time.perf_counter()

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.patched = set()
        self.frames_built = 0
        self.bytes_copied = 0
        self._restore = []

    def open(self, name) -> int:
        index = len(self.spans)
        self.spans.append(Span(name, self.stack[-1] if self.stack else -1))
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.stack.pop()
        self.spans[index].end = time.perf_counter()

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.spans[index].attrs = {"failed": True}
                raise
            finally:
                tracer.close(index)
            if name == "solvers.solve":
                config = args[2] if len(args) > 2 else kwargs.get("config")
                tracer.spans[index].attrs = {
                    "iters": getattr(result[1], "total_iterations", 0),
                    "fixed": getattr(config, "fixed_iters", None) is not None,
                }
            return result

        return traced

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        modules = {
            name: importlib.import_module(f"stiefel_rgd.{name}")
            for name in ("cli", "descent", "directions", "models", "frames")
        }
        for module, attr, span in PATCHES:
            if attr in vars(modules[module]):
                self._set(modules[module], attr, self._wrap(span, getattr(modules[module], attr)))
                self.patched.add(span)
        # Whatever descent entry points the CLI binds (the drivers today).
        for attr, value in list(vars(modules["cli"]).items()):
            if inspect.isfunction(value) and value.__module__ == "stiefel_rgd.descent":
                self._set(modules["cli"], attr, self._wrap(f"descent.{attr}", value))
                self.patched.add("descent")
        operator = getattr(modules["models"], "DiscreteOperatorA", None)
        if operator is not None and isinstance(operator.__dict__.get("at"), classmethod):
            self._set(operator, "at", classmethod(
                self._wrap("models.operator_at", operator.__dict__["at"].__func__)))
            self.patched.add("models.operator_at")
        frame = getattr(modules["frames"], "Frame", None)
        if frame is not None and "__post_init__" in frame.__dict__:
            original = frame.__dict__["__post_init__"]
            tracer = self

            def counted(instance):
                original(instance)
                tracer.frames_built += 1
                tracer.bytes_copied += instance.values.nbytes

            self._set(frame, "__post_init__", counted)
            self.patched.add("frames")
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
        return False

    def metrics(self, outcomes) -> dict:
        """Per-layer metrics of everything traced so far.

        ``outcomes`` are the traced solves, in the order their root ``cli``
        spans were opened; their CSV histories give the line-search counts.
        """
        spans = self.spans
        children = [0.0] * len(spans)
        root = [0] * len(spans)
        for i, span in enumerate(spans):
            root[i] = i if span.parent < 0 else root[span.parent]
            if span.parent >= 0:
                children[span.parent] += span.duration
        roots = [i for i, span in enumerate(spans) if span.parent < 0]
        method_of = {i: o.method for i, o in zip(roots, outcomes)}

        def select(name):
            return [s for s in spans if s.name == name]

        def self_time(layer):
            return sum(s.duration - children[i] for i, s in enumerate(spans)
                       if s.name.split(".")[0] == layer)

        out = {}
        for short in ("energy", "operator_at", "residual"):
            name = f"models.{short}"
            if name in self.patched:
                chosen = select(name)
                out[f"{name}.calls"] = (len(chosen), "count")
                out[f"{name}_s"] = (sum(s.duration for s in chosen), "s")

        if "descent" in self.patched:
            out["descent.self_s"] = (self_time("descent"), "s")
        ls = [o for o in outcomes if o.method in LINE_SEARCH_METHODS and o.summary]
        if ls:
            rows = sum(len(o.csv_rows) for o in ls)
            backtracks = trials = accepted = 0
            for o in ls:
                for k, row in enumerate(o.csv_rows):
                    b = int(row["backtracks"])
                    last = k == len(o.csv_rows) - 1
                    # The final row tried a step only when the search failed.
                    if not last or o.summary["termination"] == "line_search_failure":
                        trials += b + 1
                        backtracks += b
                    accepted += float(row["step_size"]) > 0.0
            if "models.energy" in self.patched:
                energy_calls = sum(1 for i, s in enumerate(spans) if s.name == "models.energy"
                                   and method_of.get(root[i]) in LINE_SEARCH_METHODS)
                out["descent.energy_evals_per_iter"] = (energy_calls / rows, "ratio")
            out["descent.backtracks"] = (backtracks, "count")
            out["descent.accept_ratio"] = (accepted / trials if trials else 1.0, "ratio")

        if "directions.compute_direction" in self.patched:
            out["directions.calls"] = (len(select("directions.compute_direction")), "count")
            out["directions.self_s"] = (self_time("directions"), "s")
        safeguarded = "directions.safeguarded_inexact_gradient"
        if {safeguarded, "directions.inexact_gradient",
                "directions.riemannian_gradient"} <= self.patched:
            directions = len(select(safeguarded))
            attempts = len(select("directions.inexact_gradient"))
            out["directions.inexact_attempts_per_direction"] = (
                attempts / directions if directions else 0.0, "ratio")
            out["directions.exact_fallbacks"] = (sum(
                1 for s in select("directions.riemannian_gradient")
                if s.parent >= 0 and spans[s.parent].name == safeguarded), "count")

        if "solvers.solve" in self.patched:
            solves = select("solvers.solve")
            ok = [s for s in solves if not s.attrs.get("failed")]
            tol_iters = sum(s.attrs["iters"] for s in ok if not s.attrs["fixed"])
            fixed_iters = sum(s.attrs["iters"] for s in ok if s.attrs["fixed"])
            solve_s = sum(s.duration for s in solves)
            out["solvers.solve.calls"] = (len(solves), "count")
            out["solvers.solve_s"] = (solve_s, "s")
            out["solvers.krylov_iters.tol"] = (tol_iters, "count")
            out["solvers.krylov_iters.fixed"] = (fixed_iters, "count")
            total = tol_iters + fixed_iters
            out["solvers.s_per_krylov_iter"] = (solve_s / total if total else 0.0, "s")
            out["solvers.failures"] = (len(solves) - len(ok), "count")

        if "geometry.retract" in self.patched:
            chosen = select("geometry.retract")
            out["geometry.retract.calls"] = (len(chosen), "count")
            out["geometry.retract_s"] = (sum(s.duration for s in chosen), "s")

        if "frames" in self.patched:
            out["frames.frames_built"] = (self.frames_built, "count")
            out["frames.bytes_copied"] = (self.bytes_copied, "B")

        out["cli.self_s"] = (self_time("cli"), "s")
        return out

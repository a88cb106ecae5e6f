"""Outside-in span recorder for the slipstokes layers.

The tracer wraps public functions of the package where the calling modules
bind them: every module-level name in ``slipstokes.*`` that refers to a
target function is replaced by a pass-through wrapper, and so is every
binding of scipy's ``splu`` inside ``scipy.sparse.linalg``.  The wrappers
record a span (name, start, end, parent id) and a few counters taken from
the arguments or the result; they never change arguments or results.
``uninstall`` puts every original binding back.

Spans stay in memory; ``write_ndjson`` writes them out once the run ends.
"""

import json
import os
import sys
import time

# (span name, defining module, function name).  The span name is
# "<layer>.<function>", with "<layer>" the package module.
TARGETS = (
    ("mesh.make_unit_square", "slipstokes.mesh", "make_unit_square"),
    ("mesh.make_disk", "slipstokes.mesh", "make_disk"),
    ("mesh.boundary_frames", "slipstokes.mesh", "boundary_frames"),
    ("fem.build_taylor_hood", "slipstokes.fem", "build_taylor_hood"),
    ("forms.assemble_viscous", "slipstokes.forms", "assemble_viscous"),
    ("forms.assemble_friction", "slipstokes.forms", "assemble_friction"),
    ("forms.assemble_divergence", "slipstokes.forms", "assemble_divergence"),
    ("forms.assemble_load", "slipstokes.forms", "assemble_load"),
    ("forms.assemble_velocity_h1", "slipstokes.forms", "assemble_velocity_h1"),
    ("forms.assemble_velocity_mass", "slipstokes.forms",
     "assemble_velocity_mass"),
    ("forms.assemble_pressure_mass", "slipstokes.forms",
     "assemble_pressure_mass"),
    ("forms.assemble_convection_skew", "slipstokes.forms",
     "assemble_convection_skew"),
    ("constraints.build_constraint_plan", "slipstokes.constraints",
     "build_constraint_plan"),
    ("constraints.build_dirichlet_plan", "slipstokes.constraints",
     "build_dirichlet_plan"),
    ("constraints.apply_plan", "slipstokes.constraints", "apply_plan"),
    ("saddle.factor_solve", "slipstokes.saddle", "factor_solve"),
    ("stokes.solve_stokes", "slipstokes.stokes", "solve_stokes"),
    ("navierstokes.solve_navier_stokes", "slipstokes.navierstokes",
     "solve_navier_stokes"),
    ("spectra.korn_quotient_min", "slipstokes.spectra", "korn_quotient_min"),
    ("spectra.infsup_constant", "slipstokes.spectra", "infsup_constant"),
    ("spectra.beta_inequality_checks", "slipstokes.spectra",
     "beta_inequality_checks"),
    ("experiments.run_experiment", "slipstokes.experiments", "run_experiment"),
    ("persistence.store_run", "slipstokes.persistence", "store_run"),
    ("scipy.splu", "scipy.sparse.linalg", "splu"),
)


def _count_apply(span, args, kwargs, result):
    span["counters"]["n"] = int(result.matrix.shape[0])
    span["counters"]["nnz"] = int(result.matrix.nnz)


def _count_splu(span, args, kwargs, result):
    # L and U are materialized one at a time so only one copy is alive.
    fill = int(result.L.nnz)
    fill += int(result.U.nnz)
    span["counters"]["fill_nnz"] = fill


def _count_picard(span, args, kwargs, result):
    span["counters"]["sweeps"] = len(result[1].rows)


def _count_store(span, args, kwargs, result):
    span["counters"]["bytes"] = (os.path.getsize(result.path)
                                 + os.path.getsize(result.path + ".json"))


ON_RETURN = {
    "constraints.apply_plan": _count_apply,
    "scipy.splu": _count_splu,
    "navierstokes.solve_navier_stokes": _count_picard,
    "persistence.store_run": _count_store,
}


class Tracer:
    """Records spans around the target functions while installed.

    Span times come from a clock that stops while the tracer takes its
    counters (counting the fill materializes L and U), so that work shows
    in ``trace.overhead_s`` and not in any layer's time.
    """

    def __init__(self):
        self.spans = []
        self.tag = None
        self._stack = []
        self._patches = []
        self.paused_s = 0.0

    def _now(self):
        return time.perf_counter() - self.paused_s

    def _wrap(self, name, fn):
        tracer = self
        on_return = ON_RETURN.get(name)

        def wrapper(*args, **kwargs):
            span = {"id": len(tracer.spans), "name": name, "tag": tracer.tag,
                    "parent": tracer._stack[-1] if tracer._stack else None,
                    "start": tracer._now(), "end": None, "error": None,
                    "counters": {}}
            tracer.spans.append(span)
            tracer._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
                if on_return is not None:
                    t0 = time.perf_counter()
                    on_return(span, args, kwargs, result)
                    tracer.paused_s += time.perf_counter() - t0
                return result
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = tracer._now()
                tracer._stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        """Wrap every binding of every target; returns self."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, module_name, attr in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            prefix = module_name.split(".")[0]
            if prefix == "scipy":
                prefix = module_name
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (mod_name == prefix
                                          or mod_name.startswith(prefix + ".")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))
        return self

    def uninstall(self):
        """Restore every binding that ``install`` replaced."""
        while self._patches:
            module, key, original = self._patches.pop()
            setattr(module, key, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write_ndjson(self, path):
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def self_time(span, children):
    """Span duration minus the part of it that its child spans cover."""
    intervals = sorted((max(c["start"], span["start"]),
                        min(c["end"], span["end"])) for c in children)
    covered, reach = 0.0, span["start"]
    for start, end in intervals:
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return (span["end"] - span["start"]) - covered


# Per-layer metric name -> unit, in report order.
LAYER_METRICS = {
    "saddle.factor_solve_s": "s",
    "saddle.factor_calls": "count",
    "saddle.fill_nnz": "count",
    "saddle.fill_nnz_max": "count",
    "saddle.singular_raises": "count",
    "fem.build_s": "s",
    "fem.builds": "count",
    "constraints.plan_s": "s",
    "constraints.plan_builds": "count",
    "constraints.apply_s": "s",
    "constraints.apply_calls": "count",
    "constraints.reduced_n": "count",
    "constraints.reduced_nnz": "count",
    "forms.assemble_s": "s",
    "forms.assemble_calls": "count",
    "forms.load_s": "s",
    "forms.convection_s": "s",
    "navierstokes.solve_s": "s",
    "navierstokes.self_s": "s",
    "navierstokes.picard_sweeps": "count",
    "navierstokes.factor_per_sweep": "ratio",
    "navierstokes.convection_per_sweep": "ratio",
    "stokes.solve_s": "s",
    "stokes.self_s": "s",
    "stokes.solves": "count",
    "spectra.korn_s": "s",
    "spectra.infsup_s": "s",
    "spectra.beta_s": "s",
    "spectra.fill_nnz": "count",
    "mesh.build_s": "s",
    "mesh.frames_s": "s",
    "experiments.run_s": "s",
    "experiments.self_s": "s",
    "persistence.write_s": "s",
    "persistence.bytes": "count",
    "trace.overhead_s": "s",
}


def layer_metrics(spans):
    """Per-layer totals over one traced stretch of work.

    ``trace.overhead_s`` needs an untraced run and is filled in by the caller.
    """
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def total(*names):
        return sum(s["end"] - s["start"] for s in named(*names))

    def total_self(name):
        return sum(self_time(s, children.get(s["id"], [])) for s in named(name))

    def under(span, prefix):
        """Whether an enclosing span's name starts with ``prefix``."""
        parent = span["parent"]
        while parent is not None:
            if by_id[parent]["name"].startswith(prefix):
                return True
            parent = by_id[parent]["parent"]
        return False

    splus = named("scipy.splu")
    applies = named("constraints.apply_plan")
    assembles = [s for s in spans if s["name"].startswith("forms.assemble_")]
    picard = named("navierstokes.solve_navier_stokes")
    sweeps = sum(s["counters"].get("sweeps", 0) for s in picard)
    ns_factor = sum(1 for s in named("saddle.factor_solve")
                    if under(s, "navierstokes.solve_navier_stokes"))
    ns_convection = sum(1 for s in named("forms.assemble_convection_skew")
                        if under(s, "navierstokes.solve_navier_stokes"))
    stores = named("persistence.store_run")

    return {
        "saddle.factor_solve_s": total("saddle.factor_solve"),
        "saddle.factor_calls": len(named("saddle.factor_solve")),
        "saddle.fill_nnz": sum(s["counters"].get("fill_nnz", 0) for s in splus
                               if under(s, "saddle.factor_solve")),
        "saddle.fill_nnz_max": max(
            (s["counters"].get("fill_nnz", 0) for s in splus
             if under(s, "saddle.factor_solve")), default=0),
        "saddle.singular_raises": sum(
            1 for s in named("saddle.factor_solve")
            if s["error"] == "SingularSystem"),
        "fem.build_s": total("fem.build_taylor_hood"),
        "fem.builds": len(named("fem.build_taylor_hood")),
        "constraints.plan_s": total("constraints.build_constraint_plan",
                                    "constraints.build_dirichlet_plan"),
        "constraints.plan_builds": len(named(
            "constraints.build_constraint_plan",
            "constraints.build_dirichlet_plan")),
        "constraints.apply_s": total("constraints.apply_plan"),
        "constraints.apply_calls": len(applies),
        "constraints.reduced_n": max(
            (s["counters"].get("n", 0) for s in applies), default=0),
        "constraints.reduced_nnz": max(
            (s["counters"].get("nnz", 0) for s in applies), default=0),
        "forms.assemble_s": sum(s["end"] - s["start"] for s in assembles),
        "forms.assemble_calls": len(assembles),
        "forms.load_s": total("forms.assemble_load"),
        "forms.convection_s": total("forms.assemble_convection_skew"),
        "navierstokes.solve_s": total("navierstokes.solve_navier_stokes"),
        "navierstokes.self_s": total_self("navierstokes.solve_navier_stokes"),
        "navierstokes.picard_sweeps": sweeps,
        "navierstokes.factor_per_sweep": ns_factor / sweeps if sweeps else 0.0,
        "navierstokes.convection_per_sweep":
            ns_convection / sweeps if sweeps else 0.0,
        "stokes.solve_s": total("stokes.solve_stokes"),
        "stokes.self_s": total_self("stokes.solve_stokes"),
        "stokes.solves": len(named("stokes.solve_stokes")),
        "spectra.korn_s": total("spectra.korn_quotient_min"),
        "spectra.infsup_s": total("spectra.infsup_constant"),
        "spectra.beta_s": total("spectra.beta_inequality_checks"),
        "spectra.fill_nnz": sum(s["counters"].get("fill_nnz", 0) for s in splus
                                if under(s, "spectra.")),
        "mesh.build_s": total("mesh.make_unit_square", "mesh.make_disk"),
        "mesh.frames_s": total("mesh.boundary_frames"),
        "experiments.run_s": total("experiments.run_experiment"),
        "experiments.self_s": total_self("experiments.run_experiment"),
        "persistence.write_s": total("persistence.store_run"),
        "persistence.bytes": sum(s["counters"].get("bytes", 0)
                                 for s in stores),
        "trace.overhead_s": 0.0,
    }

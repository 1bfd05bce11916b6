"""Traced in-process run of `movingdom.cli.main`, with per-layer metrics.

Wrappers are installed from outside the program, on the module attributes
the CLI and the march look up at call time (a function imported by name
into several modules is replaced in each of them).  Every wrapped call
records a span (name, start, end, parent) in memory; the spans are written
out after the run, and each layer's self time is its spans' durations minus
the time their child spans cover.  A target that a later version of the
program removes or renames is reported as absent instead of failing.

Run as a script:

    PYTHONPATH=src python3 perfbench/tracer.py --metrics m.json --spans s.json \
        -- pullback --config c.cfg --out out/
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
import time
from functools import cached_property

LAYERS = ("expr", "diffeo", "problem", "grid", "solver", "pullback", "cli")

# (span name, module, attribute); "Class.attr" names a class attribute.
# The span's layer is the part of its name before the first dot.
FUNCTIONS = (
    ("diffeo.build_metric", "diffeo", "build_metric"),
    ("diffeo.eval_a", "diffeo", "MetricBundle.eval_a"),
    ("diffeo.eval_b", "diffeo", "MetricBundle.eval_b"),
    ("diffeo.validate_inverse", "diffeo", "validate_inverse"),
    ("diffeo.check_H1", "diffeo", "check_H1"),
    ("diffeo.check_H4", "diffeo", "check_H4"),
    ("diffeo.ellipticity_probe", "diffeo", "ellipticity_probe"),
    ("diffeo.hoelder_probe", "diffeo", "hoelder_probe"),
    ("problem.check_H2", "problem", "check_H2"),
    ("problem.check_H3", "problem", "check_H3"),
    ("problem.f_values", "problem", "TransformedProblem.f_values"),
    ("grid.assemble_A", "solver", "assemble_A"),
    ("grid.norm_L2", "solver", "norm_L2"),
    ("grid.norm_H1", "solver", "norm_H1"),
    ("grid.mass", "solver", "mass"),
    ("grid.boundary_residual", "solver", "boundary_residual"),
    ("solver.run", "solver", "run"),
    ("solver.run_homogeneous", "pullback", "run_homogeneous"),
    ("solver.step", "solver", "_advance"),
    ("solver.cg", "solver", "_cg"),
    ("solver.explicit_rhs", "solver", "_explicit_rhs"),
    ("pullback.run", "pullback", "run"),
    ("pullback.decay_fit", "pullback", "decay_fit"),
    ("pullback.drift_norm", "pullback", "drift_norm"),
    ("pullback.pullback_converge", "pullback", "pullback_converge"),
    ("pullback.absorbing_radius", "pullback", "absorbing_radius"),
    ("pullback.cocycle_check", "pullback", "cocycle_check"),
    ("pullback.factorization_probe", "pullback", "factorization_probe"),
    ("cli.load_config", "cli", "load_config"),
    ("cli.hypothesis_rows", "cli", "_hypothesis_rows"),
    ("cli.write_table", "cli", "write_table"),
    ("cli.write_snapshot", "cli", "write_snapshot"),
)
# cached properties: the span covers the build, not later cached reads
PROPERTIES = (
    ("solver.spd_build", "grid", "SparseOperator.spd_matrix"),
)
# factories whose returned callables are wrapped
FACTORIES = (
    ("expr.eval", "expr", "compiled"),
)

DIFFEO_CHECKS = ("diffeo.validate_inverse", "diffeo.check_H1", "diffeo.check_H4",
                 "diffeo.ellipticity_probe", "diffeo.hoelder_probe")
PROBLEM_CHECKS = ("problem.check_H2", "problem.check_H3")
STEP_METRICS = ("grid.norm_L2", "grid.norm_H1", "grid.mass", "grid.boundary_residual")
WRITES = ("cli.write_table", "cli.write_snapshot")
MARCH = ("solver.run",)

# per-layer metric -> (unit, spans it needs)
METRICS = {
    "expr.eval_calls_per_step": ("count", ("expr.eval", "solver.step")),
    "expr.eval_us_per_step": ("us", ("expr.eval", "solver.step")),
    "diffeo.eval_a_calls_per_step": ("count", ("diffeo.eval_a", "solver.step")),
    "diffeo.eval_b_calls_per_step": ("count", ("diffeo.eval_b", "solver.step")),
    "diffeo.build_metric_calls": ("count", ("diffeo.build_metric",)),
    "diffeo.checks_s": ("s", DIFFEO_CHECKS),
    "problem.checks_s": ("s", PROBLEM_CHECKS),
    "grid.assemble_calls_per_step": ("count", ("grid.assemble_A", "solver.step")),
    "grid.assemble_us": ("us", ("grid.assemble_A",)),
    "grid.retained_operator_mib": ("MiB", ("grid.assemble_A", "solver.run")),
    "grid.metrics_us_per_step": ("us", STEP_METRICS + ("solver.step",)),
    "solver.step_us": ("us", ("solver.step",)),
    "solver.self_us_per_step": ("us", ("solver.step", "solver.run")),
    "solver.solves_per_step": ("count", ("solver.cg", "solver.step")),
    "solver.solve_us": ("us", ("solver.cg",)),
    "solver.iters_per_solve": ("count", ("solver.cg",)),
    "solver.iters_max": ("count", ("solver.cg",)),
    "solver.spd_builds_per_solve": ("count", ("solver.spd_build", "solver.cg")),
    "solver.cg_bytes_per_iter": ("B", ("solver.cg",)),
    "solver.rhs_us_per_step": ("us", ("solver.explicit_rhs", "solver.step")),
    "solver.trajectories": ("count", ("solver.run",)),
    "solver.state_steps": ("count", ("solver.step",)),
    "solver.cell_steps": ("count", ("solver.step",)),
    "pullback.trajectories": ("count", ("solver.run", "pullback.decay_fit")),
    "pullback.state_steps": ("count", ("solver.step", "pullback.decay_fit")),
    "pullback.drift_norm_s": ("s", ("pullback.drift_norm",)),
    "cli.write_s": ("s", WRITES),
    "cli.bytes_written": ("B", WRITES),
}
METRICS.update({f"{layer}.self_s": ("s", ()) for layer in LAYERS})


# ---------------------------------------------------------------------------
# span recording


class Tracer:
    """Span recorder and the wrappers that feed it."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, info]
        self._stack = []
        self._undo = []      # (owner, attribute, original value)
        self.absent = []     # span names whose target was not found
        self.info_errors = {}
        self._wrappers = set()

    def wrap(self, name, fn, info=None):
        """fn with a span around each call; info(args, result) annotates it."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if info is not None:
                try:
                    rec[4] = info(args, out)
                except Exception as e:  # an annotation must never change the run
                    self.info_errors.setdefault(name, repr(e))
            return out
        self._wrappers.add(id(traced))
        return traced

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _resolve(self, module, attr):
        try:
            owner = importlib.import_module(f"movingdom.{module}")
        except ModuleNotFoundError:
            return None, None, None
        *cls, name = attr.split(".")
        for c in cls:
            owner = owner.__dict__.get(c)
            if owner is None:
                return None, None, None
        return owner, name, owner.__dict__.get(name)

    def _replace_everywhere(self, original, replacement):
        """Swap every module-level reference to `original` in the package."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "movingdom"
                                   or mod_name.startswith("movingdom.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, attr, replacement)

    def install(self, functions=FUNCTIONS, properties=PROPERTIES,
                factories=FACTORIES):
        importlib.import_module("movingdom.cli")
        for name, module, attr in functions:
            owner, key, orig = self._resolve(module, attr)
            if orig is None or not callable(orig):
                self.absent.append(name)
            elif id(orig) in self._wrappers:
                continue      # already wrapped under another module's name
            elif isinstance(owner, type):
                self._set(owner, key, self.wrap(name, orig, INFO.get(name)))
            else:
                self._replace_everywhere(orig, self.wrap(name, orig, INFO.get(name)))
        for name, module, attr in properties:
            owner, key, orig = self._resolve(module, attr)
            if not isinstance(orig, cached_property):
                self.absent.append(name)
                continue
            prop = cached_property(self.wrap(name, orig.func))
            prop.__set_name__(owner, key)
            self._set(owner, key, prop)
        for name, module, attr in factories:
            owner, key, orig = self._resolve(module, attr)
            if orig is None or not callable(orig):
                self.absent.append(name)
                continue

            @functools.wraps(orig)
            def factory(*args, _orig=orig, _name=name, **kwargs):
                return self.wrap(_name, _orig(*args, **kwargs))
            self._replace_everywhere(orig, factory)
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)


def _operator_bytes(args, op):
    mats = [op.flux] + ([op.cross] if op.cross is not None else [])
    return sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes for m in mats)


def _cg_info(args, result):
    """(iterations, bytes one Jacobi-CG iteration moves), computed from sizes.

    Per iteration: one SpMV over the CSR matrix (8-byte values, 4-byte
    indices, the row pointer) and 28 streams of n doubles for the vector
    updates, dot products and the residual test.
    """
    op = args[0]
    iters = int(result[1])
    n = op.n
    mat = op.__dict__.get("spd_matrix", op.flux)
    return iters, 12 * mat.nnz + 4 * (n + 1) + 28 * 8 * n


def _file_bytes(args, result):
    return os.path.getsize(args[0])


INFO = {
    "grid.assemble_A": _operator_bytes,
    "solver.cg": _cg_info,
    "solver.step": lambda args, result: args[1].m,
    "cli.write_table": _file_bytes,
    "cli.write_snapshot": _file_bytes,
}
# metrics that read the annotations above
INFO_METRICS = {
    "grid.assemble_A": ("grid.retained_operator_mib",),
    "solver.cg": ("solver.iters_per_solve", "solver.iters_max", "solver.cg_bytes_per_iter"),
    "solver.step": ("solver.cell_steps",),
    "cli.write_table": ("cli.bytes_written",),
    "cli.write_snapshot": ("cli.bytes_written",),
}


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(spans, absent=(), failed_info=()):
    """Per-layer metrics from the recorded spans; returns (values, absent).

    Per-step figures count only spans inside a march (a solver.run span),
    so hypothesis checks and experiment set-up are not charged to steps.
    """
    n = len(spans)
    name = [s[0] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    parent = [s[3] for s in spans]
    child_time = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child_time[parent[i]] += dur[i]
    self_time = [d - c for d, c in zip(dur, child_time)]
    # nearest enclosing march and whether a pullback experiment encloses it
    march = [-1] * n
    in_pullback = [False] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            march[i] = p if name[p] in MARCH else march[p]
            in_pullback[i] = in_pullback[p] or name[p].startswith("pullback.")

    def idx(names, inside=False):
        names = (names,) if isinstance(names, str) else names
        return [i for i in range(n) if name[i] in names and (not inside or march[i] >= 0)]

    step_ix = idx("solver.step")
    nsteps = len(step_ix)
    per_step = 1.0 / nsteps if nsteps else 0.0

    def total(names, inside=False):
        return sum(dur[i] for i in idx(names, inside))

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    cg_ix = idx("solver.cg", inside=True)
    cg_info = [spans[i][4] for i in cg_ix if spans[i][4] is not None]
    iters = [c[0] for c in cg_info]
    retained = {}
    for i in idx("grid.assemble_A", inside=True):
        retained[march[i]] = retained.get(march[i], 0) + (spans[i][4] or 0)
    run_ix = idx(MARCH)
    write_ix = idx(WRITES)
    assemble_ix = idx("grid.assemble_A", inside=True)

    v = {
        "expr.eval_calls_per_step": len(idx("expr.eval", True)) * per_step,
        "expr.eval_us_per_step": 1e6 * total("expr.eval", True) * per_step,
        "diffeo.eval_a_calls_per_step": len(idx("diffeo.eval_a", True)) * per_step,
        "diffeo.eval_b_calls_per_step": len(idx("diffeo.eval_b", True)) * per_step,
        "diffeo.build_metric_calls": len(idx("diffeo.build_metric")),
        "diffeo.checks_s": total(DIFFEO_CHECKS),
        "problem.checks_s": total(PROBLEM_CHECKS),
        "grid.assemble_calls_per_step": len(assemble_ix) * per_step,
        "grid.assemble_us": 1e6 * mean([dur[i] for i in assemble_ix]),
        "grid.retained_operator_mib": max(retained.values(), default=0) / 2 ** 20,
        "grid.metrics_us_per_step": 1e6 * total(STEP_METRICS, True) * per_step,
        "solver.step_us": 1e6 * total("solver.step") * per_step,
        "solver.self_us_per_step": 1e6 * per_step * sum(
            self_time[i] for i in idx(("solver.step",) + MARCH)),
        "solver.solves_per_step": len(cg_ix) * per_step,
        "solver.solve_us": 1e6 * mean([dur[i] for i in cg_ix]),
        "solver.iters_per_solve": mean(iters),
        "solver.iters_max": max(iters, default=0),
        "solver.spd_builds_per_solve": (len(idx("solver.spd_build", True)) / len(cg_ix)
                                        if cg_ix else 0.0),
        "solver.cg_bytes_per_iter": (sum(it * b for it, b in cg_info) / sum(iters)
                                     if sum(iters) else 0.0),
        "solver.rhs_us_per_step": 1e6 * total("solver.explicit_rhs", True) * per_step,
        "solver.trajectories": len(run_ix),
        "solver.state_steps": nsteps,
        "solver.cell_steps": sum(spans[i][4] or 0 for i in step_ix),
        "pullback.trajectories": sum(in_pullback[i] for i in run_ix),
        "pullback.state_steps": sum(in_pullback[i] for i in step_ix),
        "pullback.drift_norm_s": total("pullback.drift_norm"),
        "cli.write_s": total(WRITES),
        "cli.bytes_written": sum(spans[i][4] or 0 for i in write_ix),
    }
    for layer in LAYERS:
        v[f"{layer}.self_s"] = sum(self_time[i] for i in range(n)
                                   if name[i].split(".", 1)[0] == layer)
    gone = {m for m, (_, needs) in METRICS.items() if set(absent) & set(needs)}
    gone.update(m for span in failed_info for m in INFO_METRICS.get(span, ()))
    gone = sorted(gone)
    for m in gone:
        v[m] = 0.0
    return {k: float(x) for k, x in v.items()}, gone


def write_spans(path, spans):
    """Spans as a compact JSON document: a name table plus one row per span."""
    names = sorted({s[0] for s in spans})
    code = {nm: i for i, nm in enumerate(names)}
    rows = [[code[s[0]], s[1], s[2], s[3]] for s in spans]
    with open(path, "w") as f:
        json.dump({"names": names, "columns": ["name", "start", "end", "parent"],
                   "spans": rows}, f, separators=(",", ":"))


def traced_main(argv, spans_path=None):
    """Run movingdom.cli.main(argv) under the tracer.

    Returns (exit code, per-layer metrics, absent metric names, absent
    targets, seconds spent after main returned).
    """
    tracer = Tracer().install()
    cli = importlib.import_module("movingdom.cli")
    try:
        code = tracer.wrap("cli.main", cli.main)(argv)
    finally:
        tracer.uninstall()
    t_end = time.perf_counter()
    metrics, gone = layer_metrics(tracer.spans, tracer.absent, tracer.info_errors)
    if spans_path is not None:
        write_spans(spans_path, tracer.spans)
    return code, metrics, gone, tracer.absent, time.perf_counter() - t_end


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--metrics", required=True, help="per-layer metrics JSON to write")
    ap.add_argument("--spans", help="span file to write")
    ap.add_argument("command", nargs=argparse.REMAINDER,
                    help="movingdom arguments, after --")
    args = ap.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    code, metrics, gone, absent, post_s = traced_main(command, args.spans)
    with open(args.metrics, "w") as f:
        json.dump({"exit_code": code, "metrics": metrics, "absent_metrics": gone,
                   "absent_targets": absent, "post_s": post_s}, f, indent=1)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Config-driven batch front end: check | transform | solve | pullback | mms.

Configs are flat INI-style files with [problem], [numerics] and [experiment]
sections; expressions are double-quoted strings in the expression grammar.
Every output table is CSV with a `schema,<name>,<version>` tag in row 1, and
identical config plus seed gives byte-identical output files.

Exit codes: 0 ok, 1 hypothesis failure, 2 config error, 3 solver failure,
4 resource cap.
"""

import argparse
import configparser
import logging
import os
import re
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import expr as ex
from .diffeo import (BallDomain, BoxDomain, DegenerateDiffeoError,
                     DiffeoError, boundary_points, build_metric,
                     check_H1, check_H4, ellipticity_probe, hoelder_probe,
                     interior_points, parse_diffeo, time_grid, validate_inverse)
from .grid import BoxGrid, GridError, RadialGrid, _csv_blocks, write_snapshot
from .problem import ProblemError, assemble, check_H2, check_H3
from .pullback import (PullbackError, absorbing_radius, cocycle_check, decay_fit,
                       drift_norm, factorization_probe, ladder_steps, pullback_converge)
from .solver import SolverError, StepperConfig, drift_basis, mms_convergence, run

log = logging.getLogger("movingdom.cli")

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_HYPOTHESIS = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_RESOURCE = 4


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# config ingestion

_QUOTED = re.compile(r'"([^"]*)"')


def _exprs(raw, key):
    found = _QUOTED.findall(raw)
    if not found:
        raise ConfigError(f"{key} must hold double-quoted expressions, got {raw!r}")
    return tuple(found)


def _floats(raw):
    return tuple(float(x) for x in raw.split(","))


def _ints(raw):
    return tuple(int(x) for x in raw.split(","))


@dataclass
class RunConfig:
    dim: int
    domain_kind: str
    extents: tuple
    forward: tuple
    inverse: tuple
    beta: float
    f: str | None
    initial: str | None
    exact: str | None
    grid: tuple
    grid_ladder: tuple
    scheme: str
    dt: float
    dts: tuple
    cg_tol: float
    snapshot_every: int
    experiment: dict


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot parse config: {e}") from None
    if "problem" not in cp:
        raise ConfigError("config needs a [problem] section")
    prob = cp["problem"]
    num = cp["numerics"] if "numerics" in cp else {}
    expm = dict(cp["experiment"]) if "experiment" in cp else {}
    try:
        dim = int(prob["dim"])
        kind = prob.get("domain", "box").strip()
        if kind not in ("box", "ball"):
            raise ConfigError(f"domain must be box or ball, got {kind!r}")
        extents = _floats(prob["extents"]) if "extents" in prob else (1.0,) * dim
        forward = _exprs(prob["forward"], "forward")
        inverse = _exprs(prob["inverse"], "inverse")
        if len(forward) != dim or len(inverse) != dim:
            raise ConfigError(f"need {dim} forward and inverse expressions")
        beta = float(prob["beta"])

        def opt_expr(key):
            return _exprs(prob[key], key)[0] if key in prob else None

        grid = _ints(num["grid"]) if "grid" in num else (16,) * (1 if kind == "ball" else dim)
        ladder = _ints(num["grid_ladder"]) if "grid_ladder" in num else (32, 64)
        dts = _floats(num["dts"]) if "dts" in num else (0.04, 0.02, 0.01)
        return RunConfig(
            dim=dim, domain_kind=kind, extents=extents,
            forward=forward, inverse=inverse, beta=beta,
            f=opt_expr("f"), initial=opt_expr("initial"), exact=opt_expr("exact"),
            grid=grid, grid_ladder=ladder,
            scheme=num.get("scheme", "backward-euler").strip(),
            dt=float(num.get("dt", "0.01")),
            dts=dts,
            cg_tol=float(num.get("cg_tol", "1e-10")),
            snapshot_every=int(num.get("snapshot_every", "0")),
            experiment=expm,
        )
    except ConfigError:
        raise
    except KeyError as e:
        raise ConfigError(f"missing config key: {e}") from None
    except ValueError as e:
        raise ConfigError(f"bad config value: {e}") from None


def _exp(rc, key, default, parse=float):
    """[experiment] value `key` read by `parse` (float, int or _floats), else default."""
    raw = rc.experiment.get(key)
    if raw is None:
        return default
    try:
        value = parse(raw)
    except ValueError as e:
        raise ConfigError(f"bad [experiment] value {key} = {raw!r}: {e}") from None
    if not np.all(np.isfinite(value)):
        raise ConfigError(f"[experiment] value {key} = {raw!r} is not finite")
    return value


def fixture_path(name) -> Path:
    """Filesystem path of a bundled fixture config (e.g. "ball_shrink")."""
    root = resources.files("movingdom") / "fixtures"
    p = root / f"{name}.cfg"
    if not p.is_file():
        have = sorted(f.name[:-4] for f in root.iterdir() if f.name.endswith(".cfg"))
        raise ConfigError(f"no bundled fixture {name!r}; have {have}")
    return Path(str(p))


def _domain(rc):
    return BallDomain(rc.dim) if rc.domain_kind == "ball" else BoxDomain(rc.extents)


def _grid(rc, n=None):
    axes = 1 if rc.domain_kind == "ball" else rc.dim
    counts = (n,) * axes if n is not None else rc.grid
    if len(counts) != axes:
        raise ConfigError(f"bad [numerics] value: grid needs one cell count per "
                          f"axis ({axes} here), got {counts}")
    if rc.domain_kind == "ball":
        return RadialGrid(rc.dim, counts[0])
    return BoxGrid(rc.extents, counts)


def _spec(rc):
    return parse_diffeo(rc.dim, _domain(rc), rc.forward, rc.inverse)


def _problem(rc, metric):
    return assemble(metric, beta=rc.beta, f=rc.f, initial=rc.initial)


def _stepper(rc, dt=None):
    """The [numerics] StepperConfig, with step dt (rc.dt if None); invalid
    values are config errors."""
    try:
        return StepperConfig(dt=rc.dt if dt is None else dt, scheme=rc.scheme,
                             cg_tol=rc.cg_tol, snapshot_every=rc.snapshot_every)
    except SolverError as e:
        raise ConfigError(f"bad [numerics] value: {e}") from None


# ---------------------------------------------------------------------------
# deterministic tables

def _cell(v):
    # np.float64 passes isinstance(float) but repr()s as np.float64(x)
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def write_table(path, name, header, rows=(), columns=None):
    """Write a schema-tagged CSV; rows may be any iterable of sequences and
    are streamed.  columns, if given, follow the rows: equal-length columns,
    each a cell string repeated on every row, a float64 array or the block
    texts write_snapshot returns, written in blocks by grid._csv_blocks with
    the floats as _cell formats them."""
    with open(path, "w") as fh:
        fh.write(f"schema,{name},{SCHEMA_VERSION}\n")
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(_cell, row)) + "\n" for row in rows)
        if columns is not None:
            fh.writelines(_csv_blocks(columns))


def read_table(path):
    """Parse a table written by write_table: (name, version, header, rows)."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("schema,"):
        raise ConfigError(f"{path} is not a schema-tagged table")
    _, name, version = lines[0].split(",")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return name, int(version), header, rows


# ---------------------------------------------------------------------------
# hypothesis checks shared by every subcommand

def _fmt_y(y):
    return "(" + " ".join(repr(float(c)) for c in np.atleast_1d(y)) + ")"


def _hypothesis_rows(rc, probes=True):
    """Run every declared check; returns (rows, all_hard_checks_pass, metric).
    probes=False leaves out the report-only Hoelder probe and its row."""
    spec = _spec(rc)
    metric = build_metric(spec)
    rows = []
    ok = True

    res, (t0, y0) = validate_inverse(spec)
    inv_ok = res <= 1e-8
    ok &= inv_ok
    rows.append(("inverse", "pass" if inv_ok else "fail", res,
                 f"worst at t={t0!r} y={_fmt_y(y0)}"))

    h1 = check_H1(metric)
    ok &= h1.passed
    rows.append(("H1", "pass" if h1.passed else "fail", h1.residual,
                 f"theta={h1.theta!r} h_range=[{h1.h0!r} {h1.h1!r}]"))
    if h1.witness is not None:
        t, y, i, k = h1.witness
        rows.append(("H1_witness", "info", h1.residual,
                     f"t={t!r} y={_fmt_y(y)} entry=({i} {k})"))

    # a on the H1 lattice, evaluated once for both probes and then dropped
    A = metric.eval_a(time_grid(), interior_points(metric.spec.domain, metric.dim))
    C = ellipticity_probe(metric, A=A)
    rows.append(("ellipticity", "pass", C, "min eigenvalue of a over samples"))

    if probes:
        theta, hc = hoelder_probe(metric, A=A)
        rows.append(("hoelder", "info", theta, f"c={hc!r}"))
    del A

    if h1.passed:
        h4 = check_H4(h1)
        status = "pass" if h4.flag == "consistent" else "advisory"
        if status == "advisory":
            log.warning("H4 %s; pullback experiments remain finite-horizon", h4.flag)
        rows.append(("H4", status, float(h4.sups[-1]), h4.flag))

    if rc.f is not None:
        fe = ex.parse(rc.f)
        h2 = check_H2(fe, n=rc.dim)
        ok &= h2.passed
        rows.append(("H2", "pass" if h2.passed else "fail", h2.tail_slope,
                     f"c={h2.c!r} rho={h2.rho!r} cap={h2.cap!r}"))
        if h2.witness is not None:
            rows.append(("H2_witness", "info", h2.witness, "sup|f_u| grows here"))
        h3 = check_H3(fe)
        ok &= h3.passed
        rows.append(("H3", "pass" if h3.passed else "fail", h3.tail_slope,
                     f"k1={h3.k1!r} k2={h3.k2!r}"))
        if h3.witness is not None:
            rows.append(("H3_witness", "info", h3.witness, "|f| grows here"))
    return rows, ok, metric


def _require_checks(rc):
    """Raise unless every hard check passes; returns the checked MetricBundle.
    Runs the checks `check` runs except the report-only Hoelder probe."""
    rows, ok, metric = _hypothesis_rows(rc, probes=False)
    if not ok:
        bad = [r[0] for r in rows if r[1] == "fail"]
        raise _HypothesisFailure(f"hypothesis checks failed: {', '.join(bad)}")
    return metric


class _HypothesisFailure(Exception):
    pass


# ---------------------------------------------------------------------------
# subcommands

def cmd_check(rc, out, seed=None):
    rows, ok, _ = _hypothesis_rows(rc)
    write_table(out / "hypothesis_report.csv", "hypothesis_report",
                ("check", "status", "value", "detail"), rows)
    return EXIT_OK if ok else EXIT_HYPOTHESIS


def cmd_transform(rc, out, seed=None):
    g = _grid(rc)
    times = _exp(rc, "sample_times", (0.0, 1.0), _floats)
    metric = _require_checks(rc)
    d = rc.dim
    rows = []
    for j in range(d):
        for k in range(d):
            rows.append((f"a_{j + 1}{k + 1}", ex.to_string(metric.a[j][k])))
    for k in range(d):
        rows.append((f"b_{k + 1}", ex.to_string(metric.b[k])))
    for label, kexpr in metric.K_faces:
        rows.append((f"K[{label}]", ex.to_string(kexpr)))
    write_table(out / "transform_symbolic.csv", "transform_symbolic",
                ("entry", "expression"), rows)

    pts = g.embed()[:, :d]
    header = (["t"] + [f"y{i + 1}" for i in range(d)]
              + [f"a_{j + 1}{k + 1}" for j in range(d) for k in range(d)]
              + [f"b_{k + 1}" for k in range(d)])
    sample_rows = []
    for t in times:
        cols = [pts, metric.eval_a(t, pts).reshape(len(pts), -1), metric.eval_b(t, pts)]
        sample_rows += ([t] + row for row in np.column_stack(cols).tolist())
    write_table(out / "transform_samples.csv", "transform_samples",
                header, sample_rows)

    bpts, normals = boundary_points(_domain(rc), d, n=16)
    k_header = ["t"] + [f"y{i + 1}" for i in range(d)] + ["K"]
    k_rows = []
    for t in times:
        Kv = metric.eval_K(t, bpts, normals)
        k_rows += ([t] + row for row in np.column_stack([bpts, Kv]).tolist())
    write_table(out / "transform_boundary.csv", "transform_boundary",
                k_header, k_rows)
    return EXIT_OK


def _write_metrics(out, traj):
    write_table(out / "metrics.csv", "metrics",
                ("step", "t", "L2", "H1", "mass", "boundary_residual", "cg_iters"),
                [(m.step, m.t, m.L2, m.H1, m.mass, m.boundary_residual, m.cg_iters)
                 for m in traj.metrics])


def cmd_solve(rc, out, seed=None):
    if rc.initial is None:
        raise ConfigError("solve needs `initial` in the [problem] section")
    cfg = _stepper(rc)
    g = _grid(rc)
    tau = _exp(rc, "tau", 0.0)
    T = _exp(rc, "t", 1.0)
    if not tau <= T:
        raise ConfigError(f"[experiment] needs tau <= t, got tau = {tau}, t = {T}")
    metric = _require_checks(rc)
    p = _problem(rc, metric)
    # the drift basis and the operator family it needs, built before the march
    drift_basis(p, g)
    traj = run(p, g, cfg, tau, T)
    _write_metrics(out, traj)

    fwd = [ex.compiled(c) for c in metric.spec.forward]
    centers = g.embed()[:, :rc.dim]
    for idx, (t, snap) in enumerate(zip(traj.times, traj.snapshots)):
        # u is formatted once: the moving table reuses the snapshot's text
        u = write_snapshot(out / f"fixed_{idx:03d}.snap", g, snap, t)
        env, shape = ex.bind(t, centers)
        xs = [np.broadcast_to(f(env), shape) for f in fwd]
        write_table(out / f"moving_{idx:03d}.csv", "moving_snapshot",
                    ["t"] + [f"x{i + 1}" for i in range(rc.dim)] + ["u"],
                    columns=[repr(float(t))] + xs + [u])
    return EXIT_OK


def cmd_mms(rc, out, seed=None):
    if rc.exact is None:
        raise ConfigError("mms needs `exact` in the [problem] section")
    for dt in rc.dts:
        _stepper(rc, dt)
    grids = [_grid(rc, n) for n in rc.grid_ladder]
    p = _problem(rc, _require_checks(rc))
    rep = mms_convergence(p, rc.exact, grids, rc.dts, scheme=rc.scheme,
                          cg_tol=rc.cg_tol)
    rows = [("spatial", m, err) for m, err in rep.spatial]
    rows += [("spatial_order", "", o) for o in rep.spatial_orders]
    rows += [("temporal", dt, err) for dt, err in rep.temporal]
    rows += [("temporal_order", "", o) for o in rep.temporal_orders]
    write_table(out / "orders.csv", "mms_orders", ("section", "x", "value"), rows)
    return EXIT_OK


def cmd_pullback(rc, out, seed=None):
    g = _grid(rc)
    cfg = _stepper(rc)
    t_star = _exp(rc, "t_star", 0.0)
    k_max = _exp(rc, "k_max", 6, int)
    horizon = _exp(rc, "horizon", 10.0)
    n_seeds = _exp(rc, "seeds", 5, int)
    radii = _exp(rc, "radii", (1.0, 10.0, 100.0), _floats)
    gaps_ladder = _exp(rc, "drift_gaps", (1.0, 2.0, 4.0, 8.0), _floats)
    drift_r = _exp(rc, "drift_r", 5.0)
    radius_k = _exp(rc, "radius_k", 4, int)
    cap = _exp(rc, "max_total_steps", 5_000_000, int)
    rng_seed = seed if seed is not None else _exp(rc, "rng_seed", 0, int)
    for key, count, least in (("k_max", k_max, 1), ("seeds", n_seeds, 1),
                              ("radius_k", radius_k, 0), ("max_total_steps", cap, 1)):
        if count < least:
            raise ConfigError(f"{key} must be at least {least}, got {count}")
    for key, values in (("radii", radii), ("drift_gaps", gaps_ladder)):
        if min(values) <= 0:
            raise ConfigError(f"{key} entries must be positive, got {min(values)}")
    # a beta that is not positive is a config error when the problem is assembled
    if rc.beta > 0 and horizon < 10.0 / rc.beta:
        raise ConfigError(f"experiment horizon {horizon} too short for the "
                          f"decay fit; need >= 10/beta = {10.0 / rc.beta}")
    # the ladder truncates itself to the cap; these runs would only overrun it
    planned = (("decay fit", n_seeds * horizon / cfg.dt),
               ("absorbing radius", n_seeds * len(radii) * ladder_steps(radius_k, cfg.dt)))
    for phase, steps in planned:
        if steps > cap:
            raise PullbackError(f"the {phase} plans {steps:.0f} steps, above "
                                f"max_total_steps = {cap}")
    p = _problem(rc, _require_checks(rc))

    # the drift basis and the operator family it needs, shared by the runs below
    drift_basis(p, g)
    rng = np.random.default_rng(rng_seed)
    seeds = [rng.normal(size=g.m) for _ in range(n_seeds)]
    u0 = p.initial_values(g.embed()) if rc.initial is not None else np.zeros(g.m)

    decay = decay_fit(p, g, cfg, t_star, horizon, seeds)
    drift_rows = [(t_star, t_star - gap, drift_r,
                   drift_norm(p, g, (t_star, t_star - gap, drift_r)))
                  for gap in gaps_ladder]
    gaps = pullback_converge(p, g, cfg, t_star, u0, k_max, max_total_steps=cap)
    radius = absorbing_radius(p, g, cfg, t_star, seeds, radii, k_max=radius_k)
    coc = cocycle_check(p, g, cfg, t_star - 2.0, t_star - 1.0, t_star, u0)
    factor = factorization_probe(p, g, cfg, t_star - 2.0, t_star, u0)

    rows = [("decay", "K", decay.K, f"skipped={decay.skipped}"),
            ("decay", "b", decay.b, f"seeds={len(decay.per_seed)}")]
    rows += [("drift", f"gap={t - tau!r}", val, f"t={t!r} tau={tau!r} r={r!r}")
             for t, tau, r, val in drift_rows]
    rows += [("gaps", f"k={k}", delta, f"tau={gaps.taus[k]!r}")
             for k, delta in enumerate(gaps.gaps)]
    rows.append(("gaps", "cauchy", float(gaps.cauchy), ""))
    rows.append(("gaps", "truncated", float(gaps.truncated), ""))
    rows.append(("radius", "H1", radius,
                 f"radii=({' '.join(repr(r) for r in radii)}) k_max={radius_k}"))
    rows.append(("cocycle", "residual", coc,
                 f"tau={t_star - 2.0!r} s={t_star - 1.0!r} t={t_star!r}"))
    rows.append(("factorization", "H1", factor,
                 f"window=[{t_star - 2.0!r} {t_star!r}]"))
    if not all(np.isfinite(value) for _, _, value, _ in rows):
        raise PullbackError("non-finite entry in pullback report")
    write_table(out / "pullback_report.csv", "pullback_report",
                ("section", "name", "value", "detail"), rows)

    write_table(out / "gaps_plot.csv", "gaps_plot", ("k", "delta"),
                list(enumerate(gaps.gaps)))
    write_table(out / "drift_plot.csv", "drift_plot", ("gap", "value"),
                [(t - tau, val) for t, tau, r, val in drift_rows])
    if gaps.truncated:
        log.warning("pullback ladder truncated by the step cap; partial report")
        return EXIT_RESOURCE
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}

_COMMANDS = {"check": cmd_check, "transform": cmd_transform,
             "solve": cmd_solve, "pullback": cmd_pullback, "mms": cmd_mms}


def _setup_logging():
    raw = os.environ.get("MOVINGDOM_LOG", "warn").lower()
    if raw not in _LOG_LEVELS:
        raise ConfigError(f"MOVINGDOM_LOG must be one of {sorted(_LOG_LEVELS)}, "
                          f"got {raw!r}")
    logging.basicConfig(stream=sys.stderr, level=_LOG_LEVELS[raw],
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="movingdom",
        description="moving-domain heat problems: transform, check, solve, "
                    "and run pullback experiments")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        s = sub.add_parser(name)
        s.add_argument("--config", required=True)
        s.add_argument("--out", default=".")
        s.add_argument("--seed", type=int, default=None)
    args = ap.parse_args(argv)
    try:
        _setup_logging()
        rc = load_config(args.config)
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"cannot create --out directory: {e}") from None
        return _COMMANDS[args.command](rc, out, seed=args.seed)
    except _HypothesisFailure as e:
        print(f"movingdom: {e}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except DegenerateDiffeoError as e:  # before its base class DiffeoError
        print(f"movingdom: {e}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (ConfigError, ex.ParseError, ex.EvalError, ProblemError, DiffeoError,
            GridError) as e:
        print(f"movingdom: config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except PullbackError as e:
        print(f"movingdom: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except SolverError as e:
        print(f"movingdom: solver error: {e}", file=sys.stderr)
        return EXIT_SOLVER

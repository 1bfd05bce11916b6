"""Acceptance gate: one test per advertised guarantee, at its stated
tolerance and runtime budget.  Each test prints a single summary line
(visible with -s or -rA) naming the guarantee and the measured margin."""

import math
import time

import numpy as np
import pytest

from movingdom.cli import fixture_path, load_config, main, read_table
from movingdom.diffeo import (BallDomain, BoxDomain, boundary_points,
                              build_metric, ellipticity_probe, parse_diffeo)
from movingdom.grid import BoxGrid, RadialGrid, assemble_A, inner, norm_L2
from movingdom.problem import assemble
from movingdom.pullback import (cocycle_check, decay_fit, drift_norm,
                                pullback_converge)
from movingdom.solver import StepperConfig, mms_convergence, run

ALL_FIXTURES = ("identity", "dilation", "ball_shrink", "rotation",
                "cubic", "quintic", "sin_u", "sin_t")


def load(name):
    rc = load_config(fixture_path(name))
    dom = BallDomain(rc.dim) if rc.domain_kind == "ball" else BoxDomain(rc.extents)
    spec = parse_diffeo(rc.dim, dom, rc.forward, rc.inverse)
    return rc, spec


def grid_for(rc, n=None):
    if rc.domain_kind == "ball":
        return RadialGrid(rc.dim, n if n is not None else rc.grid[0])
    counts = (n,) * rc.dim if n is not None else rc.grid
    return BoxGrid(rc.extents, counts)


def report(label, detail):
    print(f"acceptance {label}: PASS ({detail})")


# 01 ------------------------------------------------------------------------


def test_01_symbolic_coefficients_match_closed_forms():
    """a = h^2 I, b = (h'/h) y, K = 1/h for the moving-ball geometry, with
    h(t) = exp(-t^2) + 1; checked symbolically to 1e-12 and against a pure
    finite-difference reconstruction to 1e-5, in under 5 s."""
    t0 = time.monotonic()
    rc, spec = load("ball_shrink")
    m = build_metric(spec)
    rng = np.random.default_rng(42)
    ts = rng.uniform(0.0, 10.0, size=1000)
    raw = rng.normal(size=(1000, 3))
    ys = raw * (rng.uniform(0, 1, 1000) ** (1 / 3)
                / np.linalg.norm(raw, axis=1))[:, None]

    h = np.exp(-ts**2) + 1.0
    hp = np.exp(-ts**2) * (-2.0 * ts)

    worst_sym = 0.0
    for i in range(1000):
        a = m.eval_a(ts[i], ys[i:i + 1])[0]
        b = m.eval_b(ts[i], ys[i:i + 1])[0]
        a_ref = h[i] ** 2 * np.eye(3)
        b_ref = (hp[i] / h[i]) * ys[i]
        worst_sym = max(worst_sym,
                        np.abs(a - a_ref).max() / np.abs(a_ref).max(),
                        np.abs(b - b_ref).max() / max(1.0, np.abs(b_ref).max()))
    bpts, normals = boundary_points(BallDomain(3), 3, n=64)
    for t in ts[:50]:
        K = m.eval_K(t, bpts, normals)
        ht = math.exp(-t**2) + 1.0
        worst_sym = max(worst_sym, np.abs(K - 1.0 / ht).max() * ht)
    assert worst_sym <= 1e-12

    # independent reconstruction: the maps restated as raw numpy closures,
    # every derivative taken by central differences
    def fwd(t, y):
        return y / (np.exp(-t**2) + 1.0)

    def inv(t, x):
        return x * (np.exp(-t**2) + 1.0)

    xs = fwd(ts[:, None], ys)
    dx, dt_, dxx = 1e-6, 1e-5, 1e-3
    T_fd = np.empty((1000, 3, 3))
    lap = np.zeros((1000, 3))
    for k in range(3):
        e = np.zeros(3)
        e[k] = 1.0
        T_fd[:, :, k] = (inv(ts[:, None], xs + dx * e)
                         - inv(ts[:, None], xs - dx * e)) / (2 * dx)
        lap += (inv(ts[:, None], xs + dxx * e) - 2 * inv(ts[:, None], xs)
                + inv(ts[:, None], xs - dxx * e)) / dxx**2
    a_fd = np.einsum("nij,nik->njk", T_fd, T_fd)
    b_fd = (inv(ts[:, None] + dt_, xs) - inv(ts[:, None] - dt_, xs)) / (2 * dt_) + lap

    worst_fd = 0.0
    for i in range(1000):
        a = m.eval_a(ts[i], ys[i:i + 1])[0]
        b = m.eval_b(ts[i], ys[i:i + 1])[0]
        worst_fd = max(worst_fd,
                       np.abs(a_fd[i] - a).max() / np.abs(a).max(),
                       np.abs(b_fd[i] - b).max() / max(1.0, np.abs(b).max()))
    for t in ts[:50]:
        Tb = np.empty((3, 3))
        x = fwd(t, bpts[0])
        for k in range(3):
            e = np.zeros(3)
            e[k] = 1.0
            Tb[:, k] = (inv(t, x + dx * e) - inv(t, x - dx * e)) / (2 * dx)
        K_fd = 1.0 / np.linalg.norm(Tb @ normals[0])
        K_sym = m.eval_K(t, bpts[:1], normals[:1])[0]
        worst_fd = max(worst_fd, abs(K_fd - K_sym) / K_sym)
    assert worst_fd <= 1e-5
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report("01 coefficient closed forms",
           f"sym {worst_sym:.1e} <= 1e-12, fd {worst_fd:.1e} <= 1e-5, {elapsed:.1f}s")


# 02 ------------------------------------------------------------------------


def test_02_hypothesis_gate_exit_codes(tmp_path):
    """`check` accepts the moving ball (exit 0) and rejects the rotation
    with a separability witness (exit 1), each in under 5 s."""
    t0 = time.monotonic()
    assert main(["check", "--config", str(fixture_path("ball_shrink")),
                 "--out", str(tmp_path / "ok")]) == 0
    e_ok = time.monotonic() - t0
    assert e_ok < 5.0

    t1 = time.monotonic()
    assert main(["check", "--config", str(fixture_path("rotation")),
                 "--out", str(tmp_path / "bad")]) == 1
    e_bad = time.monotonic() - t1
    assert e_bad < 5.0
    _, _, _, rows = read_table(tmp_path / "bad" / "hypothesis_report.csv")
    by = {r[0]: r for r in rows}
    assert by["H1"][1] == "fail"
    assert "H1_witness" in by and "t=" in by["H1_witness"][3]
    report("02 hypothesis gate", f"ball {e_ok:.1f}s exit 0, "
           f"rotation {e_bad:.1f}s exit 1 with witness")


# 03 ------------------------------------------------------------------------


def test_03_ellipticity_constants():
    """Uniform ellipticity: C >= 1 - 1e-9 for the moving ball on t in
    [0, 10] and C = 1 +- 1e-12 for the identity map."""
    _, spec = load("ball_shrink")
    C_ball = ellipticity_probe(build_metric(spec), tgrid=np.linspace(0.0, 10.0, 101))
    assert C_ball >= 1.0 - 1e-9

    _, ispec = load("identity")
    C_id = ellipticity_probe(build_metric(ispec))
    assert abs(C_id - 1.0) <= 1e-12
    report("03 ellipticity", f"ball C={C_ball:.12f}, identity C={C_id!r}")


# 04 ------------------------------------------------------------------------


def test_04_discretization_orders():
    """Manufactured solutions on the identity box and the moving ball:
    spatial order 2.0 +- 0.3 on N in {32,64,128,256}, temporal order
    1.0 +- 0.2 (backward-euler) and 2.0 +- 0.3 (crank-nicolson), under
    60 s total."""
    t0 = time.monotonic()
    dts = (0.04, 0.02, 0.01)
    cases = []
    for name in ("identity", "ball_shrink"):
        rc, spec = load(name)
        p = assemble(spec, rc.beta)
        grids = [grid_for(rc, n) for n in (32, 64, 128, 256)]
        cn = mms_convergence(p, rc.exact, grids, dts, scheme="crank-nicolson")
        # the spatial ladder is scheme-independent; rerun only the
        # temporal part for backward euler
        be = mms_convergence(p, rc.exact, grids[-1:], dts, scheme="backward-euler")
        for o in cn.spatial_orders:
            assert abs(o - 2.0) <= 0.3
        for o in cn.temporal_orders:
            assert abs(o - 2.0) <= 0.3
        for o in be.temporal_orders:
            assert abs(o - 1.0) <= 0.2
        cases.append((name, cn.spatial_orders[-1], cn.temporal_orders[-1],
                      be.temporal_orders[-1]))
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    detail = "; ".join(f"{n}: space {s:.2f}, cn {c:.2f}, be {b:.2f}"
                       for n, s, c, b in cases)
    report("04 discretization orders", f"{detail}; {elapsed:.1f}s")


# 05 ------------------------------------------------------------------------


def test_05_conservation_and_structure():
    """With beta = 0 and f = 0 the scheme conserves mass to 1e-9 per unit
    time; the implicit flux matrix is symmetric to 1e-13 and the operator
    is self-adjoint in the volume-weighted inner product to 1e-12."""
    drifts = []
    for name in ("identity", "dilation"):
        rc, spec = load(name)
        p = assemble(spec, 0.0, allow_nondissipative=True)
        g = grid_for(rc)
        rng = np.random.default_rng(7)
        v0 = 1.0 + 0.5 * rng.uniform(size=g.m)
        traj = run(p, g, StepperConfig(dt=0.01, scheme="crank-nicolson",
                                       cg_tol=1e-12), 0.0, 1.0, v0)
        masses = np.array([mm.mass for mm in traj.metrics])
        drift = np.abs(masses - masses[0]).max() / 1.0
        assert drift <= 1e-9 * abs(masses[0])
        drifts.append(drift / abs(masses[0]))

    worst_sym, worst_adj = 0.0, 0.0
    for name in ("identity", "dilation", "ball_shrink"):
        rc, spec = load(name)
        p = assemble(spec, rc.beta)
        g = grid_for(rc, 32)
        for t in (0.0, 0.8):
            A = assemble_A(p, g, t)
            assert A.cross is None
            S = np.column_stack([A.apply_flux(e) for e in np.eye(g.m)])
            sym = float(abs(S - S.T).max()) / float(abs(S).max())
            assert sym <= 1e-13
            worst_sym = max(worst_sym, sym)
            rng = np.random.default_rng(11)
            for _ in range(3):
                v = rng.normal(size=g.m)
                w = rng.normal(size=g.m)
                lhs = inner(g, A.apply_implicit(v), w)
                rhs = inner(g, v, A.apply_implicit(w))
                assert lhs == pytest.approx(rhs, rel=1e-12)
                worst_adj = max(worst_adj, abs(lhs - rhs) / abs(lhs))
    report("05 conservation and structure",
           f"mass drift {max(drifts):.1e}, symmetry {worst_sym:.1e}, "
           f"self-adjointness {worst_adj:.1e}")


# 06 ------------------------------------------------------------------------


def test_06_homogeneous_decay_rate():
    """The homogeneous process loses L2 mass at a fitted rate b >= 0.9*beta
    (beta = 1) on the identity and moving-ball fixtures, 5 random seeds,
    horizon 10, in under 30 s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    fits = []
    for name in ("identity", "ball_shrink"):
        rc, spec = load(name)
        p = assemble(spec, 1.0)
        g = grid_for(rc)
        seeds = [rng.normal(size=g.m) for _ in range(5)]
        # backward euler: L-stable, so undamped high modes cannot flatten
        # the fitted slope of a random seed
        cfg = StepperConfig(dt=0.01, scheme="backward-euler", cg_tol=1e-10)
        fit = decay_fit(p, g, cfg, 0.0, 10.0, seeds)
        assert fit.skipped == 0
        assert fit.b >= 0.9
        fits.append((name, fit.b))
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report("06 homogeneous decay",
           "; ".join(f"{n}: b={b:.3f}" for n, b in fits) + f"; {elapsed:.1f}s")


# 07 ------------------------------------------------------------------------


def test_07_drift_norm_scaling():
    """The coefficient-drift norm scales exactly with |h^2(t) - h^2(tau)|
    (ratio constant over 10 pairs to 1e-4) and is independent of the
    reference time r across three choices to 1e-4."""
    _, spec = load("ball_shrink")
    p = assemble(spec, 1.0)
    g = RadialGrid(3, 48)

    def h2(t):
        return (math.exp(-t**2) + 1.0) ** 2

    pairs = [(0.2, 0.9), (0.3, 1.1), (0.4, 1.3), (0.5, 1.6), (0.6, 2.0),
             (0.7, 2.5), (0.8, 3.0), (0.9, -0.2), (1.0, -0.1), (1.2, 0.1)]
    ratios = [drift_norm(p, g, (t, tau, 5.0)) / abs(h2(t) - h2(tau))
              for t, tau in pairs]
    spread = max(ratios) / min(ratios) - 1.0
    assert spread <= 1e-4

    ests = [drift_norm(p, g, (1.0, 0.0, r)) for r in (4.0, 5.0, 6.0)]
    r_spread = max(ests) / min(ests) - 1.0
    assert r_spread <= 1e-4
    report("07 drift norm scaling",
           f"ratio spread {spread:.1e}, r spread {r_spread:.1e}")


# 08 ------------------------------------------------------------------------


def test_08_pullback_attraction():
    """Moving ball with f = sin(t): the pullback gap sequence decreases
    from k = 2 on with delta_5 <= 1e-4 (1 + ||u0||); seeds of size 0 and
    100 land within 2*delta_5 of each other at t* = 0; and the constant
    mode matches a scalar RK4 oracle at dt/100 to 1e-5.  Under 120 s."""
    t0 = time.monotonic()
    rc, spec = load("sin_t")
    p = assemble(spec, rc.beta, f=rc.f)
    g = grid_for(rc)
    cfg = StepperConfig(dt=rc.dt, scheme=rc.scheme, cg_tol=rc.cg_tol)

    rep = pullback_converge(p, g, cfg, 0.0, np.zeros(g.m), k_max=6)
    gaps = rep.gaps
    assert not rep.truncated
    assert all(b < a for a, b in zip(gaps[2:], gaps[3:]))
    assert gaps[5] <= 1e-4 * (1.0 + 0.0)

    rng = np.random.default_rng(3)
    w = rng.normal(size=g.m)
    u100 = w * (100.0 / norm_L2(g, w))
    deep = run(p, g, cfg, rep.taus[-1], 0.0, u100).final
    seed_dist = norm_L2(g, rep.finals[-1] - deep)
    assert seed_dist <= 2.0 * gaps[5]

    # constant-mode oracle: v' = -beta v + sin(t) from v(tau) = 0, classic
    # RK4 at one hundredth of the solver step
    tau = rep.taus[-1]
    n = round(-tau / (cfg.dt / 100.0))
    hh = -tau / n
    v = 0.0
    for i in range(n):
        t = tau + i * hh
        k1 = -p.beta * v + math.sin(t)
        k2 = -p.beta * (v + 0.5 * hh * k1) + math.sin(t + 0.5 * hh)
        k3 = -p.beta * (v + 0.5 * hh * k2) + math.sin(t + 0.5 * hh)
        k4 = -p.beta * (v + hh * k3) + math.sin(t + hh)
        v += (hh / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    oracle_err = np.abs(rep.finals[-1] - v).max()
    assert oracle_err <= 1e-5
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report("08 pullback attraction",
           f"delta_5={gaps[5]:.1e}, seed dist {seed_dist:.1e} <= {2 * gaps[5]:.1e}, "
           f"oracle err {oracle_err:.1e}, {elapsed:.1f}s")


# 09 ------------------------------------------------------------------------


def test_09_cocycle_bitwise_on_all_fixtures():
    """S(t,s)S(s,tau) = S(t,tau) bitwise (residual exactly 0.0) for
    lattice-aligned s on every bundled fixture."""
    rng = np.random.default_rng(17)
    for name in ALL_FIXTURES:
        rc, spec = load(name)
        p = assemble(spec, rc.beta, f=rc.f, initial=rc.initial)
        g = grid_for(rc)
        cfg = StepperConfig(dt=rc.dt, scheme=rc.scheme, cg_tol=rc.cg_tol)
        u0 = rng.normal(size=g.m)
        res = cocycle_check(p, g, cfg, 0.0, 10 * rc.dt, 20 * rc.dt, u0)
        assert res == 0.0, f"{name}: cocycle residual {res!r}"
    report("09 cocycle", f"residual 0.0 on {len(ALL_FIXTURES)} fixtures")


# 10 ------------------------------------------------------------------------


def test_10_full_stack_determinism(tmp_path):
    """Repeated `pullback` runs with the same config and seed write
    byte-identical report files."""
    cfg = tmp_path / "repeat.cfg"
    cfg.write_text(
        '[problem]\n'
        'dim = 3\n'
        'domain = ball\n'
        'forward = "y1 / (exp(0 - t^2) + 1)", "y2 / (exp(0 - t^2) + 1)", '
        '"y3 / (exp(0 - t^2) + 1)"\n'
        'inverse = "x1 * (exp(0 - t^2) + 1)", "x2 * (exp(0 - t^2) + 1)", '
        '"x3 * (exp(0 - t^2) + 1)"\n'
        'beta = 1.0\n'
        'f = "sin(t)"\n'
        '[numerics]\n'
        'grid = 32\n'
        'scheme = crank-nicolson\n'
        'dt = 0.02\n'
        'cg_tol = 1e-12\n'
        '[experiment]\n'
        't_star = 0.0\n'
        'k_max = 4\n'
        'horizon = 10.0\n'
        'seeds = 2\n'
        'radii = 1.0, 10.0\n'
        'radius_k = 3\n'
        'drift_gaps = 1.0, 4.0\n')
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["pullback", "--config", str(cfg), "--out", str(out),
                     "--seed", "0"]) == 0
    names = ("pullback_report.csv", "gaps_plot.csv", "drift_plot.csv")
    for fn in names:
        assert (a / fn).read_bytes() == (b / fn).read_bytes()
    report("10 full-stack determinism",
           f"{len(names)} report files byte-identical across runs")

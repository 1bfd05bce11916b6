import dataclasses
import math

import numpy as np
import pytest

from movingdom import expr as ex
from movingdom import pullback
from movingdom.cli import _grid, _spec, fixture_path, load_config
from movingdom.diffeo import BallDomain, BoxDomain, DiffeoSpec, build_metric, check_H1
from movingdom.grid import BoxGrid, RadialGrid, assemble_A, inner, norm_L2
from movingdom.problem import assemble
from movingdom.pullback import (GapReport, PullbackError, absorbing_radius,
                                cocycle_check, decay_fit, drift_norm,
                                factorization_probe, pullback_converge)
from movingdom.solver import (GridH1Error, StepperConfig, _cg, operator_at, operator_family,
                              run_homogeneous)


def identity_problem(dim=1, beta=1.0, f=None):
    dom = BoxDomain((1.0,) * dim)
    spec = DiffeoSpec(
        dim=dim, domain=dom,
        forward=tuple(ex.parse(f"y{i + 1}") for i in range(dim)),
        inverse=tuple(ex.parse(f"x{i + 1}") for i in range(dim)),
    )
    return assemble(spec, beta=beta, f=f)


def ball_shrink_problem(beta=1.0, f=None):
    spec = DiffeoSpec(
        dim=3, domain=BallDomain(3),
        forward=tuple(ex.parse(f"y{i} / (exp(-t^2) + 1)") for i in (1, 2, 3)),
        inverse=tuple(ex.parse(f"(exp(-t^2) + 1) * x{i}") for i in (1, 2, 3)),
    )
    return assemble(spec, beta=beta, f=f)


def stretch_problem(eps=0.0):
    """Per-axis stretch of the unit cube: its flux is a Kronecker sum.

    eps adds eps * t * y1^2 to the first forward component: a(t) then
    leaves h(t)^2 a(0) by about eps while T = h P still holds to well
    within the H1 tolerance.
    """
    spec = DiffeoSpec(
        dim=3, domain=BoxDomain((1.0, 1.0, 1.0)),
        forward=tuple(ex.parse(f"(y{i} + 0.25 * y{i}^2) / (exp(0 - t^2) + 1)"
                               + (f" + {eps!r} * t * y{i}^2" if i == 1 else ""))
                      for i in (1, 2, 3)),
        inverse=tuple(ex.parse(f"2 * (sqrt(1 + x{i} * (exp(0 - t^2) + 1)) - 1)")
                      for i in (1, 2, 3)),
    )
    return assemble(spec, beta=1.0)


def coupled_moving_problem():
    """Diagonal diffusion on the unit square, a_11 depending on y2 and both
    entries on t: no cross block and no Kronecker sum, so solves use CG."""
    metric = build_metric(identity_problem(2).metric.spec)
    a = [list(row) for row in metric.a]
    a[0][0] = ex.parse("(1 + 0.5 * y2) * (exp(0 - t^2) + 1)^2")
    a[1][1] = ex.parse("(exp(0 - t^2) + 1)^2")
    return assemble(dataclasses.replace(metric, a=a, _fns={}), beta=1.0)


def power_drift_norm(p, grid, times):
    """Oracle: power iteration (tol 1e-8, at most 200 steps) on the normal
    operator of (A_h(t) - A_h(tau)) A_h(r)^-1 in the vol-weighted inner
    product, with the operators assembled at each time and CG solves."""
    t, tau, r = times
    op_t, op_tau, op_r = (assemble_A(p, grid, s) for s in times)
    x = np.where(np.arange(grid.m) % 2 == 0, 1.0, -1.0)
    x /= math.sqrt(inner(grid, x, x))
    est = 0.0
    for it in range(200):
        w, _ = _cg(op_r, x, tol=1e-12)
        bx = op_t.apply_implicit(w) - op_tau.apply_implicit(w)
        prev, est = est, math.sqrt(inner(grid, bx, bx))
        if it > 0 and abs(est - prev) <= 1e-8 * est:
            break
        y, _ = _cg(op_r, op_t.apply_implicit(bx) - op_tau.apply_implicit(bx), tol=1e-12)
        x = y / math.sqrt(inner(grid, y, y))
    return est


def rk4_scalar(rhs, v, t0, t1, dt):
    """Classic fixed-step RK4 for dv/dt = rhs(t, v)."""
    n = round((t1 - t0) / dt)
    t = t0
    for _ in range(n):
        k1 = rhs(t, v)
        k2 = rhs(t + dt / 2, v + dt / 2 * k1)
        k3 = rhs(t + dt / 2, v + dt / 2 * k2)
        k4 = rhs(t + dt, v + dt * k3)
        v += dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
    return v


# ---------------------------------------------------------------------------
# decay_fit

def test_decay_fit_identity_constant_mode():
    p = identity_problem()
    g = BoxGrid((1.0,), (16,))
    cfg = StepperConfig(dt=0.01, scheme="crank-nicolson", cg_tol=1e-12)
    rng = np.random.default_rng(2)
    seeds = [np.ones(16), 1.0 + 0.01 * rng.normal(size=16)]
    fit = decay_fit(p, g, cfg, 0.0, 10.0, seeds)
    assert fit.b >= 0.999
    assert fit.b <= 1.1
    assert abs(fit.per_seed[0][0] - 1.0) <= 1e-6  # pure mode: K = 1
    assert fit.skipped == 0


def test_decay_fit_radial_random_seeds():
    p = ball_shrink_problem()
    g = RadialGrid(3, 12)
    cfg = StepperConfig(dt=0.01)
    rng = np.random.default_rng(5)
    seeds = [rng.normal(size=12) for _ in range(3)]
    fit = decay_fit(p, g, cfg, 0.0, 10.0, seeds)
    assert fit.b >= 0.9
    assert math.isfinite(fit.K)


def test_decay_fit_matches_exact_discrete_decay_of_an_eigenvector(monkeypatch):
    # a(t) = h2(t) a0 on a ball of radius 8 (small eigenvalues keep the
    # rounding in slower modes below the signal): backward Euler multiplies
    # an eigenvector of L0 = S0 / vol by 1 / (1 + dt beta + dt h2(t_n) lam)
    spec = DiffeoSpec(
        dim=3, domain=BallDomain(3),
        forward=tuple(ex.parse(f"8 * y{i} / (exp(0 - t^2) + 1)") for i in (1, 2, 3)),
        inverse=tuple(ex.parse(f"x{i} * (exp(0 - t^2) + 1) / 8") for i in (1, 2, 3)),
    )
    p = assemble(spec, beta=1.0)
    g = RadialGrid(3, 32)
    assert operator_family(p, g) is not None
    root = np.sqrt(g.volumes)
    A = assemble_A(p, g, 0.0)
    S = np.column_stack([A.apply_flux(e) for e in np.eye(g.m)])
    lam, Q = np.linalg.eigh(S / np.outer(root, root))
    seed = Q[:, 1] / root                      # the slowest non-constant mode
    cfg = StepperConfig(dt=0.01, scheme="backward-euler")
    runs = []

    def recording(*args, **kwargs):
        runs.append(run_homogeneous(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(pullback, "run_homogeneous", recording)
    fit = decay_fit(p, g, cfg, -5.0, 10.0, [seed])
    (traj,) = runs
    h2 = lambda t: ((math.exp(-t * t) + 1.0) / 2.0) ** 2
    exact = [traj.metrics[0].L2]
    for m in traj.metrics[1:]:
        exact.append(exact[-1] / (1.0 + cfg.dt * p.beta + cfg.dt * h2(m.t) * lam[1]))
    got = np.array([m.L2 for m in traj.metrics])
    assert len(got) == 1001
    rel = np.abs(got - exact) / np.array(exact)
    assert rel.max() <= 1e-12
    slope, icpt = np.polyfit([m.t + 5.0 for m in traj.metrics], np.log(exact), 1)
    assert abs(fit.b + slope) <= 1e-9 * abs(slope)
    assert abs(fit.K - math.exp(icpt) / exact[0]) <= 1e-9


def test_decay_fit_requires_long_horizon():
    p = identity_problem()
    g = BoxGrid((1.0,), (8,))
    with pytest.raises(PullbackError, match="horizon"):
        decay_fit(p, g, StepperConfig(dt=0.01), 0.0, 5.0, [np.ones(8)])


def test_decay_fit_skips_zero_seed():
    p = identity_problem()
    g = BoxGrid((1.0,), (8,))
    cfg = StepperConfig(dt=0.01)
    fit = decay_fit(p, g, cfg, 0.0, 10.0, [np.zeros(8), np.ones(8)])
    assert fit.skipped == 1
    assert len(fit.per_seed) == 1
    with pytest.raises(PullbackError, match="seed"):
        decay_fit(p, g, cfg, 0.0, 10.0, [np.zeros(8)])


# ---------------------------------------------------------------------------
# drift_norm

def test_drift_norm_autonomous_is_zero():
    p = identity_problem()
    g = BoxGrid((1.0,), (12,))
    assert drift_norm(p, g, (0.3, 1.7, 0.9)) == 0.0


def test_drift_norm_equal_times_is_zero():
    p = ball_shrink_problem()
    g = RadialGrid(3, 12)
    assert drift_norm(p, g, (1.5, 1.5, 4.0)) == 0.0


def test_drift_norm_scales_with_coefficient_gap():
    p = ball_shrink_problem()
    g = RadialGrid(3, 12)
    h2 = lambda t: (math.exp(-t * t) + 1.0) ** 2
    ratios = []
    for t, tau in [(0.0, 1.0), (0.0, 2.0), (1.0, 3.0), (0.5, 2.5)]:
        val = drift_norm(p, g, (t, tau, 5.0))
        ratios.append(val / abs(h2(t) - h2(tau)))
    spread = (max(ratios) - min(ratios)) / max(ratios)
    assert spread <= 1e-6


def test_drift_norm_independent_of_resolvent_time():
    p = ball_shrink_problem()
    g = RadialGrid(3, 12)
    vals = [drift_norm(p, g, (0.0, 2.0, r)) for r in (4.0, 5.0, 6.0)]
    assert (max(vals) - min(vals)) / max(vals) <= 1e-4


def test_drift_norm_matches_dense_spectral_norm():
    p = ball_shrink_problem()
    g = RadialGrid(3, 10)
    t, tau, r = 0.0, 1.5, 4.0
    est = drift_norm(p, g, (t, tau, r))
    ops = {s: assemble_A(p, g, s) for s in (t, tau, r)}
    V = g.volumes
    dense = {s: np.column_stack([o.apply_flux(e) for e in np.eye(g.m)]) / V[:, None]
             + p.beta * np.eye(g.m) for s, o in ops.items()}
    B = (dense[t] - dense[tau]) @ np.linalg.inv(dense[r])
    w = np.sqrt(V)
    exact = np.linalg.norm((B * w[:, None]) / w[None, :], 2)
    # the estimate is a Rayleigh quotient: a strict lower bound on the
    # spectral norm, and clustered top singular values keep it within a
    # narrow band below it
    assert 0.0 < est <= exact * (1 + 1e-12)
    assert est >= exact * 0.999


def test_drift_norm_matches_the_power_iteration_oracle():
    sin_t = assemble(_spec(load_config(fixture_path("sin_t"))), beta=1.0)
    # (the stretch box, whose sign-pattern start misses modes, is in
    # test_drift_norm_start_reaches_every_mode_on_a_box)
    cases = [(sin_t, RadialGrid(3, 64), (0.0, -1.0, 5.0)),
             (sin_t, RadialGrid(3, 64), (0.0, -4.0, 5.0)),
             (coupled_moving_problem(), BoxGrid((1.0, 1.0), (8, 8)), (0.0, 0.8, 2.0))]
    for p, g, times in cases:
        est = drift_norm(p, g, times)
        oracle = power_drift_norm(p, g, times)
        assert est > 0.0
        assert abs(est - oracle) <= 1e-7 * oracle
        A0, h2_of = operator_family(p, g)
        if A0.lam is not None:
            # a Rayleigh quotient: at most |h2(t) - h2(tau)| lmax / (h2(r) lmax + beta)
            h2 = h2_of(np.array(times))
            lmax = float(A0.lam.max())
            assert est <= abs(h2[0] - h2[1]) * lmax / (h2[2] * lmax + p.beta) * (1 + 1e-12)
    # diagonal maps without an operator family, refused: a(t) leaves h2(t)
    # a(0) by 1e-9 while H1 passes, or a(t) is undefined at the family's t = 0
    near = stretch_problem(eps=1e-9)
    singular = DiffeoSpec(dim=1, domain=BoxDomain((1.0,)),
                          forward=(ex.parse("y1 * t"),), inverse=(ex.parse("x1 / t"),))
    assert check_H1(near.metric).passed
    for p, g, times in [(near, BoxGrid((1.0, 1.0, 1.0), (6, 5, 4)), (0.0, 0.8, 2.0)),
                        (assemble(singular, beta=1.0), BoxGrid((1.0,), (8,)), (1.5, 1.0, 2.0))]:
        with pytest.raises(GridH1Error, match="the operator family guard fails"):
            drift_norm(p, g, times)


def operator_loop(p, grid, times):
    """drift_norm's iteration with the family operators applied and A(r)
    solved, as it runs for operators without eigenpairs: (estimate, converged)."""
    ops = [operator_at(p, grid, s) for s in times]
    start = np.where(np.arange(grid.m) % 2 == 0, 1.0, -1.0)
    return pullback._power(start, *pullback._operator_maps(grid, *ops))


def test_drift_norm_in_the_eigenbasis_is_the_operator_loop(caplog):
    # where A(t), A(tau) and A(r) share the family's eigenpairs the iteration
    # runs on the diagonal map; it is the same iteration, so it stops where
    # the operator loop stops, at the tolerance or (RadialGrid(3, 32)) at the cap
    sin_t = assemble(_spec(load_config(fixture_path("sin_t"))), beta=1.0)
    # (on a radial grid the start has every mode; a box's is filled in, see
    # test_drift_norm_start_reaches_every_mode_on_a_box)
    cases = [(sin_t, RadialGrid(3, 64), (0.0, -1.0, 5.0), True),
             (sin_t, RadialGrid(3, 64), (0.0, -4.0, 5.0), True),
             (sin_t, RadialGrid(3, 32), (0.0, -1.0, 5.0), False)]
    for p, g, times, converges in cases:
        assert all(operator_at(p, g, s).lam is not None for s in times)
        caplog.clear()
        est = drift_norm(p, g, times)
        loop, converged = operator_loop(p, g, times)
        assert converged == converges
        assert abs(est - loop) <= 1e-12 * loop
        assert ("stagnated" in caplog.text) == (not converges)


def test_drift_norm_start_reaches_every_mode_on_a_box(caplog):
    # on the 6x5x4 stretch box the sign pattern (-1)^i has 117 of its 120
    # mode coefficients below 1e-12 of the largest (the flat strides 20 and
    # 4 are even), and an iteration inside that subspace stopped 2.1% below
    # the largest |d| = |h2(t) - h2(tau)| lam / (beta + h2(r) lam).  Each
    # missed mode now starts at the largest weight: the estimate comes within
    # 0.5%, and the clustered top values stop it at the cap, which is logged
    p, g, times = stretch_problem(), BoxGrid((1.0, 1.0, 1.0), (6, 5, 4)), (0.0, 0.8, 2.0)
    A0, h2_of = operator_family(p, g)
    start = pullback._eigen(A0, np.where(np.arange(g.m) % 2 == 0, 1.0, -1.0))
    assert (np.abs(start) <= 1e-12 * np.abs(start).max()).sum() == 117
    h2 = h2_of(np.array(times))
    top = float(np.abs((h2[0] - h2[1]) * A0.lam / (p.beta + h2[2] * A0.lam)).max())
    caplog.clear()
    est = drift_norm(p, g, times)
    assert top * (1 - 5e-3) <= est <= top * (1 + 1e-12)
    assert "stagnated" in caplog.text
    # a radial grid's start has every mode: its estimates stay as they were
    sin_t = assemble(_spec(load_config(fixture_path("sin_t"))), beta=1.0)
    assert drift_norm(sin_t, RadialGrid(3, 64), (0.0, -1.0, 5.0)) == 2.12876790902212
    assert drift_norm(sin_t, RadialGrid(3, 64), (0.0, -4.0, 5.0)) == 2.9998054139779153


def test_drift_norm_zero_map_agrees_with_the_operator_loop():
    # an autonomous family (h2 = 1) has the zero diagonal map, which both
    # iterations report as 0 (equal times return before either runs)
    p, g = identity_problem(), BoxGrid((1.0,), (12,))
    assert operator_at(p, g, 0.3).lam is not None
    assert drift_norm(p, g, (0.3, 1.7, 0.9)) == 0.0
    assert operator_loop(p, g, (0.3, 1.7, 0.9)) == (0.0, True)


def test_drift_norm_rejects_cross_terms():
    spec = DiffeoSpec(
        dim=2, domain=BoxDomain((1.0, 1.0)),
        forward=(ex.parse("y1 + 0.3 * y2"), ex.parse("y2")),
        inverse=(ex.parse("x1 - 0.3 * x2"), ex.parse("x2")),
    )
    p = assemble(spec, beta=1.0)
    g = BoxGrid((1.0, 1.0), (8, 8))
    with pytest.raises(PullbackError, match="cross"):
        drift_norm(p, g, (0.0, 1.0, 0.5))


# ---------------------------------------------------------------------------
# pullback_converge

def test_pullback_gaps_shrink_at_decay_rate():
    p = identity_problem()
    g = BoxGrid((1.0,), (16,))
    cfg = StepperConfig(dt=0.01, scheme="crank-nicolson", cg_tol=1e-12)
    rng = np.random.default_rng(0)
    rep = pullback_converge(p, g, cfg, 0.0, rng.normal(size=16), k_max=4)
    assert rep.cauchy
    assert not rep.truncated
    assert rep.gaps[3] / rep.gaps[2] <= math.exp(-4 * 0.99) * 1.1


def test_pullback_constant_mode_matches_scalar_rk4():
    p = ball_shrink_problem(f="sin(t)")
    g = RadialGrid(3, 12)
    cfg = StepperConfig(dt=0.005, scheme="crank-nicolson", cg_tol=1e-12)
    rep = pullback_converge(p, g, cfg, 0.0, 2.0, k_max=4)
    rhs = lambda t, v: -v + math.sin(t)
    for k, fld in enumerate(rep.finals):
        oracle = rk4_scalar(rhs, 2.0, -2.0 ** k, 0.0, 0.005 / 100)
        assert np.abs(fld - oracle).max() <= 1e-5
    assert rep.cauchy
    # pullback limit of v' = -v + sin(t) at t = 0 is -1/2
    assert np.abs(rep.finals[-1] + 0.5).max() <= 1e-4


def test_pullback_sections_forget_initial_data():
    p = ball_shrink_problem(f="sin(t)")
    g = RadialGrid(3, 12)
    cfg = StepperConfig(dt=0.01, scheme="crank-nicolson", cg_tol=1e-12)
    rng = np.random.default_rng(7)
    ra = pullback_converge(p, g, cfg, 0.0, 0.0, k_max=5)
    rb = pullback_converge(p, g, cfg, 0.0, 100.0 * rng.normal(size=12), k_max=5)
    diff = norm_L2(g, ra.finals[-1] - rb.finals[-1])
    assert diff <= 2 * max(ra.gaps[-1], rb.gaps[-1]) + 1e-12


def test_pullback_rejects_unbounded_nonlinearity():
    p = identity_problem(f="u^5")
    g = BoxGrid((1.0,), (8,))
    with pytest.raises(PullbackError, match="growth"):
        pullback_converge(p, g, StepperConfig(dt=1e-4), 0.0, 1.0, k_max=2)


def test_pullback_step_cap_truncates_ladder():
    p = identity_problem()
    g = BoxGrid((1.0,), (8,))
    cfg = StepperConfig(dt=0.01, scheme="crank-nicolson")
    rep = pullback_converge(p, g, cfg, 0.0, 1.0, k_max=5, max_total_steps=800)
    assert rep.truncated
    assert len(rep.taus) < 6
    with pytest.raises(PullbackError, match="cap"):
        pullback_converge(p, g, cfg, 0.0, 1.0, k_max=5, max_total_steps=50)


def test_gap_report_rejects_non_finite():
    with pytest.raises(PullbackError, match="finite"):
        GapReport(taus=(-1.0, -2.0), gaps=(math.nan,), cauchy=False,
                  truncated=False, finals=())


# ---------------------------------------------------------------------------
# absorbing radius

def test_absorbing_radius_pure_decay():
    p = identity_problem()
    g = BoxGrid((1.0,), (16,))
    cfg = StepperConfig(dt=0.01, scheme="crank-nicolson", cg_tol=1e-12)
    rng = np.random.default_rng(3)
    R = absorbing_radius(p, g, cfg, 0.0, [rng.normal(size=16) for _ in range(2)],
                         radii=(1.0,), k_max=5)
    assert R <= 1e-6


def test_absorbing_radius_independent_of_initial_size():
    # beta > sup|f_u| keeps the contraction uniform, so deep pullback runs
    # forget the seed size; with beta = sup|f_u| exactly the constant mode
    # only decays algebraically and no feasible ladder depth gets there
    p = ball_shrink_problem(beta=2.0, f="sin(u) + sin(t)")
    g = RadialGrid(3, 12)
    cfg = StepperConfig(dt=0.01, scheme="crank-nicolson", cg_tol=1e-12)
    rng = np.random.default_rng(11)
    seeds = [np.ones(12), rng.normal(size=12)]
    Rs = [absorbing_radius(p, g, cfg, 0.0, seeds, radii=(r,), k_max=4)
          for r in (1.0, 10.0, 100.0)]
    # H3 gives |f| <= k2 = 2, so the sections sit inside k2/beta = 1 times
    # the norm of the constant function
    assert all(math.isfinite(R) and R < 2.2 for R in Rs)
    assert (max(Rs) - min(Rs)) <= 0.05 * max(Rs)


# ---------------------------------------------------------------------------
# cocycle and factorization

def test_cocycle_on_lattice_is_exact():
    p = ball_shrink_problem(f="sin(t)")
    g = RadialGrid(3, 12)
    cfg = StepperConfig(dt=0.01, scheme="crank-nicolson")
    assert cocycle_check(p, g, cfg, -2.0, -1.0, 0.0, 1.0) == 0.0
    assert cocycle_check(p, g, cfg, -2.0, -2.0, 0.0, 1.0) == 0.0


@pytest.mark.parametrize("name", ["sin_t", "sin_u"])
def test_cocycle_is_exact_across_chunk_boundaries(monkeypatch, name):
    # runs evaluate their per-time terms (h2, drift coefficients, an f of t)
    # over chunks of steps.  With 7 steps a chunk, the leg from s starts a
    # chunk at a time that sits inside a chunk of the whole run, so both
    # routes take the same times' terms from different arrays
    from movingdom import solver
    monkeypatch.setattr(solver, "_CHUNK", 7)
    rc = load_config(fixture_path(name))
    p, g = assemble(_spec(rc), beta=rc.beta, f=rc.f), _grid(rc)
    cfg = StepperConfig(dt=rc.dt, scheme=rc.scheme, cg_tol=rc.cg_tol)
    u0 = np.random.default_rng(5).normal(size=g.m)
    assert cocycle_check(p, g, cfg, 0.0, 10 * rc.dt, 30 * rc.dt, u0) == 0.0


def test_cocycle_off_lattice_residual_is_small():
    p = ball_shrink_problem(f="sin(t)")
    g = RadialGrid(3, 12)
    cfg = StepperConfig(dt=0.01, scheme="crank-nicolson")
    res = cocycle_check(p, g, cfg, -2.0, -1.0037, 0.0, 1.0)
    assert 0.0 < res <= 0.05


def test_factorization_remainder():
    g = RadialGrid(3, 12)
    cfg = StepperConfig(dt=0.01, scheme="crank-nicolson")
    forced = ball_shrink_problem(f="sin(t)")
    rem = factorization_probe(forced, g, cfg, -2.0, 0.0, 1.0)
    assert math.isfinite(rem) and rem > 0.0
    # without forcing the full process IS the homogeneous one, except for
    # the drift term it carries; a drift-free problem gives exactly zero
    p0 = identity_problem()
    gb = BoxGrid((1.0,), (8,))
    assert factorization_probe(p0, gb, cfg, -2.0, 0.0, 1.0) == 0.0


# ---------------------------------------------------------------------------
# which runs pay for per-step metrics

def test_only_the_decay_fit_takes_per_step_metrics(monkeypatch, tmp_path):
    # sin_t cut as the benchmark's pullback_ball workload cuts it: of its
    # 1,140 steps only the decay fit's 200 (one seed, horizon 10, dt 0.05)
    # are read step by step; the ladder, the radius starts, the cocycle and
    # the factorization march to their final states without metrics rows
    import configparser
    from movingdom import solver
    from movingdom.cli import main
    calls = []
    metrics = solver._metrics
    monkeypatch.setattr(solver, "_metrics", lambda *a: calls.append(a[0]) or metrics(*a))
    cp = configparser.ConfigParser(interpolation=None)
    cp.read(fixture_path("sin_t"))
    cp["numerics"]["dt"] = "0.05"
    cp["experiment"].update({"k_max": "4", "seeds": "1", "radii": "1.0, 100.0",
                             "radius_k": "2", "drift_gaps": "1.0, 4.0"})
    cfg = tmp_path / "short.cfg"
    with open(cfg, "w") as fh:
        cp.write(fh)
    assert main(["pullback", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert cp["experiment"]["horizon"] == "10.0"
    assert len(calls) == 1 * (200 + 1)

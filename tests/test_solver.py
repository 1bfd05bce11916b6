import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from movingdom import expr as ex
from movingdom.diffeo import BallDomain, BoxDomain, DiffeoSpec
from movingdom.grid import (BoxGrid, RadialGrid, SparseOperator, _boundary_flux, _gradients,
                            assemble_A, mass, norm_L2, operator_family, read_snapshot,
                            write_snapshot)
from movingdom import pullback
from movingdom.cli import _grid, _spec, fixture_path, load_config
from movingdom.diffeo import build_metric
from movingdom.problem import assemble
from movingdom.solver import (SCHEMES, CgError, SolverError,
                              StepperConfig, _along, _cg, _eigen, _solve, drift_basis,
                              final_state, mms_convergence, operator_at, run,
                              run_homogeneous)


def identity_problem(dim, domain=None, beta=1.0, f=None):
    dom = domain or BoxDomain((1.0,) * dim)
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


def shear_problem(gamma=0.2):
    spec = DiffeoSpec(
        dim=2, domain=BoxDomain((1.0, 1.0)),
        forward=(ex.parse(f"y1 + {gamma} * y2"), ex.parse("y2")),
        inverse=(ex.parse(f"x1 - {gamma} * x2"), ex.parse("x2")),
    )
    return assemble(spec, beta=1.0)


def stretch_problem(extents=(1.0, 1.0, 1.0)):
    """A per-axis stretch: a_kk depends on (t, y_k) only, so the flux is a Kronecker sum."""
    dim = len(extents)
    spec = DiffeoSpec(
        dim=dim, domain=BoxDomain(extents),
        forward=tuple(ex.parse(f"(y{i} + 0.25 * y{i}^2) / (exp(0 - t^2) + 1)")
                      for i in range(1, dim + 1)),
        inverse=tuple(ex.parse(f"2 * (sqrt(1 + x{i} * (exp(0 - t^2) + 1)) - 1)")
                      for i in range(1, dim + 1)),
    )
    return assemble(spec, beta=1.0)


def shear_stretch_problem(eps=0.0):
    """A stretch with shear on the unit square, separable with h = exp(-t^2) + 1.

    Its operator has a cross block, so solves use CG.  eps adds eps * t * y1^2
    to the first forward component: a(t) then leaves h(t)^2 a(0) by about
    eps while T = h P still holds to well within the H1 tolerance.
    """
    s = "(exp(0 - t^2) + 1)"
    spec = DiffeoSpec(
        dim=2, domain=BoxDomain((1.0, 1.0)),
        forward=(ex.parse(f"(y1 + 0.25 * y1^2) / {s} + {eps!r} * t * y1^2"),
                 ex.parse(f"(y2 - 0.2 * (y1 + 0.25 * y1^2)) / {s}")),
        inverse=(ex.parse(f"2 * (sqrt(1 + x1 * {s}) - 1)"),
                 ex.parse(f"{s} * x2 + 0.2 * {s} * x1")),
    )
    return assemble(spec, beta=1.0, f="sin(t)")


def coupled_problem():
    """Diagonal diffusion on the unit square whose a_11 depends on y2."""
    metric = build_metric(identity_problem(2).metric.spec)
    a = [list(row) for row in metric.a]
    a[0][0] = ex.parse("1 + 0.5 * y2")
    return assemble(dataclasses.replace(metric, a=a, _fns={}), beta=1.0)


def test_config_validation():
    with pytest.raises(SolverError, match="scheme"):
        StepperConfig(dt=0.1, scheme="leapfrog")
    with pytest.raises(SolverError, match="dt"):
        StepperConfig(dt=0.0)
    with pytest.raises(SolverError, match="cg_tol"):
        StepperConfig(dt=0.1, cg_tol=0.0)
    with pytest.raises(SolverError, match="snapshot_every"):
        StepperConfig(dt=0.1, snapshot_every=-2)


# ---------------------------------------------------------------------------
# conjugate gradients

def test_cg_identity_operator_converges_in_one_iteration():
    g = BoxGrid((1.0,), (8,))
    A = SparseOperator(g, (np.zeros(7),), beta=1.0, cross=None)
    rhs = np.arange(8.0)
    from movingdom.solver import _cg
    x, iters = _cg(A, rhs, tol=1e-12)
    assert iters == 1
    assert np.allclose(x, rhs, rtol=1e-14)


def test_cg_matches_dense_lu():
    p = identity_problem(1)
    g = BoxGrid((1.0,), (16,))
    A = assemble_A(p, g, 0.0)
    rng = np.random.default_rng(17)
    rhs = rng.normal(size=16)
    x, _ = _cg(A, rhs, tol=1e-12)
    assert np.allclose(x, np.linalg.solve(dense_shifted(A, 0.0), rhs), atol=1e-9)


def test_cg_rejects_indefinite_operator():
    p = identity_problem(1)
    g = BoxGrid((1.0,), (16,))
    A = assemble_A(p, g, 0.0)
    bad = SparseOperator(g, A.weights, beta=-10.0, cross=None)
    with pytest.raises(CgError):
        _cg(bad, np.ones(16), tol=1e-10)


def dense_shifted(A, dt):
    """I + dt * (implicit part of A) as a dense matrix, dt = 0 giving A itself."""
    n = A.grid.m
    S = np.column_stack([A.apply_flux(e) for e in np.eye(n)])
    D = S / A.grid.volumes[:, None] + A.beta * np.eye(n)
    return D if dt == 0 else np.eye(n) + dt * D


def apply_full(A, v):
    """A v with its cross block, which the stepper lags explicitly."""
    out = A.apply_implicit(v)
    if A.cross is not None:
        out += A.apply_explicit(_gradients(A.grid, v))
    return out


def test_radial_direct_solve_matches_dense_solve():
    # the eigenbasis solve against a dense solve of the assembled operator
    p = ball_shrink_problem(beta=0.5)
    g = RadialGrid(3, 64)
    rng = np.random.default_rng(23)
    rhs = rng.normal(size=64)
    for t, dt in ((0.7, 0.0), (-0.2, 0.01)):
        A = operator_at(p, g, t)
        exact = np.linalg.solve(dense_shifted(assemble_A(p, g, t), dt), rhs)
        x, iters = _solve(A.shifted(dt) if dt else A, rhs, tol=1e-10)
        assert iters == 0
        assert np.abs(x - exact).max() <= 1e-12 * np.abs(exact).max()


def test_radial_direct_solve_rejects_indefinite_operator():
    g = RadialGrid(3, 64)
    bad = dataclasses.replace(operator_at(ball_shrink_problem(), g, 0.0), beta=-10.0)
    with pytest.raises(CgError, match="not positive definite"):
        _solve(bad, np.ones(64), tol=1e-10)


def test_radial_runs_solve_directly():
    p = ball_shrink_problem(f="sin(t)")
    g = RadialGrid(3, 16)
    for scheme in SCHEMES:
        traj = run(p, g, StepperConfig(dt=0.01, scheme=scheme), 0.0, 0.1, 1.0)
        assert all(m.cg_iters == 0 for m in traj.metrics)


def test_kronecker_solve_matches_dense_solve():
    p = stretch_problem((1.0, 1.3, 0.7))
    g = BoxGrid((1.0, 1.3, 0.7), (6, 5, 4))
    A0, _ = operator_family(p, g)
    assert A0.lam is not None and len(A0.vecs) == 3
    rng = np.random.default_rng(29)
    rhs = rng.normal(size=g.m)
    for t, dt in ((0.4, 0.0), (-0.9, 0.02)):
        A = operator_at(p, g, t)
        exact = np.linalg.solve(dense_shifted(assemble_A(p, g, t), dt), rhs)
        x, iters = _solve(A.shifted(dt) if dt else A, rhs, tol=1e-10)
        assert iters == 0
        assert np.abs(x - exact).max() <= 1e-12 * np.abs(exact).max()


def test_non_kronecker_boxes_fall_back_to_cg():
    cases = [(coupled_problem(), BoxGrid((1.0, 1.0), (8, 8))),
             (shear_problem(), BoxGrid((1.0, 1.0), (8, 8)))]
    for p, g in cases:
        assert operator_at(p, g, 0.0).lam is None
        v0 = np.cos(np.pi * g.centers[:, 0]) + g.centers[:, 1]
        traj = run(p, g, StepperConfig(dt=0.05, scheme="crank-nicolson"),
                   0.0, 0.2, v0)
        assert all(m.cg_iters > 0 for m in traj.metrics[1:])


def test_kronecker_solve_rejects_indefinite_operator():
    g = BoxGrid((1.0, 1.0, 1.0), (5, 4, 3))
    bad = dataclasses.replace(operator_at(stretch_problem(), g, 0.0), beta=-10.0)
    assert bad.vecs is not None
    with pytest.raises(CgError, match="not positive definite"):
        _solve(bad, np.ones(g.m), tol=1e-10)


def test_direct_box_runs_report_zero_iterations():
    cases = [(identity_problem(1), BoxGrid((1.0,), (16,))),
             (stretch_problem(), BoxGrid((1.0, 1.0, 1.0), (6, 5, 4)))]
    for p, g in cases:
        v0 = np.cos(np.pi * g.centers[:, 0])
        for scheme in SCHEMES:
            traj = run(p, g, StepperConfig(dt=0.01, scheme=scheme), 0.0, 0.05, v0)
            assert all(m.cg_iters == 0 for m in traj.metrics)


def test_one_axis_eigen_transform_matches_along():
    # a radial grid or a 1-D box goes to its eigenbasis and back with one
    # matmul on the stored Q; _along on the same Q gives the same coordinates
    cases = [(ball_shrink_problem(), RadialGrid(3, 64)),
             (stretch_problem((1.3,)), BoxGrid((1.3,), (16,)))]
    rng = np.random.default_rng(31)
    for p, g in cases:
        op = operator_at(p, g, 0.4)
        (Q,), w = op.vecs, op.root_vol
        x = rng.normal(size=g.m)
        for back, want in ((False, _along(x * w, Q.T, 0)), (True, _along(x, Q, 0) / w)):
            got = _eigen(op, x, back=back)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("scheme", SCHEMES)
def test_indefinite_denominator_raises_at_the_first_solve(monkeypatch, scheme):
    # 1 + c beta + c h2 lam is not positive for beta = -300 and c = dt or dt/2:
    # the first solve of the run raises CG's error, with the same text
    from movingdom import solver
    solves = []
    solve = solver._solve
    monkeypatch.setattr(solver, "_solve",
                        lambda op, *a, **k: solves.append(op) or solve(op, *a, **k))
    p = dataclasses.replace(ball_shrink_problem(), beta=-300.0)
    cfg = StepperConfig(dt=0.01, scheme=scheme)
    with pytest.raises(CgError, match=r"^eigenvalue -.*: operator is not positive definite$"):
        final_state(p, RadialGrid(3, 16), cfg, 0.0, 0.1, 1.0, homogeneous=True)
    assert len(solves) == 1


def test_crank_nicolson_solves_share_one_denominator(monkeypatch):
    # under the family the rows D_n = 1 + dt/2 (beta + h2(t_n + dt) lam) are
    # tabulated once per block of steps: the predictor and the corrector
    # solve of a step take the same row of the block's one table, and that
    # row is the eigenvalues of the operator I + dt/2 A(t_n + dt)
    from movingdom import solver
    tables, solved = [], []
    eigenvalues = solver._eigenvalues
    monkeypatch.setattr(solver, "_eigenvalues",
                        lambda *a: tables.append(eigenvalues(*a)) or tables[-1])
    solve = solver._solve
    monkeypatch.setattr(solver, "_solve",
                        lambda op, *a, **k: solved.append(op) or solve(op, *a, **k))
    p = ball_shrink_problem(f="sin(u)")   # f of the state: a corrector solve every step
    g = RadialGrid(3, 16)
    cfg = StepperConfig(dt=0.01, scheme="crank-nicolson")
    final_state(p, g, cfg, 0.0, 0.1, 1.0)
    assert len(tables) == 2   # D and N of the run's one block
    D = tables[0]
    assert D.shape == (10, g.m) and len(solved) == 20
    t = 0.0
    for n, (predictor, corrector) in enumerate(zip(solved[0::2], solved[1::2])):
        assert predictor is corrector
        row = predictor[1]
        assert row.base is D and np.array_equal(row, D[n])
        op = operator_at(p, g, t + cfg.dt).shifted(0.5 * cfg.dt)
        assert np.array_equal(row, op.beta + op.scale * op.lam)
        t += cfg.dt


def without_eigenpairs(p, g):
    """p on a fresh metric whose operator family on g carries no eigenpairs:
    the march then takes the operator path, with CG solves."""
    q = dataclasses.replace(p, metric=dataclasses.replace(p.metric, _fns={}), _fns={})
    A0, h2 = operator_family(q, g)
    q.metric._fns[("family", g)] = (dataclasses.replace(A0, vecs=None, lam=None, root_vol=1.0),
                                    h2)
    return q


@pytest.mark.parametrize("scheme", SCHEMES)
def test_mode_table_march_matches_the_operator_path(scheme):
    # the same family with its eigenpairs stripped is marched through
    # per-time operators and CG at 1e-13; with f(u), the drift and a source
    # the two marches agree to the CG tolerance
    cases = [(ball_shrink_problem(), RadialGrid(3, 24), "cos(t) * y1^2"),
             (stretch_problem((1.0, 1.3, 0.7)), BoxGrid((1.0, 1.3, 0.7), (6, 5, 4)),
              "cos(t) * y1 * y2 + y3")]
    for base, g, source in cases:
        p = assemble(base.metric, beta=1.0, f="sin(u)", source=source)
        q = without_eigenpairs(p, g)
        assert operator_family(p, g)[0].lam is not None and operator_family(q, g)[0].lam is None
        assert len(drift_basis(p, g)[1]) > 0
        cfg = StepperConfig(dt=0.01, scheme=scheme, cg_tol=1e-13)
        v0 = np.cos(np.pi * g.centers[:, 0])
        modes = run(p, g, cfg, -0.3, 0.2, v0)
        operators = run(q, g, cfg, -0.3, 0.2, v0)
        assert all(m.cg_iters == 0 for m in modes.metrics)
        assert all(m.cg_iters > 0 for m in operators.metrics[1:])
        assert np.abs(modes.final - operators.final).max() <= 1e-10 * np.abs(operators.final).max()
        for a, b in zip(modes.metrics, operators.metrics):
            assert a.t == b.t and a.L2 == pytest.approx(b.L2, rel=1e-10)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_cocycle_is_bitwise_across_chunks_and_table_blocks(scheme):
    # 120 cells give 273 rows per block of tables, so the 600 steps cross two
    # block boundaries and the chunk boundary at step 512; the legs split at
    # step 300, inside the second block
    from movingdom import solver
    p = assemble(stretch_problem((1.0, 1.3, 0.7)).metric, beta=1.0, f="sin(u)")
    g = BoxGrid((1.0, 1.3, 0.7), (6, 5, 4))
    rows = solver._TABLE // g.m
    assert rows < 300 and 600 < 2 * solver._CHUNK
    cfg = StepperConfig(dt=0.01, scheme=scheme)
    v0 = np.cos(np.pi * g.centers[:, 0]) + g.centers[:, 2]
    assert pullback.cocycle_check(p, g, cfg, 0.0, 3.0, 6.0, v0) == 0.0


def test_final_state_makes_no_operator_per_step(monkeypatch):
    # under the family the steps read table rows: the operators a run makes
    # (the family's, built once) do not grow with the step count
    rc = load_config(fixture_path("sin_t"))
    p = assemble(_spec(rc), beta=rc.beta, f=rc.f)
    g = _grid(rc)
    operator_family(p, g)
    drift_basis(p, g)
    made = []
    init = SparseOperator.__init__
    monkeypatch.setattr(SparseOperator, "__init__",
                        lambda self, *a, **k: made.append(1) or init(self, *a, **k))
    for scheme in SCHEMES:
        counts = []
        for steps in (10, 600):
            made.clear()
            final_state(p, g, StepperConfig(dt=0.005, scheme=scheme), -1.0,
                        -1.0 + steps * 0.005, 0.5)
            counts.append(len(made))
        assert counts[0] == counts[1]


def test_drift_norm_direct_solves_match_cg():
    # drift_norm inverts A(r) through the eigenbasis solves; at the
    # drift times those solves agree with CG on the assembled operators
    sin_t = assemble(_spec(load_config(fixture_path("sin_t"))), beta=1.0)
    cases = [(sin_t, RadialGrid(3, 24), (0.0, -1.0, -4.0)),
             (stretch_problem(), BoxGrid((1.0, 1.0, 1.0), (6, 5, 4)), (0.0, 0.8, 2.0))]
    rhs = np.cos(np.arange(120.0))
    for p, g, times in cases:
        assert pullback.drift_norm(p, g, times) > 0.0
        for t in times:
            direct, iters = _solve(operator_at(p, g, t), rhs[:g.m], tol=1e-12)
            reference, _ = _cg(assemble_A(p, g, t), rhs[:g.m], tol=1e-13)
            assert iters == 0
            assert np.abs(direct - reference).max() <= 1e-10 * np.abs(reference).max()


def test_family_operators_match_the_assembled_ones():
    cases = [(ball_shrink_problem(), RadialGrid(3, 16)),
             (stretch_problem((1.0, 1.3, 0.7)), BoxGrid((1.0, 1.3, 0.7), (6, 5, 4))),
             (shear_stretch_problem(), BoxGrid((1.0, 1.0), (8, 8)))]
    rng = np.random.default_rng(31)
    for (p, g), kind in zip(cases, ("radial", "kronecker", "cg")):
        A0, _ = operator_family(p, g)
        assert (A0.lam is None) == (kind == "cg")
        assert (A0.cross is not None) == (kind == "cg")
        v = rng.normal(size=g.m)
        for t in (-3.0, -0.5, 0.0, 0.7, 2.0):
            A, F = assemble_A(p, g, t), operator_at(p, g, t)
            want = apply_full(A, v)
            assert np.abs(apply_full(F, v) - want).max() <= 1e-13 * np.abs(want).max()
            assert np.abs(F.scale * F.a - A.a).max() <= 1e-13 * np.abs(A.a).max()


def test_explicit_rhs_takes_one_gradient(monkeypatch):
    # the drift and the cross block share one gradient of the state, on
    # forced and on homogeneous steps
    from movingdom import grid as grid_module, solver
    p, g, t = assemble(shear_stretch_problem().metric, beta=1.0), BoxGrid((1.0, 1.0), (8, 8)), 0.3
    A = operator_at(p, g, t)
    assert A.cross is not None
    v = np.cos(np.pi * g.centers[:, 0]) + g.centers[:, 1] ** 2
    grads = _gradients(g, v)
    (gt, fields), _ = forcing = solver._forcing(p, g, [t])(t)
    calls = []

    def counting(grid, vals):
        calls.append(grid)
        return _gradients(grid, vals)

    monkeypatch.setattr(grid_module, "_gradients", counting)
    monkeypatch.setattr(solver, "_gradients", counting)
    for f, want in ((forcing, p.f_values(t, v) - (gt @ fields[:, 0]) * grads[0]
                     - (gt @ fields[:, 1]) * grads[1] - A.apply_explicit(grads)),
                    (None, -A.apply_explicit(grads))):
        calls.clear()
        out = solver._explicit_rhs(p, g, t, v, A, f)
        assert len(calls) == 1
        assert np.array_equal(out, want)


def test_non_separable_metrics_assemble_every_step(monkeypatch):
    from movingdom import solver
    from movingdom.diffeo import check_H1
    from movingdom.solver import _explicit_rhs
    g = BoxGrid((1.0, 1.0), (8, 8))
    p0, p = shear_stretch_problem(), shear_stretch_problem(eps=1e-9)
    assert check_H1(p.metric).passed and operator_family(p, g) is None
    assert operator_family(p0, g) is not None
    calls = []
    monkeypatch.setattr(solver, "assemble_A", lambda *a: calls.append(a) or assemble_A(*a))
    cfg = StepperConfig(dt=0.01)
    v0 = np.cos(np.pi * g.centers[:, 0]) + g.centers[:, 1]
    traj = run_homogeneous(p, g, cfg, -0.5, -0.4, v0)
    assert len(calls) >= 10
    # the per-step march as it ran before the operator family: the
    # operators at t and t + dt assembled, the shift scaling the face weights
    v, t = v0, -0.5
    for _ in range(10):
        A0, A1 = assemble_A(p, g, t), assemble_A(p, g, t + cfg.dt)
        rhs = v + cfg.dt * _explicit_rhs(p, g, t, v, A0, None)
        left = SparseOperator(g, A1.weights, 1.0 + cfg.dt * A1.beta, scale=cfg.dt)
        v, _ = _cg(left, rhs, cfg.cg_tol, x0=v)
        t += cfg.dt
    assert np.array_equal(traj.final, v)
    calls.clear()
    run_homogeneous(p0, g, cfg, -0.5, -0.4, v0)
    assert calls == []
    cn = StepperConfig(dt=0.01, scheme="crank-nicolson")
    for q in (p0, p):
        assert pullback.cocycle_check(q, g, cn, -0.2, -0.1, 0.0, v0) == 0.0


def test_coefficients_undefined_at_time_zero_are_assembled_per_step():
    # the family is built at t = 0; a map singular there still runs elsewhere
    spec = DiffeoSpec(dim=1, domain=BoxDomain((1.0,)),
                      forward=(ex.parse("y1 * t"),), inverse=(ex.parse("x1 / t"),))
    p = assemble(spec, beta=1.0)
    g = BoxGrid((1.0,), (8,))
    assert operator_family(p, g) is None
    traj = run(p, g, StepperConfig(dt=0.05), 1.0, 1.2, 1.0)
    assert np.allclose(traj.final, 1.05 ** -4, rtol=1e-12)


@pytest.mark.parametrize("name", ["identity", "dilation", "ball_shrink", "sin_t", "sin_u",
                                  "stretch"])
def test_drift_basis_reconstructs_b(name):
    # every bundled fixture that passes `check`, and the 3-D stretch map
    if name == "stretch":
        p, g = stretch_problem(), BoxGrid((1.0, 1.0, 1.0), (8, 8, 8))
    else:
        rc = load_config(fixture_path(name))
        p, g = assemble(_spec(rc), beta=rc.beta, f=rc.f), _grid(rc)
    coefficients, fields = drift_basis(p, g)
    assert (len(fields) == 0) == (name in ("identity", "dilation"))
    for t in np.linspace(-7.3, 5.1, 9):
        b = p.metric.eval_b(t, g.embed()).T[:len(g.counts)]   # one row per grid axis
        got = np.tensordot(coefficients(np.array([t]))[0], fields, 1)
        assert np.abs(got - b).max() <= 1e-13 * np.abs(b).max()


def test_drift_without_basis_is_evaluated_per_step():
    # the identity map with b = sin(t y1) put in by hand: its rank in time is
    # far above the d + 2 fields H1 allows, so there is no drift basis
    metric = dataclasses.replace(identity_problem(1).metric, b=[ex.parse("sin(t * y1)")], _fns={})
    p, g = assemble(metric, beta=1.0), BoxGrid((1.0,), (16,))
    assert operator_family(p, g) is not None and drift_basis(p, g) is None
    cfg = StepperConfig(dt=0.01)
    v0 = np.cos(np.pi * g.centers[:, 0])
    traj = run(p, g, cfg, 0.0, 0.1, v0)
    # backward Euler as it ran before the drift basis: eval_b at every step
    v, t = v0, 0.0
    for _ in range(10):
        F = np.zeros(g.m)
        F -= p.metric.eval_b(t, g.embed())[:, 0] * _gradients(g, v)[0]
        v, _ = _solve(operator_at(p, g, t + cfg.dt).shifted(cfg.dt), v + cfg.dt * F,
                      cfg.cg_tol, v)
        t += cfg.dt
    assert np.array_equal(traj.final, v)


@pytest.mark.parametrize("f, per_step", [("sin(t)", 0), ("sin(u)", 2)])
def test_f_values_runs_only_for_state_dependent_f(monkeypatch, f, per_step):
    from movingdom.problem import TransformedProblem
    calls = []
    f_values = TransformedProblem.f_values
    monkeypatch.setattr(TransformedProblem, "f_values",
                        lambda self, t, u: calls.append(t) or f_values(self, t, u))
    p, g = ball_shrink_problem(f=f), RadialGrid(3, 16)
    traj = run(p, g, StepperConfig(dt=0.01, scheme="crank-nicolson"), 0.0, 0.1, 1.0)
    assert len(calls) == per_step * (len(traj.metrics) - 1)


def test_radial_grid_rejects_a_non_radial_drift():
    # a translation along y2: a = I, so the family exists, and b = (0, -0.1 cos t)
    spec = DiffeoSpec(dim=2, domain=BallDomain(2),
                      forward=(ex.parse("y1"), ex.parse("y2 + 0.1 * sin(t)")),
                      inverse=(ex.parse("x1"), ex.parse("x2 - 0.1 * sin(t)")))
    p, g = assemble(spec, beta=1.0), RadialGrid(2, 16)
    cfg = StepperConfig(dt=0.01)
    run_homogeneous(p, g, cfg, 0.0, 0.05, 1.0)
    with pytest.raises(SolverError, match="radial grid requires a radial drift field"):
        run(p, g, cfg, 0.0, 0.05, 1.0)


def test_cg_iteration_cap():
    p = identity_problem(1)
    g = BoxGrid((1.0,), (32,))
    A = assemble_A(p, g, 0.0)
    with pytest.raises(CgError, match="within 2 iterations"):
        _cg(A, np.sin(np.arange(32.0)), tol=1e-14, maxiter=2)


# ---------------------------------------------------------------------------
# stepping

def test_backward_euler_constant_mode():
    p = identity_problem(1)
    g = BoxGrid((1.0,), (8,))
    cfg = StepperConfig(dt=0.1, cg_tol=1e-13)
    v1 = run(p, g, cfg, 0.0, cfg.dt, 2.0).final
    assert np.allclose(v1, 2.0 / 1.1, rtol=1e-12)


def test_backward_euler_scalar_mode_error_bound():
    p = identity_problem(1)
    g = BoxGrid((1.0,), (8,))
    for dt in (0.05, 0.01):
        cfg = StepperConfig(dt=dt, cg_tol=1e-13)
        traj = run(p, g, cfg, 0.0, 1.0, 1.0)
        assert np.abs(traj.final - math.exp(-1.0)).max() <= 0.6 * dt


def test_zero_data_stays_zero():
    p = identity_problem(2)
    g = BoxGrid((1.0, 1.0), (4, 4))
    traj = run(p, g, StepperConfig(dt=0.1), 0.0, 0.5, 0.0)
    assert all(m.L2 == 0.0 for m in traj.metrics)
    assert np.all(traj.final == 0.0)


def test_radial_constant_mode_long_run():
    p = ball_shrink_problem()
    g = RadialGrid(3, 16)
    traj = run(p, g, StepperConfig(dt=1e-3, cg_tol=1e-12), 0.0, 2.0, 1.0)
    assert np.abs(traj.final - math.exp(-2.0)).max() <= 1e-3


def test_restart_is_bitwise():
    p = ball_shrink_problem(f="sin(t)")
    g = RadialGrid(3, 12)
    cfg = StepperConfig(dt=0.01, scheme="crank-nicolson")
    full = run(p, g, cfg, 0.0, 0.16, 1.0)
    s = 0.0
    for _ in range(8):
        s += 0.01
    leg1 = run(p, g, cfg, 0.0, s, 1.0)
    leg2 = run(p, g, cfg, s, 0.16, leg1.final)
    assert np.array_equal(leg2.final, full.final)
    assert np.array_equal(leg1.snapshots[0], np.ones(12))


def test_metrics_reuse_the_assembled_coefficients():
    cases = [(ball_shrink_problem(f="sin(t)"), RadialGrid(3, 16)),
             (shear_problem(), BoxGrid((1.0, 1.0), (6, 6)))]
    for p, g in cases:
        for scheme in SCHEMES:
            cfg = StepperConfig(dt=0.05, scheme=scheme, snapshot_every=1)
            traj = run(p, g, cfg, 0.3, 0.6, np.linspace(0.0, 1.0, g.m))
            assert len(traj.times) == len(traj.metrics)
            for t, snap, row in zip(traj.times, traj.snapshots, traj.metrics):
                assert row.t == t
                # the stepper's coefficients h2(t) a0, against a fresh evaluation
                op = operator_at(p, g, t)
                grads = _gradients(g, snap)
                assert row.boundary_residual == op.scale * _boundary_flux(g, op.a, grads)
                assert row.boundary_residual == pytest.approx(
                    _boundary_flux(g, p.metric.eval_a(t, g.embed()), grads), rel=1e-12)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_run_validates_the_state_once(monkeypatch, scheme):
    # one validation, of v0: the step loop, its metrics and the stored
    # snapshots work on the already checked arrays
    from movingdom import grid as grid_module, solver
    built = []
    values = grid_module._values

    def counting(grid, data):
        built.append(data)
        return values(grid, data)

    for module in (grid_module, solver):
        monkeypatch.setattr(module, "_values", counting)
    p = ball_shrink_problem(f="sin(t)")
    g = RadialGrid(3, 16)
    cfg = StepperConfig(dt=0.01, scheme=scheme)
    for steps, v0 in ((10, np.linspace(0.0, 1.0, g.m)), (40, 0.5), (10, None)):
        built.clear()
        traj = run(p, g, cfg, 0.0, steps * cfg.dt, v0)
        assert len(traj.metrics) == steps + 1
        assert len(built) == 1


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("homogeneous", [False, True])
def test_final_state_is_the_last_snapshot_of_run(scheme, homogeneous):
    # run and final_state share one march: final_state leaves out the
    # metrics rows and the snapshots, so it ends in run's final state bit for
    # bit.  An eigenbasis grid, a CG (shear) box, and 600 steps, which cross
    # a chunk of per-time terms
    cases = [(ball_shrink_problem(f="sin(u) + sin(t)"), RadialGrid(3, 16), 0.05, 0.0, 0.5),
             (shear_problem(), BoxGrid((1.0, 1.0), (6, 6)), 0.05, 0.3, 0.6),
             (ball_shrink_problem(f="sin(t)"), RadialGrid(3, 12), 0.01, -3.0, 3.0)]
    for p, g, dt, tau, T in cases:
        cfg = StepperConfig(dt=dt, scheme=scheme, snapshot_every=4)
        v0 = np.linspace(0.0, 1.0, g.m)
        want = run(p, g, cfg, tau, T, v0, homogeneous=homogeneous).final
        got = final_state(p, g, cfg, tau, T, v0, homogeneous=homogeneous)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("march", [run, final_state])
def test_homogeneous_backward_euler_growth_is_refused(march):
    # beta < 0 (past assemble's check) makes (I + dt A)^-1 amplify constants,
    # which a homogeneous backward-Euler run must not do
    p = dataclasses.replace(ball_shrink_problem(), beta=-1.0)
    with pytest.raises(SolverError, match="homogeneous backward-Euler norm grew at t = 0.01"):
        march(p, RadialGrid(3, 12), StepperConfig(dt=0.01), 0.0, 0.1, 1.0, homogeneous=True)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_final_state_validates_once_and_steps_through_advance(monkeypatch, scheme):
    # one validation, of v0, and one call of the module's _advance per step,
    # which is what a tracer of the march counts
    from movingdom import grid as grid_module, solver
    built, steps = [], []
    values, advance = grid_module._values, solver._advance

    def counting(grid, data):
        built.append(data)
        return values(grid, data)

    for module in (grid_module, solver):
        monkeypatch.setattr(module, "_values", counting)
    monkeypatch.setattr(solver, "_advance", lambda *a: steps.append(a[1].m) or advance(*a))
    p = ball_shrink_problem(f="sin(t)")
    g = RadialGrid(3, 16)
    cfg = StepperConfig(dt=0.01, scheme=scheme)
    for n, v0 in ((10, np.linspace(0.0, 1.0, g.m)), (40, 0.5), (10, None)):
        built.clear()
        steps.clear()
        final_state(p, g, cfg, 0.0, n * cfg.dt, v0)
        assert len(built) == 1
        assert steps == [g.m] * n


@pytest.mark.parametrize("scheme", SCHEMES)
def test_snapshots_share_no_array_with_v0_or_each_other(tmp_path, scheme):
    # run copies v0 once and then stores the arrays its steps make: a caller
    # mutating v0 cannot reach snapshot 0, and no snapshot aliases another
    rc = load_config(fixture_path("sin_t"))
    p = assemble(_spec(rc), beta=rc.beta, f=rc.f)
    g = _grid(rc)
    cfg = StepperConfig(dt=0.01, scheme=scheme, snapshot_every=3)
    v0 = np.cos(np.pi * g.centers[:, 0])
    start = v0.copy()
    traj = run(p, g, cfg, -1.0, -0.9, v0)
    v0[:] = 7.0
    assert np.array_equal(traj.snapshots[0], start)
    snaps = traj.snapshots
    assert len(snaps) == 5
    assert not any(np.shares_memory(a, b) for i, a in enumerate(snaps) for b in snaps[i + 1:])
    assert not any(np.shares_memory(a, v0) for a in snaps)
    for i, (t, snap) in enumerate(zip(traj.times, snaps)):
        write_snapshot(tmp_path / f"fixed_{i:03d}.snap", g, snap, t)
        back_grid, back, back_t = read_snapshot(tmp_path / f"fixed_{i:03d}.snap")
        assert back_grid == g and back_t == t
        assert np.array_equal(back.view(np.int64), snap.view(np.int64))


def test_run_memory_is_flat_in_step_count():
    p = identity_problem(3)
    g = BoxGrid((1.0, 1.0, 1.0), (16, 16, 16))
    cfg = StepperConfig(dt=0.01, scheme="crank-nicolson")
    v0 = np.cos(np.pi * g.centers[:, 0])
    run(p, g, cfg, 0.0, 0.02, v0)    # fill the per-grid caches first
    peaks = {}
    for n in (10, 40):
        tracemalloc.start()
        try:
            run(p, g, cfg, 0.0, n * cfg.dt, v0)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[40] <= 1.05 * peaks[10]


def test_snapshot_cadence():
    p = identity_problem(1)
    g = BoxGrid((1.0,), (4,))
    traj = run(p, g, StepperConfig(dt=0.1, snapshot_every=2), 0.0, 0.95, 1.0)
    # 10 steps (last one short): snapshots at start, steps 2,4,6,8, and final
    assert len(traj.times) == 6
    assert traj.times[-1] == 0.95
    assert len(traj.metrics) == 11


def test_homogeneous_drops_forcing_and_drift():
    p = ball_shrink_problem(f="sin(t)")
    g = RadialGrid(3, 12)
    cfg = StepperConfig(dt=1e-3, scheme="crank-nicolson", cg_tol=1e-12)
    traj = run_homogeneous(p, g, cfg, 0.0, 1.0, 3.0)
    assert np.abs(traj.final - 3.0 * math.exp(-1.0)).max() <= 1e-5
    l2 = [m.L2 for m in traj.metrics]
    assert all(b <= a for a, b in zip(l2, l2[1:]))


def test_continuous_dependence_bound():
    p = identity_problem(1, f="sin(u)")
    g = BoxGrid((1.0,), (16,))
    cfg = StepperConfig(dt=0.05, cg_tol=1e-12)
    rng = np.random.default_rng(3)
    x = rng.normal(size=16)
    y = x + 0.1 * rng.normal(size=16)
    dist0 = norm_L2(g, x - y)
    tx = run(p, g, cfg, 0.0, 1.0, x)
    ty = run(p, g, cfg, 0.0, 1.0, y)
    dist1 = norm_L2(g, tx.final - ty.final)
    lip = p.lipschitz_sup()
    assert dist1 <= math.exp(lip * 1.0) * dist0 * (1 + 1e-9)


def test_step_size_guard():
    p = identity_problem(1, f="u^3")
    g = BoxGrid((1.0,), (8,))
    with pytest.raises(SolverError, match="dt too large"):
        run(p, g, StepperConfig(dt=0.01), 0.0, 1.0, 1.0)


def test_blowup_is_reported():
    p = identity_problem(1, f="u^3")
    g = BoxGrid((1.0,), (8,))
    with pytest.raises((SolverError, ex.EvalError)):
        run(p, g, StepperConfig(dt=1.5e-3), 0.0, 1.0, 1000.0)


def test_mass_balance_per_step():
    p = identity_problem(2, f="sin(t)")
    g = BoxGrid((1.0, 1.0), (8, 8))
    cfg = StepperConfig(dt=0.05, snapshot_every=1, cg_tol=1e-13)
    traj = run(p, g, cfg, 0.0, 0.5, 1.0)
    for i in range(len(traj.times) - 1):
        dt = traj.times[i + 1] - traj.times[i]
        v0, v1 = traj.snapshots[i], traj.snapshots[i + 1]
        lhs = (mass(g, v1) - mass(g, v0)) / dt
        rhs = -p.beta * mass(g, v1) + math.sin(traj.times[i]) * mass(g, np.ones(g.m))
        assert lhs == pytest.approx(rhs, rel=1e-7, abs=1e-9)


# ---------------------------------------------------------------------------
# manufactured solutions

def test_mms_identity_box_orders():
    p = identity_problem(1)
    grids = [BoxGrid((1.0,), (n,)) for n in (16, 32, 64)]
    rep = mms_convergence(p, "exp(-t) * cos(pi * y1)", grids,
                          dts=(0.04, 0.02, 0.01), scheme="backward-euler")
    assert all(abs(o - 2.0) <= 0.3 for o in rep.spatial_orders)
    assert all(abs(o - 1.0) <= 0.2 for o in rep.temporal_orders)
    rep_cn = mms_convergence(p, "exp(-t) * cos(pi * y1)", grids[-1:],
                             dts=(0.04, 0.02, 0.01), scheme="crank-nicolson")
    assert all(abs(o - 2.0) <= 0.3 for o in rep_cn.temporal_orders)


def test_mms_spatial_orders_follow_the_ladder():
    # a rung that triples the cells: errors 1.6e-3 and 1.8e-4 are order 2,
    # not the 3.17 an assumed mesh ratio of 2 would report
    p = identity_problem(1)
    grids = [BoxGrid((1.0,), (n,)) for n in (16, 48)]
    rep = mms_convergence(p, "exp(-t) * cos(pi * y1)", grids, dts=(0.02, 0.01))
    assert rep.spatial_orders == [pytest.approx(2.0, abs=0.1)]


def test_mms_radial_orders():
    p = ball_shrink_problem()
    exact = "exp(-t) * (1 - (y1^2 + y2^2 + y3^2))^2"
    grids = [RadialGrid(3, n) for n in (16, 32, 64)]
    rep = mms_convergence(p, exact, grids, dts=(0.04, 0.02, 0.01),
                          scheme="crank-nicolson")
    assert all(abs(o - 2.0) <= 0.4 for o in rep.spatial_orders)
    assert all(abs(o - 2.0) <= 0.3 for o in rep.temporal_orders)


def test_mms_cross_terms_spatial_order():
    p = shear_problem(0.2)
    exact = "exp(-t) * (16 * y1 * (1 - y1) * y2 * (1 - y2))^2"
    grids = [BoxGrid((1.0, 1.0), (n, n)) for n in (12, 24, 48)]
    rep = mms_convergence(p, exact, grids, dts=(0.02, 0.01), T=0.05,
                          dt_spatial=5e-5)
    assert all(o >= 1.6 for o in rep.spatial_orders)


def test_mms_constant_exact_is_reproduced():
    p = identity_problem(1)
    grids = [BoxGrid((1.0,), (n,)) for n in (16, 32)]
    rep = mms_convergence(p, "3", grids, dts=(0.02, 0.01))
    assert all(e <= 1e-8 for _, e in rep.spatial)
    assert all(e <= 1e-8 for _, e in rep.temporal)


def test_mms_rejects_incompatible_profile():
    p = identity_problem(1)
    with pytest.raises(SolverError, match="conormal"):
        mms_convergence(p, "y1", [BoxGrid((1.0,), (16,))], dts=(0.02,))


def test_mms_rejects_stray_variables():
    p = identity_problem(1)
    with pytest.raises(SolverError, match="y2"):
        mms_convergence(p, "y2 * exp(-t)", [BoxGrid((1.0,), (16,))], dts=(0.02,))

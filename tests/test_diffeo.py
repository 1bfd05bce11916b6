import math

import numpy as np
import pytest

from movingdom import diffeo as dg
from movingdom import expr as ex


def ball_shrink(dim=3):
    # unit ball pulsed by r(t,y) = y/(exp(-t^2)+1)
    fwd = [f"y{i}/(exp(-t^2)+1)" for i in range(1, dim + 1)]
    inv = [f"(exp(-t^2)+1)*x{i}" for i in range(1, dim + 1)]
    return dg.parse_diffeo(dim, dg.BallDomain(dim), fwd, inv)


def identity_box(dim=1, extent=1.0):
    fwd = [f"y{i}" for i in range(1, dim + 1)]
    inv = [f"x{i}" for i in range(1, dim + 1)]
    return dg.parse_diffeo(dim, dg.BoxDomain((extent,) * dim), fwd, inv)


def dilation_box(dim=2):
    fwd = [f"2*y{i}" for i in range(1, dim + 1)]
    inv = [f"x{i}/2" for i in range(1, dim + 1)]
    return dg.parse_diffeo(dim, dg.BoxDomain((1.0,) * dim), fwd, inv)


def rotation_disk():
    fwd = ["cos(t)*y1 - sin(t)*y2", "sin(t)*y1 + cos(t)*y2"]
    inv = ["cos(t)*x1 + sin(t)*x2", "-sin(t)*x1 + cos(t)*x2"]
    return dg.parse_diffeo(2, dg.BallDomain(2), fwd, inv)


H = lambda t: math.exp(-t * t) + 1.0


def test_validate_inverse_tight():
    res, _ = dg.validate_inverse(ball_shrink())
    assert res <= 1e-8


def test_validate_inverse_catches_wrong_inverse():
    spec = dg.parse_diffeo(1, dg.BoxDomain((1.0,)), ["2*y1"], ["x1/3"])
    res, worst = dg.validate_inverse(spec)
    assert res > 1e-3
    assert len(worst) == 2


def test_missing_inverse_is_actionable():
    spec = dg.DiffeoSpec(1, dg.BoxDomain((1.0,)), (ex.parse("2*y1"),), None)
    with pytest.raises(dg.MissingInverseError, match="inverse"):
        dg.build_metric(spec)


def test_ball_shrink_coefficients_match_closed_forms():
    m = dg.build_metric(ball_shrink())
    pts = np.array([[0.2, -0.1, 0.4], [0.5, 0.5, -0.5], [1.0, 1.0, 1.0]])
    for t in (0.0, 1.0, 2.5, -1.3):
        a = m.eval_a(t, pts)
        b = m.eval_b(t, pts)
        h = H(t)
        dh = -2 * t * math.exp(-t * t)
        assert np.allclose(a, (h * h) * np.eye(3)[None], rtol=1e-12, atol=1e-12)
        assert np.allclose(b, (dh / h) * pts, rtol=1e-12, atol=1e-12)
    # frozen reference values
    assert m.eval_a(0.0, pts)[0, 0, 0] == pytest.approx(4.0, rel=1e-12)
    assert m.eval_a(1.0, pts)[0, 1, 1] == pytest.approx(1.8710941655794973, rel=1e-12)
    assert m.eval_b(1.0, pts)[2, 0] == pytest.approx(-0.5378828427399902, rel=1e-12)


def test_ball_shrink_boundary_weight():
    m = dg.build_metric(ball_shrink())
    pts, normals = dg.boundary_points(m.spec.domain, 3, n=16)
    K = m.eval_K(0.0, pts, normals)
    assert np.allclose(K, 0.5, rtol=1e-12)
    K1 = m.eval_K(1.0, pts, normals)
    assert np.allclose(K1, 1.0 / H(1.0), rtol=1e-12)
    # the symbolic K on the sphere agrees
    label, kexpr = m.K_faces[0]
    assert label == "sphere"
    fn = ex.compiled(kexpr)
    env = {"t": 0.0, "y1": pts[:, 0], "y2": pts[:, 1], "y3": pts[:, 2]}
    assert np.allclose(fn(env), 0.5, rtol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_ball_boundary_points_are_their_unit_normals(dim):
    pts, normals = dg.boundary_points(dg.BallDomain(dim), dim, n=16)
    assert pts.shape == (2 if dim == 1 else 16, dim)
    assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() <= 1e-15
    assert np.array_equal(pts, normals)


@pytest.mark.parametrize("extents", [(1.0,), (1.0, 2.0), (1.0, 0.5, 2.0)])
@pytest.mark.parametrize("n", [16, 32])
def test_box_boundary_points_cover_every_face(extents, n):
    dim = len(extents)
    pts, normals = dg.boundary_points(dg.BoxDomain(extents), dim, n=n)
    assert pts.shape == normals.shape
    for axis in range(dim):
        for side, L in ((-1.0, 0.0), (1.0, extents[axis])):
            on = normals[:, axis] == side
            face = pts[on]
            assert len(face) >= 1 and np.all(face[:, axis] == L)
            assert np.all(np.abs(normals[on]).sum(axis=1) == 1.0)
            assert len(np.unique(face, axis=0)) == len(face)
            for k in range(dim):
                if k != axis:   # spread along every tangential axis, inside the face
                    assert len(np.unique(face[:, k])) >= 2
                    assert 0.0 < face[:, k].min() and face[:, k].max() < extents[k]


def test_check_H1_ball_shrink():
    m = dg.build_metric(ball_shrink())
    rep = dg.check_H1(m)
    assert rep.passed
    assert rep.residual <= 1e-6
    assert rep.t0 == pytest.approx(0.0, abs=1e-12)
    # gauge h(t0) = 1, so h = (exp(-t^2)+1)/2 on the sampled window
    assert rep.h1 == pytest.approx(1.0, rel=1e-12)
    assert rep.h0 == pytest.approx(0.5, rel=1e-6)
    assert 0.75 <= rep.theta <= 1.1
    # p_tilde absorbs the gauge: a_jk = h(t)^2 p_tilde_jk
    assert np.allclose(rep.p_tilde, 4.0 * np.eye(3)[None], rtol=1e-10, atol=1e-10)
    pts = dg.interior_points(m.spec.domain, 3)
    a = m.eval_a(rep.tgrid, pts)
    model = rep.h_samples[:, None, None, None] ** 2 * rep.p_tilde[None]
    assert np.allclose(a, model, rtol=1e-9, atol=1e-9)


def test_check_H1_identity_and_dilation():
    for spec, ptt in ((identity_box(2), 1.0), (dilation_box(2), 0.25)):
        rep = dg.check_H1(dg.build_metric(spec))
        assert rep.passed
        assert rep.residual <= 1e-12
        assert rep.h0 == pytest.approx(1.0) and rep.h1 == pytest.approx(1.0)
        # constant-in-time h: degenerate Holder data reports (1, 0)
        assert (rep.theta, rep.holder_c) == (1.0, 0.0)
        assert np.allclose(rep.p_tilde, ptt * np.eye(2)[None], atol=1e-12)


def test_check_H1_rotation_fails_with_witness():
    rep = dg.check_H1(dg.build_metric(rotation_disk()))
    assert not rep.passed
    assert rep.residual > 0.5
    t, y, i, k = rep.witness
    assert np.isfinite(t) and len(y) == 2 and 0 <= i < 2 and 0 <= k < 2


def test_check_H1_sqrt_holder_exponent():
    # h(t) = 1 + sqrt(abs(t)) near t = 0 has Holder exponent 1/2
    spec = dg.parse_diffeo(1, dg.BoxDomain((1.0,)),
                           ["y1/(1+sqrt(abs(t)))"], ["(1+sqrt(abs(t)))*x1"])
    rep = dg.check_H1(dg.build_metric(spec), tgrid=dg.time_grid((-0.5, 0.5), 201))
    assert rep.passed
    assert rep.theta == pytest.approx(0.5, abs=0.1)


def test_check_H4_flags():
    shrink = dg.check_H1(dg.build_metric(ball_shrink()))
    rep = dg.check_H4(shrink)
    assert rep.flag == "inconsistent at sampled horizon"
    assert rep.sups.max() <= 0.51   # h is normalised to land in [1/2, 1]

    ident = dg.check_H1(dg.build_metric(identity_box(1)))
    rep = dg.check_H4(ident)
    assert rep.flag == "consistent"
    assert rep.sups.max() <= 1e-12

    osc = dg.parse_diffeo(1, dg.BoxDomain((1.0,)),
                          ["y1/(2+sin(t))"], ["(2+sin(t))*x1"])
    rep = dg.check_H4(dg.check_H1(dg.build_metric(osc)))
    assert rep.flag == "inconsistent at sampled horizon"


def test_ellipticity_probe_values():
    ident = dg.build_metric(identity_box(2))
    assert dg.ellipticity_probe(ident) == pytest.approx(1.0, abs=1e-12)
    shrink = dg.build_metric(ball_shrink())
    C = dg.ellipticity_probe(shrink, tgrid=dg.time_grid((0.0, 10.0), 101))
    assert C >= 1.0 - 1e-9
    assert dg.ellipticity_probe(dg.build_metric(dilation_box())) == pytest.approx(0.25)


@pytest.mark.parametrize("name", ["ball_shrink", "cubic", "dilation", "identity", "quintic",
                                  "rotation", "sin_t", "sin_u"])
def test_ellipticity_on_diagonal_metrics_is_the_smallest_diagonal_entry(monkeypatch, name):
    # where every off-diagonal a_jk is the constant 0 the probe takes the
    # diagonal as the eigenvalues, equal to eigvalsh bit for bit on every
    # such fixture; rotation's a has off-diagonal entries and goes through eigvalsh
    from movingdom.cli import _spec, fixture_path, load_config
    m = dg.build_metric(_spec(load_config(fixture_path(name))))
    A = m.eval_a(dg.time_grid(), dg.interior_points(m.spec.domain, m.dim))
    eig = np.linalg.eigvalsh(A)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda x: calls.append(x) or eigvalsh(x))
    C = dg.ellipticity_probe(m, A=A)
    assert C == float(eig.min())
    assert len(calls) == (name == "rotation")
    if name != "rotation":
        diagonal = np.sort(np.diagonal(A, axis1=-2, axis2=-1), axis=-1)
        assert diagonal.tobytes() == eig.tobytes()


def test_ellipticity_probe_degenerate_raises():
    spec = dg.parse_diffeo(1, dg.BoxDomain((1.0,)), ["y1/t"], ["t*x1"])
    with pytest.raises(dg.DegenerateDiffeoError):
        dg.ellipticity_probe(dg.build_metric(spec), tgrid=np.linspace(-1, 1, 21))


def test_hoelder_probe_smooth_window():
    m = dg.build_metric(ball_shrink())
    theta, c = dg.hoelder_probe(m, tgrid=np.linspace(0.5, 1.5, 9))
    assert theta == pytest.approx(1.0, abs=0.25)
    assert c > 0


def test_hoelder_probe_degenerate_convention():
    theta, c = dg.hoelder_probe(dg.build_metric(identity_box(1)))
    assert (theta, c) == (1.0, 0.0)


def test_probes_take_the_lattice_coefficients_once(monkeypatch):
    # the check evaluates a on the H1 lattice once and hands it to both
    # probes; each probe evaluates it itself when called without it
    m = dg.build_metric(ball_shrink())
    alone = dg.ellipticity_probe(m), dg.hoelder_probe(m)
    calls = []
    eval_a = dg.MetricBundle.eval_a
    monkeypatch.setattr(dg.MetricBundle, "eval_a",
                        lambda self, *a: calls.append(a) or eval_a(self, *a))
    A = m.eval_a(dg.time_grid(), dg.interior_points(m.spec.domain, m.dim))
    assert (dg.ellipticity_probe(m, A=A), dg.hoelder_probe(m, A=A)) == alone
    assert len(calls) == 1


def test_holder_fit_on_short_time_grids():
    # the fallback lags stay inside the grid; fewer than two gaps report (1, 0)
    m = dg.build_metric(ball_shrink())
    three = np.linspace(0.0, 1.0, 3)
    rep = dg.check_H1(m, tgrid=three)
    assert rep.passed and rep.theta > 0 and rep.holder_c > 0
    theta, c = dg.hoelder_probe(m, tgrid=three)
    assert theta > 0 and c > 0
    for short in (np.linspace(0.0, 1.0, 2), np.array([0.5])):
        rep = dg.check_H1(m, tgrid=short)
        assert (rep.theta, rep.holder_c) == (1.0, 0.0)
        assert dg.hoelder_probe(m, tgrid=short) == (1.0, 0.0)


def test_coefficients_against_finite_differences():
    # reconstruct T and a through the map values only, no symbolic path
    m = dg.build_metric(ball_shrink())
    rng = np.random.default_rng(3)
    fwd = [ex.compiled(c) for c in m.spec.forward]
    inv = [ex.compiled(c) for c in m.spec.inverse]
    step = 1e-6
    for _ in range(10):
        t = float(rng.uniform(-2, 2))
        y = rng.uniform(-0.5, 0.5, size=3)
        env = {"t": t, "y1": y[0], "y2": y[1], "y3": y[2]}
        x = np.array([float(f(env)) for f in fwd])
        Tfd = np.empty((3, 3))
        for i in range(3):
            for k in range(3):
                ep, em = dict(zip(("x1", "x2", "x3"), x)), dict(zip(("x1", "x2", "x3"), x))
                ep[f"x{i + 1}"] += step
                em[f"x{i + 1}"] -= step
                ep["t"] = em["t"] = t
                Tfd[i, k] = (float(inv[k](ep)) - float(inv[k](em))) / (2 * step)
        assert np.allclose(m.eval_T(t, y[None])[0], Tfd, rtol=1e-6, atol=1e-6)
        assert np.allclose(m.eval_a(t, y[None])[0], Tfd.T @ Tfd, rtol=1e-5, atol=1e-5)

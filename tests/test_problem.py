import math

import numpy as np
import pytest

from movingdom import expr as ex
from movingdom.diffeo import BallDomain, BoxDomain, DiffeoSpec, build_metric
from movingdom.grid import BoxGrid, RadialGrid, _gradients, assemble_A
from movingdom.problem import ProblemError, assemble, check_H2, check_H3
from movingdom.solver import _explicit_rhs, _forcing


def ball_shrink():
    return DiffeoSpec(
        dim=3,
        domain=BallDomain(3),
        forward=tuple(ex.parse(f"y{i} / (exp(-t^2) + 1)") for i in (1, 2, 3)),
        inverse=tuple(ex.parse(f"(exp(-t^2) + 1) * x{i}") for i in (1, 2, 3)),
    )


def identity_1d():
    return DiffeoSpec(
        dim=1,
        domain=BoxDomain((1.0,)),
        forward=(ex.parse("y1"),),
        inverse=(ex.parse("x1"),),
    )


# ---------------------------------------------------------------------------
# assembly and validation

def test_assemble_rejects_nonpositive_beta():
    with pytest.raises(ProblemError, match="beta must be positive"):
        assemble(identity_1d(), beta=0.0)
    with pytest.raises(ProblemError, match="beta must be positive"):
        assemble(identity_1d(), beta=-1.0, allow_nondissipative=True)


def test_assemble_beta_zero_needs_explicit_flag():
    p = assemble(identity_1d(), beta=0.0, allow_nondissipative=True)
    assert p.beta == 0.0


def test_assemble_rejects_spatial_variables_in_f():
    with pytest.raises(ProblemError, match="y1"):
        assemble(identity_1d(), beta=1.0, f="y1 * u")


def test_assemble_rejects_state_variable_in_source_and_initial():
    with pytest.raises(ProblemError, match="u"):
        assemble(identity_1d(), beta=1.0, source="u + t")
    with pytest.raises(ProblemError, match="t"):
        assemble(identity_1d(), beta=1.0, initial="t * y1")


def test_assemble_accepts_strings_and_prebuilt_metric():
    metric = build_metric(ball_shrink())
    p = assemble(metric, beta=2.0, f="sin(u)", initial="1 - y1^2")
    assert p.metric is metric
    assert p.dim == 3
    assert p.f_values(0.0, np.array([0.0, math.pi / 2]))[1] == pytest.approx(1.0)
    pts = np.array([[0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert np.allclose(p.initial_values(pts), [0.75, 1.0])


def test_default_initial_and_source_are_zero():
    p = assemble(identity_1d(), beta=1.0)
    pts = np.array([[0.25], [0.75]])
    assert np.all(p.initial_values(pts) == 0.0)
    assert np.all(p.source_values(1.0, pts) == 0.0)
    assert np.all(p.f_values(1.0, np.array([3.0, -4.0])) == 0.0)


def test_lipschitz_sup_on_default_window():
    p = assemble(identity_1d(), beta=1.0, f="u^3")
    # sup of 3 u^2 over |u| <= 10
    assert p.lipschitz_sup() == pytest.approx(300.0, rel=1e-12)
    assert assemble(identity_1d(), beta=1.0).lipschitz_sup() == 0.0


# ---------------------------------------------------------------------------
# right-hand side evaluation

def _rhs(p, grid, t, v):
    return _explicit_rhs(p, grid, t, v, assemble_A(p, grid, t),
                         _forcing(p, grid, [t])(t))


def test_eval_F_matches_closed_form_drift():
    p = assemble(ball_shrink(), beta=1.0, f="sin(u)")
    g = RadialGrid(3, 8)
    v = np.random.default_rng(11).normal(size=8)
    t = 1.0
    # b_k = (h'/h) y_k with h = exp(-t^2) + 1; radially b_r = (h'/h) r
    h = math.exp(-1.0) + 1.0
    hp = -2.0 * math.exp(-1.0)
    r = g.embed()[:, 0]
    expected = np.sin(v) - (hp / h) * r * _gradients(g, v)[0]
    assert np.allclose(_rhs(p, g, t, v), expected, rtol=1e-12)


def test_eval_F_adds_explicit_source():
    p = assemble(identity_1d(), beta=1.0, source="t * y1")
    g = BoxGrid((1.0,), (4,))
    assert np.allclose(_rhs(p, g, 2.0, np.zeros(4)), [0.25, 0.75, 1.25, 1.75])


# ---------------------------------------------------------------------------
# growth check H2

def test_H2_cubic_passes_at_the_cap():
    r = check_H2("u^3")
    assert r.passed
    assert r.cap == pytest.approx(2.0)
    assert r.rho == pytest.approx(2.0, abs=1e-6)
    # minimal envelope constant: sup 3u^2/(1+u^2) on |u| <= 10
    assert r.c == pytest.approx(300.0 / 101.0, rel=1e-4)
    assert r.witness is None


def test_H2_quintic_fails_for_cubic_cap():
    r = check_H2("u^5")
    assert not r.passed
    assert r.tail_slope == pytest.approx(4.0, abs=1e-6)
    assert r.witness is not None and abs(r.witness) == pytest.approx(10.0)


def test_H2_quintic_passes_when_alpha_lifts_the_cap():
    r = check_H2("u^5", alpha=0.8)
    assert math.isinf(r.cap)
    assert r.passed


def test_H2_bounded_derivative_gives_unit_constant():
    r = check_H2("sin(u)")
    assert r.passed
    assert r.rho <= 0.2
    assert r.c == pytest.approx(1.0, abs=1e-9)


def test_H2_time_dependent_factor():
    r = check_H2("sin(t) * u")
    assert r.passed
    assert r.c == pytest.approx(1.0, abs=5e-3)


def test_H2_rejects_bad_alpha():
    with pytest.raises(ProblemError, match="alpha"):
        check_H2("u", alpha=0.25)


def test_H2_mean_value_envelope_bounds_increments():
    r = check_H2("u^3")
    rng = np.random.default_rng(23)
    a = rng.uniform(-10, 10, size=200)
    b = rng.uniform(-10, 10, size=200)
    lhs = np.abs(a ** 3 - b ** 3)
    m = np.maximum(np.abs(a), np.abs(b))
    rhs = r.c * (1.0 + m ** r.rho) * np.abs(a - b)
    assert np.all(lhs <= rhs * (1 + 1e-12))


# ---------------------------------------------------------------------------
# growth check H3

def test_H3_bounded_function():
    r = check_H3("sin(u)")
    assert r.passed
    assert r.k1 == 0.0
    assert r.k2 == pytest.approx(1.0, abs=5e-3)


def test_H3_saturating_fraction():
    r = check_H3("u / (1 + u^2)")
    assert r.passed
    assert r.k1 == 0.0
    assert r.k2 == pytest.approx(0.5, abs=1e-9)


def test_H3_linear_growth_has_zero_offset():
    r = check_H3("sin(t) * u")
    assert r.passed
    assert r.k1 == pytest.approx(1.0, abs=5e-3)
    assert r.k2 <= 1e-12
    assert r.residual <= 1e-9


def test_H3_cubic_fails_with_witness():
    r = check_H3("u^3")
    assert not r.passed
    assert r.tail_slope == pytest.approx(3.0, abs=1e-6)
    assert abs(r.witness) == pytest.approx(10.0)


def test_H3_envelope_dominates_samples():
    r = check_H3("2 * u + cos(t)")
    assert r.passed
    us = np.linspace(-10, 10, 401)
    ts = np.linspace(-20, 20, 101)
    vals = np.abs(2 * us[None, :] + np.cos(ts)[:, None]).max(axis=0)
    # fitted on a coarser grid, so allow slack of one grid cell of slope
    assert np.all(vals <= r.k1 * np.abs(us) + r.k2 + 0.05)

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from movingdom import expr as ex
from movingdom.diffeo import BallDomain, BoxDomain, DiffeoSpec
from movingdom.grid import (BoxGrid, GridError, RadialGrid, SparseOperator, _boundary_flux,
                            _gradients, _values, assemble_A, inner, mass, norm_H1,
                            norm_L2, on_cells, read_snapshot, write_snapshot)
from movingdom.problem import assemble


def identity_problem(dim, domain=None, beta=1.0):
    dom = domain or BoxDomain((1.0,) * dim)
    spec = DiffeoSpec(
        dim=dim, domain=dom,
        forward=tuple(ex.parse(f"y{i + 1}") for i in range(dim)),
        inverse=tuple(ex.parse(f"x{i + 1}") for i in range(dim)),
    )
    return assemble(spec, beta=beta)


def ball_shrink_problem(beta=1.0):
    spec = DiffeoSpec(
        dim=3, domain=BallDomain(3),
        forward=tuple(ex.parse(f"y{i} / (exp(-t^2) + 1)") for i in (1, 2, 3)),
        inverse=tuple(ex.parse(f"(exp(-t^2) + 1) * x{i}") for i in (1, 2, 3)),
    )
    return assemble(spec, beta=beta)


def shear_problem(gamma=0.3):
    spec = DiffeoSpec(
        dim=2, domain=BoxDomain((1.0, 1.0)),
        forward=(ex.parse(f"y1 + {gamma} * y2"), ex.parse("y2")),
        inverse=(ex.parse(f"x1 - {gamma} * x2"), ex.parse("x2")),
    )
    return assemble(spec, beta=1.0)


def stretch_problem(extents):
    """A per-axis stretch: a_kk depends on (t, y_k) only."""
    dim = len(extents)
    spec = DiffeoSpec(
        dim=dim, domain=BoxDomain(extents),
        forward=tuple(ex.parse(f"(y{i} + 0.25 * y{i}^2) / (exp(0 - t^2) + 1)")
                      for i in range(1, dim + 1)),
        inverse=tuple(ex.parse(f"2 * (sqrt(1 + x{i} * (exp(0 - t^2) + 1)) - 1)")
                      for i in range(1, dim + 1)),
    )
    return assemble(spec, beta=1.0)


def symmetry_residual(S):
    """max |S - S^T| relative to max |S|."""
    return float(abs(S - S.T).max()) / float(abs(S).max())


def dense(apply, n):
    """The matrix of a linear map on n cells, column by column from unit vectors."""
    return np.column_stack([apply(e) for e in np.eye(n)])


# ---------------------------------------------------------------------------
# grid construction

def test_grid_validation():
    with pytest.raises(GridError, match="3 cells"):
        BoxGrid((1.0,), (2,))
    with pytest.raises(GridError, match="positive"):
        BoxGrid((0.0, 1.0), (4, 4))
    with pytest.raises(GridError, match="axes"):
        BoxGrid((1.0,), (4, 4))
    with pytest.raises(GridError, match="8 cells"):
        RadialGrid(3, 4)
    with pytest.raises(GridError, match="dimension"):
        RadialGrid(5, 16)


def test_box_geometry():
    g = BoxGrid((1.0, 2.0), (4, 5))
    assert g.m == 20
    assert g.spacing == (0.25, 0.4)
    assert np.allclose(g.centers[0], [0.125, 0.2])
    assert np.allclose(g.volumes, 0.1)


def test_radial_volumes_sum_to_ball_volume():
    g = RadialGrid(3, 64)
    assert math.fsum(g.volumes) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)
    g2 = RadialGrid(2, 32)
    assert math.fsum(g2.volumes) == pytest.approx(math.pi, rel=1e-14)
    assert g.centers[0, 0] == pytest.approx(0.5 / 64)


def test_field_rejects_nonfinite_and_bad_shape():
    g = BoxGrid((1.0,), (4,))
    with pytest.raises(GridError, match="finite"):
        _values(g, np.array([1.0, np.nan, 0.0, 0.0]))
    with pytest.raises(GridError, match="finite"):
        _values(g, math.inf)
    with pytest.raises(GridError, match="shape"):
        _values(g, np.zeros(5))
    assert np.all(_values(g, 2.5) == 2.5)


# ---------------------------------------------------------------------------
# operator assembly

def test_identity_1d_stencil():
    p = identity_problem(1)
    g = BoxGrid((1.0,), (4,))
    A = assemble_A(p, g, 0.0)
    S = dense(A.apply_flux, A.grid.m)
    D = S / A.grid.volumes[:, None] + np.eye(4)
    assert np.allclose(D[1], [-16.0, 33.0, -16.0, 0.0])
    assert np.allclose(D[2], [0.0, -16.0, 33.0, -16.0])
    assert np.allclose(D[0], [17.0, -16.0, 0.0, 0.0])
    assert A.cross is None
    assert symmetry_residual(S) == 0.0


def box_faces(g):
    """(axis k, lower cell, its flat index i, flat index j of the upper cell)
    for every interior face of the box grid g."""
    idx = np.arange(g.m).reshape(g.counts)
    for k in range(g.dim):
        for cell in np.ndindex(*g.counts):
            if cell[k] + 1 < g.counts[k]:
                yield k, cell, idx[cell], idx[cell[:k] + (cell[k] + 1,) + cell[k + 1:]]


def dense_by_faces(m, faces):
    """The flux matrix assembled face by face: an interior face between
    cells i and j with weight w adds w to the diagonal entries of i and j
    and -w to (i, j) and (j, i)."""
    F = np.zeros((m, m))
    for i, j, w in faces:
        F[i, i] += w
        F[j, j] += w
        F[i, j] -= w
        F[j, i] -= w
    return F


def dense_flux_by_faces(A):
    """The flux matrix assembled face by face from the coefficients A.a: a
    face weight is the face area times the mean of the two cell-center
    coefficients over the spacing."""
    g = A.grid
    if g.kind == "radial":
        dr = g.spacing[0]
        faces = []
        for i in range(g.n - 1):
            r = g.faces[i + 1]
            area = {1: 2.0, 2: 2.0 * math.pi * r, 3: 4.0 * math.pi * r * r}[g.dim]
            faces.append((i, i + 1, area * 0.5 * (A.a[i, 0, 0] + A.a[i + 1, 0, 0]) / dr))
    else:
        cell_vol = math.prod(g.spacing)
        h = g.spacing
        faces = [(i, j, cell_vol / h[k] * 0.5 * (A.a[i, k, k] + A.a[j, k, k]) / h[k])
                 for k, _, i, j in box_faces(g)]
    return dense_by_faces(g.m, faces)


@pytest.mark.parametrize("p, g", [
    (stretch_problem((1.0, 0.7, 1.3)), BoxGrid((1.0, 0.7, 1.3), (5, 4, 3))),
    (shear_problem(), BoxGrid((1.0, 1.0), (8, 8))),
    (ball_shrink_problem(), RadialGrid(3, 16)),
], ids=["stretch_5x4x3", "shear_8x8", "radial_16"])
def test_flux_matches_face_by_face_assembly(p, g):
    A = assemble_A(p, g, 0.37)
    S = dense(A.apply_flux, A.grid.m)
    F = dense_flux_by_faces(A)
    assert np.abs(S - F).max() <= 1e-14 * np.abs(F).max()
    assert np.array_equal(S, S.T)


@st.composite
def box_operators(draw):
    """An operator on a box of 1-3 axes and 3-6 cells per axis, with random
    positive face weights, beta and a field v."""
    counts = draw(st.lists(st.integers(3, 6), min_size=1, max_size=3))
    extents = draw(st.lists(st.floats(0.1, 10.0), min_size=len(counts),
                            max_size=len(counts)))
    g = BoxGrid(extents, counts)
    weights = tuple(draw(hnp.arrays(float, [n - (i == k) for i, n in enumerate(counts)],
                                    elements=st.floats(1e-3, 1e3)))
                    for k in range(len(counts)))
    beta = draw(st.floats(0.0, 10.0))
    v = draw(hnp.arrays(float, g.m, elements=st.floats(-1e3, 1e3)))
    return SparseOperator(g, weights, beta), v


@settings(max_examples=200, derandomize=True, deadline=None)
@given(op=box_operators())
def test_stencil_flux_is_the_symmetric_face_assembly(op):
    A, _ = op
    S = dense(A.apply_flux, A.grid.m)
    assert np.array_equal(S, S.T)
    F = dense_by_faces(A.grid.m, [(i, j, A.weights[k][cell]) for k, cell, i, j in box_faces(A.grid)])
    assert np.abs(S - F).max() <= 1e-14 * np.abs(F).max()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(op=box_operators(), c=st.floats(-1e3, 1e3))
def test_stencil_operator_sees_constants_and_mass_only_through_beta(op, c):
    A, v = op
    assert np.array_equal(A.apply_implicit(np.full(A.grid.m, c)), np.full(A.grid.m, A.beta * c))
    V = A.grid.volumes
    Sv = A.apply_flux(v)
    mass_rate = float(np.dot(V, A.apply_implicit(v)))
    size = float(np.abs(Sv).sum() + A.beta * np.dot(V, np.abs(v)))
    assert abs(mass_rate - A.beta * float(np.dot(V, v))) <= 1e-12 * size


def test_constant_field_sees_only_beta():
    p = ball_shrink_problem(beta=2.5)
    g = RadialGrid(3, 16)
    A = assemble_A(p, g, 1.0)
    out = A.apply_implicit(np.ones(16))
    assert np.allclose(out, 2.5, atol=1e-12)


def test_radial_operator_scales_with_h_squared():
    shrink = ball_shrink_problem()
    ident = identity_problem(3, BallDomain(3))
    g = RadialGrid(3, 16)
    S0 = dense(assemble_A(shrink, g, 0.0).apply_flux, g.m)
    S_id = dense(assemble_A(ident, g, 0.0).apply_flux, g.m)
    # h(0)^2 = 4, so the flux part is four times the identity-map stencil
    assert np.allclose(S0, 4.0 * S_id, rtol=1e-14)


def test_flux_row_and_column_sums_vanish():
    for p, g, t in [(ball_shrink_problem(), RadialGrid(3, 32), 1.3),
                    (shear_problem(), BoxGrid((1.0, 1.0), (8, 8)), 0.0)]:
        A = assemble_A(p, g, t)
        S = dense(A.apply_flux, A.grid.m)
        scale = np.abs(S).max()
        ones = np.ones(A.grid.m)
        assert np.abs(S @ ones).max() <= 1e-12 * scale
        assert np.abs(S.T @ ones).max() <= 1e-12 * scale
        if A.cross is not None:
            C = dense(lambda v: A.apply_explicit(_gradients(g, v)), A.grid.m) \
                * A.grid.volumes[:, None]
            assert np.abs(C @ ones).max() <= 1e-12 * scale
            assert np.abs(C.T @ ones).max() <= 1e-12 * scale


def test_self_adjoint_in_volume_weighted_inner():
    p = ball_shrink_problem()
    g = RadialGrid(3, 32)
    A = assemble_A(p, g, 0.8)
    rng = np.random.default_rng(5)
    for _ in range(4):
        v = rng.normal(size=32)
        w = rng.normal(size=32)
        lhs = inner(g, A.apply_implicit(v), w)
        rhs = inner(g, v, A.apply_implicit(w))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_ritz_values_bounded_below():
    p = ball_shrink_problem(beta=1.0)
    g = RadialGrid(3, 16)
    A = assemble_A(p, g, 0.5)
    # S x = lam V x is symmetric as V^-1/2 S V^-1/2
    root = np.sqrt(A.grid.volumes)
    evals = np.linalg.eigvalsh(dense(A.apply_flux, A.grid.m) / np.outer(root, root))
    assert evals.min() >= -1e-10
    assert (evals + A.beta).min() >= 1.0 * (1 - 1e-10)


def test_shear_map_produces_cross_part():
    A = assemble_A(shear_problem(), BoxGrid((1.0, 1.0), (8, 8)), 0.0)
    assert A.cross is not None
    # the implicit flux part stays symmetric
    assert symmetry_residual(dense(A.apply_flux, A.grid.m)) <= 1e-13


def test_cross_part_is_consistent_with_the_operator():
    # constant anisotropic a: A v = -(a11 vxx + 2 a12 vxy + a22 vyy) + beta v
    gamma = 0.3
    p = shear_problem(gamma)
    a11, a12, a22 = 1.0 + gamma ** 2, -gamma, 1.0

    def err(n):
        g = BoxGrid((1.0, 1.0), (n, n))
        y = g.centers
        v = np.sin(np.pi * y[:, 0]) * np.cos(np.pi * y[:, 1])
        vxx = -np.pi ** 2 * v
        vyy = -np.pi ** 2 * v
        vxy = -np.pi ** 2 * np.cos(np.pi * y[:, 0]) * np.sin(np.pi * y[:, 1])
        exact = -(a11 * vxx + 2 * a12 * vxy + a22 * vyy) + v
        A = assemble_A(p, g, 0.0)
        approx = A.apply_implicit(v) + A.apply_explicit(_gradients(g, v))
        interior = np.all((g.centers > 2.5 / n) & (g.centers < 1 - 2.5 / n), axis=1)
        return np.abs(approx - exact)[interior].max()

    e32, e64 = err(32), err(64)
    assert e64 < 0.1
    assert e32 / e64 > 3.0


def test_assembly_validation():
    with pytest.raises(GridError, match="dimension"):
        assemble_A(identity_problem(2), BoxGrid((1.0,), (4,)), 0.0)
    with pytest.raises(GridError, match="ball"):
        assemble_A(identity_problem(2), RadialGrid(2, 8), 0.0)
    with pytest.raises(GridError, match="finite"):
        assemble_A(identity_problem(1), BoxGrid((1.0,), (4,)), np.nan)
    shear_ball = DiffeoSpec(
        dim=2, domain=BallDomain(2),
        forward=(ex.parse("y1 + 0.3 * y2"), ex.parse("y2")),
        inverse=(ex.parse("x1 - 0.3 * x2"), ex.parse("x2")),
    )
    with pytest.raises(GridError, match="isotropic"):
        assemble_A(assemble(shear_ball, beta=1.0), RadialGrid(2, 8), 0.0)


def test_shifted_operator():
    A = assemble_A(ball_shrink_problem(), RadialGrid(3, 16), 0.3)
    rng = np.random.default_rng(2)
    v = rng.normal(size=16)
    B = A.shifted(0.05)
    assert np.allclose(B.apply_implicit(v), v + 0.05 * A.apply_implicit(v),
                       rtol=1e-14)


# ---------------------------------------------------------------------------
# gradients, norms

def test_gradient_exact_on_linear_box_fields():
    g = BoxGrid((1.0, 2.0), (8, 6))
    v = g.centers[:, 0]
    gx, gy = _gradients(g, v)
    assert np.abs(gx - 1.0).max() <= 1e-12
    assert np.abs(gy).max() <= 1e-12


def test_gradient_exact_on_radial_quadratic():
    g = RadialGrid(3, 32)
    r = g.centers[:, 0]
    gr = _gradients(g, r ** 2)[0]
    assert np.abs(gr - 2 * r).max() <= 1e-12


def test_norms_and_inner():
    g = BoxGrid((1.0, 1.0), (8, 8))
    ones = np.ones(g.m)
    assert norm_L2(g, ones) == pytest.approx(1.0, rel=1e-14)
    assert norm_H1(g, ones) == pytest.approx(1.0, rel=1e-14)
    v = g.centers[:, 0]
    # |y1|_L2^2 = 1/3 up to midpoint-rule error, |grad|^2 = 1
    assert norm_H1(g, v) ** 2 == pytest.approx(1.0 / 3.0 + 1.0, rel=1e-2)
    gb = RadialGrid(3, 64)
    assert norm_L2(gb, np.ones(64)) ** 2 == pytest.approx(4 * math.pi / 3, rel=1e-12)
    rng = np.random.default_rng(9)
    a, b = rng.normal(size=g.m), rng.normal(size=g.m)
    assert inner(g, a, b) == inner(g, b, a)
    assert mass(g, ones) == pytest.approx(1.0, rel=1e-14)


def test_inner_rejects_grid_mismatch():
    g1 = BoxGrid((1.0,), (4,))
    g2 = BoxGrid((1.0,), (5,))
    f = np.ones(g2.m)
    with pytest.raises(GridError, match="shape"):
        inner(g1, f, f)


# ---------------------------------------------------------------------------
# boundary flux diagnostic

def boundary_flux(p, g, t, v):
    """Max conormal flux |n . (M grad v)| over the boundary faces at time t."""
    return _boundary_flux(g, p.metric.eval_a(t, g.embed()), _gradients(g, v))


def test_boundary_residual_linear_field():
    p = identity_problem(2)
    g = BoxGrid((1.0, 1.0), (16, 16))
    v = g.centers[:, 0]
    assert boundary_flux(p, g, 0.0, v) == pytest.approx(1.0, abs=1e-10)
    assert boundary_flux(p, g, 0.0, np.ones(g.m)) <= 1e-13


def test_boundary_residual_compatible_radial_profile():
    p = identity_problem(3, BallDomain(3))
    g = RadialGrid(3, 64)
    r = g.centers[:, 0]
    v = (1 - r ** 2) ** 2
    assert boundary_flux(p, g, 0.0, v) <= 5.0 / 64


# ---------------------------------------------------------------------------
# snapshots

def test_snapshot_roundtrip_box(tmp_path):
    g = BoxGrid((1.0, 2.0), (5, 4))
    rng = np.random.default_rng(31)
    f = rng.normal(size=g.m) * 1e3
    path = tmp_path / "snap.txt"
    write_snapshot(path, g, f, time=0.1 + 0.2)
    g2, f2, t2 = read_snapshot(path)
    assert g2 == g
    assert t2 == 0.1 + 0.2
    assert np.array_equal(f2, f)


def test_snapshot_roundtrip_radial(tmp_path):
    g = RadialGrid(3, 16)
    rng = np.random.default_rng(32)
    f = rng.normal(size=16)
    path = tmp_path / "snap.txt"
    write_snapshot(path, g, f, time=-3.5)
    g2, f2, t2 = read_snapshot(path)
    assert g2 == g
    assert t2 == -3.5
    assert np.array_equal(f2, f)


@pytest.mark.parametrize("case", ["magic_line_only", "no_counts_line", "non_integer_count",
                                  "no_counts", "garbled_extents", "garbled_time",
                                  "garbled_value", "too_few_values"])
def test_snapshot_with_a_malformed_header_is_a_grid_error(tmp_path, case):
    path = tmp_path / "snap.txt"
    write_snapshot(path, BoxGrid((1.0,), (4,)), np.array([1.0, 2.0, 3.0, 4.0]), 0.5)
    lines = path.read_text().splitlines()
    assert lines[3] == "counts 4" and lines[4] == "extents 1.0" and lines[5] == "time 0.5"
    lines = {"magic_line_only": lines[:1],
             "no_counts_line": lines[:3] + lines[4:],
             "non_integer_count": lines[:3] + ["counts four"] + lines[4:],
             "no_counts": lines[:3] + ["counts"] + lines[4:],
             "garbled_extents": lines[:4] + ["extents 1.0.0"] + lines[5:],
             "garbled_time": lines[:5] + ["time soon"] + lines[6:],
             "garbled_value": lines[:7] + ["two"] + lines[8:],
             "too_few_values": lines[:-1]}[case]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(GridError) as err:
        read_snapshot(path)
    assert str(path) in str(err.value)


def test_snapshot_writer_checks_its_values(tmp_path):
    # the writer formats float64 bit patterns: other dtypes are converted, and
    # a wrong length or a non-finite value is refused before any file is made
    g = BoxGrid((1.0,), (4,))
    path = tmp_path / "snap.txt"
    values = np.array([0.1, -2.5, 3e-8, 4.0], dtype=np.float32)
    write_snapshot(path, g, values, 0.5)
    assert np.array_equal(read_snapshot(path)[1], values.astype(float))
    for bad, match in ((np.ones(5), "shape"), (np.array([1.0, np.inf, 0.0, 0.0]), "finite")):
        with pytest.raises(GridError, match=match):
            write_snapshot(tmp_path / "bad.txt", g, bad, 0.5)
        assert not (tmp_path / "bad.txt").exists()


def test_snapshot_rejects_other_files(tmp_path):
    path = tmp_path / "other.txt"
    path.write_text("hello\n")
    with pytest.raises(GridError, match="not a snapshot"):
        read_snapshot(path)


# ---------------------------------------------------------------------------
# evaluation on a box's open mesh

def coupled_problem(dim):
    """Per-axis stretches, with y1's scaled by 1 + 0.2 y2^2 for d >= 2, so
    a_11, a_12, b_1 and x1 depend on t, y1 and y2 together; with an
    initial value and a manufactured source of every axis."""
    from movingdom.solver import manufactured_source
    s = "(exp(0 - t^2) + 1)"
    fwd = [f"(y{i} + 0.25 * y{i}^2) / {s}" for i in range(1, dim + 1)]
    inv = [f"2 * (sqrt(1 + x{i} * {s}) - 1)" for i in range(1, dim + 1)]
    if dim >= 2:
        fwd[0], inv[0] = f"y1 * (1 + 0.2 * y2^2) / {s}", f"x1 * {s} / (1 + 0.2 * x2^2)"
    spec = DiffeoSpec(dim=dim, domain=BoxDomain((1.0,) * dim),
                      forward=tuple(map(ex.parse, fwd)), inverse=tuple(map(ex.parse, inv)))
    terms = [f"cos({k + 1.5} * y{k + 1})" for k in range(dim)]
    p = assemble(spec, beta=1.0, initial=" * ".join(terms) + " + y1^2")
    exact = ex.parse("exp(0 - t) * " + " * ".join(terms))
    return dataclasses.replace(p, source=manufactured_source(p, exact), _fns={})


COUPLED = {d: coupled_problem(d) for d in (1, 2, 3)}


def mesh_and_center_values(p, g, t):
    """(what, values on the open mesh, values at the full centers) of every
    expression the program evaluates over a box's cells, at t or at the
    times (t, t / 3 - 1)."""
    d, c = p.dim, g.centers
    yield "a", on_cells(g, p.metric.eval_a, t, tail=(d, d)), p.metric.eval_a(t, c)
    yield "b", on_cells(g, p.metric.eval_b, t, tail=(d,)), p.metric.eval_b(t, c)
    ts = np.array([t, t / 3 - 1])
    yield "a(ts)", p.metric.eval_a(ts, g.mesh).reshape(2, g.m, d, d), p.metric.eval_a(ts, c)
    for i, e in enumerate(p.metric.spec.forward):
        fn = ex.compiled(e)
        on_mesh = np.broadcast_to(fn(ex.bind(t, g.mesh)[0]), g.counts).ravel()
        yield f"x{i + 1}", on_mesh, np.broadcast_to(fn(ex.bind(t, c)[0]), (g.m,))
    if p.initial is not None:
        yield "initial", on_cells(g, p.initial_values), p.initial_values(c)
    if p.source is not None:
        yield "source", on_cells(g, p.source_values, t), p.source_values(t, c)


def assert_bitwise_equal(p, g, t):
    for what, on_mesh, at_centers in mesh_and_center_values(p, g, t):
        assert on_mesh.shape == at_centers.shape, what
        assert np.ascontiguousarray(on_mesh).tobytes() == \
            np.ascontiguousarray(at_centers).tobytes(), what


@pytest.mark.parametrize("name", ["identity", "rotation", "coupled_32cubed"])
def test_open_mesh_evaluation_is_the_full_center_evaluation(name):
    # every bundled box fixture (rotation's a, b and x couple both axes), and
    # a 3-D map at 32^3, whose 8 slabs are its layers of 4096 cells
    from movingdom.cli import _grid, _spec, fixture_path, load_config
    if name == "coupled_32cubed":
        p, g = COUPLED[3], BoxGrid((1.0, 1.0, 1.0), (32, 32, 32))
        assert len(list(g.slabs())) == 8
    else:
        rc = load_config(fixture_path(name))
        p, g = assemble(_spec(rc), beta=rc.beta, f=rc.f, initial=rc.initial), _grid(rc)
    for t in (-1.3, 0.0, 0.7):
        assert_bitwise_equal(p, g, t)


@settings(max_examples=30, deadline=None)
@given(counts=st.one_of(st.tuples(st.integers(3, 9000)),
                        st.tuples(st.integers(3, 90), st.integers(3, 90)),
                        st.tuples(st.integers(3, 5), st.integers(3, 2000)),
                        st.tuples(st.integers(3, 20), st.integers(3, 20), st.integers(3, 20))),
       extents=st.lists(st.floats(0.25, 4.0), min_size=3, max_size=3),
       t=st.floats(-3.0, 3.0))
def test_open_mesh_evaluation_on_random_boxes(counts, extents, t):
    # slabs of whole axis-0 layers, several of them above 4096 cells and a
    # single layer each where a layer is larger (3 x 2000 and up)
    g = BoxGrid(extents[:len(counts)], counts)
    slabs = list(g.slabs())
    assert [c.start for c, _ in slabs] == [0] + [c.stop for c, _ in slabs[:-1]]
    assert min(slabs[-1][0].stop, g.m) == g.m
    layer = g.m // counts[0]
    assert all(c.stop - c.start <= max(layer, 4096) for c, _ in slabs)
    assert_bitwise_equal(COUPLED[len(counts)], g, t)


def test_mesh_points_are_the_center_rows():
    g = BoxGrid((1.0, 2.0, 0.5), (5, 4, 3))
    cells = np.array([0, 7, 59, 31])
    assert np.array_equal(g.points(cells), g.centers[cells])
    assert np.array_equal(np.broadcast_to(g.mesh[1], g.counts).ravel(), g.centers[:, 1])

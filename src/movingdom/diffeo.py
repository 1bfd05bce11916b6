"""Moving-domain geometry: from a declared diffeomorphism to coefficients.

A time-dependent diffeomorphism r(t, .) maps a fixed reference domain O
(a box or the unit ball) onto the moving domain O_t.  Writing v(t,y) =
u(t, r(t,y)) turns the heat problem on O_t into a fixed-domain problem with
coefficients built from the inverse map:

    T_ik(t,y) = d rinv_k / d x_i  evaluated at x = r(t,y)
    a_jk(t,y) = sum_i T_ij T_ik                    (the matrix M = T* T)
    b_k(t,y)  = d rinv_k/dt - lap_x rinv_k + sum_j d a_jk/d y_j
                (the first two terms composed at x = r(t,y))
    K(t,y)    = 1 / |T(t,y) n(y)|  on the boundary, K > 0

and the moving outward normal is n_t(r(t,y)) = T(t,y) n(y) / |T(t,y) n(y)|.
The transformed flux boundary condition is the conormal n . (M grad v) = 0.

All derivations are symbolic over movingdom.expr trees, so the results can be
printed, re-parsed and differentiated again (the finite-volume assembly and
the manufactured-source harness both rely on that).  MetricBundle compiles
each entry once and evaluates it on the bindings of expr.bind.

check_H1 tests the separable structure T(t,y) = h(t) P(y) with the gauge
h(t0) = 1 at the sampled point of largest Frobenius norm, fits h by Frobenius
projection (its h_fn reads T at the gauge point through the bundle) and
reports a scale-invariant residual.  check_H4 tabulates sup |h(t) - h(tau)|
over a geometric gap ladder; it reports sampled behaviour only and never
certifies the infinite-gap limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex


class DiffeoError(Exception):
    pass


class MissingInverseError(DiffeoError):
    pass


class DegenerateDiffeoError(DiffeoError):
    pass


DEFAULT_TIME_WINDOW = (-20.0, 20.0)
DEFAULT_TIME_SAMPLES = 201
# per-axis interior lattice sizes keeping the probe grids around 100 points
_SPACE_PER_AXIS = {1: 101, 2: 11, 3: 5}
_MAX_LAG_RATIO = 4.0                  # _holder_fit: lags within 4 first gaps
_H4_HORIZON, _H4_SAMPLES = 20.0, 400  # check_H4: largest gap, taus per gap


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box [0, L_1] x ... x [0, L_d]."""
    extents: tuple

    def __post_init__(self):
        if not all(L > 0 for L in self.extents):
            raise DiffeoError("box extents must be positive")


@dataclass(frozen=True)
class BallDomain:
    """Unit ball."""
    dim: int


@dataclass(frozen=True)
class DiffeoSpec:
    """User-declared moving-domain geometry.

    forward components are expressions in (t, y1..yd), inverse components in
    (t, x1..xd).  The inverse is required for every derived coefficient; a
    spec without it can only be rejected with an actionable error.
    """
    dim: int
    domain: object
    forward: tuple
    inverse: tuple | None = None

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise DiffeoError(f"dimension must be 1, 2 or 3, got {self.dim}")
        if len(self.forward) != self.dim:
            raise DiffeoError("forward map must have one component per axis")
        yvars = {"t"} | {f"y{i + 1}" for i in range(self.dim)}
        for c in self.forward:
            bad = ex.free_vars(c) - yvars
            if bad:
                raise DiffeoError(f"forward component uses {sorted(bad)}")
        if self.inverse is not None:
            if len(self.inverse) != self.dim:
                raise DiffeoError("inverse map must have one component per axis")
            xvars = {"t"} | {f"x{i + 1}" for i in range(self.dim)}
            for c in self.inverse:
                bad = ex.free_vars(c) - xvars
                if bad:
                    raise DiffeoError(f"inverse component uses {sorted(bad)}")


def parse_diffeo(dim, domain, forward_sources, inverse_sources):
    fwd = tuple(ex.parse(s) for s in forward_sources)
    inv = tuple(ex.parse(s) for s in inverse_sources) if inverse_sources else None
    return DiffeoSpec(dim, domain, fwd, inv)


# ---------------------------------------------------------------------------
# sample grids

def time_grid(window=DEFAULT_TIME_WINDOW, n=DEFAULT_TIME_SAMPLES):
    return np.linspace(window[0], window[1], n)


def interior_points(domain, dim):
    """Deterministic interior lattice used by the probe routines."""
    n = _SPACE_PER_AXIS[dim]
    if isinstance(domain, BoxDomain):
        axes = [np.linspace(L / (2 * n), L - L / (2 * n), n)
                for L in domain.extents]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)
    axes = [np.linspace(-1 + 1.0 / n, 1 - 1.0 / n, 2 * n - 1)] * dim
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    return pts[np.linalg.norm(pts, axis=1) < 1 - 1e-9]


def boundary_points(domain, dim, n=32):
    """Boundary samples with their outward unit normals on the fixed domain."""
    if isinstance(domain, BoxDomain):
        # each face gets its own lattice of k cell midpoints per tangential axis
        k = max(2, int(round(n ** (1 / max(dim - 1, 1)))))
        axes = [np.linspace(L / (2 * k), L - L / (2 * k), k) for L in domain.extents]
        pts, nrm = [], []
        for axis in range(dim):
            for side, L in ((-1.0, 0.0), (1.0, domain.extents[axis])):
                lattice = np.meshgrid(*(axes[:axis] + [np.array([L])] + axes[axis + 1:]),
                                      indexing="ij")
                face = np.stack([c.ravel() for c in lattice], axis=1)
                normal = np.zeros(dim)
                normal[axis] = side
                pts.append(face)
                nrm.append(np.tile(normal, (len(face), 1)))
        return np.concatenate(pts), np.concatenate(nrm)
    if dim == 1:
        pts = np.array([[-1.0], [1.0]])
        return pts, pts.copy()
    if dim == 2:
        ang = np.linspace(0, 2 * math.pi, n, endpoint=False)
        pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        return pts, pts.copy()
    # Fibonacci sphere, deterministic and roughly uniform
    k = np.arange(n) + 0.5
    phi = np.arccos(1 - 2 * k / n)
    theta = math.pi * (1 + 5 ** 0.5) * k
    pts = np.stack([np.sin(phi) * np.cos(theta),
                    np.sin(phi) * np.sin(theta),
                    np.cos(phi)], axis=1)
    return pts, pts.copy()


# ---------------------------------------------------------------------------
# coefficient derivation

def _yvars(dim):
    return [f"y{i + 1}" for i in range(dim)]


def _xvars(dim):
    return [f"x{i + 1}" for i in range(dim)]


@dataclass
class MetricBundle:
    """Symbolic coefficients of the fixed-domain operator plus evaluators."""
    spec: DiffeoSpec
    T: list                      # T[i][k], composed at x = r(t,y)
    a: list                      # a[j][k] = sum_i T[i][j] T[i][k]
    b: list                      # b[k]
    K_faces: list                # (face label, K expr valid on that face)
    _fns: dict = field(default_factory=dict, repr=False)

    @property
    def dim(self):
        return self.spec.dim

    def _fn(self, key, e):
        if key not in self._fns:
            self._fns[key] = ex.compiled(e)
        return self._fns[key]

    def _eval_matrix(self, which, exprs, t, pts):
        env, shape = ex.bind(t, pts)
        d = self.dim
        out = np.empty(shape + (d, d))
        for j in range(d):
            for k in range(d):
                out[..., j, k] = self._fn((which, j, k), exprs[j][k])(env)
        return out

    def eval_T(self, t, pts):
        return self._eval_matrix("T", self.T, t, pts)

    def eval_a(self, t, pts):
        return self._eval_matrix("a", self.a, t, pts)

    def eval_b(self, t, pts):
        env, shape = ex.bind(t, pts)
        out = np.empty(shape + (self.dim,))
        for k in range(self.dim):
            out[..., k] = self._fn(("b", k), self.b[k])(env)
        return out

    def eval_K(self, t, pts, normals):
        """K = 1/|T n| at boundary samples with explicit normals."""
        T = self.eval_T(t, pts)
        w = np.einsum("...ik,...k->...i", T, np.asarray(normals, dtype=float))
        nrm = np.linalg.norm(w, axis=-1)
        if np.any(nrm < 1e-12):
            raise DegenerateDiffeoError("T n vanished at a boundary sample")
        return 1.0 / nrm


def build_metric(spec: DiffeoSpec) -> MetricBundle:
    """Derive T, a_jk, b_k and K symbolically from the declared maps."""
    if spec.inverse is None:
        raise MissingInverseError(
            "the inverse map is required to derive coefficients; declare the "
            "components rinv_k(t, x1..xd) alongside the forward map")
    d = spec.dim
    yv, xv = _yvars(d), _xvars(d)
    compose = {xv[i]: spec.forward[i] for i in range(d)}

    # T_ik(t,y) = d rinv_k/d x_i at x = r(t,y)
    T = [[ex.simplify(ex.substitute(ex.diff(spec.inverse[k], xv[i]), compose))
          for k in range(d)] for i in range(d)]

    a = [[None] * d for _ in range(d)]
    for j in range(d):
        for k in range(j, d):
            s = ex.Const(0.0)
            for i in range(d):
                s = ex.Binary("add", s, ex.Binary("mul", T[i][j], T[i][k]))
            a[j][k] = a[k][j] = ex.simplify(s)

    b = []
    for k in range(d):
        dt_part = ex.substitute(ex.diff(spec.inverse[k], "t"), compose)
        lap = ex.Const(0.0)
        for i in range(d):
            lap = ex.Binary("add", lap,
                            ex.diff(ex.diff(spec.inverse[k], xv[i]), xv[i]))
        lap_part = ex.substitute(lap, compose)
        div_a = ex.Const(0.0)
        for j in range(d):
            div_a = ex.Binary("add", div_a, ex.diff(a[j][k], yv[j]))
        b.append(ex.simplify(ex.Binary("add",
                                       ex.Binary("sub", dt_part, lap_part),
                                       div_a)))

    K_faces = []
    if isinstance(spec.domain, BallDomain):
        # on the unit sphere n(y) = y, so |T n|^2 = sum_i (sum_k T_ik y_k)^2
        q = ex.Const(0.0)
        for i in range(d):
            w = ex.Const(0.0)
            for k in range(d):
                w = ex.Binary("add", w, ex.Binary("mul", T[i][k], ex.Var(yv[k])))
            q = ex.Binary("add", q, ex.Binary("pow", w, ex.Const(2.0)))
        K_faces.append(("sphere", ex.simplify(
            ex.Binary("div", ex.Const(1.0), ex.Unary("sqrt", q)))))
    else:
        for axis in range(d):
            q = ex.Const(0.0)
            for i in range(d):
                q = ex.Binary("add", q,
                              ex.Binary("pow", T[i][axis], ex.Const(2.0)))
            K = ex.simplify(ex.Binary("div", ex.Const(1.0), ex.Unary("sqrt", q)))
            K_faces.append((f"{yv[axis]}=0", K))
            K_faces.append((f"{yv[axis]}={spec.domain.extents[axis]!r}", K))
    return MetricBundle(spec, T, a, b, K_faces)


def validate_inverse(spec: DiffeoSpec):
    """Max |rinv(t, r(t,y)) - y|_inf over the sample set.

    Returns (residual, worst) where worst = (t, y) attaining it.
    """
    if spec.inverse is None:
        raise MissingInverseError("no inverse map declared")
    tgrid, pts = time_grid(), interior_points(spec.domain, spec.dim)
    env, shape = ex.bind(tgrid, pts)
    env_x = {"t": env["t"]}
    for name, c in zip(_xvars(spec.dim), spec.forward):
        env_x[name] = np.broadcast_to(ex.compiled(c)(env), shape)
    worst = 0.0
    worst_at = (float(tgrid[0]), pts[0].copy())
    for k, c in enumerate(spec.inverse):
        back = np.broadcast_to(ex.compiled(c)(env_x), shape)
        err = np.abs(back - pts[None, :, k])
        idx = np.unravel_index(np.argmax(err), err.shape)
        if err[idx] > worst:
            worst = float(err[idx])
            worst_at = (float(tgrid[idx[0]]), pts[idx[1]].copy())
    return worst, worst_at


# ---------------------------------------------------------------------------
# hypothesis probes

def _holder_fit(tgrid, samples):
    """Fit sup-diff ~ c gap^theta over the smallest grid gaps.

    samples has shape (nt, ...); the sup is over everything but time.
    Fewer than two gaps with a diff above 1e-14 (degenerate data, or a grid
    of fewer than three times) report (1.0, 0.0).
    """
    tgrid = np.asarray(tgrid, dtype=float)
    flat = samples.reshape(len(tgrid), -1)
    lags = [ell for ell in range(1, len(tgrid))
            if (tgrid[ell] - tgrid[0]) <= _MAX_LAG_RATIO * (tgrid[1] - tgrid[0]) + 1e-12]
    if len(lags) < 3:
        lags = [ell for ell in (1, 2, 3) if ell < len(tgrid)]
    gaps, sups = [], []
    for ell in lags:
        diff = np.abs(flat[ell:] - flat[:-ell]).max()
        if diff > 1e-14:
            gaps.append(tgrid[ell] - tgrid[0])
            sups.append(diff)
    if len(gaps) < 2:
        return 1.0, 0.0
    slope, icpt = np.polyfit(np.log(gaps), np.log(sups), 1)
    return float(slope), float(math.exp(icpt))


@dataclass
class SeparabilityReport:
    """Outcome of the T(t,y) = h(t) P(y) factorisation test."""
    passed: bool
    residual: float
    h0: float
    h1: float
    theta: float
    holder_c: float
    t0: float
    y0: np.ndarray
    tgrid: np.ndarray
    h_samples: np.ndarray
    p: np.ndarray                # P(y) on the sample lattice, (m, d, d)
    p_tilde: np.ndarray          # sum_i p_ij p_ik, (m, d, d)
    witness: tuple | None
    h_fn: object = field(repr=False, default=None)


def check_H1(m: MetricBundle, tgrid=None) -> SeparabilityReport:
    """Test separability of T and fit h, P, the Holder exponent of h.

    Gauge: h(t0) = 1 at the sampled (t0, y0) of maximal Frobenius norm, and
    P(y) = T(t0, y).  The residual max |T - h P|_F / max |T|_F is
    scale-invariant; pass means residual <= 1e-6 and min h > 0.
    """
    tgrid = time_grid() if tgrid is None else np.asarray(tgrid, dtype=float)
    pts = interior_points(m.spec.domain, m.dim)
    T = m.eval_T(tgrid, pts)                      # (nt, m, d, d)
    frob = np.sqrt((T ** 2).sum(axis=(2, 3)))
    i0, j0 = np.unravel_index(np.argmax(frob), frob.shape)
    P = T[i0]                                     # (m, d, d)
    P0 = P[j0]
    denom = (P0 ** 2).sum()
    if denom < 1e-28:
        raise DegenerateDiffeoError("T vanished at the reference sample")
    h = np.einsum("tik,ik->t", T[:, j0], P0) / denom

    dev = T - h[:, None, None, None] * P[None]
    scale = frob.max()
    dev_f = np.sqrt((dev ** 2).sum(axis=(2, 3)))
    residual = float(dev_f.max() / scale)

    witness = None
    passed = residual <= 1e-6 and h.min() > 0
    if not passed:
        it, iy = np.unravel_index(np.argmax(dev_f), dev_f.shape)
        ii, kk = np.unravel_index(np.argmax(np.abs(dev[it, iy])), (m.dim, m.dim))
        witness = (float(tgrid[it]), pts[iy].copy(), int(ii), int(kk))

    theta, hc = _holder_fit(tgrid, h)
    p_tilde = np.einsum("mij,mik->mjk", P, P)

    t0 = float(tgrid[i0])
    y0 = pts[j0].copy()

    def h_fn(ts):
        Ts = m.eval_T(np.atleast_1d(ts), y0[None])[:, 0]
        acc = np.zeros(len(Ts))
        for i in range(m.dim):
            for k in range(m.dim):
                acc += Ts[:, i, k] * P0[i, k]
        return acc / denom

    return SeparabilityReport(passed, residual, float(h.min()), float(h.max()),
                              theta, hc, t0, y0, tgrid, h, P, p_tilde,
                              witness, h_fn)


@dataclass
class H4Report:
    gaps: np.ndarray
    sups: np.ndarray
    flag: str      # "consistent" or "inconsistent at sampled horizon"


def check_H4(report: SeparabilityReport) -> H4Report:
    """Tabulate sup |h(t) - h(tau)| over gaps 1, 2, 4, ... <= horizon.

    horizon = _H4_HORIZON; tau ranges over [-2 horizon, -g] with t = tau + g,
    so both arguments stay in the sampled past.  Report-only: the flag never
    gates anything.
    """
    gaps = []
    g = 1.0
    while g <= _H4_HORIZON:
        gaps.append(g)
        g *= 2
    sups = []
    for g in gaps:
        tau = np.linspace(-2 * _H4_HORIZON, -g, _H4_SAMPLES)
        sups.append(float(np.abs(report.h_fn(tau + g) - report.h_fn(tau)).max()))
    gaps = np.asarray(gaps)
    sups = np.asarray(sups)
    nonincreasing = bool(np.all(np.diff(sups) <= 1e-12))
    settled = sups[-1] <= max(0.5 * sups[0], 1e-12)
    flag = "consistent" if (nonincreasing and settled) \
        else "inconsistent at sampled horizon"
    return H4Report(gaps, sups, flag)


def ellipticity_probe(m: MetricBundle, tgrid=None, A=None):
    """Smallest eigenvalue of M(t,y) over the sample set; must be positive.
    A, when given, is m.eval_a on that set, tgrid x interior_points."""
    tgrid = time_grid() if tgrid is None else np.asarray(tgrid, dtype=float)
    pts = interior_points(m.spec.domain, m.dim)
    A = m.eval_a(tgrid, pts) if A is None else A
    eig = np.linalg.eigvalsh(A)
    C = float(eig.min())
    if C <= 0:
        it, iy, _ = np.unravel_index(np.argmin(eig), eig.shape)
        raise DegenerateDiffeoError(
            f"metric loses ellipticity at t={tgrid[it]}, y={pts[iy]} "
            f"(min eigenvalue {C:.3e})")
    return C


def hoelder_probe(m: MetricBundle, tgrid=None, A=None):
    """(theta, c) from log-log regression of sup_y |a(s,y) - a(t,y)| vs |s-t|.
    A, when given, is m.eval_a on the sample set, tgrid x interior_points."""
    tgrid = time_grid() if tgrid is None else np.asarray(tgrid, dtype=float)
    if A is None:
        A = m.eval_a(tgrid, interior_points(m.spec.domain, m.dim))
    return _holder_fit(tgrid, A)

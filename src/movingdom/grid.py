"""Finite-volume grids and discrete spatial operators on the fixed domain.

Two cell-centered uniform grids: boxes [0,L_1]x...x[0,L_d] for d = 1,2,3,
and a radially symmetric reduction of the unit ball (cells are spherical
shells, the first cell center sits at dr/2 so no stencil touches r = 0).

assemble_A discretizes A(t)v = -sum_jk d_j(a_jk d_k v) + beta v in flux
form: every interior face carries a_face * (normal difference quotient) *
face area, with a_face the arithmetic mean of the two adjacent cell-center
coefficient values; boundary faces carry no flux, which is the discrete
statement of the conormal condition n . (M grad v) = 0.  The resulting
flux matrix S has exact zero row and column sums, so constants are in its
kernel and the total mass sum(vol * v) only moves through beta and the
right-hand side.  Off-diagonal coefficients a_jk (j != k) are assembled
into a separate matrix meant to be lagged explicitly by the stepper; the
implicit part stays symmetric positive semidefinite.  One builder, `_flux`,
writes each face's weight into a cached CSR stencil and its negation into
both mirrored slots.  A v = scale * S v / vol + beta v is self-adjoint in
the volume-weighted inner product of `inner` (scale 1 when assembled).

Under H1, a(t) = h2(t) a0 and S(t) = h2(t) S0.  `operator_family` builds,
once per (metric, grid) and only if that holds to 1e-13, A at t = 0, the
scalar h2(t), and the eigenpairs of L0 = S0 / vol: one eigh of
V^-1/2 S0 V^-1/2 on a radial grid, one per axis on a box whose axis-k face
weights depend on y_k alone (a Kronecker sum of 1-D chains).

The public norms and diagnostics validate their field through `as_field`.
The stepper's `_metrics` kernel takes its already checked state and gets
L2, H1, mass and boundary flux from one gradient, through the same pieces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import expr as ex
from .diffeo import BallDomain, interior_points, time_grid

_SPHERE_AREA = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}


class GridError(Exception):
    pass


@dataclass(frozen=True)
class BoxGrid:
    extents: tuple
    counts: tuple

    def __post_init__(self):
        object.__setattr__(self, "extents", tuple(float(L) for L in self.extents))
        object.__setattr__(self, "counts", tuple(int(n) for n in self.counts))
        d = len(self.counts)
        if not 1 <= d <= 3 or len(self.extents) != d:
            raise GridError(f"need matching extents/counts in 1..3 axes, "
                            f"got {self.extents} / {self.counts}")
        if any(n < 3 for n in self.counts):
            raise GridError(f"at least 3 cells per axis required, got {self.counts}")
        if any(L <= 0 for L in self.extents):
            raise GridError(f"extents must be positive, got {self.extents}")

    kind = "box"

    @property
    def dim(self):
        return len(self.counts)

    @property
    def axes(self):
        return len(self.counts)

    @property
    def m(self):
        return int(np.prod(self.counts))

    @cached_property
    def spacing(self):
        return tuple(L / n for L, n in zip(self.extents, self.counts))

    @cached_property
    def centers(self):
        axes = [(np.arange(n) + 0.5) * h for n, h in zip(self.counts, self.spacing)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.column_stack([c.ravel() for c in mesh])

    @cached_property
    def volumes(self):
        return np.full(self.m, float(np.prod(self.spacing)))

    def embed(self):
        return self.centers


@dataclass(frozen=True)
class RadialGrid:
    dim: int
    n: int

    def __post_init__(self):
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "n", int(self.n))
        if self.dim not in (1, 2, 3):
            raise GridError(f"ambient dimension must be 1, 2 or 3, got {self.dim}")
        if self.n < 8:
            raise GridError(f"radial grid needs at least 8 cells, got {self.n}")

    kind = "radial"
    axes = 1

    @property
    def m(self):
        return self.n

    @cached_property
    def spacing(self):
        return (1.0 / self.n,)

    @cached_property
    def faces(self):
        return np.linspace(0.0, 1.0, self.n + 1)

    @cached_property
    def centers(self):
        return ((np.arange(self.n) + 0.5) / self.n).reshape(-1, 1)

    @cached_property
    def volumes(self):
        # exact shell volumes: the cell sums telescope to the ball volume
        rf = self.faces
        return _SPHERE_AREA[self.dim] * (rf[1:] ** self.dim - rf[:-1] ** self.dim) / self.dim

    def embed(self):
        pts = np.zeros((self.n, self.dim))
        pts[:, 0] = self.centers[:, 0]
        return pts


@dataclass
class GridField:
    grid: object
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.m,):
            raise GridError(f"field shape {vals.shape} does not match "
                            f"grid with {self.grid.m} cells")
        if not np.all(np.isfinite(vals)):
            raise GridError("field values must be finite")
        self.values = vals.copy()


def as_field(grid, data) -> GridField:
    """Coerce a scalar, array or GridField onto grid (validating shape)."""
    if isinstance(data, GridField):
        if data.grid != grid:
            raise GridError("field belongs to a different grid")
        return data
    if np.ndim(data) == 0:
        return GridField(grid, np.full(grid.m, float(data)))
    return GridField(grid, np.asarray(data, dtype=float))


def _values(grid, data):
    return as_field(grid, data).values


# ---------------------------------------------------------------------------
# difference matrices

def _deriv_1d(n, h):
    # central interior, second-order one-sided at the ends (exact on quadratics)
    rows = [0, 0, 0, n - 1, n - 1, n - 1]
    cols = [0, 1, 2, n - 3, n - 2, n - 1]
    vals = [-1.5 / h, 2.0 / h, -0.5 / h, 0.5 / h, -2.0 / h, 1.5 / h]
    i = np.arange(1, n - 1)
    rows = np.concatenate([rows, i, i])
    cols = np.concatenate([cols, i - 1, i + 1])
    vals = np.concatenate([vals, np.full(n - 2, -0.5 / h), np.full(n - 2, 0.5 / h)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


@lru_cache(maxsize=64)
def _grad_matrices(grid):
    if grid.kind == "radial":
        return (_deriv_1d(grid.n, grid.spacing[0]),)
    mats = []
    for a in range(grid.dim):
        M = sp.identity(1, format="csr")
        for i, n in enumerate(grid.counts):
            F = _deriv_1d(n, grid.spacing[i]) if i == a else sp.identity(n)
            M = sp.kron(M, F, format="csr")
        mats.append(M)
    return tuple(mats)


def _face_slices(d, a):
    """Slices picking the (low, high) cells of every interior a-face from an
    array shaped like a d-axis grid."""
    lo = [slice(None)] * d
    hi = [slice(None)] * d
    lo[a] = slice(None, -1)
    hi[a] = slice(1, None)
    return tuple(lo), tuple(hi)


def _axis_faces(counts, a):
    """Flat indices of the (low, high) cells across every interior a-face."""
    idx = np.arange(int(np.prod(counts))).reshape(counts)
    lo, hi = _face_slices(len(counts), a)
    return idx[lo].ravel(), idx[hi].ravel()


def _gradients(grid, vals):
    """Per-axis derivatives of a validated array: central, one-sided at boundaries."""
    return [G @ vals for G in _grad_matrices(grid)]


# ---------------------------------------------------------------------------
# inner products, norms and the per-step metrics

def inner(grid, v, w):
    # v*w first: elementwise products commute exactly, so inner is
    # bit-for-bit symmetric in its arguments
    return float(np.dot(grid.volumes, _values(grid, v) * _values(grid, w)))


def _h1(grid, sq, grads):
    """H1 norm from the squared L2 norm sq and the per-axis gradients."""
    for g in grads:
        sq += float(np.dot(grid.volumes, g * g))
    return float(np.sqrt(sq))


def norm_L2(grid, v):
    return float(np.sqrt(inner(grid, v, v)))


def norm_H1(grid, v):
    vals = _values(grid, v)
    return _h1(grid, float(np.dot(grid.volumes, vals * vals)), _gradients(grid, vals))


def mass(grid, v):
    return float(np.dot(grid.volumes, _values(grid, v)))


def _metrics(grid, vals, op):
    """(L2, H1, mass, boundary flux) of a validated array; the boundary flux
    takes the coefficients op.scale * op.a at the cell centers."""
    grads = _gradients(grid, vals)
    sq = float(np.dot(grid.volumes, vals * vals))
    return (float(np.sqrt(sq)), _h1(grid, sq, grads), float(np.dot(grid.volumes, vals)),
            op.scale * _boundary_flux(grid, op.a, grads))


# ---------------------------------------------------------------------------
# operator assembly

@dataclass(frozen=True, eq=False)
class SparseOperator:
    """A(t) in flux form: apply(v) = scale * (flux @ v) / vol + beta v (+ cross part).

    `flux` collects the diagonal-coefficient fluxes, symmetric by
    construction; `cross` the off-diagonal a_jk fluxes, kept apart so time
    steppers can treat them explicitly while the implicit matrix stays SPD.
    Both, and the cell-center coefficients `a` (None on derived operators
    such as `shifted`), are multiplied by `scale`.  `axis_weights` is set
    when flux is the Kronecker sum over axes of the 1-D chain fluxes with
    these face weights (boxes with no cross block whose axis-k weights are
    bitwise the same on every line along axis k).  `family` is the
    OperatorFamily whose matrices the operator scales, None when assembled.
    """
    grid: object
    flux: sp.csr_matrix
    volumes: np.ndarray
    beta: float
    cross: object = None
    a: object = field(default=None, repr=False, kw_only=True)
    axis_weights: tuple = field(default=None, repr=False, kw_only=True)
    scale: float = field(default=1.0, kw_only=True)
    family: object = field(default=None, repr=False, kw_only=True)

    @property
    def n(self):
        return self.flux.shape[0]

    def apply_implicit(self, v):
        return self.scale * (self.flux @ v) / self.volumes + self.beta * v

    def apply_explicit(self, v):
        return self.scale * (self.cross @ v) / self.volumes

    def apply(self, v):
        out = self.apply_implicit(v)
        if self.cross is not None:
            out += self.apply_explicit(v)
        return out

    def shifted(self, dt):
        """Operator I + dt * (implicit part), on the same matrices."""
        return SparseOperator(self.grid, self.flux, self.volumes, 1.0 + dt * self.beta,
                              scale=dt * self.scale, family=self.family)

    @cached_property
    def spd_matrix(self):
        """scale * flux + beta * diag(vol): the plain-SPD matrix behind apply_implicit."""
        return (self.flux * self.scale + sp.diags(self.beta * self.volumes)).tocsr()


@lru_cache(maxsize=64)
def _flux_pattern(counts):
    """CSR indices and row pointer of the face-flux stencil on a grid of
    `counts` cells, with the data slots of the diagonal and of each axis's
    (upper, lower) off-diagonals, the latter in the order of `_axis_faces`."""
    m = int(np.prod(counts))
    rows, cols = [np.arange(m)], [np.arange(m)]
    for ax in range(len(counts)):
        lo, hi = _axis_faces(counts, ax)
        rows += [lo, hi]
        cols += [hi, lo]
    sizes = [len(r) for r in rows]
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    order = np.lexsort((cols, rows))
    slot = np.empty(len(order), dtype=np.intp)
    slot[order] = np.arange(len(order))
    indices = cols[order].astype(np.int32)
    indptr = np.zeros(m + 1, dtype=np.int32)
    indptr[1:] = np.cumsum(np.bincount(rows, minlength=m))
    diag_at, *off = np.split(slot, np.cumsum(sizes)[:-1])
    for arr in (indices, indptr, diag_at, *off):
        arr.flags.writeable = False
    return indices, indptr, diag_at, tuple(zip(off[0::2], off[1::2]))


def _flux(counts, weights):
    """Flux matrix of the interior faces of a grid of `counts` cells, in CSR.

    weights[k] holds the k-face weights, shaped like the grid with one fewer
    cell along axis k.  Each face adds its weight to the diagonal of both
    cells and its negated weight to the two mirrored off-diagonal slots, so
    the matrix is symmetric with zero row and column sums by construction.
    """
    indices, indptr, diag_at, off_at = _flux_pattern(tuple(counts))
    diag = np.zeros(counts)
    data = np.empty(len(indices))
    for ax, w in enumerate(weights):
        lo, hi = _face_slices(len(counts), ax)
        diag[lo] += w
        diag[hi] += w
        upper, lower = off_at[ax]
        data[upper] = data[lower] = -w.ravel()
    data[diag_at] = diag.ravel()
    return sp.csr_matrix((data, indices, indptr), shape=(len(diag_at),) * 2)


def assemble_A(p, grid, t) -> SparseOperator:
    """Finite-volume assembly of A(t) for the transformed problem p."""
    t = float(t)
    if not np.isfinite(t):
        raise GridError(f"assembly time must be finite, got {t}")
    if grid.kind == "radial" and not isinstance(p.domain, BallDomain):
        raise GridError("radial grids apply only to ball domains")
    if grid.kind == "box" and p.dim != grid.dim:
        raise GridError(f"problem dimension {p.dim} does not match "
                        f"grid dimension {grid.dim}")
    a = p.metric.eval_a(t, grid.embed())
    m = grid.m
    scale = float(np.abs(a).max()) or 1.0

    if grid.kind == "radial":
        off = np.abs(a - a[:, 0, 0][:, None, None] * np.eye(p.dim)).max()
        if off > 1e-9 * scale:
            raise GridError("radial grid requires an isotropic diffusion tensor; "
                            f"anisotropy {off:.3e} detected on the sampling ray")
        s = a[:, 0, 0]
        rf = grid.faces[1:-1]
        dr = grid.spacing[0]
        area = _SPHERE_AREA[grid.dim] * rf ** (grid.dim - 1)
        w = area * 0.5 * (s[:-1] + s[1:]) / dr
        return SparseOperator(grid, _flux((m,), (w,)), grid.volumes, float(p.beta), a=a)

    weights = []
    cell_vol = float(np.prod(grid.spacing))
    for ax in range(grid.dim):
        lo, hi = _face_slices(grid.dim, ax)
        akk = a[:, ax, ax].reshape(grid.counts)
        h = grid.spacing[ax]
        area = cell_vol / h
        weights.append(area * 0.5 * (akk[lo] + akk[hi]) / h)
    cross = None
    grads = _grad_matrices(grid)
    for j in range(grid.dim):
        for k in range(grid.dim):
            if j == k or np.abs(a[:, j, k]).max() <= 1e-12 * scale:
                continue
            lo, hi = _axis_faces(grid.counts, j)
            nf = len(lo)
            area = cell_vol / grid.spacing[j]
            w = area * 0.5 * (a[lo, j, k] + a[hi, j, k])
            inc = sp.csr_matrix(
                (np.concatenate([np.full(nf, -1.0), np.full(nf, 1.0)]),
                 (np.concatenate([np.arange(nf)] * 2),
                  np.concatenate([lo, hi]))), shape=(nf, m))
            avg = sp.csr_matrix(
                (np.full(2 * nf, 0.5),
                 (np.concatenate([np.arange(nf)] * 2),
                  np.concatenate([lo, hi]))), shape=(nf, m))
            term = inc.T @ sp.diags(w) @ avg @ grads[k]
            cross = term if cross is None else cross + term
    axis_weights = None
    if cross is not None:
        cross = cross.tocsr()
    else:
        lines = [_axis_line(w, ax) for ax, w in enumerate(weights)]
        if all(line is not None for line in lines):
            axis_weights = tuple(lines)
    return SparseOperator(grid, _flux(grid.counts, weights), grid.volumes,
                          float(p.beta), cross, a=a, axis_weights=axis_weights)


def _axis_line(w, ax):
    """The 1-D weights along axis ax if every line of ax-faces carries them, else None.

    w holds the interior ax-face weights, shaped like the grid with one fewer
    cell along ax.
    """
    line = w[tuple(slice(None) if k == ax else slice(0, 1) for k in range(w.ndim))]
    return line.ravel().copy() if np.array_equal(w, np.broadcast_to(line, w.shape)) else None


# ---------------------------------------------------------------------------
# the separable operator family

@dataclass(frozen=True, eq=False)
class OperatorFamily:
    """A(t) = h2(t) (S0 + C0) / vol + beta for coefficients a(t) = h2(t) a0.

    `base` is A at t = 0 (S0, C0, a0); h2(t) = a_00(t, y*) / a0_00(y*) at the
    cell y* of largest |a0_00|.  Where the grid allows, L0 = W^-1 Q diag(lam)
    Q^T W: Q the Kronecker product of the per-axis eigenvectors `vecs`, lam
    flat in cell order, W = diag(root_vol) (None, a constant, on boxes).
    """
    base: SparseOperator
    h2: object
    vecs: tuple = None
    lam: np.ndarray = None
    root_vol: np.ndarray = None

    def at(self, t, beta):
        b = self.base
        return SparseOperator(b.grid, b.flux, b.volumes, beta, b.cross, a=b.a,
                              scale=float(self.h2(t)), family=self)


def operator_family(p, grid):
    """The OperatorFamily of p's metric on grid, None when a(t) is not
    h2(t) a0 to rounding; built once and kept on the metric."""
    cache, key = p.metric._fns, ("family", grid)
    if key not in cache:
        cache[key] = _build_family(p, grid)
    return cache[key]


def _build_family(p, grid):
    def h2(t):
        return a00({**y_ref, "t": t}) / a0[ref, 0, 0]

    def pairs():   # (a, h2 a0) in blocks of times and cells that bound the memory
        pts = interior_points(p.domain, p.dim)
        a0_pts = p.metric.eval_a(0.0, pts)
        for ts in np.array_split(time_grid(), 8):
            yield p.metric.eval_a(ts, pts), np.multiply.outer(h2(ts), a0_pts)
        for t in (-16.0, -4.0, -1.0, 1.0, 4.0):
            for c in np.array_split(np.arange(grid.m), -(-grid.m // 4096)):
                yield p.metric.eval_a(t, grid.embed()[c]), h2(t) * a0[c]

    # a family only if a(t) = h2(t) a0 to 1e-13 on the H1 samples and on the grid
    try:
        base = assemble_A(p, grid, 0.0)   # GridError for the grids assemble_A rejects
        a0 = base.a
        ref = int(np.argmax(np.abs(a0[:, 0, 0])))
        a00 = p.metric._fn(("a", 0, 0), p.metric.a[0][0])
        y_ref = {f"y{i + 1}": float(y) for i, y in enumerate(grid.embed()[ref])}
        if not all(np.abs(a - b).max() <= 1e-13 * np.abs(a).max() for a, b in pairs()):
            return None
    except ex.EvalError:   # a is undefined at t = 0 or at a sampled time
        return None
    if grid.kind == "radial":
        root = np.sqrt(grid.volumes)
        lam, Q = np.linalg.eigh(base.flux.toarray() / np.outer(root, root))
        return OperatorFamily(base, h2, (Q,), lam, root)
    if base.axis_weights is None:
        return OperatorFamily(base, h2)
    # S0 is the Kronecker sum of the 1-D chains: eigenvalues add across axes
    eig = [np.linalg.eigh(_flux((len(w) + 1,), (w,)).toarray()) for w in base.axis_weights]
    lam = reduce(np.add.outer, [lam_k for lam_k, _ in eig]).ravel()
    return OperatorFamily(base, h2, tuple(Q for _, Q in eig), lam / base.volumes[0])


# ---------------------------------------------------------------------------
# boundary flux diagnostic

def _boundary_flux(grid, a, grads):
    """Max |n . (M grad v)| over boundary faces, from the coefficients a at
    the cell centers and the per-axis gradients."""
    if grid.kind == "radial":
        return float(abs(a[-1, 0, 0] * grads[0][-1]))
    d = grid.dim
    a = a.reshape(grid.counts + (d, d))
    g = np.stack(grads, axis=-1).reshape(grid.counts + (d,))
    worst = 0.0
    for ax in range(d):
        for side in (0, -1):
            ca, cg = np.take(a, side, axis=ax)[..., ax, :], np.take(g, side, axis=ax)
            flux = np.einsum("mk,mk->m", ca.reshape(-1, d), cg.reshape(-1, d))
            worst = max(worst, float(np.abs(flux).max()))
    return worst


def boundary_residual(p, grid, t, v, a=None):
    """Max reconstructed conormal flux |n . (M grad v)| over boundary faces,
    from the coefficients `a` at time t at the cell centers, evaluated if None."""
    a = p.metric.eval_a(float(t), grid.embed()) if a is None else a
    return _boundary_flux(grid, a, _gradients(grid, _values(grid, v)))


# ---------------------------------------------------------------------------
# snapshots

def write_snapshot(path, field: GridField, time):
    g = field.grid
    counts = g.counts if g.kind == "box" else (g.n,)
    extents = g.extents if g.kind == "box" else (1.0,)
    lines = [
        "movingdom-snapshot 1",
        f"kind {g.kind}",
        f"dim {g.dim}",
        "counts " + " ".join(str(c) for c in counts),
        "extents " + " ".join(repr(float(e)) for e in extents),
        f"time {float(time)!r}",
    ]
    with open(path, "w") as fh:   # values stream out one Python float at a time
        fh.write("\n".join(lines) + "\n")
        fh.writelines(f"{v!r}\n" for v in memoryview(field.values))


def read_snapshot(path):
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "movingdom-snapshot 1":
        raise GridError(f"{path} is not a snapshot file")
    head = {}
    for line in lines[1:6]:
        key, _, rest = line.partition(" ")
        head[key] = rest
    counts = tuple(int(c) for c in head["counts"].split())
    extents = tuple(float(e) for e in head["extents"].split())
    if head["kind"] == "box":
        grid = BoxGrid(extents, counts)
    elif head["kind"] == "radial":
        grid = RadialGrid(int(head["dim"]), counts[0])
    else:
        raise GridError(f"unknown grid kind {head['kind']!r}")
    values = np.array([float(s) for s in lines[6:] if s],)
    return GridField(grid, values), float(head["time"])

"""Finite-volume grids and discrete spatial operators on the fixed domain.

Two cell-centered uniform grids: boxes [0,L_1]x...x[0,L_d] for d = 1,2,3,
and a radially symmetric reduction of the unit ball (cells are spherical
shells, the first cell center sits at dr/2 so no stencil touches r = 0).
Both have per-axis `counts` and `spacing`; a field is a flat array of the
cells in C order of the counts, and every stencil works on its grid-shaped
view by numpy slicing.  Expressions are evaluated over a box's cells on
its open `mesh`, an entry of some axes on those axes alone (`on_cells`).

assemble_A discretizes A(t)v = -sum_jk d_j(a_jk d_k v) + beta v in flux
form: every interior face carries a weight, face area times a_face over
the spacing, with a_face the arithmetic mean of the two adjacent
cell-center coefficient values; boundary faces carry no flux, which is the
discrete statement of the conormal condition n . (M grad v) = 0.  The
operator is its face weights: S v moves w * (v_lo - v_hi) across each face,
into the low cell and out of the high one, so S is symmetric with constants
in its kernel by construction and the total mass sum(vol * v) only moves
through beta and the right-hand side.  Off-diagonal coefficients a_jk
(j != k) give a separate cross block, the k-gradient averaged to the
j-faces times a j-face weight, meant to be lagged explicitly by the
stepper; the implicit part stays symmetric positive semidefinite.
A v = scale * S v / vol + beta v is self-adjoint in the volume-weighted
inner product of `inner` (scale 1 when assembled).

There is one operator type, `SparseOperator`.  Under H1, a(t) = h2(t) a0
and S(t) = h2(t) S0, so A(t) is A(0) with scale h2(t): the march's operator
family, `solver.operator_family`, is assemble_A at t = 0 plus the
eigenpairs of L0 = S0 / vol where the grid allows, from `_chain` (one eigh
on a radial grid) and `_axis_line` (one per axis on a box whose axis-k face
weights depend on y_k alone).  Its scaled and shifted copies share them.
assemble_A at any other t is the oracle the tests hold the family to.

The public norms validate their field through `_values`, which makes a
scalar a constant field and checks the shape and finiteness of an array.
The stepper's `_metrics` kernel takes its already checked state and gets
L2, H1, mass and boundary flux from one gradient, through the same pieces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from pathlib import Path

import numpy as np

from .diffeo import BallDomain

_SPHERE_AREA = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}
_SLAB = 4096   # cells evaluated at a time, which bounds the memory


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
    def m(self):
        return int(np.prod(self.counts))

    @cached_property
    def spacing(self):
        return tuple(L / n for L, n in zip(self.extents, self.counts))

    @cached_property
    def mesh(self):
        """Cell centers as an open mesh, np.ix_ of the per-axis centers: `centers` in C order."""
        return np.ix_(*[(np.arange(n) + 0.5) * h for n, h in zip(self.counts, self.spacing)])

    @cached_property
    def centers(self):
        return np.column_stack([np.broadcast_to(c, self.counts).ravel() for c in self.mesh])

    @cached_property
    def volumes(self):
        return np.full(self.m, float(np.prod(self.spacing)))

    def embed(self):
        return self.centers

    def points(self, cells):   # rows `cells` of `centers`, without making the rest
        at = np.unravel_index(cells, self.counts)
        return np.column_stack([c.ravel()[i] for c, i in zip(self.mesh, at)])

    def slabs(self):
        """(cells, mesh) of runs of whole axis-0 layers, at most _SLAB cells (or
        one layer): a slice of the flat cells and the mesh with axis 0 cut."""
        layer = self.m // self.counts[0]
        step = max(1, _SLAB // layer)
        for lo in range(0, self.counts[0], step):
            yield (slice(lo * layer, (lo + step) * layer),
                   (self.mesh[0][lo:lo + step],) + self.mesh[1:])


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

    @property
    def m(self):
        return self.n

    @property
    def counts(self):
        return (self.n,)

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

    def points(self, cells):
        return self.embed()[cells]

    def slabs(self):   # radial grids keep the point path, in one slab
        yield slice(None), self.embed()


def on_cells(grid, fn, *args, tail=()):
    """fn(*args, points) on each slab (an open mesh on a box), shaped like the
    slab plus tail, gathered into a (m,) + tail array."""
    out = np.empty((grid.m,) + tail)
    for cells, pts in grid.slabs():
        out[cells] = np.reshape(fn(*args, pts), (-1,) + tail)
    return out


def _values(grid, data):
    """A field on grid from data: a fresh float array of one value per cell.
    A scalar becomes a constant field; a wrong shape or a non-finite value
    raises GridError."""
    vals = np.full(grid.m, float(data)) if np.ndim(data) == 0 else np.array(data, dtype=float)
    if vals.shape != (grid.m,):
        raise GridError(f"field shape {vals.shape} does not match "
                        f"grid with {grid.m} cells")
    if not np.all(np.isfinite(vals)):
        raise GridError("field values must be finite")
    return vals


# ---------------------------------------------------------------------------
# stencils on the grid-shaped array

def _face_slices(d, a):
    """Slices picking the (low, high) cells of every interior a-face from an
    array shaped like a d-axis grid."""
    lo = [slice(None)] * d
    hi = [slice(None)] * d
    lo[a] = slice(None, -1)
    hi[a] = slice(1, None)
    return tuple(lo), tuple(hi)


def _gradients(grid, vals):
    """Per-axis derivatives of a validated array: central inside, second-order
    one-sided at both ends of every line (exact on quadratics)."""
    x = vals.reshape(grid.counts)
    grads = []
    for ax, h in enumerate(grid.spacing):
        g = np.empty_like(x)
        u, du = x.swapaxes(0, ax), g.swapaxes(0, ax)   # views with axis ax first
        du[1:-1] = (0.5 / h) * u[2:] - (0.5 / h) * u[:-2]
        du[0] = (-1.5 / h) * u[0] + (2.0 / h) * u[1] + (-0.5 / h) * u[2]
        du[-1] = (0.5 / h) * u[-3] + (-2.0 / h) * u[-2] + (1.5 / h) * u[-1]
        grads.append(g.ravel())
    return grads


def _apply_flux(weights, x):
    """S x on the grid-shaped array x, from the per-axis face weights."""
    out = np.zeros(x.shape)
    for ax, w in enumerate(weights):
        lo, hi = _face_slices(x.ndim, ax)
        f = w * (x[lo] - x[hi])
        out[lo] += f
        out[hi] -= f
    return out


def _diagonal(weights, counts):
    """Diagonal of S on the grid shape: each face weight added to both its cells."""
    diag = np.zeros(counts)
    for ax, w in enumerate(weights):
        lo, hi = _face_slices(len(counts), ax)
        diag[lo] += w
        diag[hi] += w
    return diag


def _chain(w):
    """Dense S of a 1-D chain of cells with face weights w."""
    return np.diag(_diagonal((w,), (len(w) + 1,))) - np.diag(w, 1) - np.diag(w, -1)


# ---------------------------------------------------------------------------
# inner products, norms and the per-step metrics

def inner(grid, v, w):
    # v*w first: elementwise products commute exactly, so inner is
    # bit-for-bit symmetric in its arguments
    return float(np.dot(grid.volumes, _values(grid, v) * _values(grid, w)))


def _sq(grid, v):
    """Squared L2 norm of an array already checked (or made) as a state."""
    return float(np.dot(grid.volumes, v * v))


def _h1(grid, sq, grads):
    """H1 norm from the squared L2 norm sq and the per-axis gradients."""
    for g in grads:
        sq += _sq(grid, g)
    return float(np.sqrt(sq))


def norm_L2(grid, v):
    return float(np.sqrt(inner(grid, v, v)))


def norm_H1(grid, v):
    vals = _values(grid, v)
    return _h1(grid, _sq(grid, vals), _gradients(grid, vals))


def mass(grid, v):
    return float(np.dot(grid.volumes, _values(grid, v)))


def _metrics(grid, vals, scale, a):
    """(L2, H1, mass, boundary flux) of a validated array; the boundary flux
    takes the coefficients scale * a at the cell centers."""
    grads = _gradients(grid, vals)
    sq = _sq(grid, vals)
    return (float(np.sqrt(sq)), _h1(grid, sq, grads), float(np.dot(grid.volumes, vals)),
            scale * _boundary_flux(grid, a, grads))


# ---------------------------------------------------------------------------
# operator assembly

@dataclass(frozen=True, eq=False)
class SparseOperator:
    """A(t) in flux form: scale * (S + C) v / vol + beta v.

    S is held as its face weights: `weights[k]` are the interior k-face
    weights, shaped like the grid with one fewer cell along axis k, and S is
    applied as a stencil, symmetric by construction.  `cross` holds the
    off-diagonal a_jk fluxes C as (j, k, j-face weights), None when a is
    diagonal; it is kept apart so time steppers can treat it explicitly while
    the implicit part stays SPD.  Both, and the cell-center coefficients `a`
    (None on `shifted` operators), are multiplied by `scale`.  Where the grid
    allows a direct solve, L = S / vol = W^-1 Q diag(lam) Q^T W: Q the
    Kronecker product of the per-axis eigenvectors `vecs`, lam flat in cell
    order, W = diag(root_vol) (1.0 on boxes); `lam` is None otherwise.
    """
    grid: object
    weights: tuple
    beta: float
    cross: tuple = None
    a: object = field(default=None, repr=False, kw_only=True)
    scale: float = field(default=1.0, kw_only=True)
    vecs: tuple = field(default=None, repr=False, kw_only=True)
    lam: np.ndarray = field(default=None, repr=False, kw_only=True)
    root_vol: object = field(default=1.0, repr=False, kw_only=True)

    def apply_flux(self, v):
        """S v for a flat array v."""
        return _apply_flux(self.weights, v.reshape(self.grid.counts)).ravel()

    def apply_implicit(self, v):
        return self.scale * self.apply_flux(v) / self.grid.volumes + self.beta * v

    def apply_explicit(self, grads):
        """The cross part, scale * C v / vol, from the per-axis gradients of v."""
        counts = self.grid.counts
        grads = [g.reshape(counts) for g in grads]
        out = np.zeros(counts)
        for j, k, w in self.cross:
            lo, hi = _face_slices(len(counts), j)
            f = w * (0.5 * (grads[k][lo] + grads[k][hi]))
            out[lo] -= f
            out[hi] += f
        return self.scale * out.ravel() / self.grid.volumes

    def shifted(self, dt):
        """Operator I + dt * (implicit part), on the same weights and eigenpairs."""
        return SparseOperator(self.grid, self.weights, 1.0 + dt * self.beta, scale=dt * self.scale,
                              vecs=self.vecs, lam=self.lam, root_vol=self.root_vol)


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
    a = on_cells(grid, p.metric.eval_a, t, tail=(p.dim, p.dim))
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
        return SparseOperator(grid, (w,), float(p.beta), a=a)

    weights = []
    cross = []
    cell_vol = float(np.prod(grid.spacing))
    for j in range(grid.dim):
        lo, hi = _face_slices(grid.dim, j)
        h = grid.spacing[j]
        area = cell_vol / h
        for k in range(grid.dim):
            ajk = a[:, j, k].reshape(grid.counts)
            if j == k:
                weights.append(area * 0.5 * (ajk[lo] + ajk[hi]) / h)
            elif np.abs(ajk).max() > 1e-12 * scale:
                cross.append((j, k, area * 0.5 * (ajk[lo] + ajk[hi])))
    return SparseOperator(grid, tuple(weights), float(p.beta), tuple(cross) or None, a=a)


def _axis_line(w, ax):
    """The 1-D weights along axis ax if every line of ax-faces carries them, else None.

    w holds the interior ax-face weights, shaped like the grid with one fewer
    cell along ax.
    """
    line = w[tuple(slice(None) if k == ax else slice(0, 1) for k in range(w.ndim))]
    return line.ravel().copy() if np.array_equal(w, np.broadcast_to(line, w.shape)) else None


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


# ---------------------------------------------------------------------------
# snapshots

_BLOCK = 512   # rows formatted at a time, which bounds the strings held


def _csv_blocks(cols):
    """CSV text of the columns in blocks of _BLOCK rows, each ending in a
    newline.  A column is a str, the same cell on every row; a float64 array;
    or a list of the texts _csv_blocks gave for one column of the same length,
    reused as they are.  The arrays, at least one, broadcast to the table's
    grid shape, whose cells in C order are the rows.  Values are formatted by
    repr, told apart by bit pattern (-0.0 and 0.0 stay apart): each distinct
    value of a block once, and each element a broadcast array holds once."""
    shape = np.broadcast_shapes(*(c.shape for c in cols if isinstance(c, np.ndarray)))
    n = int(np.prod(shape))
    cols = [_spread(c, shape) if isinstance(c, np.ndarray) else c for c in cols]
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        cells, at = [], np.unravel_index(np.arange(lo, hi), shape)   # the block's cells
        for c in cols:
            if isinstance(c, str):
                cells.append(repeat(c, hi - lo))
            elif isinstance(c, list):
                cells.append(c[lo // _BLOCK].splitlines())
            elif c.dtype == object:   # texts of a broadcast array
                cells.append(c[at].tolist())
            else:
                bits, inv = np.unique(c[lo:hi].view(np.int64), return_inverse=True)
                text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
                cells.append(text[inv].tolist())
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def _spread(c, shape):
    """c flat if it holds every cell of shape, else its own elements' texts, broadcast."""
    c = np.broadcast_to(c, shape)
    own = c[tuple(slice(None) if s else slice(0, 1) for s in c.strides)]
    if own.size == c.size:
        return c.reshape(-1)
    return np.broadcast_to(np.array(list(map(repr, own.ravel().tolist())), dtype=object)
                           .reshape(own.shape), shape)


def write_snapshot(path, grid, values, time):
    """Write the field `values` on grid at `time` as a snapshot file; values
    are checked as `_values` checks them, before the file is opened.  Returns
    the block texts written for the values, a column _csv_blocks takes as it
    is, so a caller that writes the same values again formats them once."""
    values = _values(grid, values)
    extents = grid.extents if grid.kind == "box" else (1.0,)
    lines = [
        "movingdom-snapshot 1",
        f"kind {grid.kind}",
        f"dim {grid.dim}",
        "counts " + " ".join(str(c) for c in grid.counts),
        "extents " + " ".join(repr(float(e)) for e in extents),
        f"time {float(time)!r}",
    ]
    texts = []
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
        for text in _csv_blocks([values]):
            fh.write(text)
            texts.append(text)
    return texts


def read_snapshot(path):
    """(grid, values, time) from a write_snapshot file; GridError, naming the
    file, when it is not one or its header or values are malformed."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "movingdom-snapshot 1":
        raise GridError(f"{path} is not a snapshot file")
    head = dict(line.partition(" ")[::2] for line in lines[1:6])
    try:
        counts = tuple(int(c) for c in head["counts"].split())
        extents = tuple(float(e) for e in head["extents"].split())
        if head["kind"] == "box":
            grid = BoxGrid(extents, counts)
        elif head["kind"] == "radial":
            grid = RadialGrid(int(head["dim"]), counts[0])
        else:
            raise GridError(f"unknown grid kind {head['kind']!r}")
        return grid, _values(grid, [float(s) for s in lines[6:] if s]), float(head["time"])
    except KeyError as e:
        raise GridError(f"{path}: snapshot header has no {e.args[0]!r} line") from None
    except (ValueError, IndexError, GridError) as e:
        raise GridError(f"{path}: malformed snapshot: {e}") from None

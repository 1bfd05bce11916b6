"""IMEX time integration of the transformed problem.

The linear divergence-form part A(t) is implicit, everything else —
nonlinearity f(t,v), drift b . grad v, explicit sources and the lagged
off-diagonal diffusion correction — sits in F and is treated explicitly:

    backward-euler:  (I + dt A(t_{n+1})) v_{n+1} = v_n + dt F(t_n, v_n)
    crank-nicolson:  (I + dt/2 A(t_{n+1})) v* =
                         (I - dt/2 A(t_n)) v_n + dt F(t_n + dt/2, v_n)

followed, for crank-nicolson, by one corrector solve with F re-evaluated
at the midpoint state (v_n + v*)/2.  When F does not depend on the state
the corrector right-hand side is identical and v* is kept without a second
solve, so the scheme degenerates to the plain one-solve form; with
state-dependent F the correction restores second order in time.  Under
H1 the scalars of a step depend on t alone: h2(t), the drift coefficients
below and an f of t alone, folded into the source.  The march evaluates
each once per chunk of _CHUNK steps, by expr.compiled over the chunk's
times its steps take it at.  The drift b(t, .) lies in a fixed space of at
most d + 2 fields of y; `drift_basis` keeps r snapshot fields of b on the grid,
built once per (metric, grid) next to the operator family and checked to
1e-13, so a time costs b at r pivots and one r x r product instead of b
over the grid.  Without a family, or where the check fails, b is evaluated
over the grid at each time, as is a source s(t, y).

Under H1 every A(t) is the metric's operator at t = 0 on the grid
(grid.py), the fixed flux S0 (and cross block C0), scaled by h2(t); a
metric without that structure is assembled at every time.  Where the
family carries the eigenpairs of L0 = S0 / vol (radial grids, 1-D and
Kronecker-sum boxes; no cross block then), A(t) = beta + h2(t) L0 is
diagonal in one fixed eigenbasis and a step makes no operator: from the
chunk's h2, `_mode_steps` tabulates each step's rows
N_n = 1 - c (beta + h2(t_n) lam) and D_n = 1 + c (beta + h2(t_n + dt_n) lam),
c = dt_n / 2 for crank-nicolson (dt_n, and no N, for backward-euler), and
the step forms (N_n * Q^T v + dt Q^T F) / D_n and transforms it back,
reusing the rows in the corrector.  A table holds at most _TABLE = 2^15
values, so larger grids take blocks of fewer steps, down to one row per
step; one block is held at a time.  On a radial grid or a 1-D box each
transform is one matmul with the stored Q.  Other operators come from
`operator_at`, made per time, and are solved by Jacobi CG, matrix-free on
the face weights, to the relative tolerance cg_tol.

Time marches by accumulation (t_{n+1} = t_n + dt).  Each operator and each
table row is made from its exact time values (the H1 scaling from time 0,
never from a run's start) and kept for the current step only (a row for
its block), and a value at a time does not
depend on the chunk it is evaluated with, so a run restarted from a stored
state on the step lattice reproduces the uninterrupted run bit for bit,
and memory stays flat in the step count.  The final step is
shortened to land exactly on the requested end time.

A state is a float array of one value per cell.  `run` validates and copies
the initial state once, through grid._values, checks each new state for
finite values, and by default adds a metrics row per state, from one call
of grid._metrics, and keeps the snapshots.  With record=False it keeps only
the last state, for callers that read nothing else; `final_state` is that
run's final state.  Both use the arrays the steps make, with no second
check or copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import islice

import numpy as np

from . import expr as ex
from .diffeo import boundary_points, interior_points, time_grid
from .grid import (SparseOperator, _diagonal, _gradients, _metrics, _sq, _values, assemble_A,
                   norm_L2, operator_family)


class SolverError(Exception):
    pass


class CgError(SolverError):
    pass


SCHEMES = ("backward-euler", "crank-nicolson")


@dataclass(frozen=True)
class StepperConfig:
    dt: float
    scheme: str = "backward-euler"
    cg_tol: float = 1e-10        # CG-path box operators only: other solves are exact
    snapshot_every: int = 0      # 0 keeps only the first and last snapshot

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise SolverError(f"unknown scheme {self.scheme!r}; pick one of {SCHEMES}")
        if not self.dt > 0:
            raise SolverError(f"dt must be positive, got {self.dt}")
        if not self.cg_tol > 0:
            raise SolverError(f"cg_tol must be positive, got {self.cg_tol}")
        if self.snapshot_every < 0:
            raise SolverError(f"snapshot_every must be >= 0, got {self.snapshot_every}")


@dataclass
class StepMetrics:
    step: int
    t: float
    L2: float
    H1: float
    mass: float
    boundary_residual: float
    cg_iters: int


@dataclass
class Trajectory:
    grid: object
    times: list
    snapshots: list
    metrics: list = field(default_factory=list)

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise SolverError("snapshot times must be strictly increasing")

    @property
    def final(self) -> np.ndarray:
        return self.snapshots[-1]


# ---------------------------------------------------------------------------
# linear solves

def _cg(op, rhs, tol, maxiter=0, x0=None):
    """Solve op x = rhs via Jacobi CG on scale * S + beta * diag(vol), applied
    matrix-free from the face weights; stops when |op x - rhs|_2 <= tol |rhs|_2.
    """
    rhs = np.asarray(rhs, dtype=float)
    V = op.grid.volumes
    c, shift = op.scale, op.beta * V

    def matvec(x):
        return c * op.apply_flux(x) + shift * x

    d = c * _diagonal(op.weights, op.grid.counts).ravel() + shift
    b = V * rhs
    cap = maxiter if maxiter else 10 * op.grid.m
    if np.any(d <= 0):
        raise CgError("operator diagonal is not positive; CG needs an SPD operator")
    x = np.zeros_like(b) if x0 is None else np.asarray(x0, dtype=float).copy()
    r = b - matvec(x)
    target = tol * float(np.linalg.norm(rhs))
    if float(np.linalg.norm(r / V)) <= target:
        return x, 0
    z = r / d
    p = z.copy()
    rz = float(r @ z)
    for it in range(1, cap + 1):
        q = matvec(p)
        pq = float(p @ q)
        if pq <= 0:
            raise CgError(f"breakdown at iteration {it}: operator is not positive definite")
        alpha = rz / pq
        x = x + alpha * p
        r = r - alpha * q
        if float(np.linalg.norm(r / V)) <= target:
            return x, it
        z = r / d
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    raise CgError(f"no convergence within {cap} iterations; "
                  f"residual {float(np.linalg.norm(r / V)):.3e}, target {target:.3e}")


def _along(x, M, ax):
    """M applied along axis ax of the array x (a matmul on a reshaped view)."""
    shape = x.shape
    n = shape[ax]
    post = math.prod(shape[ax + 1:])
    if post == 1:
        return (x.reshape(-1, n) @ M.T).reshape(shape)
    return np.matmul(M, x.reshape(-1, n, post)).reshape(shape)


def _eigen(op, x, back=False):
    """x in the operator's eigenbasis of L0 (orthonormal in the vol-weighted
    inner product, up to a constant on boxes), or back from it: one matmul
    each way with the one Q of a radial grid or a 1-D box, one per axis on
    the grid-shaped array of a larger box (whose root_vol is 1.0)."""
    if len(op.vecs) == 1:
        (Q,), w = op.vecs, op.root_vol
        return (Q @ x) / w if back else (x * w) @ Q
    x = x.reshape(op.grid.counts)
    for ax, Q in enumerate(op.vecs):
        x = _along(x, Q if back else Q.T, ax)
    return x.ravel()


def _eigenvalues(shift, scale, lam):
    """shift + scale * lam: the eigenvalues of shift + scale * L0, one row per
    entry where shift and scale are arrays of equal length."""
    d = np.asarray(scale)[..., None] * lam
    d += np.asarray(shift)[..., None]
    return d


def _require_positive(low):
    """CgError, as CG raises it, where the smallest eigenvalue low is not positive."""
    if not low > 0:
        raise CgError(f"eigenvalue {low:.3e}: operator is not positive definite")


def _solve(op, rhs, tol, x0=None):
    """op x = rhs: (x, CG iterations), a direct solve counting 0.

    op is a SparseOperator, solved by Jacobi CG from x0 to tol within 10*N
    iterations, or a step's mode row (A0, D, min D) from _mode_steps, with
    rhs already in A0's eigenbasis: x = Q (rhs / D).  An operator that
    carries eigenpairs is solved as the row of its own eigenvalues.
    """
    if isinstance(op, SparseOperator):
        if op.lam is None:
            return _cg(op, rhs, tol, x0=x0)
        d = _eigenvalues(op.beta, op.scale, op.lam)
        op, rhs = (op, d, d.min()), _eigen(op, rhs)
    A0, denom, low = op
    _require_positive(low)
    return _eigen(A0, rhs / denom, back=True), 0


def operator_at(p, grid, t):
    """A(t) of problem p on grid: the metric's H1 operator scaled by h2(t)
    where it has one, assembled at t otherwise."""
    family = operator_family(p, grid)
    return _operator(p, grid, t, None if family is None else _tabulate(family[1], [t]))


def _operator(p, grid, t, h2):
    """A(t): the family's A0 scaled by h2[t], with h2 the family's h2 tabulated
    at times that hold t; assembled at t where h2 is None."""
    if h2 is None:
        return assemble_A(p, grid, t)
    A0, _ = operator_family(p, grid)
    return SparseOperator(A0.grid, A0.weights, p.beta, A0.cross, a=A0.a, scale=float(h2[t]),
                          vecs=A0.vecs, lam=A0.lam, root_vol=A0.root_vol)


def _tabulate(fn, times):
    """{t: value at t} from one call of fn on the array of the distinct times."""
    ts = list(dict.fromkeys(times))
    return dict(zip(ts, fn(np.array(ts))))


# ---------------------------------------------------------------------------
# the drift as a few fixed fields times per-time scalars

def _by_axis(grid, b):
    """The drift b, shaped (cells, d), as the stepper uses it: one row per grid
    axis.  A radial grid keeps only the radial component, which must carry the
    whole field."""
    if grid.kind == "radial" and b.shape[1] > 1 and \
            np.abs(b[:, 1:]).max() > 1e-9 * (1.0 + np.abs(b[:, 0]).max()):
        raise SolverError("radial grid requires a radial drift field")
    return b.T[:len(grid.counts)]


def _drift_on(p, grid, t):
    """(cells, drift by axis) of p at time t on grid, in blocks of cells that
    bound the memory."""
    pts = grid.embed()
    for lo in range(0, grid.m, 4096):
        c = slice(lo, lo + 4096)
        yield c, _by_axis(grid, p.metric.eval_b(t, pts[c]))


def drift_basis(p, grid):
    """(g, fields) with the drift by axis at time t equal to g(t) @ fields,
    fields shaped (r, axes, cells) and g mapping a 1-D array of times to one
    row of r coefficients each; None where b is evaluated per time.  Built
    once and kept on the metric.
    """
    cache, key = p.metric._fns, ("drift", grid)
    if key not in cache:
        try:
            cache[key] = _build_drift(p, grid)
        except ex.EvalError:   # b is undefined at a sampled time
            cache[key] = None
    return cache[key]


def _build_drift(p, grid):
    """Under H1, b(t, y) lies in a fixed space of at most d + 2 fields of y.

    The fields are r snapshots b(t_i, .) on the grid, with r and the t_i from
    b on the H1 lattice, and r DEIM pivot entries (Chaturantabut & Sorensen,
    SIAM J. Sci. Comput. 32 (2010) 2737-2764): g(t) solves g @ fields at the
    pivots = b(t) at the pivots, for an array of times at once.  They are
    kept only if they reconstruct b to 1e-13 at every lattice time and on
    every grid cell at the probe times, each against that time's max |b|;
    r = 0 when b is identically zero.  None without an operator
    family, with more than d + 2 fields, or when the guard fails.
    """
    if operator_family(p, grid) is None:
        return None
    m, d = p.metric, p.dim
    ts = time_grid()
    lattice = m.eval_b(ts, interior_points(p.domain, d)).reshape(len(ts), -1)
    # rank and sample times: greedy Gram-Schmidt on the lattice rows, until no
    # residual row keeps 1e-12 of the largest row norm
    rows, res = [], lattice.copy()
    sq = np.einsum("ij,ij->i", res, res)
    floor = 1e-24 * sq.max()
    while sq.max() > floor:
        if len(rows) == d + 2:
            return None
        i = int(np.argmax(sq))
        rows.append(i)
        q = res[i] / np.sqrt(sq[i])
        res -= np.outer(res @ q, q)
        sq = np.einsum("ij,ij->i", res, res)
    del res
    r, axes = len(rows), len(grid.counts)
    fields = np.empty((r, axes, grid.m))
    for i, t in enumerate(ts[rows]):
        for c, b in _drift_on(p, grid, t):
            fields[i][:, c] = b
    flat = fields.reshape(r, axes * grid.m)
    # DEIM: each pivot where the next field is worst fitted from the earlier pivots
    pivots = []
    for i in range(r):
        miss = np.linalg.solve(flat[:i, pivots].T, flat[i, pivots]) @ flat[:i]
        miss -= flat[i]
        pivots.append(int(np.argmax(np.abs(miss, out=miss))))
    inverse = np.linalg.inv(flat[:, pivots])
    axis, cell = np.divmod(np.array(pivots, dtype=int), grid.m)
    pts = grid.embed()[cell]

    def coefficients(ts):   # b at the pivots, each b_k over the array of times
        env, shape = ex.bind(ts, pts)
        b = [np.broadcast_to(m._fn(("b", k), m.b[k])(env), shape) for k in range(axes)]
        return np.stack(b, axis=-1)[:, np.arange(r), axis] @ inverse

    for g, b in zip(coefficients(ts), lattice):
        if not np.abs(g @ lattice[rows] - b).max() <= 1e-13 * np.abs(b).max():
            return None
    probes = np.array([-1.5, 0.5])   # times off the H1 lattice
    for t, g in zip(probes, coefficients(probes)):
        err = top = 0.0
        for c, b in _drift_on(p, grid, t):
            err = max(err, float(np.abs(np.tensordot(g, fields[:, :, c], 1) - b).max()))
            top = max(top, float(np.abs(b).max()))
        if not err <= 1e-13 * top:
            return None
    return coefficients, fields


# ---------------------------------------------------------------------------
# stepping

def _forcing(p, grid, times):
    """fn(t) giving the state-independent parts of F, (drift, source), at
    each t of times.

    The drift is (g, fields), its field by grid axis being g @ fields: the
    drift basis and its coefficients at t, or eval_b at t with g = (1,)
    where there is no basis.  It is None when b is identically zero.  An f
    of t alone is one value at t, added to the source; the source is None
    when there is neither.  The coefficients and an f of t alone are
    tabulated over times, the rest is evaluated at t when fn is called.
    """
    basis = drift_basis(p, grid)
    g = _tabulate(basis[0], times) if basis is not None and len(basis[1]) else None
    f_t = None
    if p.f is not None and not p.f_uses_u:
        f = p._fn("f", p.f, ("t", "u"))
        f_t = _tabulate(lambda ts: np.broadcast_to(f({"t": ts}), ts.shape), times)

    def at(t):
        if basis is None:
            drift = np.ones(1), _by_axis(grid, p.metric.eval_b(t, grid.embed()))[None]
        else:
            drift = None if g is None else (g[t], basis[1])
        source = p.source_values(t, grid.embed()) if p.source is not None else None
        if f_t is not None:
            source = f_t[t] if source is None else source + f_t[t]
        return drift, source

    return at


def _explicit_rhs(p, grid, t, v, cross_op, forcing):
    """F(t, v), with forcing the (drift, source) of _forcing at t; None drops
    f, drift and source.  The drift and the cross block share one gradient of
    v; the drift field is formed one axis at a time, which bounds the memory."""
    drift, source = (None, None) if forcing is None else forcing
    if drift is not None or cross_op.cross is not None:
        grads = _gradients(grid, v)
    out = p.f_values(t, v) if forcing is not None and p.f_uses_u else np.zeros(len(v))
    if drift is not None:
        g, fields = drift
        for k, gk in enumerate(grads):
            out -= (g @ fields[:, k]) * gk
    if source is not None:
        out += source
    if cross_op.cross is not None:
        out -= cross_op.apply_explicit(grads)
    return out


def _advance(p, grid, cfg, t, v, dt, implicit, forcing):
    """One step from t by dt: (state, CG iterations).

    implicit is the step's (lhs, into, cross_op, base) from _mode_steps or
    _operator_steps: what `_solve` takes, the map of a grid array into the
    space of its right-hand side, the operator whose cross block F lags, and
    for crank-nicolson the map from v to the linear part of that right-hand
    side.  forcing is a _forcing holding the step's explicit time, None drops
    f, drift and source.
    """
    lhs, into, cross_op, base = implicit
    if cfg.scheme == "backward-euler":
        F = _explicit_rhs(p, grid, t, v, cross_op, None if forcing is None else forcing(t))
        return _solve(lhs, into(v + dt * F), cfg.cg_tol, v)
    tm = t + 0.5 * dt
    at_tm = None if forcing is None else forcing(tm)
    b = base(v)
    F0 = _explicit_rhs(p, grid, tm, v, cross_op, at_tm)
    v_star, it1 = _solve(lhs, b + dt * into(F0), cfg.cg_tol, v)
    Fm = _explicit_rhs(p, grid, tm, 0.5 * (v + v_star), cross_op, at_tm)
    if (Fm == F0).all():
        return v_star, it1
    v_next, it2 = _solve(lhs, b + dt * into(Fm), cfg.cg_tol, v_star)
    return v_next, it1 + it2


def _same(x):
    return x


def _operator_steps(cfg, steps, ops, get_op):
    """The implicit part of each step (see _advance) from the operators at its
    times: get_op makes each once into ops, which keeps only the current
    step's; the one at t_n is the last step's."""
    cn = cfg.scheme == "crank-nicolson"
    for t, dt, _ in steps:
        A0 = get_op(t)
        ops.clear()
        ops[t] = A0
        if not cn:
            yield get_op(t + dt).shifted(dt), _same, A0, None
            continue
        c = 0.5 * dt
        cross_op = get_op(t + c) if A0.cross is not None else A0
        yield (get_op(t + dt).shifted(c), _same, cross_op,
               lambda v, A0=A0, c=c: v - c * A0.apply_implicit(v))


_TABLE = 2 ** 15   # values in one table of mode rows; blocks of fewer steps on larger grids


def _mode_steps(A0, cfg, steps, h2):
    """The implicit part of each step (see _advance) in the family's eigenbasis,
    where every A(t) = beta + h2(t) L0 is diagonal.  From h2, tabulated at the
    step times, blocks of at most _TABLE values per table give each step its
    rows D_n = 1 + c (beta + h2(t_n + dt_n) lam) and, for crank-nicolson,
    N_n = 1 - c (beta + h2(t_n) lam), c = dt_n / 2 (dt_n for backward-euler,
    whose right-hand side needs no N)."""
    cn = cfg.scheme == "crank-nicolson"
    beta, lam = A0.beta, A0.lam
    into = partial(_eigen, A0)
    rows = max(1, _TABLE // lam.size)
    for lo in range(0, len(steps), rows):
        block = steps[lo:lo + rows]
        c = np.array([dt for _, dt, _ in block])
        if cn:
            c *= 0.5
        D = _eigenvalues(1.0 + c * beta, c * np.array([h2[t + dt] for t, dt, _ in block]), lam)
        low = D.min(axis=1)
        N = _eigenvalues(1.0 - c * beta, -c * np.array([h2[t] for t, _, _ in block]), lam) \
            if cn else None
        for j in range(len(block)):
            yield ((A0, D[j], low[j]), into, A0,
                   None if N is None else (lambda v, n=N[j]: n * into(v)))
        del D, N   # before the next block's tables: at most one block is held


_CHUNK = 512   # steps whose per-time terms are evaluated together


def _lattice(tau, T, dt):
    """(t_n, dt_n, t_{n+1}) of each step from tau to T, t_{n+1} = t_n + dt by
    accumulation.  The last step ends on T: it is shortened to T - t_n,
    unless t_n + dt lands within 1e-9 dt of T, where dt_n stays dt."""
    tol_t = 1e-9 * dt
    t = tau
    while t < T - tol_t:
        t_next = t + dt
        if T - t_next <= tol_t:
            yield t, (dt if abs(T - t_next) <= tol_t else T - t), T
            return
        yield t, dt, t_next
        t = t_next


def run(p, grid, cfg: StepperConfig, tau, T, v0=None, homogeneous=False,
        record=True) -> Trajectory:
    """March the problem from tau to T; ceil((T-tau)/dt) steps, last one short.

    v0 may be an array of one value per cell, a scalar (a constant state),
    or None (evaluates the problem's initial-data expression at the cell
    centers).  The snapshots are arrays, none of them shared with v0.  Each
    state gets a metrics row, from the coefficients of the operator at its
    time; with record=False a run keeps no rows and its final state as the
    only snapshot.  Checks tau <= T, the initial state (once, which is also
    its one copy) and dt against the explicit nonlinearity before the first
    step, each new state for finite values, and that a homogeneous
    backward-Euler run without a cross block never grows in L2.
    """
    tau, T = float(tau), float(T)
    if not tau <= T:
        raise SolverError(f"need tau <= T, got [{tau}, {T}]")
    v = _values(grid, p.initial_values(grid.embed()) if v0 is None else v0)
    if not homogeneous:
        lip = p.lipschitz_sup()
        if cfg.dt * lip > 0.5:
            raise SolverError(
                f"dt too large for the explicit nonlinearity: dt * sup|f_u| = "
                f"{cfg.dt * lip:.3g} > 0.5; shrink dt below {0.5 / lip:.3g}")

    cn = cfg.scheme == "crank-nicolson"
    family = operator_family(p, grid)
    A0 = None if family is None else family[0]
    modes = A0 is not None and A0.lam is not None   # no cross block then
    h2 = None if family is None else _tabulate(family[1], [tau])
    ops = {}

    def get_op(t):
        # made once per time value from the chunk's h2; _operator_steps drops earlier ones
        op = ops.get(t)
        if op is None:
            op = ops[t] = _operator(p, grid, t, h2)
        return op

    times, snapshots, metrics = [], [], []

    def keep(n, t, v, iters):
        if modes:
            scale, a = float(h2[t]), A0.a
        else:
            op = get_op(t)
            scale, a = op.scale, op.a
        metrics.append(StepMetrics(n, t, *_metrics(grid, v, scale, a), iters))
        if n == 0 or t == T or (cfg.snapshot_every and n % cfg.snapshot_every == 0):
            times.append(t)
            snapshots.append(v)

    guard = homogeneous and cfg.scheme == "backward-euler"
    l2 = math.sqrt(_sq(grid, v)) if guard else None
    if record:
        keep(0, tau, v, 0)
    n = 0
    lattice = _lattice(tau, T, cfg.dt)
    while steps := list(islice(lattice, _CHUNK)):
        # each per-time term once over the chunk's times it is taken at: h2 at
        # the step ends (and the midpoints, where crank-nicolson takes the
        # cross block there), the forcing at t_n or the crank-nicolson midpoint;
        # h2 at the chunk's first t_n is kept from the last chunk
        mids = [t + 0.5 * dt for t, dt, _ in steps]
        ends = [s for t, dt, t_next in steps for s in (t + dt, t_next)]
        if family is not None:
            t0 = steps[0][0]
            h2 = {t0: h2[t0], **_tabulate(
                family[1], ends + (mids if cn and A0.cross is not None else []))}
        forcing = None if homogeneous else \
            _forcing(p, grid, mids if cn else [t for t, _, _ in steps])
        parts = (_mode_steps(A0, cfg, steps, h2) if modes
                 else _operator_steps(cfg, steps, ops, get_op))
        for t, dt_step, t_next in steps:
            # the step's rows live only through its call
            v, iters = _advance(p, grid, cfg, t, v, dt_step, next(parts), forcing)
            if not np.isfinite(v).all():
                raise SolverError(f"non-finite state at t = {t_next}; "
                                  "the explicit terms likely outran dt")
            if guard:
                prev, l2 = l2, math.sqrt(_sq(grid, v))
                if (modes or get_op(t_next).cross is None) and \
                        l2 > prev * (1.0 + 10 * cfg.cg_tol) + 1e-300:
                    raise SolverError(f"homogeneous backward-Euler norm grew at t = {t_next}: "
                                      f"{prev} -> {l2}")
            n += 1
            if record:
                keep(n, t_next, v, iters)
    if not record:
        times, snapshots = [T], [v]
    return Trajectory(grid, times, snapshots, metrics)


def final_state(p, grid, cfg: StepperConfig, tau, T, v0=None, homogeneous=False) -> np.ndarray:
    """run(p, grid, cfg, tau, T, v0, homogeneous).final, bit for bit, marched
    without the metrics rows and the snapshots."""
    return run(p, grid, cfg, tau, T, v0, homogeneous, record=False).final


def run_homogeneous(p, grid, cfg: StepperConfig, tau, T, v0=None) -> Trajectory:
    """March v' + A(t)v = 0: drops f, drift and sources, keeps the linear part."""
    return run(p, grid, cfg, tau, T, v0, homogeneous=True)


# ---------------------------------------------------------------------------
# manufactured-solution convergence harness

@dataclass
class MmsReport:
    spatial: list        # (cell count, L2 error vs exact at T)
    spatial_orders: list
    temporal: list       # (dt, L2 error vs fine-dt reference on the last grid)
    temporal_orders: list


def _b(op, a, c):
    return ex.Binary(op, a, c)


def _exact_fn(e, dim):
    fn = ex.compiled(e, ("t",) + tuple(f"y{i + 1}" for i in range(dim)))

    def at(t, pts):
        env, shape = ex.bind(t, pts)
        return np.broadcast_to(fn(env), shape).copy()

    return at


def manufactured_source(p, exact: ex.Expr) -> ex.Expr:
    """Residual of `exact` in the transformed equation, as an expression.

    g = d_t e - sum_j d_j(sum_k a_jk d_k e) + beta e - f(t,e) + sum_k b_k d_k e,
    so that running the problem with source g makes `exact` a solution.
    """
    yv = [f"y{i + 1}" for i in range(p.dim)]
    de = [ex.diff(exact, y) for y in yv]
    g = ex.diff(exact, "t")
    for j in range(p.dim):
        flux = None
        for k in range(p.dim):
            term = _b("mul", p.metric.a[j][k], de[k])
            flux = term if flux is None else _b("add", flux, term)
        g = _b("sub", g, ex.diff(flux, yv[j]))
    g = _b("add", g, _b("mul", ex.Const(p.beta), exact))
    if p.f is not None:
        g = _b("sub", g, ex.substitute(p.f, {"u": exact}))
    for k in range(p.dim):
        g = _b("add", g, _b("mul", p.metric.b[k], de[k]))
    return ex.simplify(g)


def _check_conormal(p, exact, times):
    """Fail fast when `exact` violates n.(M grad v)=0 on the boundary."""
    pts, normals = boundary_points(p.domain, p.dim)
    yv = [f"y{i + 1}" for i in range(p.dim)]
    de_fns = [_exact_fn(ex.diff(exact, y), p.dim) for y in yv]
    worst = 0.0
    scale = 1.0
    for t in times:
        a = p.metric.eval_a(t, pts)
        grads = np.column_stack([fn(t, pts) for fn in de_fns])
        flux = np.einsum("mj,mjk,mk->m", normals, a, grads)
        worst = max(worst, float(np.abs(flux).max()))
        scale = max(scale, float(np.abs(grads).max()))
    if worst > 1e-8 * scale:
        raise SolverError(
            f"manufactured profile violates the conormal boundary condition: "
            f"max |n.(a grad v)| = {worst:.3e} on the boundary")
    return worst


def mms_convergence(p, exact, grids, dts, scheme="backward-euler", tau=0.0,
                    T=0.25, dt_spatial=5e-4, cg_tol=1e-12) -> MmsReport:
    """Observed convergence orders against a manufactured exact solution.

    Spatial ladder: fixed tiny dt (always crank-nicolson, so the temporal
    error stays far below the spatial signal), error vs the exact profile
    at T.  Temporal ladder: the last grid in `grids`, errors vs a fine-dt
    crank-nicolson reference on that same grid, which isolates the time
    discretization from the spatial floor.
    """
    if isinstance(exact, str):
        exact = ex.parse(exact)
    bad = ex.free_vars(exact) - ({"t"} | {f"y{i + 1}" for i in range(p.dim)})
    if bad:
        raise SolverError(f"exact solution may depend on t and y only; uses {sorted(bad)}")
    _check_conormal(p, exact, (tau, 0.5 * (tau + T), T))
    from .problem import TransformedProblem
    pm = TransformedProblem(p.metric, p.beta, p.f,
                            source=manufactured_source(p, exact), initial=None)
    at = _exact_fn(exact, p.dim)

    spatial = []
    for g in grids:
        cfgS = StepperConfig(dt=dt_spatial, scheme="crank-nicolson",
                             cg_tol=cg_tol)
        err = norm_L2(g, final_state(pm, g, cfgS, tau, T, at(tau, g.embed())) - at(T, g.embed()))
        spatial.append((g.m, err))
    # mesh ratio of each rung: its cell-count ratio, per axis
    spatial_orders = _orders([e for _, e in spatial],
                             [(g1.m / g0.m) ** (1 / len(g0.counts))
                              for g0, g1 in zip(grids, grids[1:])])

    tg = grids[-1]
    v0 = at(tau, tg.embed())
    span = T - tau
    # Snap each dt so it divides the horizon evenly: a leftover partial
    # step shrinks the final-step error and skews the observed order.
    eff = [span / max(1, round(span / dt)) for dt in dts]
    ref_cfg = StepperConfig(dt=min(eff) / 20.0, scheme="crank-nicolson",
                            cg_tol=cg_tol)
    ref = final_state(pm, tg, ref_cfg, tau, T, v0)
    temporal = []
    for dt in eff:
        cfgT = StepperConfig(dt=dt, scheme=scheme, cg_tol=cg_tol)
        err = norm_L2(tg, final_state(pm, tg, cfgT, tau, T, v0) - ref)
        temporal.append((dt, err))
    ratios = [eff[i] / eff[i + 1] for i in range(len(eff) - 1)]
    temporal_orders = _orders([e for _, e in temporal], ratios)
    return MmsReport(spatial, spatial_orders, temporal, temporal_orders)


def _orders(errors, ratios):
    out = []
    for e0, e1, r in zip(errors, errors[1:], ratios):
        if min(e0, e1) <= 1e-14:
            out.append(math.nan)
        else:
            out.append(math.log(e0 / e1) / math.log(r))
    return out

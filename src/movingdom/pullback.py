"""Pullback-dynamics experiments on the fixed-domain problem.

Everything here drives the solver backwards in starting time rather than
forwards in model time: decay rates of the homogeneous process, the
operator-drift norm ||(A(t) - A(tau)) A(r)^-1||, pullback convergence along
the geometric ladder tau_k = t* - 2^k, empirical absorbing radii in H1, and
the exact-cocycle consistency check.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .grid import _sq, _values, norm_H1, norm_L2
from .problem import check_H2, check_H3
from .solver import (_eigen, _eigenvalues, _lattice, _require_positive, _solve, operator_at,
                     operator_family, run, run_homogeneous)

log = logging.getLogger("movingdom.pullback")

NORM_FLOOR = 1e-14


class PullbackError(Exception):
    pass


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fits ||U(t,tau)v|| ~ K_i e^{-b_i (t-tau)} ||v||, one per seed.

    K is the largest fitted intercept ratio K_i and b the smallest rate b_i.
    K is not an envelope constant: it may be below 1 (0.228 on the default
    sin_t config), where K e^{-b (t-tau)} ||v|| is below ||v|| at t = tau.
    """
    K: float
    b: float
    skipped: int
    per_seed: tuple  # (K_i, b_i) per usable seed


@dataclass(frozen=True)
class GapReport:
    taus: tuple      # tau_k = t* - 2^k, k = 0..k_max
    gaps: tuple      # delta_k = ||v(t*, tau_k) - v(t*, tau_{k+1})||_L2
    cauchy: bool     # gaps decreasing beyond k >= 2
    truncated: bool  # resource guard shortened the ladder
    finals: tuple    # terminal state per tau_k, an array of one value per cell

    def __post_init__(self):
        if not all(math.isfinite(g) for g in self.gaps):
            raise PullbackError("non-finite pullback gap")


def decay_fit(p, grid, cfg, tau, horizon, seeds) -> DecayFit:
    """Fit log ||U(t,tau)v||_L2 over (t-tau) in [0, horizon] for each seed.

    Returns the largest fitted K and the smallest fitted b across seeds
    (the worst-case envelope).  Seeds below the norm floor are skipped;
    the fit for a seed is truncated at the first step whose norm
    underflows the floor.
    """
    if horizon < 10.0 / p.beta:
        raise PullbackError(
            f"horizon {horizon} too short for a decay fit; need >= 10/beta = "
            f"{10.0 / p.beta}")
    starts = [_values(grid, s) for s in seeds]
    usable = [v for v in starts if norm_L2(grid, v) > NORM_FLOOR]
    if not usable:
        raise PullbackError("decay_fit needs at least one seed above the norm floor")

    def fit_one(v0):
        traj = run_homogeneous(p, grid, cfg, tau, tau + horizon, v0)
        n0 = traj.metrics[0].L2
        ts, logn = [], []
        for m in traj.metrics:
            if m.L2 <= NORM_FLOOR:
                break
            ts.append(m.t - tau)
            logn.append(math.log(m.L2))
        slope, intercept = np.polyfit(ts, logn, 1)
        return math.exp(intercept) / n0, -slope

    per_seed = tuple(fit_one(v0) for v0 in usable)
    return DecayFit(K=max(k for k, _ in per_seed),
                    b=min(b for _, b in per_seed),
                    skipped=len(starts) - len(usable), per_seed=per_seed)


def drift_norm(p, grid, times) -> float:
    """Spectral-norm estimate of (A_h(t) - A_h(tau)) A_h(r)^-1.

    Power iteration (tol 1e-8, at most 200 steps) on the normal operator in
    the vol-weighted inner product, on the operator family (GridH1Error
    without one).  Where the family has eigenpairs, the map is the diagonal
    (h2(t) - h2(tau)) lam / (beta + h2(r) lam) in its eigenbasis, h2 at the
    three times from one call of the family's h2, and the iteration runs
    there on the transformed start, a mode at most 1e-12 of its largest
    coefficient given the largest.  Otherwise (PullbackError on a cross
    block) the operators from `operator_at`, each its implicit part, are
    applied and A_h(r) is inverted by conjugate gradients (tol 1e-12).
    Where the start misses no mode (radial grids) both are the same
    iteration, so they stop at the same estimate.  It is a
    Rayleigh quotient, so it never exceeds the true norm; operators with
    clustered top singular values may stop at the iteration cap instead of
    the tolerance, which is logged, and the stop test is scale-invariant, so
    ratios of estimates across times stay exact even then.
    """
    t, tau, r = times
    if t == tau:
        return 0.0
    # start from the highest-frequency sign pattern: the drift operator
    # annihilates constants, so a flat start would report 0
    x = np.where(np.arange(grid.m) % 2 == 0, 1.0, -1.0)
    A0, h2 = operator_family(p, grid)
    if A0.lam is not None:
        h = h2(np.array(times))   # h2 at (t, tau, r)
        denom = _eigenvalues(p.beta, h[2], A0.lam)
        _require_positive(denom.min())
        d = (h[0] - h[1]) * A0.lam / denom   # B = B*, diagonal in the eigenbasis
        y = _eigen(A0, x)   # on a box it misses modes: each starts at the largest weight
        top = np.abs(y).max()
        y[np.abs(y) <= 1e-12 * top] = top
        est, done = _power(y, d.__mul__, d.__mul__, lambda z: math.sqrt(z.dot(z)))
    elif A0.cross is not None:
        raise PullbackError("drift_norm requires diagonal diffusion "
                            "(no explicit cross-derivative block)")
    else:
        est, done = _power(x, *_operator_maps(grid, *(operator_at(p, grid, s) for s in times)))
    if not done:
        log.warning("drift_norm power iteration stagnated at %.6e "
                    "(t=%s, tau=%s, r=%s)", est, t, tau, r)
    return est


def _operator_maps(grid, op_t, op_tau, op_r):
    """(B, B*, norm) of drift_norm's iteration on the grid: the operators
    applied and A(r) solved, in the norm of `inner`."""
    def drift(w):
        return op_t.apply_implicit(w) - op_tau.apply_implicit(w)

    def inverse(x):
        return _solve(op_r, x, tol=1e-12)[0]

    def norm(v):   # on arrays the iteration made itself
        return math.sqrt(_sq(grid, v))

    return lambda x: drift(inverse(x)), lambda bx: inverse(drift(bx)), norm


def _power(x, apply, adjoint, norm):
    """(estimate, converged) of the power iteration on B*B from x, with B =
    apply and B* = adjoint: stops when the estimate |B x| moves by at most
    1e-8 of itself, at 0 when B x or B*B x is 0, and unconverged after 200
    steps."""
    x = x / norm(x)
    est = 0.0
    for it in range(200):
        bx = apply(x)
        nbx = norm(bx)
        if nbx == 0.0:
            return 0.0, True
        prev, est = est, nbx
        if it > 0 and abs(est - prev) <= 1e-8 * est:
            return est, True
        y = adjoint(bx)
        ny = norm(y)
        if ny == 0.0:
            return est, True
        x = y / ny
    return est, False


def _require_nonlinearity_bounds(p):
    if p.f is None:
        return
    h2 = check_H2(p.f, n=p.dim)
    if not h2.passed:
        raise PullbackError(
            f"nonlinearity fails the derivative growth bound: tail slope "
            f"{h2.tail_slope:.3f} exceeds cap {h2.cap:.3f}")
    h3 = check_H3(p.f)
    if not h3.passed:
        raise PullbackError(
            f"nonlinearity fails the linear-growth sign bound: tail slope "
            f"{h3.tail_slope:.3f}")


def ladder_steps(k, dt):
    """Steps of one run over 2^k time units, ceil(2^k / dt), as a float: inf
    beyond the float range, where 2.0 ** k itself would overflow."""
    return float(np.ceil(2.0 ** k / dt)) if k < 1024 else math.inf


def pullback_converge(p, grid, cfg, t_star, u0, k_max,
                      max_total_steps=5_000_000) -> GapReport:
    """Gap sequence along the pullback ladder tau_k = t* - 2^k.

    Runs S(t*, tau_k)u0 for k = 0..k_max and reports
    delta_k = ||v(t*, tau_k; u0) - v(t*, tau_{k+1}; u0)||_L2 together with
    a Cauchy flag (gaps decreasing beyond k >= 2).  The total step count
    is capped; a ladder shortened by the cap is flagged as truncated.
    """
    if k_max < 1:
        raise PullbackError("k_max must be at least 1")
    _require_nonlinearity_bounds(p)
    ks, total = [], 0.0
    for k in range(k_max + 1):
        total += ladder_steps(k, cfg.dt)
        if total > max_total_steps:
            break
        ks.append(k)
    truncated = len(ks) <= k_max
    if len(ks) < 2:
        raise PullbackError(
            f"step cap {max_total_steps} leaves fewer than two ladder runs")
    if truncated:
        log.warning("pullback ladder truncated to k_max=%d by the step cap",
                    ks[-1])
    taus = tuple(t_star - 2.0 ** k for k in ks)

    finals = tuple(run(p, grid, cfg, tau, t_star, u0, record=False).final for tau in taus)
    gaps = tuple(norm_L2(grid, a - b)
                 for a, b in zip(finals, finals[1:]))
    tail = gaps[2:]
    cauchy = all(b <= a for a, b in zip(tail, tail[1:]))
    return GapReport(taus=taus, gaps=gaps, cauchy=cauchy,
                     truncated=truncated, finals=finals)


def absorbing_radius(p, grid, cfg, t_star, seeds, radii, k_max=5) -> float:
    """Empirical absorbing radius in H1 at time t*.

    Every seed is rescaled to each H1 radius in `radii`, pulled back from
    tau_{k_max} = t* - 2^k_max, and the largest terminal H1 norm is
    returned.
    """
    _require_nonlinearity_bounds(p)
    tau = t_star - 2.0 ** k_max
    starts = []
    for s in seeds:
        v = _values(grid, s)
        h1 = norm_H1(grid, v)
        if h1 > NORM_FLOOR:
            starts.extend(v * (r / h1) for r in radii)
    if not starts:
        raise PullbackError("absorbing_radius needs a seed above the norm floor")

    return max(norm_H1(grid, run(p, grid, cfg, tau, t_star, v0, record=False).final)
               for v0 in starts)


def cocycle_check(p, grid, cfg, tau, s, t, u0) -> float:
    """||S(t,s)S(s,tau)u0 - S(t,tau)u0||_L2.

    When s sits on the step lattice from tau it is snapped to the exact
    accumulated float so the two routes take bitwise-identical steps; the
    residual is then exactly 0.  Off-lattice s is accepted and the
    (one-step-consistency sized) residual reported as is.
    """
    if not tau <= s <= t:
        raise PullbackError("need tau <= s <= t")
    s_eff = next((r for r, _, _ in _lattice(tau, t, cfg.dt) if abs(r - s) <= 1e-9 * cfg.dt), s)
    leg1 = run(p, grid, cfg, tau, s_eff, u0, record=False)
    leg2 = run(p, grid, cfg, s_eff, t, leg1.final, record=False)
    full = run(p, grid, cfg, tau, t, u0, record=False)
    return norm_L2(grid, leg2.final - full.final)


def factorization_probe(p, grid, cfg, tau, t, u0) -> float:
    """H1 size of the remainder L(t,tau)u0 = S(t,tau)u0 - U(t,tau)u0.

    U is the homogeneous process (no forcing, no drift); the remainder
    carries everything the nonautonomous forcing contributes.  Only its
    boundedness is observable numerically, and that is what is returned.
    """
    full = run(p, grid, cfg, tau, t, u0, record=False).final
    hom = run(p, grid, cfg, tau, t, u0, homogeneous=True, record=False).final
    return norm_H1(grid, full - hom)

"""Second-moment pipeline: overlap saddles, condition checks, delta bounds.

The squared-count average is a sum over the overlap fraction alpha of terms
F * C, where F is an entropy/factorial factor and C a trivariate coefficient
of the pair generating function.  This module solves the reduced overlap
saddle system (t3 = t1 by symmetry), evaluates the per-overlap exponent

    E(alpha) = (l-1) T(alpha) + (l/r) ln phi(t) - l (2(w-a) ln t1 + a ln t2),
    T(alpha) = a ln a + 2(w-a) ln(w-a) + (1-2w+a) ln(1-2w+a),

locates its local maxima, checks the two dominance conditions that make
alpha = w^2 the global maximum, and assembles the variance ratio delta and
the Chebyshev concentration bound 1 - delta/eps^2.

Functions at one abscissa w take the growth point there and nothing it
carries: the point names its ensemble, kind and w, and its univariate saddle
x* anchors the overlap saddle (x*, x*^2, x*) at alpha = w^2.  The caller
solves it once (:func:`firstmoment.growth_point`) and passes it down.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DomainError,
    ExponentMismatchError,
    NoBracketError,
    NoConvergenceError,
    NonpositiveGFError,
    OffLatticeError,
    SingularMatrixError,
    VarianceDegenerateError,
)
from .firstmoment import GrowthPoint, bisect_root, grow_bracket
from .genfun import (
    KIND_WEIGHT,
    EnsembleParams,
    pair_ratios,
    pair_stats,
    pair_vgh,
)

_NEWTON_TOL = 1e-13
_ACCEPT_TOL = 1e-11  # well inside the 1e-10 contract
_DET_FLOOR = 1e-14
_GRID_POINTS = 2000
_COARSE_STRIDE = 32  # grid spacing of the scalar warm-start chain
_GRID_MARGIN = 1e-4
_ENDPOINT_STEPS = (1e-3, 1e-4)


@dataclass(frozen=True)
class StationaryPoint:
    """A local maximum of the exponent curve: a root of psi = dE/dalpha
    where psi falls from + to -."""

    alpha: float
    exponent: float


@dataclass(frozen=True)
class ConditionReport:
    """Verdicts of the two dominance conditions plus scan diagnostics.

    ``stationary_points`` lists the local maxima of the exponent curve, one
    per grid interval where psi = dE/dalpha falls, in order of alpha.
    ``delta``/``bound`` are None unless :func:`delta` filled them, which it
    does only when both conditions hold: the numbers would not be justified
    otherwise.
    """

    condition1_ok: bool
    condition2_ok: bool
    stationary_points: list
    peak_exponent: float
    endpoint_exponent: float
    warnings: list = field(default_factory=list)
    delta: float | None = None
    bound: float | None = None


def exponent_curve(point: GrowthPoint, alpha: float) -> float:
    """Exponential rate of the overlap-alpha term of the squared count at
    the abscissa omega of ``point``."""
    lo, hi = _overlap_range(point)
    if not lo < alpha < hi:
        raise ValueError(f"alpha must lie in ({lo}, {hi}), got {alpha}")
    t1, t2, val, _ = _inner_solve(point, alpha)
    return float(_exponent(point, alpha, t1, t2, val))


def endpoint_exponent(point: GrowthPoint) -> float:
    """Overlap exponent at the boundary alpha = max(0, 2*omega - 1), omega
    the abscissa of ``point``.

    For omega < 1/2 the boundary has no shared coordinates and the exponent
    comes from the reduced saddle of the overlap-free slice phi(x, 0, x),
    which the x1 = x3 symmetry makes univariate.  Otherwise (or when that
    saddle diverges) the interior curve is extrapolated one-sidedly with
    steps 1e-3 and 1e-4, seeded from the point's saddle x*.
    """
    if point.abscissa < 0.5:
        try:
            return _endpoint_reduced_saddle(point)
        except NoBracketError:
            pass
    return _endpoint_extrapolated(point)


def verify_conditions(point: GrowthPoint) -> ConditionReport:
    """Scan the overlap range and check the two dominance conditions.

    psi = dE/dalpha, so a grid interval where psi falls from + to - holds a
    local maximum of the exponent curve and one where it rises holds a
    minimum; only the falling ones are solved and listed.
    Condition 1: alpha = omega^2 is the unique global maximum of the
    exponent curve: psi falls through it, every other local maximum lies
    strictly below it, and no grid or edge-probe value exceeds it.  (For
    stopping sets a subdominant local maximum always exists in a thin layer
    of near-identical pairs; it only invalidates the method when it reaches
    the omega^2 level, which happens near the typical minimum size.)
    Condition 2: the exponent at omega^2 strictly exceeds the boundary
    exponent.  Failures are verdicts, not errors.  Negative curvature at
    omega^2 is checked by :func:`delta_value`, which raises
    VarianceDegenerateError where it fails.

    omega is the abscissa of ``point``, whose univariate saddle x* is shared
    by every overlap solve.  psi(omega^2) = 0 holds exactly, so a falling
    grid interval holding omega^2 is that root: its stationary point comes
    from the one omega^2 solve that gives the peak, and only the other
    falling intervals are bisected.
    """
    omega = point.abscissa
    if point.growth <= 0.0:
        raise DomainError(
            f"positive growth rate required (Markov regime at {omega})")
    alpha_sq = omega * omega
    t1, t2, val, _ = _inner_solve(point, alpha_sq)
    peak = float(_exponent(point, alpha_sq, t1, t2, val))
    _anchor_check(point, peak)

    lo_edge, margin = _grid_window(point)
    alphas, t1s, t2s, vals = _scan_grid(point)
    psis = _psi(point, alphas, t1s, t2s)
    exps = _exponent(point, alphas, t1s, t2s, vals)

    def grid_saddle(idx):  # warm start from the scan, as floats
        return float(t1s[idx]), float(t2s[idx])

    stationary = []
    # psi falls through zero: a local maximum (a rise is a minimum, unread)
    for idx in np.flatnonzero((psis[:-1] > 0.0) & (psis[1:] <= 0.0)):
        alpha, hi = float(alphas[idx]), float(alphas[idx + 1])
        if alpha <= alpha_sq <= hi:
            stationary.append(StationaryPoint(alpha=alpha_sq, exponent=peak))
        else:
            root, warm_root = _bisect_psi(point, alpha, hi, grid_saddle(idx))
            stationary.append(_stationary_point(point, root, warm_root))

    endpoint = endpoint_exponent(point)
    warnings = []

    # probe inside the grid margins: boundary layers of near-identical (and
    # near-disjoint) pairs can spike within 1e-4 of the edges; continue the
    # warm-start chains from the outermost grid solutions
    edge_max = -math.inf
    for edge_alpha, warm in ((lo_edge, grid_saddle(0)),
                             (omega, grid_saddle(-1))):
        for shrink in (3.0, 10.0, 30.0, 100.0):
            alpha = edge_alpha + math.copysign(margin / shrink,
                                               alpha_sq - edge_alpha)
            try:
                t1, t2, val, _ = _inner_solve(point, alpha, warm)
            except NoConvergenceError:
                warnings.append(f"edge probe failed at alpha = {alpha:.6g}")
                continue
            warm = (t1, t2)
            edge_max = max(edge_max,
                           float(_exponent(point, alpha, t1, t2, val)))

    at_square = [p for p in stationary if abs(p.alpha - alpha_sq) < 1e-6]
    others = [p for p in stationary if abs(p.alpha - alpha_sq) >= 1e-6]
    slack = 1e-9 * max(1.0, abs(peak))
    cond1 = (len(at_square) == 1
             and all(p.exponent < peak - slack for p in others)
             and peak >= max(float(exps.max()), edge_max) - slack)
    cond2 = peak > endpoint
    return ConditionReport(condition1_ok=cond1, condition2_ok=cond2,
                           stationary_points=stationary, peak_exponent=peak,
                           endpoint_exponent=endpoint, warnings=warnings)


def delta(point: GrowthPoint, epsilon: float = 0.95) -> ConditionReport:
    """Asymptotic variance ratio delta and the bound 1 - delta/epsilon^2.

    delta = b(x*) sqrt(r) w(1-w) sigma_c / sqrt(|B|(w^2(1-w)^2-(l-1)sigma_c^2)) - 1

    evaluated at the overlap saddle t = (x*, x*^2, x*) that the alpha = w^2
    stationary point provably reduces to, w and x* from ``point``.  Returns
    the :func:`verify_conditions` report of ``point``, with ``delta`` and
    ``bound`` filled in only when both dominance conditions hold.  epsilon^2
    must be a normal float, so that the bound is finite wherever delta is.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    if epsilon ** 2 < sys.float_info.min:
        raise ValueError(f"epsilon = {epsilon} has a subnormal or zero square")
    report = verify_conditions(point)
    if not (report.condition1_ok and report.condition2_ok):
        return report
    d = delta_value(point)
    return replace(report, delta=d, bound=1.0 - d / epsilon ** 2)


def delta34_closed_form(omega: float) -> float:
    """Printed closed form of delta for the (3,4) ensemble.

    With O = sqrt(9 - 32 w + 32 w^2) the variance ratio is
    8 w (1-w) (3-O) / sqrt((-21 + 80 w(1-w) + 9 O) *
    (81 - 27 O + 16 w(1-w)(8w - 8w^2 - 18 + 3 O))) - 1.
    """
    w = omega
    if not 0.0 < w < 1.0:
        raise DomainError(f"omega {w} outside (0, 1)")
    Om = math.sqrt(9.0 - 32.0 * w + 32.0 * w * w)
    ww = w * (1.0 - w)
    radicand = ((-21.0 + 80.0 * ww + 9.0 * Om)
                * (81.0 - 27.0 * Om + 16.0 * ww * (8.0 * w - 8.0 * w * w - 18.0 + 3.0 * Om)))
    if radicand <= 0.0:
        raise DomainError(
            f"closed form undefined at omega = {w} (radicand {radicand:g})")
    d = 8.0 * ww * (3.0 - Om) / math.sqrt(radicand) - 1.0
    return _snap_nonnegative(d)


def local_limit_ratio(point: GrowthPoint, n: int, base_alpha: float,
                      offset) -> float:
    """Predicted ratio of two nearby trivariate coefficients of phi^(n*l/r).

    With W = n*omega (omega the abscissa of ``point``), base index
    i = (l(W-i0), l*i0, l(W-i0)), saddle t at i and u = sqrt(r/(n*l)) * offset,
    the local limit theorem gives

        Coeff(i + offset) / Coeff(i) = t^(-offset) * exp(-u B^(-1) u^T / 2).

    Offsets must be integral and keep the index on the support lattice (for
    the codeword pair function: all components changing parity together).
    """
    l, r = point.params.left_degree, point.params.right_degree
    omega = point.abscissa
    W = _as_int(n * omega, "n*omega")
    i0 = _as_int(n * base_alpha, "n*base_alpha")
    if not max(0, 2 * W - n) < i0 < W:
        raise ValueError(f"base overlap {i0} not interior for n={n}, W={W}")
    base = (l * (W - i0), l * i0, l * (W - i0))
    off = tuple(_as_int(v, "offset") for v in offset)
    if len(off) != 3:
        raise ValueError("offset must have 3 components")
    target = tuple(base[k] + off[k] for k in range(3))
    if min(target) < 0:
        raise ValueError(f"offset {off} leaves the nonnegative orthant")
    _check_lattice(point.kind, base, off)
    t1, t2, _, B = _inner_solve(point, i0 / n)
    u = [math.sqrt(r / (n * l)) * v for v in off]
    quad = _quadform_inv(B, u)
    t = (t1, t2, t1)
    log_ratio = -sum(off[k] * math.log(t[k]) for k in range(3)) - 0.5 * quad
    return math.exp(log_ratio)


def delta_value(point: GrowthPoint) -> float:
    """Bare variance ratio at the omega^2 saddle, without condition scans.

    This is the number :func:`delta` reports when both dominance conditions
    hold; exposed separately for closed-form cross-checks.  Every input,
    x* and its variance b included, is read from ``point``.
    """
    l, r = point.params.left_degree, point.params.right_degree
    omega, x, b = point.abscissa, point.saddle_x, point.curvature_b
    B = pair_stats(point.params, point.kind, x, x * x, x)[2]
    det = _det3(B)
    if abs(det) < _DET_FLOOR:
        raise SingularMatrixError(f"|B| = {det:g} at the omega^2 saddle")
    sc2 = _sigma_c2(point.params, B)
    core = omega ** 2 * (1.0 - omega) ** 2 - (l - 1) * sc2
    if core <= 0.0:
        raise VarianceDegenerateError(
            f"w^2(1-w)^2 - (l-1) sigma_c^2 = {core:g} <= 0 at omega = {omega}")
    d = (b * math.sqrt(r) * omega * (1.0 - omega) * math.sqrt(sc2)
         / math.sqrt(det * core) - 1.0)
    return _snap_nonnegative(d)


# ---------------------------------------------------------------------------
# internals

def _overlap_range(point: GrowthPoint):
    """Ends (lo, hi) of the open overlap range (max(0, 2w-1), w) at the
    abscissa w of ``point``."""
    omega = point.abscissa
    return max(0.0, 2.0 * omega - 1.0), omega


def _inner_solve(point: GrowthPoint, alpha: float, seed=None):
    """Damped Newton for the reduced system a1/r = omega - alpha, a2/r = alpha.

    Starts from the warm seed or, without one, from the omega^2 anchor
    (x*, x*^2), x* the point's univariate saddle.  If that start fails, the
    one fallback is a geometric continuation from the anchor toward the
    target (the solution scale blows up like one over the distance to the
    overlap-range corners, so single far jumps can stall).  Returns
    (t1, t2, val, B) of the accepted point."""
    if seed is None:
        seed = (point.saddle_x, point.saddle_x * point.saddle_x)
    result = _newton_from(point, alpha, seed[0], seed[1])
    if result is not None and result[0] < _ACCEPT_TOL:
        return result[1:]
    result = _continuation_solve(point, alpha)
    if result is not None and result[0] < _ACCEPT_TOL:
        return result[1:]
    raise NoConvergenceError(
        f"overlap solve failed at omega={point.abscissa}, alpha={alpha}"
        + (f" (continuation residual {result[0]:g})" if result else ""))


def _continuation_solve(point, alpha):
    """Walk alpha from the omega^2 anchor to the target, halving the distance
    to the nearer corner of (max(0, 2w-1), w) at each step."""
    lo_edge, omega = _overlap_range(point)
    x_star = point.saddle_x
    anchor = omega * omega
    edge = lo_edge if alpha < anchor else omega
    gap_anchor = abs(anchor - edge)
    gap_target = abs(alpha - edge)
    if gap_target <= 0.0 or gap_target >= gap_anchor:
        return None
    steps = max(1, math.ceil(math.log2(gap_anchor / gap_target)))
    t1, t2 = x_star, x_star * x_star
    result = None
    for k in range(1, steps + 1):
        gap = gap_anchor * (gap_target / gap_anchor) ** (k / steps)
        a_k = edge + math.copysign(gap, anchor - edge)
        if k == steps:
            a_k = alpha  # land exactly on the target
        result = _newton_from(point, a_k, t1, t2)
        if result is None or not result[0] < _ACCEPT_TOL:
            return result
        t1, t2 = result[1], result[2]
    return result


def _newton_from(point, alpha, t1, t2):
    """Damped Newton in log coordinates: steps are multiplicative, which
    keeps t positive and stays well-conditioned in the near-corner regime
    where the solution components are large.

    Returns (residual, t1, t2, val, B) of the last accepted point, or None
    if the start point or a Newton system is unusable."""
    r = point.params.right_degree
    c1, c2 = point.abscissa - alpha, alpha
    try:
        val, a, B = pair_stats(point.params, point.kind, t1, t2, t1)
    except NonpositiveGFError:
        return None
    res = max(abs(a[0] / r - c1), abs(a[1] / r - c2))
    for _ in range(120):
        if res < _NEWTON_TOL:
            break
        j11, j12, j21, j22 = _jacobian(B, r)
        det = j11 * j22 - j12 * j21
        if det == 0.0 or not math.isfinite(det):
            return None
        r1 = a[0] / r - c1
        r2 = a[1] / r - c2
        d1 = -(j22 * r1 - j12 * r2) / det
        d2 = -(-j21 * r1 + j11 * r2) / det
        big = max(abs(d1), abs(d2))
        if big > 20.0:  # cap the log step; exp() must stay finite
            d1, d2 = d1 * 20.0 / big, d2 * 20.0 / big
        lam = 1.0
        accepted = False
        while lam > 1e-10:
            n1, n2 = t1 * math.exp(lam * d1), t2 * math.exp(lam * d2)
            if 0.0 < n1 < math.inf and 0.0 < n2 < math.inf:
                try:
                    valn, an, Bn = pair_stats(point.params, point.kind,
                                              n1, n2, n1)
                except NonpositiveGFError:
                    valn = None
                if valn is not None and math.isfinite(valn):
                    resn = max(abs(an[0] / r - c1), abs(an[1] / r - c2))
                    if resn < res:
                        t1, t2, val, a, B, res = n1, n2, valn, an, Bn, resn
                        accepted = True
                        break
            lam *= 0.5
        if not accepted:
            break
    return res, t1, t2, val, B


def _jacobian(B, r):
    """Jacobian (j11, j12, j21, j22) of (a1/r, a2/r) w.r.t. (ln t1, ln t2),
    using t3 = t1, from B at the point (floats or arrays)."""
    return ((B[0][0] + B[0][2]) / r, B[0][1] / r,
            (B[1][0] + B[1][2]) / r, B[1][1] / r)


def _grid_window(point: GrowthPoint):
    """Lower end of the overlap range and the margin the scan grid keeps
    from both ends."""
    lo_edge, omega = _overlap_range(point)
    return lo_edge, min(_GRID_MARGIN, 0.01 * (omega - lo_edge))


def _scan_grid(point):
    """Overlap saddles on the scan grid: (alphas, t1, t2, val) as arrays.

    A scalar warm-start chain marches outward from omega^2 over every
    _COARSE_STRIDE-th grid point and both ends (cold starts stall in the
    near-corner saturation).  Every other point lies between two chain
    points and starts from :func:`_hermite_seeds`, a cubic through their
    solutions and path tangents; one batched damped Newton solves them all.
    A point it leaves above _ACCEPT_TOL goes through :func:`_inner_solve`,
    warm-started from its grid neighbour on the omega^2 side, so it ends in
    the same continuation as any failed solve.
    """
    omega, x_star = point.abscissa, point.saddle_x
    lo_edge, margin = _grid_window(point)
    alphas = np.linspace(lo_edge + margin, omega - margin, _GRID_POINTS)
    t1, t2, val = (np.empty(_GRID_POINTS) for _ in range(3))
    start = int(np.argmin(np.abs(alphas - omega * omega)))

    def solve(idx, warm):
        t1[idx], t2[idx], val[idx], B = _inner_solve(
            point, float(alphas[idx]), warm)
        return (float(t1[idx]), float(t2[idx])), B

    on_chain = np.zeros(_GRID_POINTS, dtype=bool)
    on_chain[start % _COARSE_STRIDE::_COARSE_STRIDE] = True
    on_chain[[0, -1]] = True
    coarse, rest = np.flatnonzero(on_chain), np.flatnonzero(~on_chain)
    jac = np.empty((4, coarse.size))  # Jacobian terms at the chain points
    split = int(np.searchsorted(coarse, start))  # coarse[split] == start
    for chain in (range(split, -1, -1), range(split + 1, coarse.size)):
        warm = (x_star, x_star ** 2)
        for pos in chain:
            warm, B = solve(coarse[pos], warm)
            jac[:, pos] = _jacobian(B, point.params.right_degree)

    res, t1[rest], t2[rest], val[rest] = _newton_batch(
        point, alphas[rest],
        *_hermite_seeds(alphas, coarse, rest, t1, t2, jac))

    failed = rest[~(res < _ACCEPT_TOL)]
    for idx in np.concatenate((failed[failed < start][::-1],
                               failed[failed > start])):
        nb = idx + 1 if idx < start else idx - 1
        solve(idx, (float(t1[nb]), float(t2[nb])))
    return alphas, t1, t2, val


def _hermite_seeds(alphas, coarse, rest, t1, t2, jac):
    """Batch seeds (t1, t2) at the grid points ``rest`` from the solutions at
    the chain points ``coarse``.

    Each seed is the cubic Hermite interpolant of ln t between the two chain
    points around it, through their values and the path tangents
    d(ln t)/d alpha = J^(-1) (-1, 1) (the reduced equations read
    a1/r = omega - alpha, a2/r = alpha; J from ``jac``).  One basis serves
    both components.  A singular J gives a non-finite seed, which the batch
    leaves to the scalar fallback.
    """
    with np.errstate(all="ignore"):
        j11, j12, j21, j22 = jac
        det = j11 * j22 - j12 * j21
        slopes = (-(j22 + j12) / det, (j11 + j21) / det)
        # coarse[after - 1] < rest < coarse[after]
        after = np.searchsorted(coarse, rest)
        lo = alphas[coarse[after - 1]]
        h = alphas[coarse[after]] - lo
        s = (alphas[rest] - lo) / h
        w1 = s * s * (3.0 - 2.0 * s)  # weight of the upper value
        m0 = s * (1.0 - s) ** 2 * h  # weights of the two tangents
        m1 = s * s * (s - 1.0) * h
        seeds = []
        for t, slope in zip((t1, t2), slopes):
            ln_t = np.log(t[coarse])
            ln0 = ln_t[after - 1]
            seeds.append(np.exp(ln0 + w1 * (ln_t[after] - ln0)
                                + m0 * slope[after - 1] + m1 * slope[after]))
    return seeds


def _newton_batch(point, alphas, t1, t2):
    """:func:`_newton_from` over arrays: one independent damped Newton per
    alpha, with the same 20 log-step cap, halving line search down to
    lambda = 1e-10 (strict residual drop only) and 120-iteration cap.

    Returns arrays (residual, t1, t2, val).  The residual is inf wherever
    the scalar solver would give up (unusable start point, singular Newton
    system) and wherever an evaluation overflowed, which the scalar kernel
    raises on; such points need the scalar path.
    """
    r = point.params.right_degree
    c1, c2 = point.abscissa - alphas, alphas

    def evaluate(idx, n1, n2):
        # -> val, (r1, r2, j11, j12, j21, j22) stacked, usable, overflowed
        v, grad, hess = pair_vgh(point.params, point.kind, n1, n2, n1)
        finite = np.isfinite(v)
        for h in (*grad, *{id(h): h for row in hess for h in row}.values()):
            finite &= np.isfinite(h)  # each shared Hessian entry once
        a, B = pair_ratios((n1, n2, n1), v, grad, hess)
        terms = np.empty((6, v.size))  # filled row by row: no stacked copy
        terms[0], terms[1] = a[0] / r - c1[idx], a[1] / r - c2[idx]
        terms[2], terms[3], terms[4], terms[5] = _jacobian(B, r)
        usable = finite & (v > 0.0) & np.isfinite(terms).all(axis=0)
        return v, terms, usable, ~finite

    def newton_step(rows):
        # -> singular, capped d1, d2; its temporaries die before the line search
        r1, r2, j11, j12, j21, j22 = rows
        det = j11 * j22 - j12 * j21
        d1 = -(j22 * r1 - j12 * r2) / det
        d2 = -(-j21 * r1 + j11 * r2) / det
        big = np.maximum(np.abs(d1), np.abs(d2))
        return ((det == 0.0) | ~np.isfinite(det),
                np.where(big > 20.0, d1 * 20.0 / big, d1),
                np.where(big > 20.0, d2 * 20.0 / big, d2))

    t1, t2 = t1.copy(), t2.copy()
    with np.errstate(all="ignore"):
        val, terms, live, _ = evaluate(np.arange(alphas.size), t1, t2)
        res = np.where(live, np.maximum(np.abs(terms[0]), np.abs(terms[1])),
                       np.inf)
        for _ in range(120):
            live &= res >= _NEWTON_TOL
            idx = np.flatnonzero(live)
            if idx.size == 0:
                break
            singular, d1, d2 = newton_step(terms[:, idx])
            res[idx[singular]] = np.inf
            live[idx[singular]] = False
            searching = ~singular  # over idx: no step accepted yet
            lam = 1.0
            while lam > 1e-10 and searching.any():
                pos = np.flatnonzero(searching)
                n1 = t1[idx[pos]] * np.exp(lam * d1[pos])
                n2 = t2[idx[pos]] * np.exp(lam * d2[pos])
                inside = (0.0 < n1) & (n1 < np.inf) & (0.0 < n2) & (n2 < np.inf)
                pos, n1, n2 = pos[inside], n1[inside], n2[inside]
                p = idx[pos]
                valn, termsn, usable, overflowed = evaluate(p, n1, n2)
                resn = np.maximum(np.abs(termsn[0]), np.abs(termsn[1]))
                acc = usable & (resn < res[p])
                hit = p[acc]
                t1[hit], t2[hit], val[hit] = n1[acc], n2[acc], valn[acc]
                terms[:, hit], res[hit] = termsn[:, acc], resn[acc]
                res[p[overflowed]] = np.inf
                live[p[overflowed]] = False
                searching[pos[acc | overflowed]] = False
                lam *= 0.5
            live[idx[searching]] = False  # no step accepted: Newton stops
    return res, t1, t2, val


def _psi(point: GrowthPoint, alpha, t1, t2):
    """Stationarity residual at one alpha (floats) or a grid of them (arrays)."""
    l, omega = point.params.left_degree, point.abscissa
    ratio = alpha * (1.0 - 2.0 * omega + alpha) / (omega - alpha) ** 2
    return (l - 1) * np.log(ratio) - l * np.log(t2 / (t1 * t1))


def _xlogx(v):
    positive = v > 0.0
    return np.where(positive, v * np.log(np.where(positive, v, 1.0)), 0.0)


def _entropy_term(omega: float, alpha):
    return (_xlogx(alpha) + 2.0 * _xlogx(omega - alpha)
            + _xlogx(1.0 - 2.0 * omega + alpha))


def _exponent(point: GrowthPoint, alpha, t1, t2, val):
    """Overlap exponent E(alpha) at one alpha (floats) or a grid (arrays)."""
    l, r = point.params.left_degree, point.params.right_degree
    omega = point.abscissa
    return ((l - 1) * _entropy_term(omega, alpha)
            + (l / r) * np.log(val)
            - l * (2.0 * (omega - alpha) * np.log(t1) + alpha * np.log(t2)))


def _det3(B) -> float:
    return (B[0][0] * (B[1][1] * B[2][2] - B[1][2] * B[2][1])
            - B[0][1] * (B[1][0] * B[2][2] - B[1][2] * B[2][0])
            + B[0][2] * (B[1][0] * B[2][1] - B[1][1] * B[2][0]))


def _quadform_inv(B, v) -> float:
    """v B^(-1) v^T for symmetric 3x3 B via the adjugate."""
    det = _det3(B)
    if det == 0.0:
        raise SingularMatrixError("curvature matrix is singular")
    c11 = B[1][1] * B[2][2] - B[1][2] * B[1][2]
    c22 = B[0][0] * B[2][2] - B[0][2] * B[0][2]
    c33 = B[0][0] * B[1][1] - B[0][1] * B[0][1]
    c12 = B[0][2] * B[1][2] - B[0][1] * B[2][2]
    c13 = B[0][1] * B[1][2] - B[0][2] * B[1][1]
    c23 = B[0][1] * B[0][2] - B[0][0] * B[1][2]
    v1, v2, v3 = v
    quad = (v1 * v1 * c11 + v2 * v2 * c22 + v3 * v3 * c33
            + 2.0 * (v1 * v2 * c12 + v1 * v3 * c13 + v2 * v3 * c23))
    return quad / det


def _sigma_c2(params: EnsembleParams, B) -> float:
    l, r = params.left_degree, params.right_degree
    quad = _quadform_inv(B, (-1.0, 1.0, -1.0))
    if quad <= 0.0:
        raise SingularMatrixError(
            f"overlap direction quadratic form nonpositive ({quad:g})")
    return 1.0 / (l * r * quad)


def _snap_nonnegative(d: float) -> float:
    """Clamp float noise: the variance ratio is >= 0 mathematically."""
    return 0.0 if -1e-9 < d < 0.0 else d


def _stationary_point(point, alpha, warm) -> StationaryPoint:
    t1, t2, val, _ = _inner_solve(point, alpha, warm)
    return StationaryPoint(
        alpha=alpha, exponent=float(_exponent(point, alpha, t1, t2, val)))


def _bisect_psi(point, lo, hi, warm):
    """Root of psi in (lo, hi), where psi falls from + to -; each solve
    warm-starts from the previous one."""

    def below(mid):
        nonlocal warm
        t1, t2, _, _ = _inner_solve(point, mid, warm)
        warm = (t1, t2)
        return _psi(point, mid, t1, t2) > 0.0

    root = bisect_root(below, lo, hi, 80, 1e-13)
    return root, warm


def _anchor_check(point: GrowthPoint, peak) -> None:
    """Anchor identities guarding the exponent bookkeeping.

    The alpha = omega^2 term ``peak`` must carry exactly twice the growth
    rate of ``point``, and the curve must approach that growth rate at the
    alpha -> omega edge.
    """
    lo_edge, omega = _overlap_range(point)
    growth = point.growth
    if abs(peak - 2.0 * growth) > 1e-8:
        raise ExponentMismatchError(
            f"E(omega^2) = {peak:.12g} vs 2*growth = {2 * growth:.12g}")
    # the edge value carries an O(l * h * ln h) defect, so shrink the step
    # with the left degree to keep it well below the 1e-2 bug guard
    h = min(3e-4 / point.params.left_degree, 0.1 * (omega - lo_edge))
    edge = exponent_curve(point, omega - h)
    if abs(edge - growth) > 1e-2:
        raise ExponentMismatchError(
            f"E(omega - {h:g}) = {edge:.12g} vs growth = {growth:.12g}")


def _endpoint_reduced_saddle(point: GrowthPoint) -> float:
    """Exponent at alpha = 0 via the univariate saddle of phi(x, 0, x)."""
    params, kind, omega = point.params, point.kind, point.abscissa
    l, r = params.left_degree, params.right_degree
    target = 2.0 * r * omega

    def a_of(x: float) -> float:
        val, grad, _ = pair_vgh(params, kind, x, 0.0, x)
        if val <= 0.0 or not math.isfinite(val):
            raise NoBracketError(f"slice generating function invalid at {x}")
        return x * (grad[0] + grad[2]) / val

    lo, hi = grow_bracket(lambda v: a_of(v) < target, 1e-12, 1.0, 1e8,
                          f"the reduced endpoint saddle at omega = {omega}")
    t = bisect_root(lambda v: a_of(v) < target, lo, hi, 200)
    val = pair_vgh(params, kind, t, 0.0, t)[0]
    return float((l - 1) * _entropy_term(omega, 0.0)
                 + (l / r) * math.log(val) - 2.0 * l * omega * math.log(t))


def _endpoint_extrapolated(point: GrowthPoint) -> float:
    lo_edge, omega = _overlap_range(point)
    window = omega - lo_edge
    h1 = min(_ENDPOINT_STEPS[0], 0.05 * window)
    h2 = h1 * (_ENDPOINT_STEPS[1] / _ENDPOINT_STEPS[0])
    e1 = exponent_curve(point, lo_edge + h1)
    e2 = exponent_curve(point, lo_edge + h2)
    return e2 - h2 * (e1 - e2) / (h1 - h2)


def _check_lattice(kind: str, base, off) -> None:
    if kind != KIND_WEIGHT:
        return  # stopping pair function has full-lattice support
    if not base[0] % 2 == base[1] % 2 == base[2] % 2:
        raise OffLatticeError(f"base index {base} off the pair support lattice")
    parities = {v % 2 for v in off}
    if len(parities) != 1:
        raise OffLatticeError(f"offset {off} leaves the pair support lattice")


def _as_int(v: float, name: str) -> int:
    k = round(v)
    if abs(v - k) > 1e-9:
        raise ValueError(f"{name} = {v} is not integral")
    return int(k)

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
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DomainError,
    ExponentMismatchError,
    NoConvergenceError,
    NonpositiveGFError,
    OffLatticeError,
    SingularMatrixError,
    VarianceDegenerateError,
)
from .firstmoment import GrowthPoint, bisect_root
from .genfun import (
    KIND_WEIGHT,
    EnsembleParams,
    pair_stats,
    pair_vgh,
)

_NEWTON_TOL = 1e-13
_ACCEPT_TOL = 1e-11  # well inside the 1e-10 contract
_DET_FLOOR = 1e-14
_GRID_POINTS = 2000
_GRID_MARGIN = 1e-4
_RAY_SPAN = 48  # the coarse rays cover ln rho in [-48, 48], one per unit
_RAY_STEPS = 60  # Newton steps per ray
_RAY_JUMP = 4.0  # longest Newton step in ln s
_RAY_TOL = 1e-14  # residual |a1 + a2 - r w| / r of an accepted ray
# the span reaches margin/30 of each end, margin/100 where the float range
# allows: the alpha-grid scan's point solve at margin/30 from each end
# converged on every row it gave a verdict
_SPAN_REACH = 30.0
# kernel values up to the float maximum / 4: the weight kernel sums four r-th powers
_LN_VAL_MAX = math.log(sys.float_info.max / 4.0)
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
    per pair of neighbouring scan rays where psi = dE/dalpha falls, in order
    of alpha.
    ``delta``/``bound`` are None unless :func:`delta` filled them, which it
    does only when both conditions hold: the numbers would not be justified
    otherwise.
    """

    condition1_ok: bool
    condition2_ok: bool
    stationary_points: list
    peak_exponent: float
    endpoint_exponent: float
    delta: float | None = None
    bound: float | None = None


def exponent_curve(point: GrowthPoint, alpha: float) -> float:
    """Exponential rate of the overlap-alpha term of the squared count at
    the abscissa omega of ``point``, from the point solve at alpha
    (:func:`_point_solve`, which raises NoConvergenceError where the Newton
    from the omega^2 anchor does not converge)."""
    lo, hi = _overlap_range(point)
    if not lo < alpha < hi:
        raise ValueError(f"alpha must lie in ({lo}, {hi}), got {alpha}")
    t1, t2, val, _ = _point_solve(point, alpha)
    return float(_exponent(point, alpha, t1, t2, val))


def endpoint_exponent(point: GrowthPoint) -> float:
    """Overlap exponent at the boundary alpha = max(0, 2*omega - 1), omega
    the abscissa of ``point``.

    For omega < 1/2 the boundary is alpha = 0, the k2 = 0 face: the ray
    rho = 0 of :func:`_scan_rays`, solved alone.  Otherwise, or where that
    ray has no root in the float range, the interior curve is extrapolated
    linearly from point solves at h1 = min(1e-3, 5% of the overlap range)
    and h1/10 inside the boundary.
    """
    face = _face_ray(point)
    return _endpoint_extrapolated(point) if math.isnan(face) else face


def verify_conditions(point: GrowthPoint) -> ConditionReport:
    """Scan the overlap range along rays and check the two dominance
    conditions.

    psi = dE/dalpha, so a pair of neighbouring rays (see :func:`_scan_rays`)
    between which psi falls from + to - holds a local maximum of the
    exponent curve, and one where it rises holds a minimum.  Each falling
    pair gives its maximum in closed form (:func:`_cubic_max`), and only
    those inside the window (lo + margin, omega - margin] of
    :func:`_grid_window` are listed.
    Condition 1: alpha = omega^2 is the unique global maximum of the
    exponent curve: psi falls through it, every other local maximum lies
    strictly below it, and no ray with alpha at least margin/100 inside the
    overlap range exceeds it.  (For stopping sets a subdominant local
    maximum always exists in a thin layer of near-identical pairs; it only
    invalidates the method when it reaches the omega^2 level, which happens
    near the typical minimum size.)
    Condition 2: the exponent at omega^2 strictly exceeds the boundary
    exponent.  Failures are verdicts, not errors.  Negative curvature at
    omega^2 is checked by :func:`delta_value`, which raises
    VarianceDegenerateError where it fails.

    omega is the abscissa of ``point``, whose univariate saddle x* seeds
    every ray.  The ray rho = 1 holds alpha = omega^2 at t = (x*, x*^2, x*),
    where psi = 0 exactly, so the peak is one kernel value there, and a
    falling pair around rho = 1 is that root: only the other falling pairs
    are interpolated.  The last ray, within margin/30 of omega, gives the
    edge value of :func:`_anchor_check`.  The boundary exponent is E(0) of
    :func:`_scan_rays` where finite, else :func:`endpoint_exponent`.
    """
    omega, x = point.abscissa, point.saddle_x
    if point.growth <= 0.0:
        raise DomainError(
            f"positive growth rate required (Markov regime at {omega})")
    alpha_sq = omega * omega
    val = pair_stats(point.params, point.kind, x, x * x)[0]
    peak = float(_exponent(point, alpha_sq, x, x * x, val))

    lo_edge, margin = _grid_window(point)
    ln_rho, alphas, t1s, t2s, vals, face = _scan_rays(point)
    psis = _psi(point, alphas, t1s, t2s)
    exps = _exponent(point, alphas, t1s, t2s, vals)
    _anchor_check(point, peak, float(alphas[-1]), float(exps[-1]))

    stationary, others = [], []
    # psi falls through zero: a local maximum (a rise is a minimum, unread)
    for idx in np.flatnonzero((psis[:-1] > 0.0) & (psis[1:] <= 0.0)):
        pair = slice(idx, idx + 2)
        at_square = ln_rho[idx] <= 0.0 <= ln_rho[idx + 1]
        found = (StationaryPoint(alpha=alpha_sq, exponent=peak) if at_square
                 else _cubic_max(alphas[pair], exps[pair], psis[pair]))
        # psi(omega^2) = 0: a root on the lower window end starts no fall
        if lo_edge + margin < found.alpha <= omega - margin:
            stationary.append(found)
            if not at_square:
                others.append(found)

    slack = 1e-9 * max(1.0, abs(peak))
    covered = ((alphas >= lo_edge + margin / 100.0)
               & (alphas <= omega - margin / 100.0))
    cond1 = (len(stationary) == len(others) + 1
             and all(p.exponent < peak - slack for p in others)
             and peak >= float(exps[covered].max()) - slack)
    endpoint = face if math.isfinite(face) else endpoint_exponent(point)
    cond2 = peak > endpoint
    return ConditionReport(condition1_ok=cond1, condition2_ok=cond2,
                           stationary_points=stationary, peak_exponent=peak,
                           endpoint_exponent=endpoint)


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

    The saddle t = (t1, t2, t1) and B come from the point solve at
    alpha = i0/n (:func:`_point_solve`).  Offsets must be integral and keep
    the index on the support lattice (for the codeword pair function: all
    components changing parity together).
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
    t1, t2, _, B = _point_solve(point, i0 / n)
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
    B = pair_stats(point.params, point.kind, x, x * x)[2]
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


def _point_solve(point: GrowthPoint, alpha: float):
    """Overlap saddle at one alpha: (t1, t2, val, B) of the reduced system
    a1/r = omega - alpha, a2/r = alpha on the slice t3 = t1.

    A damped Newton in (ln t1, ln t2) from the omega^2 anchor (x*, x*^2),
    x* the point's univariate saddle, where the kernel is p(x*)^2 or
    beta(x*)^2 > 0.  Steps are multiplicative, which keeps t positive and
    stays well-conditioned in the near-corner regime where the solution
    components are large; a trial point whose kernel is nonpositive or
    overflows is a rejected step.  Raises NoConvergenceError unless the
    residual falls below _ACCEPT_TOL.
    """
    params, kind, r = point.params, point.kind, point.params.right_degree
    c1, c2 = point.abscissa - alpha, alpha
    t1 = point.saddle_x
    t2 = t1 * t1
    val, a, B = pair_stats(params, kind, t1, t2)
    res = max(abs(a[0] / r - c1), abs(a[1] / r - c2))
    for _ in range(120):
        if res < _NEWTON_TOL:
            break
        # Jacobian of (a1/r, a2/r) w.r.t. (ln t1, ln t2), with t3 = t1
        j11, j12 = (B[0][0] + B[0][2]) / r, B[0][1] / r
        j21, j22 = (B[1][0] + B[1][2]) / r, B[1][1] / r
        det = j11 * j22 - j12 * j21
        if det == 0.0 or not math.isfinite(det):
            raise NoConvergenceError(f"overlap solve failed at "
                                     f"omega={point.abscissa}, alpha={alpha}")
        r1 = a[0] / r - c1
        r2 = a[1] / r - c2
        d1 = -(j22 * r1 - j12 * r2) / det
        d2 = -(-j21 * r1 + j11 * r2) / det
        big = max(abs(d1), abs(d2))
        if big > 20.0:  # cap the log step; exp() must stay finite
            d1, d2 = d1 * 20.0 / big, d2 * 20.0 / big
        lam = 1.0
        while lam > 1e-10:
            n1, n2 = t1 * math.exp(lam * d1), t2 * math.exp(lam * d2)
            if 0.0 < n1 < math.inf and 0.0 < n2 < math.inf:
                try:
                    valn, an, Bn = pair_stats(params, kind, n1, n2)
                except (NonpositiveGFError, OverflowError):
                    valn = None
                if valn is not None and math.isfinite(valn):
                    resn = max(abs(an[0] / r - c1), abs(an[1] / r - c2))
                    if resn < res:
                        t1, t2, val, a, B, res = n1, n2, valn, an, Bn, resn
                        break
            lam *= 0.5
        else:
            break  # no trial step lowers the residual
    if res < _ACCEPT_TOL:
        return t1, t2, val, B
    raise NoConvergenceError(f"overlap solve failed at omega={point.abscissa}, "
                             f"alpha={alpha} (residual {res:g})")


def _grid_window(point: GrowthPoint):
    """Lower end of the overlap range and the margin the stationary points
    of the scan keep from both ends."""
    lo_edge, omega = _overlap_range(point)
    return lo_edge, min(_GRID_MARGIN, 0.01 * (omega - lo_edge))


def _scan_rays(point: GrowthPoint):
    """Overlap saddles on _GRID_POINTS rays t = (s, rho s^2, s), evenly
    spaced in ln rho: arrays (ln rho, alpha, t1, t2, val), and E(0).

    alpha = a2/r rises strictly with rho, and the ray rho = 1 holds
    alpha = omega^2.  Coarse rays, one per unit of ln rho in [-48, 48] and
    seeded by :func:`_ray_seeds`, fix the span (:func:`_span_end`): from
    alpha <= lo + margin/100 to alpha >= omega - margin/100 (lo and margin
    from :func:`_grid_window`), or as far as the float range allows.  The
    fine rays start from u interpolated between the coarse ones.
    Below omega = 1/2 the coarse pass also solves the ray rho = 0, the
    k2 = 0 face alpha = 0, for E(0) (:func:`_face_exponent`; NaN at and
    above 1/2); it stays out of the span and the fine seeds.
    """
    omega, r = point.abscissa, point.params.right_degree
    lo_edge, margin = _grid_window(point)
    need, floor = lo_edge + margin / _SPAN_REACH, omega - (r - 1) / (2 * r)
    # odd r: no codeword weighs (r-1)/r or more, so no overlap lies below floor
    if point.kind == KIND_WEIGHT and r % 2 and floor > need:
        raise NoConvergenceError(f"overlap rays end before alpha = {need} at "
                                 f"omega = {omega} (odd r: none below {floor})")
    coarse = np.arange(-_RAY_SPAN, _RAY_SPAN + 1.0)
    rays = np.append(coarse, -np.inf) if omega < 0.5 else coarse
    u, a2, val = _ray_solve(point, rays, _ray_seeds(point, rays))
    face = _face_exponent(point, u[-1], val[-1]) if omega < 0.5 else math.nan
    u, alpha = u[:coarse.size], a2[:coarse.size] / r
    first = _span_end(point, coarse, u, alpha, lo_edge + margin / 100.0, need, 1.0)
    last = _span_end(point, coarse[::-1], u[::-1], alpha[::-1],
                     omega - margin / 100.0, omega - margin / _SPAN_REACH, -1.0)
    inner = np.isfinite(u) & (coarse > first[0]) & (coarse < last[0])
    ln_rho = np.linspace(first[0], last[0], _GRID_POINTS)
    seeds = np.interp(ln_rho, np.concatenate(([first[0]], coarse[inner], [last[0]])),
                      np.concatenate(([first[1]], u[inner], [last[1]])))
    u, a2, val = _ray_solve(point, ln_rho, seeds)
    if not np.isfinite(u).all():
        raise NoConvergenceError(f"overlap rays failed at omega={omega}")
    return ln_rho, a2 / r, np.exp(u), np.exp(ln_rho + 2.0 * u), val, face


def _face_ray(point: GrowthPoint) -> float:
    """E(0) from the ray rho = 0 solved alone (each ray iterates on its own,
    so the coarse pass of :func:`_scan_rays` gets the same bits); NaN where
    it has no finite root: at omega >= 1/2, or past the float range."""
    if point.abscissa >= 0.5:
        return math.nan
    ray = np.array([-np.inf])
    u, _, val = _ray_solve(point, ray, _ray_seeds(point, ray))
    return _face_exponent(point, u[0], val[0])


def _face_exponent(point: GrowthPoint, u, val) -> float:
    """Overlap exponent E(0) at the saddle (s, 0, s), u = ln s, of the ray
    rho = 0 with kernel value val there (alpha ln t2 vanishes at alpha = 0,
    so t2 = 1 stands in for 0); NaN where the ray found no finite root, as
    :func:`_ray_solve` leaves val NaN there."""
    return float(_exponent(point, 0.0, np.exp(u), 1.0, val))


def _ray_seeds(point: GrowthPoint, ln_rho):
    """Starting ln s on the rays ln rho (an array), from the faces the
    saddle tends to: ln x* - (ln rho)/2 for rho > 1 (alpha -> omega); for
    rho < 1, ln x* when omega < 1/2 (the k2 = 0 face, reached at rho = 0)
    and ln x* - ln rho otherwise (the top-degree face, alpha -> 2w - 1)."""
    below = 0.0 if point.abscissa < 0.5 else ln_rho
    return math.log(point.saddle_x) - np.where(ln_rho > 0.0, 0.5 * ln_rho, below)


def _span_end(point: GrowthPoint, ln_rho, u, alpha, end, need, sign):
    """(ln rho, u) of the ray that ends the fine span on one side.

    The rays come ordered from the outside in; the end is the innermost one
    at or past alpha = ``end`` (sign * alpha <= sign * end), else the
    outermost converged one or, if the ray beyond it was capped (u = +inf),
    the cap point where :func:`_cap_residual` changes sign between the two,
    bisected in ln rho.  It must be past ``need``; else raise OverflowError
    if the ray beyond was capped, NoConvergenceError otherwise.
    """
    past = np.flatnonzero(sign * alpha <= sign * end)
    if past.size:
        return float(ln_rho[past[-1]]), float(u[past[-1]])
    k = int(np.argmax(np.isfinite(u)))  # 0 also when no ray converged
    edge = [float(ln_rho[k]), float(u[k]), float(alpha[k])]
    capped = k > 0 and u[k - 1] == np.inf
    if capped:
        def outside(x):  # a NaN residual counts as outside
            cap, f, a = _cap_residual(point, x)
            if f >= 0.0:
                edge[:] = x, cap, a  # the inside end of the bracket
            return not f >= 0.0

        bisect_root(outside, float(ln_rho[k - 1]), edge[0], 200)
    if sign * edge[2] <= sign * need:
        return edge[0], edge[1]
    error = OverflowError if capped else NoConvergenceError
    raise error(f"overlap rays end before alpha = {need} at omega = {point.abscissa}")


def _ray_cap(point: GrowthPoint, ln_rho):
    """Largest u = ln s on rays ln rho (float or array): there 1 + 2s + rho s^2,
    the largest kernel base, brings its r-th power to the float range."""
    room = math.expm1(_LN_VAL_MAX / point.params.right_degree)
    return math.log(room) - np.log1p(np.sqrt(1.0 + np.exp(ln_rho) * room))


def _cap_residual(point: GrowthPoint, ln_rho: float):
    """(u, f, alpha) at the cap u of the ray ln rho, f = a1 + a2 - r*omega:
    f rises with u, so the ray's root lies inside the float range iff f >= 0."""
    r, u = point.params.right_degree, _ray_cap(point, ln_rho)
    s, t2 = np.exp(u), np.exp(ln_rho + 2.0 * u)
    with np.errstate(all="ignore"):
        val, grad, _ = pair_vgh(point.params, point.kind, s, t2)
        a1, a2 = s * (grad[0] / val), t2 * (grad[1] / val)
    return float(u), float(a1 + a2 - r * point.abscissa), float(a2) / r


def _ray_solve(point: GrowthPoint, ln_rho, u0):
    """Overlap saddles on the rays t = (s, rho s^2, s), one safeguarded
    Newton per ray in u = ln s from u0 (arrays, one entry per ray).

    By the x1 <-> x3 symmetry a1 + a2 is half the log-derivative of phi
    along the ray, and ln phi is convex there, so the residual
    f = a1 + a2 - r*omega rises with u and has one root.  Each ray keeps a
    bracket, and a step that leaves it is replaced by the bracket's midpoint
    (by a _RAY_JUMP step while it is open).  A kernel value that is not
    finite and positive is an upper end of the bracket, never a residual.
    u stops at the cap of :func:`_ray_cap`; a ray still below its root
    there has none inside the float range.

    A ray leaves the packed arrays of unsettled rays on the step where it
    settles; each ray takes the iterates it would take alone.

    Returns arrays (u, a2, val) at the accepted points; u is +inf on
    the rays whose root lies past the float range and NaN on the others
    that found no root.
    """
    params, kind = point.params, point.kind
    r = params.right_degree
    target = r * point.abscissa
    out = np.full((3, ln_rho.size), np.nan)
    # the unsettled rays: index, ln rho, u, bracket ends and cap
    idx, cap = np.arange(ln_rho.size), _ray_cap(point, ln_rho)
    u = np.minimum(u0, cap)
    lo, hi = np.full(u.size, -np.inf), np.full(u.size, np.inf)
    with np.errstate(all="ignore"):
        for _ in range(_RAY_STEPS):
            s, t2 = np.exp(u), np.exp(ln_rho + 2.0 * u)
            val, grad, hess = pair_vgh(params, kind, s, t2)
            a1, a2 = s * (grad[0] / val), t2 * (grad[1] / val)
            f = a1 + a2 - target
            usable = (val > 0.0) & (val < np.inf) & np.isfinite(f)
            upper = ~usable | (f > 0.0)
            hi, lo = np.where(upper, u, hi), np.where(upper, lo, u)
            # f' = (1/2) d^2 ln phi / du^2, from the Hessian along (s, 2 t2, s)
            (h11, h12, h13), (_, h22, h23), (_, _, h33) = hess
            slope = (0.5 * (s * s * ((h11 + 2.0 * h13 + h33) / val)
                            + 4.0 * t2 * (t2 * (h22 / val) + s * ((h12 + h23) / val)))
                     + a1 + 2.0 * a2 - 2.0 * (a1 + a2) ** 2)
            nxt = u + np.maximum(np.minimum(-f / slope, _RAY_JUMP), -_RAY_JUMP)
            inside = usable & (slope > 0.0) & (nxt > lo) & (nxt < hi)
            if not inside.all():
                fallback = np.where(np.isfinite(lo),
                                    np.where(np.isfinite(hi), 0.5 * (lo + hi),
                                             lo + _RAY_JUMP),
                                    hi - _RAY_JUMP)
                nxt = np.where(inside, nxt, fallback)
            nxt = np.minimum(nxt, cap)
            stalled, size = nxt == u, np.abs(f)
            done = usable & ((size <= _RAY_TOL * r)
                             | (stalled & (size <= _ACCEPT_TOL * r)))
            settled = done | stalled  # a capped ray stalls at its cap
            if settled.any():
                out[:, idx[done]] = u[done], a2[done], val[done]
                # below the root at the cap: the root lies past the float range
                out[0, idx[usable & ~done & (f < 0.0) & (u >= cap)]] = np.inf
                keep = ~settled
                if not keep.any():
                    break
                idx, ln_rho, nxt, lo, hi, cap = (
                    v[keep] for v in (idx, ln_rho, nxt, lo, hi, cap))
            u = nxt
    return out[0], out[1], out[2]


def _cubic_max(alpha, exponent, psi) -> StationaryPoint:
    """The local maximum between two rays where psi falls from + to -.

    On the saddle curve psi = dE/dalpha, so the two rays give E and its
    slope at both ends: the maximum is that of the cubic Hermite
    interpolant p(s), alpha = alpha0 + s h.  Its derivative, the quadratic
    a s^2 + b s + c with c = h psi0 > 0 >= h psi1 = a + b + c, falls
    through zero once in (0, 1], at the root taken without cancellation.
    """
    (a0, a1), (e0, e1), (f0, f1) = (map(float, v) for v in (alpha, exponent, psi))
    h = a1 - a0
    c, d1, rise = h * f0, h * f1, e1 - e0
    a = 3.0 * (c + d1) - 6.0 * rise
    b = 6.0 * rise - 4.0 * c - 2.0 * d1
    root = math.sqrt(max(b * b - 4.0 * a * c, 0.0))
    # b > 0 only with a < 0: then -(b + root) / (2a) does not cancel
    s = 2.0 * c / (root - b) if b <= 0.0 else -(b + root) / (2.0 * a)
    return StationaryPoint(alpha=a0 + s * h,
                           exponent=e0 + s * (c + s * (0.5 * b + s * a / 3.0)))


def _psi(point: GrowthPoint, alpha, t1, t2):
    """Stationarity residual at one alpha (floats) or many (arrays)."""
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
    """Overlap exponent E(alpha) at one alpha (floats) or many (arrays)."""
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


def _anchor_check(point: GrowthPoint, peak, edge_alpha, edge) -> None:
    """Anchor identities guarding the exponent bookkeeping.

    The alpha = omega^2 term ``peak`` must carry exactly twice the growth
    rate of ``point``, and the curve must approach that growth rate at the
    alpha -> omega edge: ``edge`` is its value at ``edge_alpha``, the last
    scan ray, within margin/30 of omega.  There the O(l * h * ln h) defect
    stays below 3e-3, well inside the 1e-2 bug guard.
    """
    growth = point.growth
    if abs(peak - 2.0 * growth) > 1e-8:
        raise ExponentMismatchError(
            f"E(omega^2) = {peak:.12g} vs 2*growth = {2 * growth:.12g}")
    if abs(edge - growth) > 1e-2:
        raise ExponentMismatchError(
            f"E({edge_alpha!r}) = {edge:.12g} vs growth = {growth:.12g}")


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

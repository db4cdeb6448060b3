"""Ensemble-average counts and growth rates via univariate saddle points.

Approximates a coefficient of a large power of a fixed polynomial with
nonnegative coefficients by the classic saddle-point formula

    Coeff(q^m, y^k) ~ d * q(y*)^m / (y*^k * sqrt(2*pi*m*b_q(y*))),

where y* solves a_q(y*) = k/m and d is the period of the support lattice
(2 for the even-powered weight polynomial p, 1 for beta).  On top of that it
builds the exponential growth rates of the average weight/stopping-set
counts and the typical minimum relative weight/size (the smallest positive
zero of the growth rate).
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import NoBracketError, NoRootError, UnsupportedPolyError
from .exactcomb import ExactPolynomial
from .genfun import (KIND_WEIGHT, EnsembleParams, check_kind, saddle_mean_uni,
                     saddle_stats_uni, stop_gf, weight_gf)

_SADDLE_RESIDUAL_TOL = 1e-12
_BRACKET_START = 1e-8
_BRACKET_LIMIT = 1e300
_MIN_SEARCH_STEP = 1e-4


@dataclass(frozen=True)
class GrowthPoint:
    """One abscissa of the growth-rate curve of one ensemble and kind.

    Built only by :func:`growth_point`, so the ensemble, the kind, the
    abscissa and the saddle x* it carries always belong together.
    """

    params: EnsembleParams
    kind: str
    abscissa: float
    saddle_x: float
    growth: float
    curvature_b: float


def binary_entropy(w: float) -> float:
    """h(w) = -w ln w - (1-w) ln(1-w), continuously extended to {0, 1}."""
    if w <= 0.0 or w >= 1.0:
        if w in (0.0, 1.0):
            return 0.0
        raise ValueError(f"entropy argument {w} outside [0, 1]")
    return -(w * math.log(w) + (1.0 - w) * math.log(1.0 - w))


def bisect_root(below, lo: float, hi: float, steps: int, tol: float = 0.0) -> float:
    """Midpoint of a bracket between lo and hi after halving it ``steps``
    times.

    ``below(x)`` is true when the root lies on the hi side of x (above x
    when lo < hi); it is called once per step, in order, so a caller may
    carry state from one call to the next.  Either order of the ends works.
    Stops early once the bracket is narrower than ``tol``, or once the
    midpoint rounds onto an end, after which the result can no longer move.
    """
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if below(mid):
            lo = mid
        else:
            hi = mid
        if abs(hi - lo) < tol:
            break
    return 0.5 * (lo + hi)


def grow_bracket(below, lo: float, hi: float, limit: float,
                 what: str) -> tuple[float, float]:
    """While ``below(hi)`` (the root lies above hi), move lo up to hi and
    double hi; NoBracketError, naming ``what``, once hi passes ``limit``."""
    while below(hi):
        lo = hi
        hi *= 2.0
        if hi > limit:
            raise NoBracketError(f"no sign change up to x={hi:g} for {what}")
    return lo, hi


def solve_saddle(params: EnsembleParams, kind: str, abscissa: float,
                 seed: float | None = None) -> tuple[float, float]:
    """Unique positive root x of a_phi(x) = r * abscissa, phi in {p, beta},
    with the variance b_phi(x) there: returns (x, b).

    a_phi is strictly increasing from 0 to deg phi (r - 1 for the weight
    kind at odd r, where the x^r terms of p cancel; r otherwise), so the
    root is bracketed by doubling from 1e-8 and bisected (at most 80 steps)
    on a alone (:func:`saddle_mean_uni`), then polished by Newton
    (a' = b/x), the only steps that evaluate b.  Residual
    |a(x) - r*abscissa| < 1e-12.  There is no root when
    r*abscissa >= deg phi (NoBracketError).

    A positive ``seed`` (say, the saddle of a neighbouring abscissa) is
    polished by the same Newton steps first; its answer is kept only if it
    meets the residual tolerance inside the bracket range, and any failure
    falls back to the bracket-and-bisect path.
    """
    check_kind(kind)
    if not 0.0 < abscissa < 1.0:
        raise ValueError(f"abscissa must lie in (0, 1), got {abscissa}")
    r = params.right_degree
    target = r * abscissa
    if kind == KIND_WEIGHT and r % 2 and target >= r - 1:  # target >= deg p
        raise NoBracketError(
            f"abscissa {abscissa} above the attainable range of a/r")
    if seed is not None and seed > 0.0:
        try:
            x, b, res = _newton_polish(params, kind, target, seed)
        except ArithmeticError:
            pass
        else:
            if res < _SADDLE_RESIDUAL_TOL and _BRACKET_START <= x <= _BRACKET_LIMIT:
                return x, b

    def resid(x: float) -> float:
        return saddle_mean_uni(params, kind, x) - target

    lo = _BRACKET_START
    if resid(lo) > 0.0:
        raise NoBracketError(
            f"abscissa {abscissa} below the attainable range of a/r")
    lo, hi = grow_bracket(lambda v: resid(v) < 0.0, lo, 2.0 * lo,
                          _BRACKET_LIMIT, f"abscissa {abscissa}")
    x = bisect_root(lambda v: resid(v) < 0.0, lo, hi, 80)
    x, b, res = _newton_polish(params, kind, target, x)
    if not res < _SADDLE_RESIDUAL_TOL:
        raise NoBracketError(
            f"saddle residual above tolerance at abscissa {abscissa}")
    return x, b


def _newton_polish(params: EnsembleParams, kind: str, target: float,
                   x: float) -> tuple[float, float, float]:
    """Up to 8 Newton steps on a(x) = target from x (a' = b/x).

    Returns the final iterate, or the best one seen if the final one is
    worse, with b there and its residual |a(x) - target| (NaN if the steps
    left the finite range).
    """
    best_x, best_b, best_f = x, math.nan, math.inf
    for _ in range(8):
        a, b = saddle_stats_uni(params, kind, x)
        f = a - target
        if abs(f) < best_f:
            best_x, best_b, best_f = x, b, abs(f)
        if abs(f) < 1e-15:
            break
        x_new = x - f * x / b  # a'(x) = b(x)/x
        if x_new <= 0.0:
            x_new = 0.5 * x
        x = x_new
    else:
        a, b = saddle_stats_uni(params, kind, x)
        f = a - target
    if abs(f) > best_f:
        return best_x, best_b, best_f
    return x, b, abs(f)


def growth_point(params: EnsembleParams, kind: str, abscissa: float,
                 seed: float | None = None) -> GrowthPoint:
    """Saddle, growth exponent and curvature at one abscissa in (0, 1).

    ``seed`` is passed on to :func:`solve_saddle` as a Newton start.
    """
    x, b = solve_saddle(params, kind, abscissa, seed)
    l, r = params.left_degree, params.right_degree
    phi = weight_gf(params, x) if kind == KIND_WEIGHT else stop_gf(params, x)
    growth = ((l / r) * math.log(phi)
              - (l - 1) * binary_entropy(abscissa)
              - l * abscissa * math.log(x))
    return GrowthPoint(params=params, kind=kind, abscissa=abscissa, saddle_x=x,
                       growth=growth, curvature_b=b)


def hayman_coeff(poly: ExactPolynomial, m: int, k: int) -> float:
    """Saddle-point approximation of Coeff(poly^m, y^k).

    Computes the support-lattice period d from the exact exponent set:
    returns 0.0 when k is off the lattice and multiplies the Gaussian
    approximation by d otherwise.
    """
    if poly.variable_count != 1:
        raise UnsupportedPolyError("univariate polynomial required")
    terms = poly.terms
    if len(terms) < 2:
        raise UnsupportedPolyError("polynomial needs at least 2 nonzero terms")
    if any(c < 0 for c in terms.values()):
        raise UnsupportedPolyError("polynomial coefficients must be nonnegative")
    if 0 not in terms:
        raise UnsupportedPolyError("polynomial needs a nonzero constant term")
    deg = poly.degree()
    if not 0 < k < m * deg:
        raise ValueError(f"index k={k} outside (0, {m * deg})")
    d = poly.support_period()
    if k % d != 0:
        return 0.0

    items = sorted(terms.items())

    def moments(y: float):
        s0 = s1 = s2 = 0.0
        for e, c in items:
            w = c * y ** e
            s0 += w
            s1 += e * w
            s2 += e * e * w
        mean = s1 / s0
        return s0, mean, s2 / s0 - mean * mean

    target = k / m
    # lo stays at 1e-12 rather than following the doubling: moving it changes
    # the last bits of 2,789 of 37,440 results (check polynomials of r = 3..12,
    # both kinds, m < 40, every k), which `verify --suite hayman` prints
    lo = 1e-12
    _, hi = grow_bracket(lambda v: moments(v)[1] < target, lo, 1.0,
                         _BRACKET_LIMIT, f"k/m = {target}")
    if moments(lo)[1] > target:
        raise NoBracketError(f"no saddle bracket for k/m = {target}")
    y = bisect_root(lambda v: moments(v)[1] < target, lo, hi, 200)
    val, _, var = moments(y)
    return d * math.exp(m * math.log(val) - k * math.log(y)) / math.sqrt(
        2.0 * math.pi * m * var)


@functools.cache
def _search_grid() -> array:
    """The abscissas 1e-4, 2e-4, ... below 0.5 that :func:`min_abscissa`
    searches, accumulated left to right by ``np.cumsum`` (the bits of
    repeated addition of the step) and with the last one clamped to
    0.5 - 1e-12.  Built at the first call, as packed doubles (40 kB, a
    quarter of a list of floats), so every element reads as a float."""
    step = _MIN_SEARCH_STEP
    w = np.cumsum(np.full(int(0.5 / step) + 1, step))
    return array("d", np.minimum(w[w < 0.5 + 0.5 * step], 0.5 - 1e-12).tobytes())


def min_abscissa(params: EnsembleParams, kind: str) -> float:
    """Smallest zero of the growth rate in (0, 0.5): the typical minimum
    relative weight (or stopping-set size).

    Searches the 1e-4 grid of :func:`_search_grid` for its first cell with
    a sign change: gallops over the grid indices (steps 1, 2, 4, ... up from
    the last negative point), halves the index bracket down to one cell,
    and bisects that cell to absolute tolerance 1e-9.  The search assumes that the
    growth rate changes sign once on (0, 0.5), from negative to nonnegative.
    Each point is seeded from the saddle of the highest point evaluated so
    far with negative growth, the lower end of the current bracket (in the
    final cell both ends are equally near).  Raises NoRootError when the
    growth rate is still negative at the last grid point.

    When the growth rate is already nonnegative at the first grid point,
    1e-4, the zero lies below the grid, as for weight (3, r) with
    32 <= r <= 64 and stopping (3, r) with 31 <= r <= 64: halve the
    abscissa until the growth rate turns negative and bisect that cell to
    1e-5 of its width, the grid's relative resolution.  If it stays
    nonnegative down to 1e-12, as for every (2, r), raises NoRootError.
    """
    grid = _search_grid()
    lo_point = growth_point(params, kind, grid[0])

    def below(v):
        nonlocal lo_point
        point = growth_point(params, kind, v, lo_point.saddle_x)
        if point.growth < 0.0:
            lo_point = point
        return point.growth < 0.0

    if lo_point.growth >= 0.0:
        lo, hi = 0.5 * grid[0], grid[0]
        while not below(lo):
            lo, hi = 0.5 * lo, lo
            if lo < 1e-12:
                raise NoRootError("growth rate nonnegative at the left edge of the grid")
        return bisect_root(below, lo, hi, 64, 1e-5 * (hi - lo))

    last = len(grid) - 1
    lo, hi, gallop = 0, 1, 1
    while below(grid[hi]):
        if hi == last:
            raise NoRootError("no growth-rate sign change on (0, 0.5)")
        lo, gallop = hi, 2 * gallop
        hi = min(hi + gallop, last)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if below(grid[mid]):
            lo = mid
        else:
            hi = mid
    # 1e-4-wide bracket: 17 halvings reach the 1e-9 tolerance
    return bisect_root(below, grid[lo], grid[hi], 64, 1e-9)

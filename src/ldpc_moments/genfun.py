"""Check-node generating functions of regular LDPC ensembles.

For an ensemble with variable degree ``l`` and check degree ``r`` this module
evaluates, in double precision,

* ``p(x)  = ((1+x)^r + (1-x)^r) / 2``            (single check, codewords)
* ``beta(x) = (1+x)^r - r*x``                    (single check, stopping sets)
* ``f(x1,x2,x3)``: the parity-filtered expansion of ``(1+x1+x2+x3)^r``
  keeping monomials whose three exponents are all even or all odd
  (codeword pairs), and
* ``g(x1,x2,x3)``: its stopping-set analog where each of the two index sets
  must meet every check 0 or >= 2 times,

together with their logarithmic-derivative statistics ``a`` (local mean of
the induced exponent distribution), ``b`` (its variance) and, for the
trivariate functions, the mean vector ``a_vec`` and covariance matrix ``B``.
Everything here is a pure function; all derivatives are analytic.

Evaluation sticks to the binomial-power forms above.  Expanded
integer-coefficient forms live in :mod:`ldpc_moments.exactcomb`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivisibilityError, NonpositiveGFError

# Largest supported check degree.  From r = 51 on, the pair kernel overflows
# on some overlap rays for omega >= 1/2 (see the README's known faults).
MAX_RIGHT_DEGREE = 64

KIND_WEIGHT = "weight"
KIND_STOPPING = "stopping"
KINDS = (KIND_WEIGHT, KIND_STOPPING)

def check_kind(kind: str) -> str:
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    return kind


@dataclass(frozen=True)
class EnsembleParams:
    """Degree pair (l, r) of a regular LDPC ensemble.

    ``left_degree`` is the number of edges per variable node, ``right_degree``
    the number per check node.  Requires ``2 <= l < r <= MAX_RIGHT_DEGREE``.
    """

    left_degree: int
    right_degree: int

    def __post_init__(self) -> None:
        l, r = self.left_degree, self.right_degree
        if not (isinstance(l, int) and isinstance(r, int)):
            raise TypeError("degrees must be integers")
        if not 2 <= l < r:
            raise ValueError(f"need 2 <= l < r, got (l, r) = ({l}, {r})")
        if r > MAX_RIGHT_DEGREE:
            raise ValueError(
                f"right degree {r} exceeds supported maximum {MAX_RIGHT_DEGREE}")

    @property
    def design_rate(self) -> float:
        return 1.0 - self.left_degree / self.right_degree

    def check_count(self, n: int) -> int:
        """Number n*l/r of check nodes at block length n; r must divide n*l."""
        l, r = self.left_degree, self.right_degree
        if (n * l) % r != 0:
            raise DivisibilityError(f"r={r} must divide n*l={n * l}")
        return n * l // r


def weight_gf(params: EnsembleParams, x: float) -> float:
    """Evaluate p(x) = ((1+x)^r + (1-x)^r)/2 for x >= 0."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    r = params.right_degree
    return 0.5 * ((1.0 + x) ** r + (1.0 - x) ** r)


def stop_gf(params: EnsembleParams, x: float) -> float:
    """Evaluate beta(x) = (1+x)^r - r*x for x >= 0."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    r = params.right_degree
    return (1.0 + x) ** r - r * x


def saddle_mean_uni(params: EnsembleParams, kind: str, x: float) -> float:
    """Log-derivative a(x) = x phi'/phi of p (weight) or beta (stopping) at
    x > 0, in a ratio form that stays finite for large x."""
    check_kind(kind)
    if x <= 0:
        raise ValueError("x must be positive")
    r = params.right_degree
    if kind == KIND_WEIGHT:
        # divide numerator and denominator by (1+x)^(r-1); v in (-1, 1]
        v = (1.0 - x) / (1.0 + x)
        return r * x * (1.0 - v ** (r - 1)) / ((1.0 + x) * (1.0 + v ** r))
    u = (1.0 + x) ** (-(r - 1))
    return r * x * (1.0 - u) / ((1.0 + x) - r * x * u)


def saddle_stats_uni(params: EnsembleParams, kind: str,
                     x: float) -> tuple[float, float]:
    """Log-derivative pair (a, b) of p (weight) or beta (stopping) at x > 0:
    a(x) = x phi'/phi from :func:`saddle_mean_uni` and b(x) = x a'(x).

    Uses b = a + x^2 phi''/phi - a^2 with a ratio form of phi''/phi that
    stays finite for large x (no overflowing powers).
    """
    a = saddle_mean_uni(params, kind, x)
    r = params.right_degree
    if kind == KIND_WEIGHT:
        v = (1.0 - x) / (1.0 + x)
        dpp = r * (r - 1) * (1.0 + v ** (r - 2)) / ((1.0 + x) ** 2 * (1.0 + v ** r))
    else:
        dpp = r * (r - 1) / ((1.0 + x) ** 2 - r * x * (1.0 + x) ** (-(r - 2)))
    return a, a + x * x * dpp - a * a


def pair_stats(params: EnsembleParams, kind: str, t1: float, t2: float):
    """Value, mean vector a and curvature matrix B of f or g at the positive
    slice point (t1, t2, t1).

    a_i = x_i (d phi / d x_i) / phi and B_ij = x_j (d a_i / d x_j) at
    x = (t1, t2, t1), returned as plain lists.  Raises
    :class:`NonpositiveGFError` if the generating function is not strictly
    positive there (possible for g, which has negative terms), and
    OverflowError, naming the point and r, where a power of the kernel
    leaves the float range.
    """
    if t1 <= 0.0 or t2 <= 0.0:
        raise ValueError("point must be componentwise positive")
    try:
        val, grad, hess = pair_vgh(params, kind, t1, t2)
    except OverflowError as exc:
        raise OverflowError(f"pair kernel overflows at ({t1}, {t2}, {t1}) "
                            f"for r = {params.right_degree}") from exc
    if val <= 0.0:
        raise NonpositiveGFError(
            f"pair generating function nonpositive at ({t1}, {t2}, {t1}): {val}")
    # ratios first: grad products and val^2 can overflow while val itself
    # is still comfortably representable
    g1, g2, g3 = grad[0] / val, grad[1] / val, grad[2] / val
    (h11, h12, h13), (_, h22, h23), (_, _, h33) = hess
    a1, a2, a3 = t1 * g1, t2 * g2, t1 * g3
    B12 = t1 * t2 * (h12 / val - g1 * g2)
    B13 = t1 * t1 * (h13 / val - g1 * g3)
    B23 = t2 * t1 * (h23 / val - g2 * g3)
    return val, [a1, a2, a3], [[t1 * t1 * (h11 / val - g1 * g1) + a1, B12, B13],
                               [B12, t2 * t2 * (h22 / val - g2 * g2) + a2, B23],
                               [B13, B23, t1 * t1 * (h33 / val - g3 * g3) + a3]]


def _pow(v, e: int):
    """v ** e, on a numpy array as |v| ** e with the sign put back: numpy's
    array power is about 30x slower on a negative base.  Floats keep **."""
    if not isinstance(v, np.ndarray):
        return v ** e
    p = np.abs(v) ** e
    return np.copysign(p, v) if e % 2 else p


def pair_vgh(params: EnsembleParams, kind: str, t1: float, t2: float):
    """Value, gradient and Hessian of f or g at the slice point (t1, t2, t1),
    all from closed forms.

    The two codewords (or stopping sets) of a pair play symmetric roles, so
    the overlap saddle lies on the slice x3 = x1, and no caller evaluates
    off it; gradient and Hessian are still the full trivariate ones.
    Returns plain floats/lists; used by the Newton solvers where building
    numpy arrays per evaluation would dominate the cost.  The body is
    arithmetic only, so equal-length numpy arrays of points work as well
    and give arrays in place of the floats.  The Hessian is symmetric; for
    f its three diagonal entries are one object, and for g the entries 22
    and 12 are the objects 00 and 01.
    """
    r = params.right_degree
    if kind == KIND_WEIGHT:
        # brackets with the x signs (+++), (+--), (-+-), (--+), in that
        # order; every sum keeps it (pinned bits), so B and D differ in
        # the last bit although both are 1 - t2 on the slice
        A = 1.0 + t1 + t2 + t1
        B = 1.0 + t1 - t2 - t1
        C = 1.0 - t1 + t2 - t1
        D = 1.0 - t1 - t2 + t1
        A0, B0 = A ** (r - 2), _pow(B, r - 2)
        C0, D0 = _pow(C, r - 2), _pow(D, r - 2)
        A1, B1, C1, D1 = A0 * A, B0 * B, C0 * C, D0 * D
        val = (A1 * A + B1 * B + C1 * C + D1 * D) * 0.25
        c1, c2 = 0.25 * r, 0.25 * r * (r - 1)
        grad = [c1 * (A1 + B1 - C1 - D1), c1 * (A1 - B1 + C1 - D1),
                c1 * (A1 - B1 - C1 + D1)]
        h00, h01 = (A0 + B0 + C0 + D0) * c2, (A0 - B0 - C0 + D0) * c2
        h02, h12 = (A0 - B0 + C0 - D0) * c2, (A0 + B0 - C0 - D0) * c2
        return val, grad, [[h00, h01, h02], [h01, h00, h12], [h02, h12, h00]]

    # stopping kind: derivatives of the four printed terms of g, whose
    # brackets 1 + x1 and 1 + x3 are one q on the slice
    S0, q = 1.0 + t1 + t2 + t1, 1.0 + t1
    p, pd = q ** (r - 1), q ** (r - 2)
    rp, t21 = r * p, t2 + t1
    val = (S0 ** r - rp * t21 - r * t1 * (p - (r - 1) * t1)
           - r * t2 * (p - 1.0))
    rSd, c = r * S0 ** (r - 1), r * (r - 1)
    grad = [
        rSd - c * pd * t21 - r * (p - (r - 1) * t1),
        rSd - rp - r * (p - 1.0),
        rSd - rp - c * (t1 * (pd - 1.0) + t2 * pd),
    ]
    Sdd, pdd = S0 ** (r - 2), q ** (r - 3)
    cSdd = c * Sdd
    # t1 + t2 and t2 + t1 are one float: h22 is h00, and h12 is h01
    h00, h01 = cSdd - c * (r - 2) * pdd * t21, cSdd - c * pd
    h02 = c * (Sdd - pd - pd + 1.0)
    return val, grad, [[h00, h01, h02], [h01, cSdd, h01], [h02, h01, h00]]

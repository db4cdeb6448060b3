"""Closed forms of the pair generating functions f and g, kept as
independent oracles for :func:`ldpc_moments.genfun.pair_vgh`, which the
solvers use.  Test-only: nothing in the package calls them."""

import math

from ldpc_moments.genfun import EnsembleParams

# Sign patterns of the four brackets of f: exactly the characters of the
# subgroup of {+1,-1}^3 with product of any two coordinates matching the
# third, which kills every monomial that is not all-even or all-odd.
_F_SIGNS = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))


def pair_gf_weight(params: EnsembleParams, pt) -> float:
    """Evaluate the codeword-pair generating function f at a point >= 0.

    Sums the four brackets (1 + s1 x1 + s2 x2 + s3 x3)^r over _F_SIGNS.
    """
    x1, x2, x3 = _check_point(pt)
    r = params.right_degree
    return 0.25 * sum(
        (1.0 + s1 * x1 + s2 * x2 + s3 * x3) ** r for s1, s2, s3 in _F_SIGNS)


def pair_gf_stop(params: EnsembleParams, pt) -> float:
    """Evaluate the stopping-set-pair generating function g at a point >= 0.

    g contains subtracted terms, so the value may be negative far from the
    region of interest; callers taking ln(g) must check the sign first.
    """
    x1, x2, x3 = _check_point(pt)
    r = params.right_degree
    return ((1.0 + x1 + x2 + x3) ** r
            - r * (1.0 + x1) ** (r - 1) * (x2 + x3)
            - r * x1 * ((1.0 + x3) ** (r - 1) - (r - 1) * x3)
            - r * x2 * ((1.0 + x3) ** (r - 1) - 1.0))


def _check_point(pt):
    x = tuple(float(v) for v in pt)
    if len(x) != 3:
        raise ValueError("point must have exactly 3 components")
    if not all(math.isfinite(v) for v in x):
        raise ValueError("point components must be finite")
    if min(x) < 0:
        raise ValueError("point components must be nonnegative")
    return x

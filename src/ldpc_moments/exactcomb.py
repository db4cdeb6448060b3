"""Exact integer/rational oracle for the moment formulas.

Expands the check-node generating functions with arbitrary-precision integer
coefficients, extracts coefficients of their large powers by sparse
multiplication with truncation, and evaluates the ensemble-average first and
second moments exactly as reduced rationals at small block length.  This is
the ground truth the asymptotic pipeline is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DivisibilityError, TooLargeError
from .genfun import KIND_WEIGHT, EnsembleParams, check_kind

# Trivariate expansion is kept exact; beyond this the term count explodes.
MAX_PAIR_DEGREE = 32


@dataclass(frozen=True)
class ExactPolynomial:
    """Sparse exact polynomial in 1 or 3 variables.

    ``terms`` maps an exponent (int) or exponent triple (tuple of 3 ints) to a
    nonzero integer coefficient.  Instances are immutable; ``terms`` is stored
    as a plain dict but must not be mutated.
    """

    variable_count: int
    terms: dict

    def __post_init__(self) -> None:
        if self.variable_count not in (1, 3):
            raise ValueError("variable_count must be 1 or 3")
        for e, c in self.terms.items():
            if c == 0:
                raise ValueError("zero coefficients must not be stored")
            if self.variable_count == 1:
                if not isinstance(e, int) or e < 0:
                    raise ValueError(f"bad exponent {e!r}")
            else:
                if len(e) != 3 or min(e) < 0:
                    raise ValueError(f"bad exponent {e!r}")

    def degree(self) -> int:
        """Maximum exponent (univariate) or maximum total degree (trivariate)."""
        if self.variable_count == 1:
            return max(self.terms)
        return max(sum(e) for e in self.terms)

    def support_period(self) -> int:
        """gcd of exponent gaps of a univariate polynomial (0 if one term)."""
        if self.variable_count != 1:
            raise ValueError("support_period is univariate-only")
        es = sorted(self.terms)
        d = 0
        for e in es[1:]:
            d = math.gcd(d, e - es[0])
        return d


def poly_weight_check(r: int) -> ExactPolynomial:
    """Exact expansion of p(x): even-index binomials of (1+x)^r."""
    return ExactPolynomial(1, {k: math.comb(r, k) for k in range(0, r + 1, 2)})


def poly_stop_check(r: int) -> ExactPolynomial:
    """Exact expansion of beta(x) = (1+x)^r - r*x: all binomials but k=1."""
    terms = {k: math.comb(r, k) for k in range(r + 1)}
    del terms[1]
    return ExactPolynomial(1, terms)


@lru_cache(maxsize=None)
def check_poly(r: int, kind: str) -> ExactPolynomial:
    """The check polynomial of ``kind`` at check degree r: p or beta."""
    check_kind(kind)
    return poly_weight_check(r) if kind == KIND_WEIGHT else poly_stop_check(r)


def expand_pair_gf(params: EnsembleParams, kind: str) -> ExactPolynomial:
    """Exact trivariate expansion of f (weight) or g (stopping).

    Both come from the multinomial simplex of (1+x1+x2+x3)^r: f keeps the
    monomials whose exponents are all even or all odd, g subtracts the
    terms of its closed form and is still componentwise nonnegative (it
    counts placements).
    """
    check_kind(kind)
    r = params.right_degree
    if r > MAX_PAIR_DEGREE:
        raise TooLargeError(
            f"exact pair expansion supports r <= {MAX_PAIR_DEGREE}, got {r}")
    # (1+x1+x2+x3)^r ...
    terms = {(k1, k2, k3): _multinomial(r, k1, k2, k3)
             for k1 in range(r + 1) for k2 in range(r + 1 - k1)
             for k3 in range(r + 1 - k1 - k2)}
    if kind == KIND_WEIGHT:
        return ExactPolynomial(3, {k: c for k, c in terms.items()
                                   if k[0] % 2 == k[1] % 2 == k[2] % 2})
    # ... - r (1+x1)^(r-1) (x2 + x3)
    for k1 in range(r):
        c = r * math.comb(r - 1, k1)
        _add_term(terms, (k1, 1, 0), -c)
        _add_term(terms, (k1, 0, 1), -c)
    # ... - r x1 ((1+x3)^(r-1) - (r-1) x3)
    for k3 in range(r):
        _add_term(terms, (1, 0, k3), -r * math.comb(r - 1, k3))
    _add_term(terms, (1, 0, 1), r * (r - 1))
    # ... - r x2 ((1+x3)^(r-1) - 1)
    for k3 in range(r):
        _add_term(terms, (0, 1, k3), -r * math.comb(r - 1, k3))
    _add_term(terms, (0, 1, 0), r)
    return ExactPolynomial(3, terms)


def power_coeff(poly: ExactPolynomial, m: int, index) -> int:
    """Exact coefficient of ``poly**m`` at ``index`` (0 off support): the
    one-index case of :func:`power_coefficients`, which powers a univariate
    polynomial as the trivariate one with exponents (e, 0, 0)."""
    if poly.variable_count == 1:
        if not isinstance(index, int) or index < 0:
            raise ValueError(f"bad univariate index {index!r}")
        poly = ExactPolynomial(3, {(e, 0, 0): c for e, c in poly.terms.items()})
        index = (index, 0, 0)
    index = tuple(index)
    return power_coefficients(poly, m, [index])[index]


def power_coefficients(poly: ExactPolynomial, m: int, indices) -> dict:
    """Coefficients of ``poly**m`` at several trivariate indices at once.

    Iterated sparse multiplication, truncating every partial product at the
    componentwise maximum of ``indices``, so one expansion serves every
    lookup; much cheaper than repeated :func:`power_coeff`.
    """
    if poly.variable_count != 3:
        raise ValueError("power_coefficients is trivariate-only")
    if m < 0:
        raise ValueError("power must be nonnegative")
    wanted = [tuple(ix) for ix in indices]
    if not wanted:
        return {}
    if any(len(ix) != 3 or min(ix) < 0 for ix in wanted):
        raise ValueError("indices must be nonnegative triples")
    bound = tuple(max(ix[k] for ix in wanted) for k in range(3))
    power = _power_trunc_tri(poly, m, bound)
    return {ix: power.get(ix, 0) for ix in wanted}


def exact_first_moment(params: EnsembleParams, n: int, W: int, kind: str) -> Fraction:
    """Average number of weight-W codewords / size-W stopping sets, exactly.

    Equals C(n,W) * Coeff(phi^(n*l/r), x^(l*W)) / C(n*l, l*W) with phi = p or
    beta.
    """
    l = params.left_degree
    phi = check_poly(params.right_degree, kind)
    m = _check_counts(params, n, W)
    coeff = power_coeff(phi, m, l * W)
    return Fraction(math.comb(n, W) * coeff, math.comb(n * l, l * W))


def exact_second_moment(params: EnsembleParams, n: int, W: int, kind: str) -> Fraction:
    """Average of the squared count: sum of F_i * C_i over overlaps i.

    F_i counts ordered pairs of index sets with overlap i together with the
    socket placements of the complement; C_i is the trivariate coefficient of
    the pair generating function.
    """
    check_kind(kind)
    l = params.left_degree
    m = _check_counts(params, n, W)
    indices = {i: (l * (W - i), l * i, l * (W - i))
               for i in range(max(0, 2 * W - n), W + 1)}
    C = power_coefficients(expand_pair_gf(params, kind), m, indices.values())
    total = Fraction(0)
    for i, ix in indices.items():
        if C[ix]:
            total += _pair_prefactor(params, n, W, i) * C[ix]
    return total


def exact_moment(params: EnsembleParams, n: int, W: int, kind: str,
                 moment: int) -> Fraction:
    """Exact E[count^moment], moment 1 or 2 (cf. exhaustive_moment)."""
    if moment == 1:
        return exact_first_moment(params, n, W, kind)
    if moment == 2:
        return exact_second_moment(params, n, W, kind)
    raise ValueError("moment must be 1 or 2")


def exact_term(params: EnsembleParams, n: int, W: int, i: int, kind: str) -> Fraction:
    """Single overlap term S_i = F_i * C_i of the second-moment sum."""
    check_kind(kind)
    l = params.left_degree
    m = _check_counts(params, n, W)
    if not max(0, 2 * W - n) <= i <= W:
        raise ValueError(
            f"overlap {i} outside [{max(0, 2 * W - n)}, {W}] for n={n}, W={W}")
    pair = expand_pair_gf(params, kind)
    index = (l * (W - i), l * i, l * (W - i))
    Ci = power_coeff(pair, m, index)
    return _pair_prefactor(params, n, W, i) * Ci


def _pair_prefactor(params: EnsembleParams, n: int, W: int, i: int) -> Fraction:
    """F_i: counting factor of the overlap-i term, as an exact rational."""
    l = params.left_degree
    fact = math.factorial
    num = (math.comb(n, W) * math.comb(W, i) * math.comb(n - W, W - i)
           * fact(l * (W - i)) ** 2 * fact(l * i) * fact(l * (n - 2 * W + i)))
    return Fraction(num, fact(n * l))


def _check_counts(params: EnsembleParams, n: int, W: int) -> int:
    l, r = params.left_degree, params.right_degree
    if (n * l) % r != 0:
        raise DivisibilityError(f"r={r} must divide n*l={n * l}")
    if not 0 <= W <= n:
        raise ValueError(f"W={W} outside [0, {n}]")
    return n * l // r


def _add_term(terms: dict, key, c: int) -> None:
    v = terms.get(key, 0) + c
    if v:
        terms[key] = v
    else:
        terms.pop(key, None)


@lru_cache(maxsize=None)
def _multinomial(r: int, k1: int, k2: int, k3: int) -> int:
    k0 = r - k1 - k2 - k3
    return (math.factorial(r)
            // (math.factorial(k0) * math.factorial(k1)
                * math.factorial(k2) * math.factorial(k3)))


def _power_trunc_tri(poly: ExactPolynomial, m: int, bound) -> dict:
    """Sparse dict of poly**m truncated componentwise at ``bound``."""
    b1, b2, b3 = bound
    base = sorted(poly.terms.items())
    cur = {(0, 0, 0): 1}
    for _ in range(m):
        nxt = {}
        get = nxt.get
        for (e1, e2, e3), c in cur.items():
            for (d1, d2, d3), cb in base:
                k1 = e1 + d1
                if k1 > b1:
                    break  # base is sorted: d1 only grows from here
                k2 = e2 + d2
                if k2 > b2:
                    continue
                k3 = e3 + d3
                if k3 > b3:
                    continue
                key = (k1, k2, k3)
                nxt[key] = get(key, 0) + c * cb
        cur = nxt
    return cur

"""Exact integer/rational oracle for the moment formulas.

Expands the check-node generating functions with arbitrary-precision integer
coefficients, extracts coefficients of their large powers in one pass of
Miller's recurrence over the exponents that can reach a wanted coefficient,
and evaluates the ensemble-average first and second moments exactly as
reduced rationals at small block length.  This is the ground truth the
asymptotic pipeline is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import TooLargeError
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
            if not isinstance(c, int):
                raise ValueError(f"coefficient {c!r} is not an int")
            if c == 0:
                raise ValueError("zero coefficients must not be stored")
            if self.variable_count == 1:
                if not isinstance(e, int) or e < 0:
                    raise ValueError(f"bad exponent {e!r}")
            else:
                if (not isinstance(e, tuple) or len(e) != 3
                        or not all(isinstance(k, int) for k in e) or min(e) < 0):
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


@lru_cache(maxsize=None)
def check_poly(r: int, kind: str) -> ExactPolynomial:
    """Exact check polynomial of ``kind`` at check degree r: for weight,
    p(x), the even-index binomials of (1+x)^r; for stopping sets,
    beta(x) = (1+x)^r - r*x, all binomials but k=1."""
    check_kind(kind)
    step = 2 if kind == KIND_WEIGHT else 1
    terms = {k: math.comb(r, k) for k in range(0, r + 1, step) if k != 1}
    return ExactPolynomial(1, terms)


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
    polynomial as the trivariate one with exponents (0, e, 0), its own
    x1 <-> x3 mirror."""
    if poly.variable_count == 1:
        if not isinstance(index, int) or index < 0:
            raise ValueError(f"bad univariate index {index!r}")
        poly = ExactPolynomial(3, {(0, e, 0): c for e, c in poly.terms.items()})
        index = (0, index, 0)
    index = tuple(index)
    return power_coefficients(poly, m, [index])[index]


def power_coefficients(poly: ExactPolynomial, m: int, indices) -> dict:
    """Coefficients of ``poly**m`` at several trivariate indices at once.

    J. C. P. Miller's recurrence for the power of a series (Knuth, TAOCP
    Vol. 2, 4.7), in the form the Euler operator E = x1 d1 + x2 d2 + x3 d3
    gives it: P * E(P**m) = m * E(P) * P**m.  With P = sum c_d x^d, c_0 = p0
    and a_k the coefficient of P**m at k, every coefficient satisfies

        p0 * |k| * a_k = sum over d != 0 of (m |d| - |k - d|) * c_d * a_(k-d),

    where |k| = k1 + k2 + k3 and a_0 = p0**m.  One pass finds them all:

    * only the staircase of the wanted indices is computed (the union of
      the boxes below them, see :func:`_staircase`), since every k - d lies
      componentwise below k;
    * P equals its x1 <-> x3 mirror (c_(d1,d2,d3) = c_(d3,d2,d1), as for
      both pair GFs and for a univariate polynomial on the x2 axis), so its
      power is mirrored too, a_(k1,k2,k3) = a_(k3,k2,k1): the wanted indices
      are closed under the mirror, and only the cells with k1 <= k3 are
      computed and stored;
    * those cells are visited once, in (k1, k3, k2) order, which puts every
      k - d before k; a_k is the exact integer quotient of the sum pushed
      into cell k by the cells before it, and a nonzero a_k is then pushed
      on to its successors k + d, so cells no term reaches cost nothing;
    * a cell j with j1 < j3 pushes for itself and its unvisited mirror: once
      to t = j + d if t1 < t3, twice if t1 = t3, once to (t3, t2, t1) if
      t1 > t3.  A cell with j1 = j3 pushes once where t1 <= t3; its push
      along the mirror of d stands for the one with t1 > t3.

    The recurrence divides by p0, so a polynomial with no constant term
    raises ``ValueError``, as does one that is not its own mirror.  Every
    coefficient is an exact int.
    """
    if poly.variable_count != 3:
        raise ValueError("power_coefficients is trivariate-only")
    if m < 0:
        raise ValueError("power must be nonnegative")
    wanted = [tuple(ix) for ix in indices]
    if not wanted:
        return {}
    if any(len(ix) != 3 or not all(isinstance(k, int) for k in ix) or min(ix) < 0
           for ix in wanted):
        raise ValueError("indices must be triples of nonnegative ints")
    p0 = poly.terms.get((0, 0, 0))
    if p0 is None:
        raise ValueError("power_coefficients needs a nonzero constant term")
    if any(poly.terms.get(e[::-1]) != c for e, c in poly.terms.items()):
        raise ValueError("power_coefficients needs a polynomial equal to its "
                         "x1 <-> x3 mirror")
    lim = _staircase(wanted + [ix[::-1] for ix in wanted])
    off, size = [], 0  # cell (k1, k2, k3) of the staircase is a[off[k1][k3] + k2]
    for k1, row in enumerate(lim):
        row_off = []
        for k3, top in enumerate(row):
            if k3 < k1:
                row_off.append(off[k3][k1])  # read and written at its mirror
            else:
                row_off.append(size)
                size += top + 1
        off.append(row_off)
    steps = {}  # d1 -> [(d3, d2, c_d, m |d|)] over the terms of P but its constant
    for (d1, d2, d3), c in poly.terms.items():
        if d1 or d2 or d3:
            steps.setdefault(d1, []).append((d3, d2, c, m * (d1 + d2 + d3)))
    steps = sorted(steps.items())
    a = [0] * size
    a[0] = p0 ** m
    n1 = len(lim)
    for j1, (row, row_off) in enumerate(zip(lim, off)):
        for j3 in range(j1, len(row)):
            start = row_off[j3]
            twin = j1 < j3  # j also pushes for its unvisited mirror
            for j2 in range(row[j3] + 1):
                v = a[start + j2]
                if not v:
                    continue
                s = j1 + j2 + j3
                if s:
                    v, rem = divmod(v, p0 * s)
                    if rem:
                        raise ArithmeticError(f"inexact Miller step at {(j1, j2, j3)}")
                    a[start + j2] = v
                for d1, group in steps:
                    k1 = j1 + d1
                    if k1 >= n1:
                        break  # steps are sorted: d1 only grows from here
                    krow, krow_off = lim[k1], off[k1]
                    for d3, d2, c, md in group:
                        k3 = j3 + d3
                        if k3 < len(krow) and (twin or k1 <= k3):
                            k2 = j2 + d2
                            if k2 <= krow[k3]:
                                push = (md - s) * c * v
                                if twin and k1 == k3:
                                    push += push
                                a[krow_off[k3] + k2] += push
    return {ix: a[off[ix[0]][ix[2]] + ix[1]] for ix in wanted}


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
    return sum(_overlap_terms(params, n, W, kind).values(), Fraction(0))


def exact_term(params: EnsembleParams, n: int, W: int, i: int, kind: str) -> Fraction:
    """Single overlap term S_i = F_i * C_i of the second-moment sum."""
    return _overlap_terms(params, n, W, kind, i)[i]


def _overlap_terms(params: EnsembleParams, n: int, W: int, kind: str,
                   only=None) -> dict:
    """{i: S_i = F_i * C_i} over every overlap i of the second-moment sum,
    or over the one overlap ``only``, with the C_i from one power of the
    pair GF; F_i is left uncomputed where C_i = 0."""
    check_kind(kind)
    l = params.left_degree
    m = _check_counts(params, n, W)
    overlaps = range(max(0, 2 * W - n), W + 1)
    if only is not None and only not in overlaps:
        raise ValueError(
            f"overlap {only} outside [{overlaps.start}, {W}] for n={n}, W={W}")
    indices = {i: (l * (W - i), l * i, l * (W - i))
               for i in (overlaps if only is None else [only])}
    C = power_coefficients(expand_pair_gf(params, kind), m, indices.values())
    return {i: _pair_prefactor(params, n, W, i) * C[ix] if C[ix] else Fraction(0)
            for i, ix in indices.items()}


def _pair_prefactor(params: EnsembleParams, n: int, W: int, i: int) -> Fraction:
    """F_i: counting factor of the overlap-i term, as an exact rational."""
    l = params.left_degree
    fact = math.factorial
    num = (math.comb(n, W) * math.comb(W, i) * math.comb(n - W, W - i)
           * fact(l * (W - i)) ** 2 * fact(l * i) * fact(l * (n - 2 * W + i)))
    return Fraction(num, fact(n * l))


def _check_counts(params: EnsembleParams, n: int, W: int) -> int:
    m = params.check_count(n)
    if not 0 <= W <= n:
        raise ValueError(f"W={W} outside [0, {n}]")
    return m


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


def _staircase(wanted) -> list:
    """lim[k1][k3]: the largest k2 of a wanted index whose first exponent is
    at least k1 and whose third is at least k3.

    Row k1 is cut after its last k3 with such an index, so a term (k1, k2, k3)
    can reach a wanted index exactly when k1 < len(lim), k3 < len(lim[k1])
    and k2 <= lim[k1][k3].
    """
    b1 = max(ix[0] for ix in wanted)
    b3 = max(ix[2] for ix in wanted)
    lim = [[-1] * (b3 + 1) for _ in range(b1 + 1)]
    for i1, i2, i3 in wanted:
        lim[i1][i3] = max(lim[i1][i3], i2)
    for k1 in range(b1, -1, -1):  # suffix maxima over k3, then over k1
        row = lim[k1]
        for k3 in range(b3 - 1, -1, -1):
            row[k3] = max(row[k3], row[k3 + 1])
        if k1 < b1:
            row[:] = map(max, row, lim[k1 + 1])
    # lim is nonincreasing in k3, so the reachable k3 of a row are a prefix
    return [row[:sum(v >= 0 for v in row)] for row in lim]

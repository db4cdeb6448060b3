"""Exact polynomial expansions and rational moment formulas."""

import random
from fractions import Fraction

import pytest

from ldpc_moments import exactcomb, genfun
from ldpc_moments.errors import DivisibilityError, TooLargeError
from ldpc_moments.exactcomb import (
    ExactPolynomial,
    check_poly,
    exact_first_moment,
    exact_second_moment,
    exact_term,
    expand_pair_gf,
    power_coeff,
    power_coefficients,
)
from ldpc_moments.genfun import EnsembleParams
from pair_gf_oracle import pair_gf_weight

P36 = EnsembleParams(3, 6)
P24 = EnsembleParams(2, 4)
P34 = EnsembleParams(3, 4)


def _naive_power(poly, m, bound):
    """Sparse dict of poly**m by m plain multiplications, each partial
    product cut at the componentwise box ``bound`` (the routine that
    :func:`power_coefficients` replaced, kept as its reference)."""
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


def _naive_coefficients(poly, m, indices):
    bound = tuple(max(ix[k] for ix in indices) for k in range(3))
    power = _naive_power(poly, m, bound)
    return {ix: power.get(ix, 0) for ix in indices}


def _naive_univariate(terms, m, k):
    """Coefficient of x^k in (sum c x^e)**m by dense list convolution."""
    cur = [1]
    for _ in range(m):
        nxt = [0] * (len(cur) + max(terms))
        for i, a in enumerate(cur):
            for e, c in terms.items():
                nxt[i + e] += a * c
        cur = nxt
    return cur[k] if k < len(cur) else 0


def _times_trunc(cur, base, lim):
    """Sparse product of ``cur`` and the sorted ``base`` terms, keeping only
    the terms under the staircase ``lim`` (see ``exactcomb._staircase``)."""
    nxt = {}
    get = nxt.get
    n1 = len(lim)
    for (e1, e2, e3), c in cur.items():
        for (d1, d2, d3), cb in base:
            k1 = e1 + d1
            if k1 >= n1:
                break  # base is sorted: d1 only grows from here
            row = lim[k1]
            k3 = e3 + d3
            if k3 >= len(row):
                continue
            k2 = e2 + d2
            if k2 > row[k3]:
                continue
            key = (k1, k2, k3)
            nxt[key] = get(key, 0) + c * cb
    return nxt


def _split_power_coefficients(poly, m, indices):
    """Coefficients of poly**m at ``indices`` by a split power: every
    partial product cut at the staircase of the indices, A = poly**(m // 2)
    expanded once, B = A or A * poly, and each coefficient the sum of
    A[j] * B[index - j] (the routine that Miller's recurrence replaced in
    :func:`power_coefficients`, kept as its reference)."""
    wanted = [tuple(ix) for ix in indices]
    lim = exactcomb._staircase(wanted)
    base = sorted(poly.terms.items())
    half = {(0, 0, 0): 1}
    for _ in range(m // 2):
        half = _times_trunc(half, base, lim)
    rest = _times_trunc(half, base, lim) if m % 2 else half
    out = {}
    for ix in dict.fromkeys(wanted):
        i1, i2, i3 = ix
        out[ix] = sum(c * rest[k] for (j1, j2, j3), c in half.items()
                      if (k := (i1 - j1, i2 - j2, i3 - j3)) in rest)
    return out


class _CountedInt(int):
    """An int that counts the products it takes part in."""

    products = 0

    def __mul__(self, other):
        _CountedInt.products += 1
        return int(self) * other

    __rmul__ = __mul__


def _count_products(monkeypatch):
    """Make :func:`exact_second_moment` power a pair polynomial whose
    coefficients count every product they take part in: one per push of a
    coefficient a_j to a successor j + d, whose big-int product a_j times
    (m |d| - |j|) c_d it scales, and one per divisor p0 |k|."""
    expand = exactcomb.expand_pair_gf

    def counted(params, kind):
        poly = expand(params, kind)
        return ExactPolynomial(3, {e: _CountedInt(c) for e, c in poly.terms.items()})

    monkeypatch.setattr(exactcomb, "expand_pair_gf", counted)
    _CountedInt.products = 0


class TestExactPolynomial:
    def test_rejects_zero_coefficients(self):
        with pytest.raises(ValueError):
            ExactPolynomial(1, {0: 1, 2: 0})

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            ExactPolynomial(1, {-1: 3})

    @pytest.mark.parametrize("count,terms", [
        (1, {0: 1, 1: 0.5}),
        (3, {(0, 0, 0): 1, (1, 0, 0): Fraction(1, 2)}),
        (3, {(0, 0, 0): 1, (1.5, 0, 0): 1}),
        (3, {(0, 0, 0): 1, 1: 1}),
        (1, {0: 1, 1.0: 1}),
    ])
    def test_rejects_non_int_coefficient_or_exponent(self, count, terms):
        with pytest.raises(ValueError):
            ExactPolynomial(count, terms)

    def test_univariate_support(self):
        # p holds the even binomials, beta everything but the linear term
        assert sorted(check_poly(6, "weight").terms) == [0, 2, 4, 6]
        assert sorted(check_poly(6, "stopping").terms) == [0, 2, 3, 4, 5, 6]

    def test_check_poly_by_kind(self):
        assert check_poly(6, "weight").terms == {0: 1, 2: 15, 4: 15, 6: 1}
        assert check_poly(6, "stopping").terms == {
            0: 1, 2: 15, 3: 20, 4: 15, 5: 6, 6: 1}
        assert check_poly(6, "weight") is check_poly(6, "weight")
        # the x^r terms of p cancel at odd r
        assert check_poly(7, "weight").degree() == 6
        assert check_poly(7, "stopping").degree() == 7
        with pytest.raises(ValueError):
            check_poly(6, "bogus")

    def test_support_period(self):
        assert check_poly(6, "weight").support_period() == 2
        assert check_poly(6, "stopping").support_period() == 1

    def test_exact_evaluation_matches_float_forms(self):
        p = check_poly(6, "weight")
        b = check_poly(6, "stopping")
        assert sum(p.terms.values()) == genfun.weight_gf(P36, 1.0)
        assert sum(b.terms.values()) == genfun.stop_gf(P36, 1.0)
        assert sum(c * Fraction(1, 2) ** e for e, c in p.terms.items()) == Fraction(
            int(genfun.weight_gf(P36, 0.5) * 64), 64)


class TestExpandPairGF:
    def test_weight_constant_and_odd_corner(self):
        poly = expand_pair_gf(P34, "weight")
        assert poly.terms[(0, 0, 0)] == 1
        assert poly.terms[(1, 1, 1)] == 24  # r(r-1)(r-2)

    def test_weight_total_mass(self):
        poly = expand_pair_gf(P34, "weight")
        assert sum(poly.terms.values()) == 64
        assert sum(poly.terms.values()) == pair_gf_weight(P34, (1, 1, 1))

    def test_stop_total_mass(self):
        poly = expand_pair_gf(P34, "stopping")
        assert sum(poly.terms.values()) == 144

    @pytest.mark.parametrize("r", [3, 4, 6, 8])
    def test_stop_expansion_counts_placements(self, r):
        # despite the subtracted closed-form terms the expansion is a count
        poly = expand_pair_gf(EnsembleParams(2, r), "stopping")
        assert all(c > 0 for c in poly.terms.values())
        for (k1, k2, k3), c in poly.terms.items():
            assert poly.terms.get((k3, k2, k1), 0) == c

    def test_degree_cap(self):
        with pytest.raises(TooLargeError):
            expand_pair_gf(EnsembleParams(16, 33), "weight")


class TestPowerCoeff:
    def test_weight_cube(self):
        assert power_coeff(check_poly(6, "weight"), 3, 6) == 4728

    def test_stop_cube(self):
        assert power_coeff(check_poly(6, "stopping"), 3, 6) == 5928

    def test_empty_product(self):
        assert power_coeff(check_poly(6, "weight"), 0, 0) == 1
        assert power_coeff(check_poly(6, "weight"), 0, 3) == 0

    def test_off_support_is_zero(self):
        assert power_coeff(check_poly(6, "weight"), 3, 5) == 0

    def test_trivariate_matches_bulk_helper(self):
        poly = expand_pair_gf(P24, "weight")
        idx = [(4, 0, 4), (2, 2, 2), (0, 4, 0)]
        bulk = power_coefficients(poly, 2, idx)
        for ix in idx:
            assert bulk[ix] == power_coeff(poly, 2, ix)


class TestPowerMatchesNaive:
    """power_coefficients (Miller's recurrence over the staircase) against
    plain multiplication cut at the componentwise box."""

    @pytest.mark.parametrize("kind", ["weight", "stopping"])
    @pytest.mark.parametrize("r", [3, 4, 5, 6, 8, 10])
    def test_random_indices(self, r, kind):
        rng = random.Random(1000 * r + len(kind))
        pair = expand_pair_gf(EnsembleParams(2, r), kind)
        signed = ExactPolynomial(3, {e: c * rng.choice((-3, -1, 1, 2))
                                     for e, c in pair.terms.items()})
        for m in range(8):
            for poly in (pair, signed):
                # some indices off the support, some past the degree r*m
                top = min(r * m, 9) + 2
                idx = [tuple(rng.randrange(top) for _ in range(3))
                       for _ in range(rng.randrange(1, 6))]
                want = _naive_coefficients(poly, m, idx)
                assert power_coefficients(poly, m, idx) == want
                assert power_coeff(poly, m, idx[0]) == want[idx[0]]

    def test_out_of_reach_and_repeated_indices(self):
        poly = expand_pair_gf(P36, "stopping")
        idx = [(19, 0, 0), (2, 2, 2), (2, 2, 2), (0, 0, 0), (6, 6, 6)]
        got = power_coefficients(poly, 3, idx)
        assert got == _naive_coefficients(poly, 3, idx)
        assert got[(19, 0, 0)] == 0  # past the degree 3 * 6
        assert got[(0, 0, 0)] == 1

    @pytest.mark.parametrize("kind", ["weight", "stopping"])
    @pytest.mark.parametrize("r", [3, 4, 5, 6, 8, 10])
    def test_univariate_path(self, r, kind):
        rng = random.Random(r)
        poly = check_poly(r, kind)
        for m in range(8):
            for k in {0, 1, r, r * m, r * m + 1, rng.randrange(r * m + 2)}:
                assert power_coeff(poly, m, k) == _naive_univariate(poly.terms, m, k)


class TestPowerMatchesSplitPower:
    """Every coefficient of the recurrence equals the split power's."""

    @pytest.mark.parametrize("kind,n,W", [("weight", 36, 12), ("stopping", 24, 8)])
    def test_benchmark_overlaps(self, kind, n, W):
        # every overlap i of exact_second_moment: 2W <= n, so i runs over 0..W
        pair = expand_pair_gf(P36, kind)
        idx = [(3 * (W - i), 3 * i, 3 * (W - i)) for i in range(W + 1)]
        want = _split_power_coefficients(pair, n // 2, idx)
        assert power_coefficients(pair, n // 2, idx) == want
        assert all(want.values())

    def test_local_limit_indices(self):
        # the base index and the six offsets of ``verify --suite locallimit``
        n, W, i0 = 48, 16, 8
        base = (3 * (W - i0), 3 * i0, 3 * (W - i0))
        offsets = [(-3, 3, -3), (3, -3, 3), (2, 0, 0), (0, 2, 0), (-1, 1, -1), (1, 1, 1)]
        idx = [base] + [tuple(b + o for b, o in zip(base, off)) for off in offsets]
        pair = expand_pair_gf(P36, "weight")
        assert power_coefficients(pair, n // 2, idx) == _split_power_coefficients(
            pair, n // 2, idx)

    @pytest.mark.parametrize("p0", [-3, 2])
    @pytest.mark.parametrize("kind", ["weight", "stopping"])
    @pytest.mark.parametrize("r", [3, 4, 6])
    def test_signed_pair_polynomials(self, r, kind, p0):
        rng = random.Random(100 * r + 10 * p0 + len(kind))
        pair = expand_pair_gf(EnsembleParams(2, r), kind)
        poly = ExactPolynomial(3, {e: p0 if e == (0, 0, 0) else c * rng.choice((-3, -1, 1, 2))
                                   for e, c in pair.terms.items()})
        for m in range(13):
            top = min(r * m, 12) + 2
            idx = [tuple(rng.randrange(top) for _ in range(3)) for _ in range(4)]
            assert power_coefficients(poly, m, idx) == _split_power_coefficients(poly, m, idx)


class TestPowerWork:
    """Coefficient products of the overlap powers of the benchmark rows;
    counts, not times, so they hold on any machine."""

    def test_weight_products(self, monkeypatch):
        _count_products(monkeypatch)
        exact_second_moment(P36, 36, 12, "weight")
        assert 0 < _CountedInt.products <= 80_000

    def test_stopping_products(self, monkeypatch):
        _count_products(monkeypatch)
        exact_second_moment(P36, 24, 8, "stopping")
        assert 0 < _CountedInt.products <= 200_000


class TestPowerInputs:
    def test_minimum_exponent_term_is_divided_out(self):
        # (x^2 + 2 x^3)^3 = x^6 (1 + 2x)^3
        assert power_coeff(ExactPolynomial(1, {2: 1, 3: 2}), 3, 7) == 6
        assert power_coeff(ExactPolynomial(1, {2: 1, 3: 2}), 3, 5) == 0
        # x1 x3 (1 + x1 + 2 x2 - x3), powered past and short of m * mu
        poly = ExactPolynomial(3, {(1, 0, 1): 1, (2, 0, 1): 1, (1, 1, 1): 2, (1, 0, 2): -1})
        idx = [(4, 1, 3), (3, 0, 3), (2, 2, 4), (6, 1, 5), (0, 0, 0)]
        for m in range(5):
            assert power_coefficients(poly, m, idx) == _naive_coefficients(poly, m, idx)

    @pytest.mark.parametrize("kind", ["weight", "stopping"])
    def test_univariate_without_constant_term(self, kind):
        rng = random.Random(len(kind))
        for r in (3, 6):
            terms = {e + 2: c for e, c in check_poly(r, kind).terms.items() if e}
            poly = ExactPolynomial(1, terms)
            for m in range(6):
                for k in {0, 4 * m, 4 * m + 1, rng.randrange(6 * m + 3)}:
                    assert power_coeff(poly, m, k) == _naive_univariate(terms, m, k)

    @pytest.mark.parametrize("terms", [
        {(1, 0, 0): 1, (0, 1, 0): 1},   # x1 + x2, whose cube has 3 at (1, 2, 0)
        {(1, 1, 0): 2, (0, 1, 1): 3, (1, 1, 1): 1},
        {},
    ])
    def test_no_minimum_exponent_term_rejected(self, terms):
        with pytest.raises(ValueError, match="nonzero constant term"):
            power_coefficients(ExactPolynomial(3, terms), 3, [(1, 2, 0)])

    @pytest.mark.parametrize("index", [(2.0, 2, 2), (2, 2, 2.5), (2, "2", 2)])
    def test_non_int_index_rejected(self, index):
        pair = expand_pair_gf(P24, "weight")
        with pytest.raises(ValueError, match="nonnegative ints"):
            power_coefficients(pair, 2, [(0, 0, 0), index])
        with pytest.raises(ValueError, match="nonnegative ints"):
            power_coeff(pair, 2, index)

    def test_inexact_step_raises(self):
        class OffByOne(int):
            def __rmul__(self, other):
                return int(self) * other + 1

        poly = ExactPolynomial(3, {(0, 0, 0): 1, (1, 0, 0): OffByOne(2)})
        assert power_coefficients(poly, 3, [(1, 0, 0)]) != {(1, 0, 0): 6}
        with pytest.raises(ArithmeticError, match="inexact"):
            power_coefficients(poly, 3, [(3, 0, 0)])


class TestFirstMoment:
    def test_reference_value(self):
        assert exact_first_moment(P36, 6, 2, "weight") == Fraction(5910, 1547)

    def test_stopping_reference_value(self):
        assert exact_first_moment(P36, 6, 2, "stopping") == Fraction(7410, 1547)

    @pytest.mark.parametrize("params,n", [(P36, 6), (P24, 4), (P34, 4)])
    def test_zero_weight_is_one(self, params, n):
        assert exact_first_moment(params, n, 0, "weight") == 1
        assert exact_first_moment(params, n, 0, "stopping") == 1

    def test_odd_edge_count_vanishes(self):
        # l*W = 9 is odd, p has even support only
        assert exact_first_moment(P36, 6, 3, "weight") == 0

    def test_all_ones_word_for_even_r(self):
        assert exact_first_moment(P36, 6, 6, "weight") == 1

    def test_divisibility_guard(self):
        with pytest.raises(DivisibilityError):
            exact_first_moment(P36, 5, 2, "weight")


class TestSecondMoment:
    @pytest.mark.parametrize("kind", ["weight", "stopping"])
    def test_zero_weight_is_one(self, kind):
        assert exact_second_moment(P24, 4, 0, kind) == 1

    @pytest.mark.parametrize("kind", ["weight", "stopping"])
    @pytest.mark.parametrize("W", [1, 2, 3])
    def test_dominates_first_moment(self, kind, W):
        # counting inequality N^2 >= N for integer counts
        assert (exact_second_moment(P36, 6, W, kind)
                >= exact_first_moment(P36, 6, W, kind))

    def test_reference_value(self):
        assert exact_second_moment(P24, 4, 2, "weight") == Fraction(492, 35)


class TestExactTerm:
    def test_full_overlap_term_is_first_moment(self):
        assert exact_term(P36, 6, 2, 2, "weight") == exact_first_moment(
            P36, 6, 2, "weight")
        assert exact_term(P36, 6, 2, 2, "stopping") == exact_first_moment(
            P36, 6, 2, "stopping")

    def test_terms_sum_to_second_moment(self):
        total = sum(exact_term(P36, 6, 2, i, "weight") for i in range(3))
        assert total == exact_second_moment(P36, 6, 2, "weight")

    def test_overlap_below_floor_rejected(self):
        with pytest.raises(ValueError):
            exact_term(P36, 6, 5, 3, "weight")  # floor is 2W-n = 4

    def test_term_curve_peaks_near_square_overlap(self):
        # n=24, W=8: n*omega^2 = 8/3, so the peak sits on overlap 2 or 3
        vals = {i: exact_term(P36, 24, 8, i, "weight") for i in range(9)}
        best = max(vals, key=vals.get)
        assert best in (2, 3)

"""Univariate saddle solving, coefficient asymptotics, growth rates."""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import pytest

from ldpc_moments import checks, exactcomb, firstmoment, genfun, secondmoment
from ldpc_moments.cli import main
from ldpc_moments.errors import (
    DivisibilityError,
    NoBracketError,
    NoRootError,
    UnsupportedPolyError,
)
from ldpc_moments.exactcomb import ExactPolynomial, exact_first_moment, power_coeff
from ldpc_moments.firstmoment import (
    bisect_root,
    grow_bracket,
    growth_point,
    hayman_coeff,
    min_abscissa,
    solve_saddle,
)
from ldpc_moments.genfun import EnsembleParams, saddle_stats_uni

P36 = EnsembleParams(3, 6)

TESTED_ENSEMBLES = [EnsembleParams(*lr)
                    for lr in ((3, 4), (3, 6), (6, 8), (6, 12), (12, 24))]


# Test-only saddle-point approximation of the first moment, checked
# against the exact oracle below.
@dataclass(frozen=True)
class AvgCount:
    """Saddle-point approximation of an ensemble-average count at length n.

    ``count == prefactor * exp(n * exponent)``; the prefactor carries the
    1/sqrt(n) order and the support-lattice factor (0 if the target index is
    off the lattice, in which case the exact count vanishes).
    """

    n: int
    count: float
    exponent: float
    prefactor: float


def avg_count(params: EnsembleParams, kind: str, n: int, abscissa: float) -> AvgCount:
    """Average count of weight/size n*abscissa objects at block length n.

    Exponent: (l/r) ln phi(x*) - (l-1) h(abscissa) - l*abscissa*ln x*.
    Prefactor: d*sqrt(r)/sqrt(2*pi*n*b_phi(x*)) with d the support period of
    phi, or 0 when the edge count n*l*abscissa falls off phi's support
    lattice (then the exact average is 0).  Needs n >= 1, r dividing n*l.
    """
    if n < 1:
        raise ValueError(f"block length n must be positive, got {n}")
    params.check_count(n)
    l, r = params.left_degree, params.right_degree
    point = growth_point(params, kind, abscissa)
    k = n * l * abscissa
    k_int = round(k)
    if abs(k - k_int) > 1e-9:
        raise ValueError(f"n*l*abscissa = {k} is not integral")
    d = exactcomb.check_poly(r, kind).support_period()
    if k_int % d != 0:
        return AvgCount(n=n, count=0.0, exponent=point.growth, prefactor=0.0)
    prefactor = d * math.sqrt(r) / math.sqrt(2.0 * math.pi * n * point.curvature_b)
    return AvgCount(n=n, count=prefactor * math.exp(n * point.growth),
                    exponent=point.growth, prefactor=prefactor)


# repr of the cold solve_saddle result (no seed), (x, b)
COLD_SADDLE_REPRS = [
    ((3, 6), "weight", 0.01, "(0.04531325963963412, 0.11689097568170917)"),
    ((3, 6), "weight", 0.3, "(0.4365977748807075, 1.3861195851311505)"),
    ((3, 6), "weight", 0.7, "(2.290437692389137, 1.3861195851311479)"),
    ((3, 6), "stopping", 0.01, "(0.04345813233159718, 0.1216102223303646)"),
    ((3, 6), "stopping", 0.3, "(0.338528620641349, 1.5266400062178294)"),
    ((3, 6), "stopping", 0.7, "(2.268463573907022, 1.1741419710231256)"),
    ((12, 24), "weight", 0.01, "(0.021801760086502087, 0.43964962027424137)"),
    ((12, 24), "weight", 0.3, "(0.4285714291745891, 5.040000171300036)"),
    ((12, 24), "weight", 0.7, "(2.3333333300494594, 5.040000171300221)"),
    ((12, 24), "stopping", 0.01, "(0.019777718661773247, 0.47759800837719324)"),
    ((12, 24), "stopping", 0.3, "(0.4275173442952519, 4.968213841810936)"),
    ((12, 24), "stopping", 0.7, "(2.3333333332176416, 5.0399999962314155)"),
    ((3, 64), "weight", 0.01, "(0.014171053805100822, 1.0240666221642214)"),
    ((3, 64), "weight", 0.3, "(0.4285714285714285, 13.439999999999884)"),
    ((3, 64), "weight", 0.7, "(2.333333333333332, 13.440000000000282)"),
    ((3, 64), "stopping", 0.01, "(0.012166184842086241, 1.1393430676401957)"),
    ((3, 64), "stopping", 0.3, "(0.42857142662976877, 13.43999891240287)"),
    ((3, 64), "stopping", 0.7, "(2.333333333333332, 13.440000000000282)"),
]


class TestSolveSaddle:
    @pytest.mark.parametrize("params", TESTED_ENSEMBLES)
    def test_weight_symmetry_gives_unit_saddle(self, params):
        assert solve_saddle(params, "weight", 0.5)[0] == pytest.approx(
            1.0, abs=1e-12)

    def test_agrees_with_plain_bisection(self):
        target = 6 * 0.1
        lo, hi = 1e-10, 10.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if saddle_stats_uni(P36, "weight", mid)[0] < target:
                lo = mid
            else:
                hi = mid
        assert solve_saddle(P36, "weight", 0.1)[0] == pytest.approx(
            0.5 * (lo + hi), abs=1e-10)

    def test_stopping_root_grows_toward_one(self):
        xs = [solve_saddle(P36, "stopping", s)[0] for s in (0.5, 0.9, 0.99)]
        assert xs[0] < xs[1] < xs[2]
        assert math.isfinite(xs[2])

    @pytest.mark.parametrize("params", TESTED_ENSEMBLES)
    @pytest.mark.parametrize("kind", ["weight", "stopping"])
    def test_residual_tolerance_on_grid(self, params, kind):
        r = params.right_degree
        for w in np.linspace(0.005, 0.995, 200):
            x = solve_saddle(params, kind, float(w))[0]
            assert abs(saddle_stats_uni(params, kind, x)[0] - r * w) < 1e-12

    @pytest.mark.parametrize("kind", ["weight", "stopping"])
    def test_mean_statistic_increasing(self, kind):
        # monotonicity justifies the unique root
        xs = np.geomspace(1e-4, 1e3, 200)
        vals = [saddle_stats_uni(P36, kind, float(x))[0] for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("kind", ["weight", "stopping"])
    def test_neighbour_seed_matches_cold_root(self, kind):
        r = P36.right_degree
        for w in (0.01, 0.1, 0.3, 0.7):
            seed = solve_saddle(P36, kind, w - 1e-4)[0]
            x = solve_saddle(P36, kind, w, seed)[0]
            assert abs(saddle_stats_uni(P36, kind, x)[0] - r * w) < 1e-12
            cold = solve_saddle(P36, kind, w)[0]
            assert abs(x - cold) <= 8 * math.ulp(cold)

    @pytest.mark.parametrize("kind", ["weight", "stopping"])
    @pytest.mark.parametrize("scale", [1e3, 1e-3, 1e160, 1e300])
    def test_far_seed_falls_back_to_cold_root(self, kind, scale):
        # 1e160 and 1e300 overflow inside the Newton steps
        cold = solve_saddle(P36, kind, 0.3)[0]
        x = solve_saddle(P36, kind, 0.3, scale * cold)[0]
        assert abs(x - cold) <= 8 * math.ulp(cold)

    @pytest.mark.parametrize("seed", [0.0, -1.0, -math.inf, math.nan, math.inf])
    def test_unusable_seed_is_ignored(self, seed):
        assert solve_saddle(P36, "weight", 0.3, seed) == solve_saddle(
            P36, "weight", 0.3)

    @pytest.mark.parametrize("pair,kind,omega,want", COLD_SADDLE_REPRS,
                             ids=[f"{l}:{r}-{k}-{w}" for (l, r), k, w, _ in COLD_SADDLE_REPRS])
    def test_cold_root_bits(self, pair, kind, omega, want):
        assert repr(solve_saddle(EnsembleParams(*pair), kind, omega)) == want

    def test_boundary_abscissas_rejected(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                solve_saddle(P36, "weight", bad)


def _reuse_cases():
    for r in (3, 4, 6, 7, 24, 64):
        for kind in ("weight", "stopping"):
            for w in (1e-3, 0.05, 0.3, 0.5, 0.9, 0.999):
                if kind == "weight" and r % 2 and w >= (r - 1) / r:
                    continue  # no saddle: p has degree r - 1
                yield EnsembleParams(2, r), kind, w


class TestSaddleVarianceReuse:
    """b at the saddle comes from the solve's own last evaluation."""

    @pytest.mark.parametrize("params,kind,w", list(_reuse_cases()))
    def test_reused_b_is_exact(self, params, kind, w):
        # cold, seeded from the abscissa 1e-4 below, and a seed whose
        # Newton steps overflow, which falls back to the bracket path
        near = solve_saddle(params, kind, w - 1e-4)[0]
        for seed in (None, near, 1e300):
            x, b = solve_saddle(params, kind, w, seed)
            assert b == saddle_stats_uni(params, kind, x)[1]
            gp = growth_point(params, kind, w, seed)
            assert gp.saddle_x == x
            assert gp.curvature_b == b

    @pytest.mark.parametrize("kind", ["weight", "stopping"])
    @pytest.mark.parametrize("scale", [1e-3, 1e3, 1e8])
    def test_polish_returns_b_of_its_iterate(self, kind, scale):
        # far starts run all eight steps (or keep an earlier best iterate)
        cold = solve_saddle(P36, kind, 0.3)[0]
        x, b, _ = firstmoment._newton_polish(P36, kind, 6 * 0.3, scale * cold)
        assert b == saddle_stats_uni(P36, kind, x)[1]

    def test_polish_returns_b_of_its_best_iterate(self):
        # from 1e-6 the steps overshoot to x near 98, further from the root
        # than the start, which is returned with its own b
        params = EnsembleParams(2, 3)
        x, b, _ = firstmoment._newton_polish(params, "weight", 3 * 0.05, 1e-6)
        assert x == 1e-6
        assert b == saddle_stats_uni(params, "weight", x)[1]


def _count_uni_calls(monkeypatch):
    """Count saddle_stats_uni calls made inside and outside solve_saddle,
    through the firstmoment and secondmoment bindings of saddle_stats_uni
    and the firstmoment binding of solve_saddle, its one owner."""
    counts = {"inside": 0, "outside": 0}
    depth = [0]
    real_uni, real_solve = genfun.saddle_stats_uni, firstmoment.solve_saddle

    def uni(*args):
        counts["inside" if depth[0] else "outside"] += 1
        return real_uni(*args)

    def solve(*args, **kwargs):
        depth[0] += 1
        try:
            return real_solve(*args, **kwargs)
        finally:
            depth[0] -= 1

    for module in (firstmoment, secondmoment):
        monkeypatch.setattr(module, "saddle_stats_uni", uni, raising=False)
    monkeypatch.setattr(firstmoment, "solve_saddle", solve)
    return counts


class TestSaddleEvaluations:
    @pytest.mark.parametrize("kind", ["weight", "stopping"])
    @pytest.mark.parametrize("seeded", [False, True])
    def test_growth_point_evaluates_only_in_the_solve(self, monkeypatch, kind,
                                                      seeded):
        seed = solve_saddle(P36, kind, 0.3 - 1e-4)[0] if seeded else None
        counts = _count_uni_calls(monkeypatch)
        growth_point(P36, kind, 0.3, seed)
        assert counts["inside"] > 0
        assert counts["outside"] == 0

    @pytest.mark.parametrize("kind", ["weight", "stopping"])
    def test_delta_evaluates_only_in_the_solve(self, monkeypatch, kind):
        counts = _count_uni_calls(monkeypatch)
        point = growth_point(P36, kind, 0.3)
        assert secondmoment.delta(point).delta is not None
        assert counts["inside"] > 0
        assert counts["outside"] == 0

    @pytest.mark.parametrize("kind", ["weight", "stopping"])
    def test_bracket_reads_the_mean_alone(self, monkeypatch, kind):
        # doubling and bisection take a(x) only: b is evaluated by the
        # Newton polish, at most 9 times, where the bracket made about 80 calls
        counts = _count_uni_calls(monkeypatch)
        firstmoment.solve_saddle(P36, kind, 0.3)
        assert 0 < counts["inside"] <= 9


class TestHaymanCoeff:
    def test_binomial_within_two_percent(self):
        poly = ExactPolynomial(1, {0: 1, 1: 1})
        approx = hayman_coeff(poly, 60, 18)
        assert approx == pytest.approx(math.comb(60, 18), rel=0.02)

    def test_off_lattice_index_is_zero(self):
        p6 = exactcomb.check_poly(6, "weight")
        assert hayman_coeff(p6, 50, 11) == 0.0

    def test_ratio_tightens_with_power(self):
        p6 = exactcomb.check_poly(6, "weight")
        ratios = {}
        for m in (50, 100):
            k = m // 5
            ratios[m] = hayman_coeff(p6, m, k) / power_coeff(p6, m, k)
        assert 0.95 <= ratios[50] <= 1.05
        assert abs(ratios[100] - 1.0) < abs(ratios[50] - 1.0)

    def test_stopping_polynomial_full_lattice(self):
        b6 = exactcomb.check_poly(6, "stopping")
        approx = hayman_coeff(b6, 40, 30)
        assert approx == pytest.approx(power_coeff(b6, 40, 30), rel=0.05)

    def test_doubling_block_length_tightens(self):
        # (3,6) at relative weight 0.3: each doubling shrinks the error
        errs = checks.hayman_errors(P36, 0.3, (20, 40, 80))
        assert errs[40] < errs[20]
        assert errs[80] < errs[40]

    def test_single_term_rejected(self):
        with pytest.raises(UnsupportedPolyError):
            hayman_coeff(ExactPolynomial(1, {0: 5}), 10, 3)

    def test_missing_constant_term_rejected(self):
        with pytest.raises(UnsupportedPolyError):
            hayman_coeff(ExactPolynomial(1, {1: 1, 2: 1}), 10, 3)

    def test_index_range_enforced(self):
        poly = ExactPolynomial(1, {0: 1, 1: 1})
        with pytest.raises(ValueError):
            hayman_coeff(poly, 10, 0)
        with pytest.raises(ValueError):
            hayman_coeff(poly, 10, 10)


class TestAvgCount:
    def test_weight_accuracy_and_convergence(self):
        errs = {}
        for n in (6, 12, 24, 48):
            approx = avg_count(P36, "weight", n, 1.0 / 3.0).count
            exact = float(exact_first_moment(P36, n, n // 3, "weight"))
            errs[n] = abs(approx / exact - 1.0)
        assert errs[6] < 0.25
        # strict improvement holds from n=12 on (6->12 is a small-n blip)
        assert errs[48] < errs[24] < errs[12]

    def test_stopping_accuracy(self):
        errs = {}
        for n in (6, 12):
            approx = avg_count(P36, "stopping", n, 1.0 / 3.0).count
            exact = float(exact_first_moment(P36, n, n // 3, "stopping"))
            errs[n] = abs(approx / exact - 1.0)
        assert errs[6] < 0.25
        assert errs[12] < errs[6]

    def test_odd_edge_count_returns_zero(self):
        ac = avg_count(P36, "weight", 6, 0.5)  # n*l*w = 9 odd
        assert ac.count == 0.0 and ac.prefactor == 0.0
        assert exact_first_moment(P36, 6, 3, "weight") == 0

    def test_count_factorization(self):
        ac = avg_count(P36, "weight", 12, 1.0 / 3.0)
        assert ac.count == pytest.approx(
            ac.prefactor * math.exp(ac.n * ac.exponent), rel=1e-12)

    def test_block_length_must_fit_the_degrees(self):
        # r = 6 does not divide n*l = 15: no graph, as the exact oracle says
        for call in (lambda: avg_count(P36, "weight", 5, 0.4),
                     lambda: exact_first_moment(P36, 5, 2, "weight"),
                     lambda: checks.hayman_errors(P36, 0.4, (5,)),
                     lambda: checks.llt_errors(P36, 5, 0.4, 0.2, [(2, 0, 2)])):
            with pytest.raises(DivisibilityError, match=r"^r=6 must divide n\*l=15$"):
                call()

    @pytest.mark.parametrize("n", [0, -4])
    def test_nonpositive_block_length_rejected(self, n):
        with pytest.raises(ValueError, match=rf"^block length n must be positive, got {n}$"):
            avg_count(P36, "weight", n, 0.4)

    def test_boundary_rejected_but_oracle_covers_it(self):
        with pytest.raises(ValueError):
            avg_count(P36, "weight", 6, 1.0)
        # r even: the all-ones word satisfies every check
        assert exact_first_moment(P36, 6, 6, "weight") == 1


class TestGrowthRate:
    @pytest.mark.parametrize("params", TESTED_ENSEMBLES)
    def test_half_abscissa_closed_form(self, params):
        assert growth_point(params, "weight", 0.5).growth == pytest.approx(
            params.design_rate * math.log(2.0), abs=1e-12)

    def test_vanishes_at_min_abscissa(self):
        wmin = min_abscissa(P36, "weight")
        assert abs(growth_point(P36, "weight", wmin).growth) < 1e-8

    def test_negative_below_typical_minimum(self):
        assert growth_point(P36, "weight", 0.001).growth < 0.0

    def test_not_symmetric_for_odd_degree(self):
        params = EnsembleParams(3, 5)
        assert growth_point(params, "weight", 0.3).growth != pytest.approx(
            growth_point(params, "weight", 0.7).growth, abs=1e-6)

    def test_growth_point_curvature_positive(self):
        gp = growth_point(P36, "weight", 0.3)
        assert gp.curvature_b > 0.0
        assert gp.saddle_x > 0.0


class TestUnknownKind:
    @pytest.mark.parametrize("call", [
        lambda: growth_point(P36, "bogus", 0.3),
        lambda: min_abscissa(P36, "bogus"),
        lambda: avg_count(P36, "bogus", 12, 1.0 / 3.0),
    ], ids=["growth_point", "min_abscissa", "avg_count"])
    def test_rejected_by_the_saddle_solve(self, call):
        with pytest.raises(ValueError, match=r"^kind must be one of .*'bogus'$"):
            call()


class TestMinAbscissa:
    @pytest.mark.parametrize("params,target", [
        (EnsembleParams(3, 6), 0.0227334),
        (EnsembleParams(3, 4), 0.112159),
        (EnsembleParams(6, 12), 0.0956337),
    ])
    def test_reference_values(self, params, target):
        assert min_abscissa(params, "weight") == pytest.approx(
            target, abs=1e-5)

    def test_stopping_root_is_growth_sign_change(self):
        smin = min_abscissa(P36, "stopping")
        assert growth_point(P36, "stopping", smin - 1e-6).growth < 0.0
        assert growth_point(P36, "stopping", smin + 1e-6).growth > 0.0

    @pytest.mark.parametrize("l,r", [(2, 4)])
    def test_no_root_at_left_edge(self, l, r):
        # (2,4) has no zero: its growth rate stays positive down to 1e-12
        with pytest.raises(NoRootError,
                           match="growth rate nonnegative at the left edge"):
            min_abscissa(EnsembleParams(l, r), "weight")

    @pytest.mark.parametrize("l,r,kind,zero", [
        (3, 48, "weight", 2.61977e-05), (3, 40, "weight", 4.58647e-05),
        (3, 64, "weight", 1.08747e-05), (3, 31, "stopping", 9.58178e-05)])
    def test_zero_below_the_grid(self, l, r, kind, zero):
        # the growth rate is already positive at the first grid point,
        # 1e-4, and changes sign below it: halve, then bisect the cell
        params = EnsembleParams(l, r)
        assert growth_point(params, kind, 1e-4).growth > 0.0
        wmin = min_abscissa(params, kind)
        assert wmin == pytest.approx(zero, rel=1e-5)
        assert growth_point(params, kind, wmin * (1 - 1e-4)).growth < 0.0
        assert growth_point(params, kind, wmin * (1 + 1e-4)).growth > 0.0


def _scan_min_abscissa(params, kind):
    """Reference for min_abscissa: the linear scan it replaced.  It visits
    every point of the 1e-4 grid in turn, each seeded from the one before,
    and bisects the first cell where the growth rate is nonnegative.

    Below the grid, where that scan stopped, it steps down from 1e-4 by
    factors of 2**-0.25 to the first negative point (raising the search's
    NoRootError once below 1e-12) and bisects that step with unseeded
    solves to relative width 1e-12.  The search halves instead, so there
    the two agree to its relative tolerance 1e-5, not to the bit."""
    step = 1e-4
    w_prev = step
    point = firstmoment.growth_point(params, kind, w_prev)
    if point.growth >= 0.0:
        factor = 2.0 ** -0.25
        hi = step
        while firstmoment.growth_point(params, kind, factor * hi).growth >= 0.0:
            hi *= factor
            if hi < 1e-12:
                raise NoRootError(
                    "growth rate nonnegative at the left edge of the grid")
        lo = factor * hi
        while hi - lo > 1e-12 * hi:
            mid = 0.5 * (lo + hi)
            if firstmoment.growth_point(params, kind, mid).growth < 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)
    w = w_prev + step
    while w < 0.5 + 0.5 * step:
        w_cur = min(w, 0.5 - 1e-12)
        lo_x = point.saddle_x
        point = firstmoment.growth_point(params, kind, w_cur, lo_x)
        if point.growth >= 0.0:
            def below(v):
                nonlocal lo_x
                mid = firstmoment.growth_point(params, kind, v, lo_x)
                if mid.growth < 0.0:
                    lo_x = mid.saddle_x
                return mid.growth < 0.0

            return bisect_root(below, w_prev, w_cur, 64, 1e-9)
        w_prev = w_cur
        w += step
    raise NoRootError("no growth-rate sign change on (0, 0.5)")


def _outcome(search, params, kind):
    """repr of the result, or the type and message of the exception."""
    try:
        return repr(search(params, kind))
    except Exception as exc:  # compared, not handled
        return f"{type(exc).__name__}: {exc}"


# (l, r) with l in {2, 3, 4, 6, r // 2, r - 1}, for odd and even r: every
# (2, r) has no zero, and (3, r) has its zero below the grid for
# 31 <= r <= 64 (stopping) and 32 <= r <= 64 (weight)
_SEARCH_RS = (3, 4, 5, 6, 7, 8, 12, 16, 17, 24, 25, 31, 32, 33, 48, 63, 64)
SEARCH_CASES = sorted(
    {(l, r, kind)
     for r in range(3, 65)
     for l in ((2, 3, 4, 6, r // 2, r - 1) if r in _SEARCH_RS else (3,))
     if 2 <= l < r
     for kind in ("weight", "stopping")})
# every (2, r) has no zero, and (3, r) its zero below the grid from r = 31
NO_ZERO_CASES = [case for case in SEARCH_CASES if case[0] == 2]
BELOW_GRID_CASES = [(l, r, kind) for l, r, kind in SEARCH_CASES
                    if l == 3 and r >= (31 if kind == "stopping" else 32)]
TABLE_CASES = [(l, r, kind)
               for l, r in ((3, 6), (6, 12), (12, 24), (24, 48), (3, 4), (6, 8),
                            (12, 16))
               for kind in ("weight", "stopping")]


class TestMinAbscissaSearch:
    """min_abscissa searches the grid of the linear scan it replaced and
    returns the same float, or raises the same error."""

    @pytest.mark.parametrize("l,r,kind", SEARCH_CASES,
                             ids=[f"{l}:{r}-{k}" for l, r, k in SEARCH_CASES])
    def test_same_outcome_as_the_scan(self, l, r, kind):
        params = EnsembleParams(l, r)
        got = _outcome(min_abscissa, params, kind)
        want = _outcome(_scan_min_abscissa, params, kind)
        if (l, r, kind) in BELOW_GRID_CASES:
            # the search halves below the grid, the reference steps finer
            assert float(got) == pytest.approx(float(want), rel=2e-5)
        else:
            assert got == want

    @pytest.mark.parametrize("l,r,kind", NO_ZERO_CASES,
                             ids=[f"{l}:{r}-{k}" for l, r, k in NO_ZERO_CASES])
    def test_no_zero_down_to_the_floor(self, l, r, kind):
        with pytest.raises(NoRootError,
                           match="^growth rate nonnegative at the left edge of the grid$"):
            min_abscissa(EnsembleParams(l, r), kind)

    @pytest.mark.parametrize("l,r,kind", BELOW_GRID_CASES,
                             ids=[f"{l}:{r}-{k}" for l, r, k in BELOW_GRID_CASES])
    def test_zero_below_the_grid_is_a_sign_change(self, l, r, kind):
        params = EnsembleParams(l, r)
        assert growth_point(params, kind, 1e-4).growth >= 0.0
        wmin = min_abscissa(params, kind)
        assert 1e-12 < wmin < 1e-4
        assert growth_point(params, kind, wmin * (1 - 1e-4)).growth < 0.0
        assert growth_point(params, kind, wmin * (1 + 1e-4)).growth > 0.0

    @pytest.mark.parametrize("shift", [0.1, 0.3, 0.346573585, 1.0])
    def test_same_outcome_with_the_zero_moved(self, monkeypatch, shift):
        # growth - shift on (3,6) weight, whose growth at 1/2 is ln(2)/2:
        # the zero moves up into the last grid cell (0.4999, 0.5) for
        # shift 0.346573585, and off the grid for shift 1
        real = firstmoment.growth_point

        def shifted(*args):
            point = real(*args)
            return dataclasses.replace(point, growth=point.growth - shift)

        monkeypatch.setattr(firstmoment, "growth_point", shifted)
        outcome = _outcome(min_abscissa, P36, "weight")
        assert outcome == _outcome(_scan_min_abscissa, P36, "weight")
        if shift == 1.0:
            assert outcome == "NoRootError: no growth-rate sign change on (0, 0.5)"
        elif shift > 0.3465:
            assert float(outcome) > 0.4999

    def test_few_growth_points(self, monkeypatch):
        calls = [0]
        real = firstmoment.growth_point

        def counted(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(firstmoment, "growth_point", counted)
        for l, r, kind in TABLE_CASES + SEARCH_CASES:
            calls[0] = 0
            try:
                min_abscissa(EnsembleParams(l, r), kind)
            except NoRootError:
                pass
            # the scan made up to 5,000; the search makes at most 41 here
            assert calls[0] <= 50, (l, r, kind, calls[0])


class TestGrowBracket:
    def test_doubles_past_the_root(self):
        calls = []

        def below(v):
            calls.append(v)
            return v < 5.0

        assert grow_bracket(below, 1e-12, 1.0, 1e8, "test") == (4.0, 8.0)
        assert calls == [1.0, 2.0, 4.0, 8.0]

    def test_root_inside_the_first_bracket(self):
        assert grow_bracket(lambda v: v < 0.5, 1e-12, 1.0, 1e8, "test") == (1e-12, 1.0)

    def test_raises_past_the_limit(self):
        with pytest.raises(NoBracketError, match="for test"):
            grow_bracket(lambda v: True, 1.0, 2.0, 100.0, "test")


class TestBisectionStop:
    """bisect_root stops once the midpoint rounds onto an end of the bracket."""

    @staticmethod
    def _reference(below, lo, hi, steps):
        # the loop without the stop
        for _ in range(steps):
            mid = 0.5 * (lo + hi)
            if below(mid):
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    @pytest.mark.parametrize("below,lo,hi", [
        (lambda v: v * v < 2.0, 1.0, 2.0),
        (lambda v: v < 0.3, 1e-12, 1.0),
        (lambda v: v < 0.75, 0.5, 1.0),  # the root is a double
        (lambda v: math.log(v) < -18.0, 1e-8, 2e-8),
        (lambda v: False, 1.0, 2.0),  # root below the bracket
        (lambda v: True, 1.0, 2.0),  # root above the bracket
    ], ids=["sqrt2", "wide", "exact", "log", "below", "above"])
    def test_same_float_as_full_loop(self, below, lo, hi):
        calls = []

        def counted(v):
            calls.append(v)
            return below(v)

        got = bisect_root(counted, lo, hi, 200)
        assert repr(got) == repr(self._reference(below, lo, hi, 200))
        assert len(calls) <= 60

    @pytest.mark.parametrize("lo,hi,tol", [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                           (1.0, 0.0, 1e-6), (0.0, 1.0, 1e-6)])
    def test_reversed_bracket(self, lo, hi, tol):
        # below(v) says the root lies on the hi side of v, whichever end is
        # larger, and the stop test reads the bracket's width either way
        def below(v):
            return v < 0.3 if lo < hi else v > 0.3

        got = bisect_root(below, lo, hi, 200, tol)
        assert got == pytest.approx(0.3, abs=max(tol, 1e-16))

    def test_verify_hayman_rows_unchanged(self, capsys):
        assert main(["verify", "--suite", "hayman", "--format", "json"]) == 0
        assert capsys.readouterr().out == HAYMAN_JSON


# ldpc-moments verify --suite hayman --format json, recorded while the
# hayman_coeff bisection still ran all 200 steps
HAYMAN_JSON = """\
[
  {
    "check": "binomial_60_18",
    "status": "PASS",
    "measured": 0.005238038019883096,
    "tolerance": 0.02
  },
  {
    "check": "weight_poly_ratio",
    "status": "PASS",
    "measured": 1.0168361668109054,
    "tolerance": "0.95..1.05"
  },
  {
    "check": "convergence_n20_n40",
    "status": "PASS",
    "measured": "0.0009252->0.0001851",
    "tolerance": "decreasing <0.1"
  },
  {
    "check": "off_lattice_zero",
    "status": "PASS",
    "measured": 0.0,
    "tolerance": 0.0
  },
  {
    "check": "single_term_poly",
    "status": "SKIP",
    "measured": "UNSUPPORTED_POLY",
    "tolerance": "degenerate input"
  }
]
"""

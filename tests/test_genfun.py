"""Generating functions and their log-derivative statistics."""

import math

import numpy as np
import pytest

from ldpc_moments import exactcomb
from ldpc_moments.genfun import (
    EnsembleParams,
    pair_gf_stop,
    pair_gf_weight,
    pair_stats,
    pair_vgh,
    saddle_stats_uni,
    stop_gf,
    weight_gf,
)

P36 = EnsembleParams(3, 6)
P34 = EnsembleParams(3, 4)


class TestEnsembleParams:
    def test_design_rate(self):
        assert P36.design_rate == pytest.approx(0.5)
        assert EnsembleParams(3, 4).design_rate == pytest.approx(0.25)

    @pytest.mark.parametrize("l,r", [(1, 4), (2, 2), (5, 3), (0, 6)])
    def test_degree_ordering_rejected(self, l, r):
        with pytest.raises(ValueError):
            EnsembleParams(l, r)

    def test_right_degree_cap(self):
        EnsembleParams(32, 64)  # at the cap
        with pytest.raises(ValueError):
            EnsembleParams(32, 65)


class TestWeightGF:
    def test_constant_term(self):
        assert weight_gf(P36, 0.0) == 1.0

    def test_odd_part_vanishes_at_one(self):
        assert weight_gf(P36, 1.0) == 32.0  # 2^(r-1)

    def test_hand_value(self):
        assert weight_gf(P36, 0.5) == pytest.approx(5.703125, abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            weight_gf(P36, -0.1)


class TestStopGF:
    def test_constant_term(self):
        assert stop_gf(P36, 0.0) == 1.0

    def test_values_at_one(self):
        assert stop_gf(P36, 1.0) == 58.0
        assert stop_gf(P34, 1.0) == 12.0


class TestPairWeight:
    def test_zero_point(self):
        assert pair_gf_weight(P34, (0.0, 0.0, 0.0)) == 1.0

    def test_all_ones(self):
        # only the all-plus bracket survives: 4^4 / 4
        assert pair_gf_weight(P34, (1.0, 1.0, 1.0)) == 64.0

    def test_squared_identity_point(self):
        assert pair_gf_weight(P34, (0.5, 0.25, 0.5)) == pytest.approx(
            6.56640625, abs=1e-12)

    @pytest.mark.parametrize("r", [4, 5, 6, 12, 31, 32])
    def test_diagonal_collapses_to_single_check(self, r):
        params = EnsembleParams(2, r) if r > 2 else EnsembleParams(2, 4)
        for x in np.linspace(0.0, 3.0, 100):
            f = pair_gf_weight(params, (x, x * x, x))
            assert f == pytest.approx(weight_gf(params, x) ** 2, rel=1e-12)

    def test_symmetric_in_outer_variables(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x1, x2, x3 = rng.uniform(0.05, 2.0, size=3)
            assert pair_gf_weight(P36, (x1, x2, x3)) == pytest.approx(
                pair_gf_weight(P36, (x3, x2, x1)), rel=1e-12)


class TestPairStop:
    def test_zero_point(self):
        assert pair_gf_stop(P34, (0.0, 0.0, 0.0)) == 1.0

    def test_all_ones(self):
        assert pair_gf_stop(P34, (1.0, 1.0, 1.0)) == 144.0  # 256-64-20-28

    @pytest.mark.parametrize("x", [0.3, 1.0, 2.0])
    def test_diagonal_collapses_to_single_check(self, x):
        assert pair_gf_stop(P36, (x, x * x, x)) == pytest.approx(
            stop_gf(P36, x) ** 2, rel=1e-12)

    @pytest.mark.parametrize("r", [4, 6, 12, 32])
    def test_diagonal_grid(self, r):
        params = EnsembleParams(2, r)
        for x in np.linspace(0.0, 3.0, 100):
            assert pair_gf_stop(params, (x, x * x, x)) == pytest.approx(
                stop_gf(params, x) ** 2, rel=1e-11)

    def test_symmetric_in_outer_variables(self):
        # nontrivial for g: the printed form is asymmetric before expansion
        rng = np.random.default_rng(11)
        for _ in range(50):
            x1, x2, x3 = rng.uniform(0.05, 2.0, size=3)
            assert pair_gf_stop(P36, (x1, x2, x3)) == pytest.approx(
                pair_gf_stop(P36, (x3, x2, x1)), rel=1e-12)


class TestUnivariateStats:
    @pytest.mark.parametrize("r", [4, 6, 8, 24])
    def test_weight_symmetry_point(self, r):
        params = EnsembleParams(r - 1, r) if r - 1 >= 2 else EnsembleParams(2, r)
        assert saddle_stats_uni(params, "weight", 1.0).a == pytest.approx(
            r / 2.0, abs=1e-12)

    def test_stopping_mean_vanishes_at_origin(self):
        assert saddle_stats_uni(P36, "stopping", 1e-8).a < 1e-6

    def test_matches_log_derivative(self):
        # central finite difference of ln p, step 1e-5
        x, step = 0.5, 1e-5
        fd = (math.log(weight_gf(P36, x + step))
              - math.log(weight_gf(P36, x - step))) / (2 * step)
        assert saddle_stats_uni(P36, "weight", x).a == pytest.approx(
            x * fd, abs=1e-8)

    @pytest.mark.parametrize("kind", ["weight", "stopping"])
    @pytest.mark.parametrize("r", [4, 6, 8, 12, 24])
    def test_curvature_positive(self, kind, r):
        params = EnsembleParams(3, r) if r > 3 else EnsembleParams(2, r)
        for x in np.geomspace(1e-3, 50.0, 40):
            assert saddle_stats_uni(params, kind, x).b > 0.0

    @pytest.mark.parametrize("r", [4, 6, 12, 24, 48, 64])
    def test_stopping_mean_saturates_at_degree(self, r):
        params = EnsembleParams(2, r)
        assert saddle_stats_uni(params, "stopping", 1e6).a == pytest.approx(
            r, abs=1e-3)

    def test_requires_positive_x(self):
        with pytest.raises(ValueError):
            saddle_stats_uni(P36, "weight", 0.0)


class TestTrivariateStats:
    @pytest.mark.parametrize("kind", ["weight", "stopping"])
    @pytest.mark.parametrize("r", [4, 6])
    def test_b_matrix_symmetric(self, kind, r):
        params = EnsembleParams(3, r)
        rng = np.random.default_rng(3)
        for _ in range(20):
            pt = rng.uniform(0.05, 1.5, size=3)
            B = np.array(pair_stats(params, kind, *pt)[2])
            assert np.allclose(B, B.T, atol=1e-10)

    def test_mean_components_equal_on_symmetric_point(self):
        x = 0.7
        a = pair_stats(P34, "weight", x, x * x, x)[1]
        assert a[0] == pytest.approx(a[2], rel=1e-12)

    @pytest.mark.parametrize("kind", ["weight", "stopping"])
    def test_b_matches_finite_difference_of_mean(self, kind):
        pt = np.array([0.4, 0.2, 0.7])
        B = np.array(pair_stats(P36, kind, *pt)[2])
        step = 1e-6
        for j in range(3):
            up, dn = pt.copy(), pt.copy()
            up[j] += step
            dn[j] -= step
            a_up = np.array(pair_stats(P36, kind, *up)[1])
            a_dn = np.array(pair_stats(P36, kind, *dn)[1])
            col = pt[j] * (a_up - a_dn) / (2 * step)
            assert np.allclose(col, B[:, j], atol=1e-6)

    def test_gradient_hessian_match_finite_differences(self):
        pt = (0.4, 0.2, 0.7)
        step = 1e-5
        for kind in ("weight", "stopping"):
            val, grad, hess = pair_vgh(P36, kind, *pt)
            fn = pair_gf_weight if kind == "weight" else pair_gf_stop
            assert val == pytest.approx(fn(P36, pt), rel=1e-12)
            for i in range(3):
                up = list(pt)
                dn = list(pt)
                up[i] += step
                dn[i] -= step
                fd = (fn(P36, up) - fn(P36, dn)) / (2 * step)
                assert grad[i] == pytest.approx(fd, rel=1e-7)
        assert hess[0][2] == hess[2][0]

    def test_requires_positive_point(self):
        with pytest.raises(ValueError):
            pair_stats(P36, "weight", 0.0, 0.5, 0.5)


def test_pair_weight_support_is_parity_lattice():
    # forces the factor 4 in the multidimensional saddle point formula
    for r in (4, 5, 6, 8):
        poly = exactcomb.expand_pair_gf(EnsembleParams(2, r), "weight")
        for (k1, k2, k3) in poly.terms:
            assert k1 % 2 == k2 % 2 == k3 % 2


def test_curvature_matrix_survives_huge_points():
    # near the overlap-range corners the saddle components blow up and the
    # generating function reaches ~1e155; the rank-one correction must then
    # be computed via ratios (val**2 overflows).  High-precision oracle.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    params = EnsembleParams(24, 48)
    r = 48
    t1, t2 = 787.374, 138.128
    B = pair_stats(params, "weight", t1, t2, t1)[2]
    signs = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    x = [mp.mpf(t1), mp.mpf(t2), mp.mpf(t1)]
    val = sum((1 + s[0] * x[0] + s[1] * x[1] + s[2] * x[2]) ** r
              for s in signs) / 4
    grad = [sum(s[i] * (1 + s[0] * x[0] + s[1] * x[1] + s[2] * x[2]) ** (r - 1)
                for s in signs) * r / 4 for i in range(3)]
    hess = [[sum(s[i] * s[j] * (1 + s[0] * x[0] + s[1] * x[1] + s[2] * x[2]) ** (r - 2)
                 for s in signs) * r * (r - 1) / 4 for j in range(3)]
            for i in range(3)]
    for i in range(3):
        for j in range(3):
            ref = x[i] * x[j] * (hess[i][j] / val - grad[i] * grad[j] / val ** 2)
            if i == j:
                ref += x[i] * grad[i] / val
            assert B[i][j] == pytest.approx(float(ref), rel=1e-9)

"""Generating functions and their log-derivative statistics."""

import hashlib
import math

import numpy as np
import pytest

from ldpc_moments import exactcomb
from ldpc_moments.errors import DivisibilityError
from ldpc_moments.genfun import (
    EnsembleParams,
    pair_ratios,
    pair_stats,
    pair_vgh,
    saddle_stats_uni,
    stop_gf,
    weight_gf,
)
from pair_gf_oracle import pair_gf_stop, pair_gf_weight

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

    def test_check_count(self):
        assert P36.check_count(12) == 6
        assert EnsembleParams(3, 4).check_count(8) == 6
        with pytest.raises(DivisibilityError, match=r"^r=6 must divide n\*l=15$"):
            P36.check_count(5)


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
        assert saddle_stats_uni(params, "weight", 1.0)[0] == pytest.approx(
            r / 2.0, abs=1e-12)

    def test_stopping_mean_vanishes_at_origin(self):
        assert saddle_stats_uni(P36, "stopping", 1e-8)[0] < 1e-6

    def test_matches_log_derivative(self):
        # central finite difference of ln p, step 1e-5
        x, step = 0.5, 1e-5
        fd = (math.log(weight_gf(P36, x + step))
              - math.log(weight_gf(P36, x - step))) / (2 * step)
        assert saddle_stats_uni(P36, "weight", x)[0] == pytest.approx(
            x * fd, abs=1e-8)

    @pytest.mark.parametrize("kind", ["weight", "stopping"])
    @pytest.mark.parametrize("r", [4, 6, 8, 12, 24])
    def test_curvature_positive(self, kind, r):
        params = EnsembleParams(3, r) if r > 3 else EnsembleParams(2, r)
        for x in np.geomspace(1e-3, 50.0, 40):
            assert saddle_stats_uni(params, kind, x)[1] > 0.0

    @pytest.mark.parametrize("r", [4, 6, 12, 24, 48, 64])
    def test_stopping_mean_saturates_at_degree(self, r):
        params = EnsembleParams(2, r)
        assert saddle_stats_uni(params, "stopping", 1e6)[0] == pytest.approx(
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


# repr of pair_vgh and pair_stats at fixed points, recorded before the
# weight kernel was written out bracket by bracket
PAIR_KERNEL_POINTS = {"t3=t1": (0.37, 1.9, 0.37), "t3!=t1": (0.37, 1.9, 0.052)}
PAIR_KERNEL_REPRS = [
    (4, "weight", "t3=t1",
     "(49.65798088000001, [38.15084800000001, 59.76424, "
     "38.15084800000001], [[58.60559999999999, 25.75200000000001, "
     "48.885600000000004], [25.75200000000001, 58.60559999999999, "
     "25.752000000000002], [48.885600000000004, 25.752000000000002, "
     "58.60559999999999]])",
     "(49.65798088000001, [0.2842607272758691, 2.286682905501171, "
     "0.2842607272758691], [[0.3650238812225278, "
     "-0.28544724878129607, 0.05396649454933856], "
     "[-0.28544724878129607, 1.3182317424157077, "
     "-0.2854472487812962], [0.05396649454933856, "
     "-0.2854472487812962, 0.3650238812225278]])"),
    (4, "weight", "t3!=t1",
     "(40.45186062721599, [23.054217760000004, 53.88073119999999, "
     "19.834628032], [[56.99524799999999, 18.120000000000005, "
     "46.06175999999999], [18.120000000000005, 56.99524799999999, "
     "11.2512], [46.06175999999999, 11.2512, 56.99524799999999]])",
     "(40.45186062721599, [0.21086942451939975, 2.5307461187860225, "
     "0.02549698930214533], [[0.3592907923957638, "
     "-0.21875526975440132, 0.01653168454801645], "
     "[-0.21875526975440132, 1.2124331541791136, "
     "-0.03704637136735968], [0.01653168454801645, "
     "-0.03704637136735968, 0.028656733676704946]])"),
    (4, "stopping", "t3=t1",
     "(138.09892968, [135.94200800000002, 176.343352, "
     "135.94200800000002], [[84.3576, 136.4724, 125.94959999999999], "
     "[136.4724, 158.9952, 136.4724], [125.94959999999999, 136.4724, "
     "84.3576]])",
     "(138.09892968, [0.36422109191252067, 2.426176434360327, "
     "0.36422109191252067], [[0.3151893230625361, "
     "-0.18894456657031908, -0.007800856972579772], "
     "[-0.18894456657031908, 0.6960870700705819, "
     "-0.18894456657031908], [-0.007800856972579772, "
     "-0.18894456657031908, 0.3151893230625361]])"),
    (4, "stopping", "t3!=t1",
     "(98.96866344321599, [98.64465295999999, 135.69974656, "
     "110.65014003199998], [[68.24644799999999, 109.90540799999998, "
     "108.62495999999999], [109.90540799999998, 132.42820799999998, "
     "119.14775999999998], [108.62495999999999, 119.14775999999998, "
     "75.11524799999998]])",
     "(98.96866344321599, [0.3687886683055116, 2.605163184930062, "
     "0.058137667838318224], [[0.32718658639626064, "
     "-0.18006813793554832, -0.0003232810626949567], "
     "[-0.18006813793554832, 0.648764746531926, "
     "-0.03251340478311917], [-0.0003232810626949567, "
     "-0.03251340478311917, 0.056809961659579425]])"),
    (6, "weight", "t3=t1",
     "(607.1538237570882, [887.9856271872002, 1030.8125925600004, "
     "887.9856271872002], [[1489.7394264000004, 1153.3805760000002, "
     "1470.0564264], [1153.3805760000002, 1489.7394264000004, "
     "1153.3805760000002], [1470.0564264, 1153.3805760000002, "
     "1489.7394264000004]])",
     "(607.1538237570882, [0.5411391136864736, 3.225778788222835, "
     "0.5411391136864736], [[0.5842114571417815, -0.4101401810979939, "
     "0.03863425446605346], [-0.4101401810979939, 1.67778537078074, "
     "-0.4101401810979939], [0.03863425446605346, "
     "-0.4101401810979939, 0.5842114571417815]])"),
    (6, "weight", "t3!=t1",
     "(394.70737832115105, [470.63051140385767, 751.1338491465119, "
     "462.7889548797363], [[1213.5558188164798, 646.2516532800001, "
     "1178.8221577151999], [646.2516532800001, 1213.5558188164798, "
     "614.9600106240001], [1178.8221577151999, 614.9600106240001, "
     "1213.5558188164798]])",
     "(394.70737832115105, [0.44117059569569267, 3.615727477526853, "
     "0.0609692825001258], [[0.6674478571962917, -0.4441356203489543, "
     "0.030563798079116404], [-0.4441356203489543, "
     "1.6414432294335342, -0.06651642937524728], "
     "[0.030563798079116404, -0.06651642937524728, "
     "0.06556566880113787]])"),
    (6, "stopping", "t3=t1",
     "(2210.034518939068, [3576.296943979201, 3782.1394301460014, "
     "3576.296943979201], [[4566.1204476, 5160.874396500001, "
     "5085.191788200002], [5160.874396500001, 5266.557004800001, "
     "5160.874396500001], [5085.191788200002, 5160.874396500001, "
     "4566.1204476]])",
     "(2210.034518939068, [0.5987371952486623, 3.2515622971930265, "
     "0.5987371952486623], [[0.5230980819731097, "
     "-0.30518512128478537, -0.04348537725053648], "
     "[-0.30518512128478537, 1.2816080156812986, "
     "-0.30518512128478537], [-0.04348537725053648, "
     "-0.30518512128478537, 0.5230980819731097]])"),
    (6, "stopping", "t3!=t1",
     "(1281.8992875243262, [2214.981607594162, 2396.757024321562, "
     "2326.1794684910165], [[3051.27591371568, 3547.90703213568, "
     "3541.1632198272], [3547.90703213568, 3653.58964043568, "
     "3616.8458281272], [3541.1632198272, 3616.8458281272, "
     "3336.44723001648]])",
     "(1281.8992875243262, [0.6393194869408084, 3.552415069209991, "
     "0.09436102628244686], [[0.556450057744745, -0.3254381647448067, "
     "-0.007177597089819626], [-0.3254381647448067, "
     "1.2217597744221442, -0.05644787602121742], "
     "[-0.007177597089819626, -0.05644787602121742, "
     "0.092494824954898]])"),
    (24, "weight", "t3=t1",
     "(7317703264901.031, [48248122071171.26, 48248713112055.234, "
     "48248122071171.26], [[304869521637527.0, 304863228146616.94, "
     "304869521637472.56], [304863228146616.94, 304869521637527.0, "
     "304863228146616.94], [304869521637472.56, 304863228146616.94, "
     "304869521637527.0]])",
     "(7317703264901.031, [2.4395366305653012, 12.52750372546635, "
     "2.4395366305653012], [[2.1917136392305725, -1.2735835279315606, "
     "-0.24782299133574703], [-1.2735835279315606, "
     "5.9886624591814375, -1.2735835279315606], "
     "[-0.24782299133574703, -1.2735835279315606, "
     "2.1917136392305725]])"),
    (24, "weight", "t3!=t1",
     "(816419574816.223, [5886126940590.577, 5900042837185.504, "
     "5886126939470.962], [[40865590612199.586, 40736427730164.35, "
     "40865590591057.42], [40736427730164.35, 40865590612199.586, "
     "40736427709022.19], [40865590591057.42, 40736427709022.19, "
     "40865590612199.586]])",
     "(816419574816.223, [2.6675829869816066, 13.730784680384298, "
     "0.3749035548558333], [[2.40406466426904, -1.55081252965189, "
     "-0.037035007824374605], [-1.55081252965189, 5.893599105759087, "
     "-0.2179520327737031], [-0.037035007824374605, "
     "-0.2179520327737031, 0.36969863493403077]])"),
    (24, "stopping", "t3=t1",
     "(29270706520367.42, [192993669057272.88, 192993670299515.0, "
     "192993669057272.88], [[1219465479079291.5, 1219465499006161.8, "
     "1219465498444642.2], [1219465499006161.8, 1219465499568233.2, "
     "1219465499006161.8], [1219465498444642.2, 1219465499006161.8, "
     "1219465479079291.5]])",
     "(29270706520367.42, [2.439560435669819, 12.527472588129232, "
     "2.439560435669819], [[2.191583090991137, -1.273396893505006, "
     "-0.2479772541063371], [-1.273396893505006, 5.988406518481009, "
     "-1.273396893505006], [-0.2479772541063371, -1.273396893505006, "
     "2.191583090991137]])"),
    (24, "stopping", "t3!=t1",
     "(3262804601033.0103, [23572338456101.08, 23572339519780.008, "
     "23572339516215.082], [[163204019023758.9, 163204036080372.06, "
     "163204036079240.28], [163204036080372.06, 163204036642443.56, "
     "163204036640759.78], [163204036079240.28, 163204036640759.78, "
     "163204036562512.03]])",
     "(3262804601033.0103, [2.6730884301180864, 13.726670936225302, "
     "0.3756773097767196], [[2.3753631178093197, -1.52885769257642, "
     "-0.041842420914788625], [-1.52885769257642, 5.875772201999103, "
     "-0.21486670147098058], [-0.041842420914788625, "
     "-0.21486670147098058, 0.36979674737716917]])"),
    (50, "weight", "t3=t1",
     "(2.837979088955565e+27, [3.8983229243408183e+28, "
     "3.898322924401937e+28, 3.8983229243408183e+28], "
     "[[5.2477423982615634e+29, 5.247742398122915e+29, "
     "5.2477423982615634e+29], [5.247742398122915e+29, "
     "5.2477423982615634e+29, 5.247742398122915e+29], "
     "[5.2477423982615634e+29, 5.247742398122915e+29, "
     "5.2477423982615634e+29]])",
     "(2.837979088955565e+27, [5.082417582354098, 26.098901098984282, "
     "5.082417582354098], [[4.565798213574712, -2.652910277624489, "
     "-0.5166193687793861], [-2.652910277624489, 12.475848328950924, "
     "-2.652910277624489], [-0.5166193687793861, -2.652910277624489, "
     "4.565798213574712]])"),
    (50, "weight", "t3!=t1",
     "(2.937119400199257e+25, [4.420705046811955e+26, "
     "4.420710162497118e+26, 4.420705046811955e+26], "
     "[[6.520615311585575e+27, 6.520605195823954e+27, "
     "6.520615311585575e+27], [6.520605195823954e+27, "
     "6.520615311585575e+27, 6.520605195823954e+27], "
     "[6.520615311585575e+27, 6.520605195823954e+27, "
     "6.520615311585575e+27]])",
     "(2.937119400199257e+25, [5.568928751107151, 28.597234787849292, "
     "0.7826602569123563], [[4.948741265679921, -3.1851729601237553, "
     "-0.08716148443842152], [-3.1851729601237553, 12.24123816489405, "
     "-0.44764592953090615], [-0.08716148443842152, "
     "-0.44764592953090615, 0.7704105347750646]])"),
    (50, "stopping", "t3=t1",
     "(1.1351916355769454e+28, [1.5593291697485514e+29, "
     "1.5593291697485514e+29, 1.5593291697485514e+29], "
     "[[2.099096959276896e+30, 2.099096959276896e+30, "
     "2.099096959276896e+30], [2.099096959276896e+30, "
     "2.099096959276896e+30, 2.099096959276896e+30], "
     "[2.099096959276896e+30, 2.099096959276896e+30, "
     "2.099096959276896e+30]])",
     "(1.1351916355769454e+28, [5.082417582417583, 26.0989010989011, "
     "5.082417582417583], [[4.565798212776231, -2.6529102765366726, "
     "-0.516619369641352], [-2.6529102765366726, 12.475848327496564, "
     "-2.6529102765366726], [-0.516619369641352, -2.6529102765366726, "
     "4.565798212776231]])"),
    (50, "stopping", "t3!=t1",
     "(1.1748472530129895e+26, [1.7682830418618144e+27, "
     "1.7682830418618144e+27, 1.7682830418618144e+27], "
     "[[2.6082441014819055e+28, 2.6082441014819055e+28, "
     "2.6082441014819055e+28], [2.6082441014819055e+28, "
     "2.6082441014819055e+28, 2.6082441014819055e+28], "
     "[2.6082441014819055e+28, 2.6082441014819055e+28, "
     "2.6082441014819055e+28]])",
     "(1.1748472530129895e+26, [5.568934376881397, 28.59723058398555, "
     "0.7826610475617097], [[4.948673775001168, -3.1851220096552297, "
     "-0.0871717602642484], [-3.1851220096552297, 12.24119864251275, "
     "-0.4476387689245187], [-0.0871717602642484, "
     "-0.4476387689245187, 0.7704098812543019]])"),
]
# sha256 of the float64 bytes of (val, grad, hess, a, B) at 16 points of (3,6)
PAIR_KERNEL_ARRAY_SHA256 = {
    "weight": "32e2944c94cd9da3c206fe25054b8341248a606edca5a76691f29b95ce5c9449",
    "stopping": "02644e2892fa45e21e6b40da9600ffdeaf572bb75cb884fd6b52d0b35765a2fb",
}


@pytest.mark.parametrize("r,kind,point,vgh,stats", PAIR_KERNEL_REPRS,
                         ids=[f"{r}-{k}-{p}" for r, k, p, _, _ in PAIR_KERNEL_REPRS])
def test_pair_kernel_bits(r, kind, point, vgh, stats):
    # --format json prints repr floats, so the kernel must keep every bit
    params = EnsembleParams(2, r)
    x = PAIR_KERNEL_POINTS[point]
    assert repr(pair_vgh(params, kind, *x)) == vgh
    assert repr(pair_stats(params, kind, *x)) == stats


@pytest.mark.parametrize("kind", ["weight", "stopping"])
def test_pair_kernel_array_bits(kind):
    t1, t2 = np.geomspace(0.01, 20.0, 16), np.geomspace(30.0, 0.002, 16)
    val, grad, hess = pair_vgh(P36, kind, t1, t2, t1)
    a, B = pair_ratios((t1, t2, t1), val, grad, hess)
    blob = b"".join(v.tobytes() for v in (val, *grad, *hess[0], *hess[1], *hess[2],
                                          *a, *B[0], *B[1], *B[2]))
    assert hashlib.sha256(blob).hexdigest() == PAIR_KERNEL_ARRAY_SHA256[kind]


@pytest.mark.parametrize("kind", ["weight", "stopping"])
def test_pair_kernel_scalar_overflow_raises(kind):
    # the bracket powers of r = 64 overflow here; a scalar point raises
    with pytest.raises(OverflowError):
        pair_vgh(EnsembleParams(3, 64), kind, 1.6e4, 2.6e8, 1.6e4)

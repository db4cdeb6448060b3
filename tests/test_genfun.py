"""Generating functions and their log-derivative statistics."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from ldpc_moments import exactcomb
from ldpc_moments.errors import DivisibilityError
from ldpc_moments.genfun import (
    EnsembleParams,
    _pow,
    pair_stats,
    pair_vgh,
    saddle_mean_uni,
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


# sha256 of the float64 bytes of saddle_stats_uni(...) over r in UNI_DEGREES
# and UNI_POINTS, per kind
UNI_DEGREES = (3, 5, 6, 17, 33, 64)
UNI_POINTS = np.geomspace(1e-8, 1e8, 200)
UNI_STATS_SHA256 = {
    "weight": "e647b7a76745f30f8a6341217e31da48f9ab724fcb0294a0e60ba7c4052a8cd1",
    "stopping": "8866ba7da48f2b268b084cb886b6920674a7311ff7a4596f7e792148dca8006e",
}


class TestUnivariateMean:
    @pytest.mark.parametrize("kind", ["weight", "stopping"])
    def test_mean_is_the_pair_mean(self, kind):
        for r in UNI_DEGREES:
            params = EnsembleParams(2, r)
            for x in UNI_POINTS:
                a = saddle_mean_uni(params, kind, float(x))
                assert repr(a) == repr(saddle_stats_uni(params, kind, float(x))[0])

    @pytest.mark.parametrize("kind", ["weight", "stopping"])
    def test_pair_bits(self, kind):
        blob = np.array([saddle_stats_uni(EnsembleParams(2, r), kind, float(x))
                         for r in UNI_DEGREES for x in UNI_POINTS]).tobytes()
        assert hashlib.sha256(blob).hexdigest() == UNI_STATS_SHA256[kind]

    def test_checks_kind_and_x(self):
        with pytest.raises(ValueError):
            saddle_mean_uni(P36, "codeword", 0.5)
        with pytest.raises(ValueError):
            saddle_mean_uni(P36, "weight", 0.0)


class TestTrivariateStats:
    @pytest.mark.parametrize("kind", ["weight", "stopping"])
    @pytest.mark.parametrize("r", [4, 6])
    def test_b_matrix_symmetric(self, kind, r):
        params = EnsembleParams(3, r)
        rng = np.random.default_rng(3)
        for _ in range(20):
            t1, t2 = rng.uniform(0.05, 1.5, size=2)
            B = np.array(pair_stats(params, kind, t1, t2)[2])
            assert np.allclose(B, B.T, atol=1e-10)

    def test_mean_components_equal_on_symmetric_point(self):
        x = 0.7
        a = pair_stats(P34, "weight", x, x * x)[1]
        assert a[0] == pytest.approx(a[2], rel=1e-12)

    @pytest.mark.parametrize("kind", ["weight", "stopping"])
    def test_b_matches_finite_difference_of_mean(self, kind):
        # moving t1 moves x1 and x3 together, so t1 d a / d t1 is the sum
        # of the first and third columns of B, and t2 d a / d t2 the second
        pt = np.array([0.4, 0.2])
        B = np.array(pair_stats(P36, kind, *pt)[2])
        step = 1e-6
        for j, col_b in ((0, B[:, 0] + B[:, 2]), (1, B[:, 1])):
            up, dn = pt.copy(), pt.copy()
            up[j] += step
            dn[j] -= step
            a_up = np.array(pair_stats(P36, kind, *up)[1])
            a_dn = np.array(pair_stats(P36, kind, *dn)[1])
            col = pt[j] * (a_up - a_dn) / (2 * step)
            assert np.allclose(col, col_b, atol=1e-6)

    def test_gradient_hessian_match_finite_differences(self):
        # the kernel returns the full trivariate gradient and Hessian at the
        # slice point (t1, t2, t1); the oracle takes any point
        h = 1e-4
        for (t1, t2), kind in itertools.product([(0.4, 0.2), (1.3, 2.1)],
                                                ["weight", "stopping"]):
            fn = pair_gf_weight if kind == "weight" else pair_gf_stop

            def at(*moves):
                x = [t1, t2, t1]
                for i, step in moves:
                    x[i] += step
                return fn(P36, x)

            val, grad, hess = pair_vgh(P36, kind, t1, t2)
            assert val == pytest.approx(at(), rel=1e-12)
            for i in range(3):
                fd = (at((i, h)) - at((i, -h))) / (2 * h)
                assert grad[i] == pytest.approx(fd, rel=1e-7)
                for j in range(3):
                    fd = (at((i, h), (j, h)) - at((i, h), (j, -h))
                          - at((i, -h), (j, h)) + at((i, -h), (j, -h))) / (4 * h * h)
                    assert hess[i][j] == pytest.approx(fd, rel=1e-5)
            assert hess[0][2] == hess[2][0]

    def test_requires_positive_point(self):
        with pytest.raises(ValueError):
            pair_stats(P36, "weight", 0.0, 0.5)

    @pytest.mark.parametrize("kind", ["weight", "stopping"])
    @pytest.mark.parametrize("r", [3, 4, 6, 17, 24, 64])
    def test_square_point_is_the_squared_single_check(self, r, kind):
        # phi(x, x^2, x) = p(x)^2 or beta(x)^2 > 0: the overlap point solve
        # starts at the omega^2 anchor (x*, x*^2) without a positivity guard
        params = EnsembleParams(2, r)
        single = weight_gf if kind == "weight" else stop_gf
        for x in (1e-6, 0.01, 0.3, 1.0, 3.0, 40.0):
            assert pair_vgh(params, kind, x, x * x)[0] == pytest.approx(
                single(params, x) ** 2, rel=1e-12)


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
    B = pair_stats(params, "weight", t1, t2)[2]
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
PAIR_KERNEL_POINTS = {"t3=t1": (0.37, 1.9)}  # the slice point (t1, t2, t1)
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
]
# sha256 of the float64 bytes of (val, grad, hess) at 16 slice points of (3,6)
PAIR_KERNEL_ARRAY_SHA256 = {
    "weight": "e28cd1beb43634cdc18306334f70319cf0ae1f14e0409f8252067db238f02822",
    "stopping": "b97b99a0fec6ab7adbb4f28e8da9400c087c2122485a69d6da44790304f08dde",
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
    val, grad, hess = pair_vgh(P36, kind, t1, t2)
    blob = b"".join(v.tobytes() for v in (val, *grad, *hess[0], *hess[1], *hess[2]))
    assert hashlib.sha256(blob).hexdigest() == PAIR_KERNEL_ARRAY_SHA256[kind]


class _NonnegativePowArray(np.ndarray):
    """An array whose ** takes only nonnegative bases: numpy's array power
    is about 30x slower on a negative one."""

    def __pow__(self, e):
        assert (self.view(np.ndarray) >= 0.0).all(), "negative base under **"
        return super().__pow__(e)


@pytest.mark.parametrize("r", [5, 6, 45, 64])
def test_weight_kernel_takes_no_negative_array_base(r):
    t1 = np.geomspace(0.01, 20.0, 16).view(_NonnegativePowArray)
    t2 = np.geomspace(30.0, 0.002, 16).view(_NonnegativePowArray)
    # the brackets B = D = 1 - t2 and C = 1 - 2 t1 + t2 are negative here
    assert (1.0 - t2 < 0.0).any() and (1.0 - 2.0 * t1 + t2 < 0.0).any()
    val, _, _ = pair_vgh(EnsembleParams(2, r), "weight", t1, t2)
    assert isinstance(val, _NonnegativePowArray) and np.isfinite(val).all()


@pytest.mark.parametrize("e", [2, 3, 4, 5, 43, 62])
def test_pow_matches_array_power(e):
    v = np.array([-0.0, 0.0, -np.inf, np.inf, np.nan, -1e-300, 1e-300,
                  -0.3, 0.3, -1.0, 1.0, -14.802113280034728, 14.8, -150.0,
                  150.0, -1e5, 1e5, -1e6, 1e6])  # |v| >= 1e5 overflows at e = 62
    with np.errstate(over="ignore", under="ignore"):
        want, got = v ** e, _pow(v, e)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(np.isinf(got), np.isinf(want))
    assert np.array_equal(got == 0.0, want == 0.0)
    assert np.array_equal(np.signbit(got[~nan]), np.signbit(want[~nan]))
    fin = np.isfinite(want)
    assert (np.abs(got[fin] - want[fin]) <= np.spacing(np.abs(want[fin]))).all()


@pytest.mark.parametrize("e", [2, 3, 4, 5, 43, 62])
@pytest.mark.parametrize("v", [-14.802113280034728, -0.3, -0.0, 0.0, 1.5, 30.0])
def test_pow_keeps_float_power(v, e):
    # scalar kernel bits are pinned, so floats must not take the array form
    for x in (v, np.float64(v)):
        got, want = _pow(x, e), x ** e
        assert type(got) is type(want) and got.hex() == want.hex()


@pytest.mark.parametrize("kind", ["weight", "stopping"])
def test_pair_kernel_scalar_overflow_raises(kind):
    # the bracket powers of r = 64 overflow here; a scalar point raises,
    # and pair_stats names the point and r
    with pytest.raises(OverflowError):
        pair_vgh(EnsembleParams(3, 64), kind, 1.6e4, 2.6e8)
    with pytest.raises(OverflowError,
                       match=r"at \(16000\.0, 260000000\.0, 16000\.0\) for r = 64"):
        pair_stats(EnsembleParams(3, 64), kind, 1.6e4, 2.6e8)

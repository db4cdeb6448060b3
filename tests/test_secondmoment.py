"""Overlap saddles, dominance conditions, delta bounds, local limit ratios."""

import dataclasses
import hashlib
import inspect
import math

import numpy as np
import pytest

from ldpc_moments import checks, exactcomb, firstmoment, genfun, secondmoment
from ldpc_moments.cli import main
from ldpc_moments.errors import (
    DomainError,
    ExponentMismatchError,
    NoBracketError,
    NoConvergenceError,
    OffLatticeError,
    VarianceDegenerateError,
)
from ldpc_moments.firstmoment import growth_point, min_abscissa, solve_saddle
from ldpc_moments.genfun import EnsembleParams, pair_stats, pair_vgh
from ldpc_moments.secondmoment import (
    delta,
    delta34_closed_form,
    delta_value,
    endpoint_exponent,
    exponent_curve,
    local_limit_ratio,
    verify_conditions,
)
from ldpc_moments.secondmoment import _det3, _point_solve, _psi, _sigma_c2
from pair_gf_oracle import pair_gf_stop, pair_gf_weight

P36 = EnsembleParams(3, 6)
P34 = EnsembleParams(3, 4)


def _reduced_residuals(params, kind, omega, alpha, t1, t2):
    """Residuals of the two reduced saddle equations, as printed (a_i / r)."""
    a = pair_stats(params, kind, t1, t2)[1]
    r = params.right_degree
    return (abs(a[0] / r - (omega - alpha)),
            abs(a[1] / r - alpha))


class TestPointOwnsEnsemble:
    @pytest.mark.parametrize("kind", ["weight", "stopping"])
    def test_point_carries_params_and_kind(self, kind):
        point = growth_point(P36, kind, 0.3)
        assert point.params == P36
        assert point.kind == kind

    @pytest.mark.parametrize("kind,value", [("stopping", "0.009078678513621652"),
                                            ("weight", "0.002009841150425906")])
    def test_delta_value_follows_the_point(self, kind, value):
        # no separate ensemble or kind argument can contradict the point
        assert repr(delta_value(growth_point(P36, kind, 0.3))) == value

    @pytest.mark.parametrize("func", [verify_conditions, delta, delta_value,
                                      exponent_curve, endpoint_exponent,
                                      local_limit_ratio, checks.endpoint_gap],
                             ids=lambda f: f.__name__)
    def test_no_ensemble_or_kind_beside_the_point(self, func):
        names = inspect.signature(func).parameters
        assert "point" in names
        assert not {"params", "kind"} & set(names)


class TestSolveOverlap:
    def test_square_overlap_reduces_to_univariate_saddle(self):
        point = growth_point(P36, "weight", 0.3)
        x = point.saddle_x
        t1, t2, _, _ = _point_solve(point, 0.09)
        assert t1 == pytest.approx(x, abs=1e-9)
        assert t2 == pytest.approx(x * x, abs=1e-9)

    def test_near_diagonal_limit(self):
        point = growth_point(P36, "weight", 0.3)
        x = point.saddle_x
        t1, t2, _, _ = _point_solve(point, 0.3 - 1e-5)
        assert t1 < 0.02
        assert t2 == pytest.approx(x, abs=0.01)

    def test_residuals_and_positivity(self):
        t1, t2, val, _ = _point_solve(growth_point(P36, "weight", 0.3), 0.05)
        r1, r2 = _reduced_residuals(P36, "weight", 0.3, 0.05, t1, t2)
        assert r1 < 1e-10 and r2 < 1e-10
        assert val > 0.0

    @pytest.mark.parametrize("kind,gf", [("weight", pair_gf_weight),
                                         ("stopping", pair_gf_stop)])
    def test_gf_value_consistent(self, kind, gf):
        t1, t2, val, _ = _point_solve(growth_point(P36, kind, 0.3), 0.11)
        assert val == pytest.approx(gf(P36, (t1, t2, t1)), rel=1e-12)

    @pytest.mark.parametrize("kind", ["weight", "stopping"])
    @pytest.mark.parametrize(
        "params", [EnsembleParams(3, 4), EnsembleParams(3, 6),
                   EnsembleParams(6, 8), EnsembleParams(6, 12),
                   EnsembleParams(12, 24)])
    def test_square_overlap_identity_across_ensembles(self, kind, params):
        wmin = min_abscissa(params, kind)
        for omega in (wmin + 0.02, 0.3, 0.45):
            point = growth_point(params, kind, omega)
            if point.growth <= 0:
                continue
            x = point.saddle_x
            t1, t2, val, _ = _point_solve(point, omega * omega)
            assert t1 == pytest.approx(x, abs=1e-9)
            assert t2 == pytest.approx(x * x, abs=1e-9)
            # the pair function collapses to the squared single-check GF
            phi = pair_gf_weight if kind == "weight" else pair_gf_stop
            single = phi(params, (x, x * x, x))
            assert val == pytest.approx(single, rel=1e-12)

    def test_b_matrix_positive_definite_and_sigma_positive(self):
        for alpha in (0.05, 0.09, 0.2, 0.28):
            B = _point_solve(growth_point(P36, "weight", 0.3), alpha)[3]
            assert abs(_det3(B)) >= secondmoment._DET_FLOOR
            np.linalg.cholesky(np.array(B))  # raises if not pd
            assert _sigma_c2(P36, B) > 0.0


class TestStationarity:
    @pytest.mark.parametrize("params,omega", [(P36, 0.3), (P34, 0.25)])
    def test_square_overlap_is_stationary(self, params, omega):
        alpha = omega * omega
        point = growth_point(params, "weight", omega)
        t1, t2, _, _ = _point_solve(point, alpha)
        assert abs(_psi(point, alpha, t1, t2)) < 1e-8

    def test_sign_change_across_square_overlap(self):
        psis = []
        point = growth_point(P36, "weight", 0.3)
        for alpha in (0.09 - 1e-3, 0.09 + 1e-3):
            t1, t2, _, _ = _point_solve(point, alpha)
            psis.append(_psi(point, alpha, t1, t2))
        assert psis[0] > 0.0 > psis[1]

    def test_fine_grid_sign_pattern(self):
        signs = []
        point = growth_point(P36, "weight", 0.3)
        for alpha in np.linspace(0.05, 0.13, 17).tolist():
            t1, t2, _, _ = _point_solve(point, alpha)
            signs.append(math.copysign(1.0, _psi(point, alpha, t1, t2)))
        flips = sum(s1 != s2 for s1, s2 in zip(signs, signs[1:]))
        assert flips == 1  # exactly one crossing in this window: at 0.09


class TestExponentCurve:
    def test_alpha_domain_enforced(self):
        with pytest.raises(ValueError):
            exponent_curve(growth_point(P36, "weight", 0.3), 0.3)
        with pytest.raises(ValueError):
            exponent_curve(growth_point(P36, "weight", 0.3), 0.0)
        with pytest.raises(ValueError):
            exponent_curve(growth_point(P36, "weight", 0.7),
                           0.39)  # below 2w-1

    def test_peak_identity(self):
        peak = exponent_curve(growth_point(P36, "weight", 0.3), 0.09)
        assert peak == pytest.approx(
            2.0 * growth_point(P36, "weight", 0.3).growth, abs=1e-8)

    def test_diagonal_limit(self):
        val = exponent_curve(growth_point(P36, "weight", 0.3),
                             0.3 - 1e-4)
        assert val == pytest.approx(
            growth_point(P36, "weight", 0.3).growth, abs=1e-3)

    def test_square_overlap_dominates_grid(self):
        peak = exponent_curve(growth_point(P36, "weight", 0.3), 0.09)
        for alpha in np.linspace(1e-3, 0.3 - 1e-3, 51):
            if abs(alpha - 0.09) < 1e-6:
                continue
            assert exponent_curve(growth_point(P36, "weight", 0.3),
                                  float(alpha)) < peak


class TestEndpoint:
    def test_below_twice_growth(self):
        assert (endpoint_exponent(growth_point(P36, "weight", 0.3))
                < 2.0 * growth_point(P36, "weight", 0.3).growth)

    @pytest.mark.parametrize("omega", [0.1, 0.3, 0.45])
    @pytest.mark.parametrize("kind", ["weight", "stopping"])
    @pytest.mark.parametrize("params", [P36, EnsembleParams(12, 24), P34],
                             ids=["3-6", "12-24", "3-4"])
    def test_methods_agree(self, params, kind, omega):
        # the ray rho = 0 and the extrapolated curve agree to 2.6e-4 on
        # every row here; verify_conditions computes only the former
        point = growth_point(params, kind, omega)
        if point.growth <= 0.0:
            pytest.skip("Markov regime: no second-moment row")
        assert checks.endpoint_gap(point) <= 1e-3

    @pytest.mark.parametrize("kind", ["weight", "stopping"])
    def test_conditions_take_one_endpoint_below_half(self, monkeypatch, kind):
        def extrapolated(point):
            raise AssertionError("extrapolated endpoint computed below 1/2")

        point = growth_point(P36, kind, 0.3)
        expected = endpoint_exponent(point)
        monkeypatch.setattr(secondmoment, "_endpoint_extrapolated", extrapolated)
        rep = verify_conditions(point)
        assert rep.endpoint_exponent == expected

    @pytest.mark.parametrize("pair,omega,expected", [
        ((2, 56), 0.499999, 0.69368), ((28, 56), 0.499999, 0.69368),
        ((3, 64), 0.49999, 0.69337), ((63, 64), 0.49999, 0.69337)])
    def test_overflowing_slice_falls_back(self, pair, omega, expected):
        # the r = 56 rows' ray rho = 0 leaves the float range before its
        # root, so the extrapolation serves them; the r = 64 rows' ray has
        # its root inside the float range
        point = growth_point(EnsembleParams(*pair), "stopping", omega)
        face = secondmoment._face_ray(point)
        assert math.isnan(face) == (pair[1] == 56)
        assert endpoint_exponent(point) == pytest.approx(expected, abs=1e-5)
        rep = verify_conditions(point)
        assert rep.condition1_ok and rep.condition2_ok

    @pytest.mark.parametrize("kind", ["weight", "stopping"])
    def test_row_makes_one_scalar_kernel_call(self, monkeypatch, kind):
        # the peak is the one scalar kernel value of a row below 1/2: the
        # endpoint is a ray of the coarse pass, not a scalar root search
        scalar = []
        real = genfun.pair_vgh

        def counted(params, kind_, t1, t2):
            if not isinstance(t1, np.ndarray):
                scalar.append((t1, t2))
            return real(params, kind_, t1, t2)

        point = growth_point(P36, kind, 0.3)
        monkeypatch.setattr(genfun, "pair_vgh", counted)
        monkeypatch.setattr(secondmoment, "pair_vgh", counted)
        rep = verify_conditions(point)
        assert rep.condition1_ok and rep.condition2_ok
        assert len(scalar) == 1

    @pytest.mark.parametrize("omega", [0.1, 0.3, 0.45])
    @pytest.mark.parametrize("kind", ["weight", "stopping"])
    @pytest.mark.parametrize("params", [P36, EnsembleParams(12, 24), P34],
                             ids=["3-6", "12-24", "3-4"])
    def test_face_ray_is_the_slice_saddle(self, params, kind, omega):
        # E(0) at the saddle of the slice phi(x, 0, x), solved to 50 digits
        mp = pytest.importorskip("mpmath")
        point = growth_point(params, kind, omega)
        x, r = point.saddle_x, params.right_degree
        assert _slice_phi(kind, r, x) == pytest.approx(
            pair_vgh(params, kind, x, 0.0)[0], rel=1e-14)
        got = endpoint_exponent(point)
        with mp.workdps(50):
            want = _slice_endpoint(mp, params, kind, mp.mpf(omega),
                                   mp.mpf(point.saddle_x))
        assert abs(got - float(want)) <= 1e-14

    def test_face_ray_past_the_slice_overflow(self):
        # (3,64) stopping at 0.49999: a 60-digit slice saddle gives
        # 0.693369712982021, and the extrapolation lies 4.6e-4 above it
        point = growth_point(EnsembleParams(3, 64), "stopping", 0.49999)
        assert abs(endpoint_exponent(point) - 0.693369712982021) <= 1e-12

    @pytest.mark.parametrize("pair,kind,omega", [
        ((3, 6), "weight", 0.3), ((3, 6), "stopping", 0.3),
        ((32, 64), "stopping", 0.2), ((3, 64), "stopping", 0.49999),
        ((2, 56), "stopping", 0.499999)])
    def test_coarse_pass_endpoint_is_the_ray_alone(self, pair, kind, omega):
        # the ray rho = 0 iterates on its own inside the coarse batch, so
        # the scan's E(0) has the bits of the ray solved alone; (2,56) has
        # no finite root there, and both fall back to the extrapolation
        point = growth_point(EnsembleParams(*pair), kind, omega)
        face = secondmoment._scan_rays(point)[5]
        alone = secondmoment._face_ray(point)
        assert type(face) is float and type(alone) is float
        assert face == alone or (math.isnan(face) and math.isnan(alone))
        rep = verify_conditions(point)
        assert type(rep.endpoint_exponent) is float
        assert type(rep.condition2_ok) is bool
        assert rep.endpoint_exponent == endpoint_exponent(point)

    @pytest.mark.parametrize("pair,kind,omega", [
        ((3, 6), "weight", 0.5), ((3, 6), "stopping", 0.7),
        ((2, 56), "stopping", 0.499999)])
    def test_endpoint_gap_needs_a_face_root(self, pair, kind, omega):
        # with no root on the ray rho = 0 the endpoint is the extrapolation,
        # and the gap would compare it with itself
        point = growth_point(EnsembleParams(*pair), kind, omega)
        with pytest.raises(NoBracketError, match="ray rho = 0"):
            checks.endpoint_gap(point)

    def test_exact_disjoint_term_growth_converges(self):
        # at omega=0.5 the saddle path diverges; extrapolation serves it
        errs = checks.disjoint_term_errors(P36, 0.5, (24, 48))
        assert errs[48] < errs[24]

    def test_verify_endpoint_rows_unchanged(self, capsys):
        assert main(["verify", "--suite", "endpoint", "--format", "json"]) == 0
        assert capsys.readouterr().out == ENDPOINT_JSON


# ldpc-moments verify --suite endpoint --format json, recorded while
# endpoint_exponent still chose the endpoint method from a keyword argument;
# saddle_vs_extrapolation re-recorded (it moved by 6e-16) when the saddle
# became the ray rho = 0
ENDPOINT_JSON = """\
[
  {
    "check": "saddle_vs_extrapolation",
    "status": "PASS",
    "measured": 0.0002562791306517931,
    "tolerance": 0.001
  },
  {
    "check": "peak_identity",
    "status": "PASS",
    "measured": 4.440892098500626e-16,
    "tolerance": 1e-08
  },
  {
    "check": "disjoint_term_growth",
    "status": "PASS",
    "measured": "0.04694->0.03044",
    "tolerance": "decreasing"
  }
]
"""


def _slice_phi(kind, r, x):
    """The slice phi(x, 0, x) of the pair generating function, closed form."""
    if kind == "weight":
        return ((1 + 2 * x) ** r + (1 - 2 * x) ** r + 2) / 4
    return (1 + 2 * x) ** r - 2 * r * x * (1 + x) ** (r - 1) + r * (r - 1) * x * x


def _slice_endpoint(mp, params, kind, omega, x0):
    """E(0) at the root of x phi'(x) / phi(x) = 2 r omega on the slice
    phi(x) = phi(x, 0, x), at the working precision."""
    l, r = params.left_degree, params.right_degree

    def phi(x):
        return _slice_phi(kind, r, x)

    x = mp.findroot(lambda v: v * mp.diff(phi, v) / phi(v) - 2 * r * omega, x0)
    entropy = 2 * omega * mp.log(omega) + (1 - 2 * omega) * mp.log(1 - 2 * omega)
    return (l - 1) * entropy + mp.mpf(l) / r * mp.log(phi(x)) - 2 * l * omega * mp.log(x)


class TestVerifyConditions:
    def test_weight_conditions_hold(self):
        rep = verify_conditions(growth_point(P36, "weight", 0.3))
        assert rep.condition1_ok and rep.condition2_ok

    def test_half_abscissa_34(self):
        rep = verify_conditions(growth_point(P34, "weight", 0.5))
        assert rep.condition1_ok and rep.condition2_ok

    def test_markov_regime_rejected(self):
        with pytest.raises(DomainError):
            verify_conditions(growth_point(P36, "weight", 0.01))

    def test_stationary_point_found_at_square(self):
        rep = verify_conditions(growth_point(P36, "weight", 0.3))
        maxima = rep.stationary_points
        assert len(maxima) == 1
        assert maxima[0].alpha == pytest.approx(0.09, abs=1e-8)

    def test_stopping_near_minimum_size_fails_condition1(self):
        # boundary layer of near-identical pairs dominates near s_min
        smin = min_abscissa(P36, "stopping")
        rep = verify_conditions(growth_point(P36, "stopping", smin + 1e-6))
        assert not rep.condition1_ok

    def test_stopping_moderate_size_passes(self):
        rep = verify_conditions(growth_point(P36, "stopping", 0.3))
        assert rep.condition1_ok and rep.condition2_ok

    @pytest.mark.parametrize("kind,omega,points", [
        ("weight", 0.3, [("0.09", "0.5324305699445315")]),
        ("weight", 0.9, [("0.81", "0.1310425527142023")]),
        ("stopping", 0.05, [("0.0025000000000000005", "0.054913959527033596")]),
        ("stopping", 0.3, [("0.09", "0.8199647098078939")]),
    ])
    def test_stationary_points_pinned(self, kind, omega, points):
        # every pair of rays where psi falls, in order: here only the one
        # holding omega^2 (closed form); the minimum that weight has between
        # it and omega is not listed
        rep = verify_conditions(growth_point(P36, kind, omega))
        assert [(repr(p.alpha), repr(p.exponent))
                for p in rep.stationary_points] == points

    @pytest.mark.parametrize("pair", [(3, 6), (12, 24)])
    def test_square_on_the_lower_window_end_is_not_counted(self, pair):
        # at omega = 0.99, omega^2 = 2w - 1 + margin to the bit: psi = 0
        # there starts no fall inside the window, so no stationary point is
        # listed and cond1 is false, as in the 99-step `bound` curves
        point = growth_point(EnsembleParams(*pair), "stopping", 0.99)
        lo_edge, margin = secondmoment._grid_window(point)
        assert 0.99 * 0.99 == lo_edge + margin
        rep = verify_conditions(point)
        assert rep.stationary_points == []
        assert not rep.condition1_ok

    @pytest.mark.parametrize("pair,omega,cond1,points", [
        ((3, 6), 0.021875, True,
         [("0.00047851562499999994", "0.004588082494168866"),
          ("0.0217616738799651", "0.0024438128874360314")]),
        ((6, 12), None, False,
         [("0.003971582887514568", "3.916553179328375e-06"),
          ("0.06277577218057165", "0.00044140385142392837")]),
    ], ids=["3:6-0.021875", "6:12-smin"])
    def test_competing_maximum_pinned(self, pair, omega, cond1, points):
        # stopping rows with an interpolated maximum in the near-identical
        # layer beside the one at omega^2: below the peak for (3,6) at
        # 0.021875, above it for (6,12) just past s_min, which breaks
        # condition 1
        params = EnsembleParams(*pair)
        if omega is None:
            omega = min_abscissa(params, "stopping") + 1e-6
        rep = verify_conditions(growth_point(params, "stopping", omega))
        assert rep.condition1_ok is cond1
        assert [(repr(p.alpha), repr(p.exponent))
                for p in rep.stationary_points] == points


def _point_grid(point, alphas):
    """Reference scan: one scalar point solve per alpha, each from the
    omega^2 anchor."""
    t1, t2, val = (np.empty(alphas.size) for _ in range(3))
    for idx, alpha in enumerate(alphas.tolist()):
        t1[idx], t2[idx], val[idx], _ = _point_solve(point, alpha)
    return t1, t2, val


# the last two have omega > 1/2, so both ends of the overlap range (2w-1 and
# w) are corners, where the rays run off to the top-degree face
SCAN_CASES = [((3, 6), "weight", 0.3), ((3, 6), "stopping", None),
              ((12, 24), "stopping", 0.990625), ((3, 64), "weight", 0.003125),
              ((3, 6), "weight", 0.75), ((12, 24), "stopping", 0.6)]


def _curvature_d2(point, alpha, sigma_c2):
    """Test-only curvature reference: the n-normalized second-order
    coefficient of the overlap term expansion,

        (l-1) [1/(w-a) + 1/(2a) + 1/(2(1-2w+a))] - 1/(2 sigma_c^2),

    w the abscissa of ``point``; negative at a local maximum of the term
    sequence.  It is (1/2) dpsi/dalpha, so its sign is the direction in
    which psi crosses zero."""
    l, omega = point.params.left_degree, point.abscissa
    return ((l - 1) * (1.0 / (omega - alpha) + 0.5 / alpha
                       + 0.5 / (1.0 - 2.0 * omega + alpha))
            - 0.5 / sigma_c2)


CURVATURE_PAIRS = [(3, 6), (12, 24), (3, 4), (2, 5)]
CURVATURE_OMEGAS = [round(0.05 + 0.1 * k, 2) for k in range(10)]
# the odd-r weight band around 1/2 where the overlap solve does not converge
UNSOLVED_ROWS = {((2, 5), "weight", 0.45), ((2, 5), "weight", 0.55)}


class TestCurvatureReference:
    @staticmethod
    def _bisect_both_ways(point, lo, hi, falling):
        """Root of psi in (lo, hi) for either direction of the sign change,
        with the solution there."""
        def below(mid):
            t1, t2, _, _ = _point_solve(point, mid)
            return (_psi(point, mid, t1, t2) > 0.0) == falling

        root = firstmoment.bisect_root(below, lo, hi, 80, 1e-13)
        return root, _point_solve(point, root)

    @pytest.mark.parametrize("kind", ["weight", "stopping"])
    @pytest.mark.parametrize("pair", CURVATURE_PAIRS,
                             ids=[f"{l}:{r}" for l, r in CURVATURE_PAIRS])
    def test_psi_direction_is_the_curvature_sign(self, pair, kind):
        # where psi falls d2 < 0 (a maximum), where it rises d2 > 0 (a
        # minimum); at omega^2, d2 < 0 is the core > 0 check of delta_value
        params = EnsembleParams(*pair)
        rows = directions = 0
        for omega in CURVATURE_OMEGAS:
            try:
                point = growth_point(params, kind, omega)
            except NoBracketError:
                continue  # above the attainable abscissas of odd r
            if point.growth <= 0.0 or (pair, kind, omega) in UNSOLVED_ROWS:
                continue
            rows += 1
            _, alphas, t1s, t2s, _, _ = secondmoment._scan_rays(point)
            psis = _psi(point, alphas, t1s, t2s)
            for idx in np.flatnonzero(psis[:-1] * psis[1:] < 0.0):
                falling = bool(psis[idx] > 0.0)
                root, (_, _, _, B) = self._bisect_both_ways(
                    point, float(alphas[idx]), float(alphas[idx + 1]), falling)
                d2 = _curvature_d2(point, root, _sigma_c2(params, B))
                assert (d2 < 0.0) == falling, (omega, root, d2)
                directions += 1
            alpha_sq = omega * omega
            B = _point_solve(point, alpha_sq)[3]
            d2 = _curvature_d2(point, alpha_sq, _sigma_c2(params, B))
            try:
                delta_value(point)
                degenerate = False
            except VarianceDegenerateError:
                degenerate = True
            assert (d2 < 0.0) is not degenerate, (omega, d2)
        assert rows and directions >= rows


class TestRayScan:
    @pytest.mark.parametrize("pair,kind,omega", SCAN_CASES,
                             ids=[f"{l}:{r}-{k}-{w or 'smin'}"
                                  for (l, r), k, w in SCAN_CASES])
    def test_rays_match_point_solves(self, pair, kind, omega):
        # 50 rays spread over the window against the point solver at each
        # ray's alpha, each solved from the omega^2 anchor
        params = EnsembleParams(*pair)
        if omega is None:
            omega = min_abscissa(params, kind) + 1e-6
        point = growth_point(params, kind, omega)
        _, alphas, t1, t2, val, _ = secondmoment._scan_rays(point)
        assert alphas.size == secondmoment._GRID_POINTS
        assert np.all(np.diff(alphas) > 0.0)
        lo_edge, margin = secondmoment._grid_window(point)
        inside = np.flatnonzero((alphas >= lo_edge + margin)
                                & (alphas <= omega - margin))
        pick = inside[np.linspace(0, inside.size - 1, 50).astype(int)]
        alphas, t1, t2, val = alphas[pick], t1[pick], t2[pick], val[pick]
        rt1, rt2, rval = _point_grid(point, alphas)
        exps = secondmoment._exponent(point, alphas, t1, t2, val)
        rexps = secondmoment._exponent(point, alphas, rt1, rt2, rval)
        assert np.max(np.abs(exps - rexps)) < 1e-12
        assert np.array_equal(np.sign(_psi(point, alphas, t1, t2)),
                              np.sign(_psi(point, alphas, rt1, rt2)))
        for got, want in ((t1, rt1), (t2, rt2)):
            assert np.max(np.abs(got / want - 1.0)) < 1e-8

    @pytest.mark.parametrize("kind", ["weight", "stopping"])
    def test_unit_ray_is_the_square_saddle(self, kind):
        point = growth_point(P36, kind, 0.3)
        x = point.saddle_x
        u, a2, val = secondmoment._ray_solve(point, np.array([0.0]),
                                             np.array([math.log(x) + 0.5]))
        s = math.exp(u[0])
        assert s == pytest.approx(x, rel=1e-12)
        _, grad, _ = pair_vgh(P36, kind, np.array([s]), np.array([s * s]))
        assert a2[0] / 6 == pytest.approx(0.09, abs=1e-13)
        assert s * grad[0][0] / val[0] / 6 == pytest.approx(0.3 - 0.09, abs=1e-13)

    def test_scan_makes_no_scalar_solves(self, monkeypatch):
        # the grid scan made 74 scalar solves for this row (2,076 before
        # the grid was batched); the rays take 9 array kernel calls, the
        # peak is the kernel at (x*, x*^2, x*), the anchor's edge value is
        # the last ray, and the endpoint below 1/2 is the coarse ray rho = 0
        solves, arrays = [], []
        real_solve, real_vgh = secondmoment._point_solve, secondmoment.pair_vgh

        def counted(*args, **kwargs):
            solves.append(args[1])
            return real_solve(*args, **kwargs)

        def vgh(params, kind, t1, t2):
            if isinstance(t1, np.ndarray):
                arrays.append(t1.size)
            return real_vgh(params, kind, t1, t2)

        monkeypatch.setattr(secondmoment, "_point_solve", counted)
        monkeypatch.setattr(secondmoment, "pair_vgh", vgh)
        rep = verify_conditions(growth_point(P36, "weight", 0.3))
        assert rep.condition1_ok and rep.condition2_ok
        assert solves == []
        assert len(arrays) <= 12
        assert sum(arrays) <= 8000

    def test_float_range_ending_inside_the_margin(self):
        # the rays leave the float range between margin/30 and margin/100
        # above 2w - 1, where the alpha-grid scan's last edge probe failed
        # softly: the row keeps its verdicts, and the first fine ray is the
        # cap point at the edge of the float range
        point = growth_point(EnsembleParams(3, 52), "weight", 0.51)
        lo_edge, margin = secondmoment._grid_window(point)
        ln_rho, alphas, t1, _, _, _ = secondmoment._scan_rays(point)
        assert lo_edge + margin / 100.0 < alphas[0] <= lo_edge + margin / 30.0
        cap, f, alpha = secondmoment._cap_residual(point, float(ln_rho[0]))
        assert 0.0 <= f <= 1e-14 * 52
        assert abs(alphas[0] - alpha) <= 1e-12
        assert math.log(t1[0]) == pytest.approx(cap, abs=1e-12)
        rep = verify_conditions(point)
        assert rep.condition1_ok and rep.condition2_ok

    @pytest.mark.parametrize("pair,kind,omega,error", [
        ((2, 5), "weight", 0.5, NoConvergenceError),
        ((3, 64), "weight", 0.55, OverflowError),
        ((2, 41), "weight", 0.49, NoConvergenceError)])
    def test_rays_that_cannot_cover_the_window(self, pair, kind, omega, error):
        # odd r: no overlap lies below omega - (r-1)/(2r), 0.1 and 0.0022
        # above the window; r = 64: the rays leave the float range before
        # 2w - 1
        point = growth_point(EnsembleParams(*pair), kind, omega)
        with pytest.raises(error, match="overlap rays"):
            verify_conditions(point)

    @pytest.mark.parametrize("l,r", [(2, 45), (3, 45), (22, 45), (44, 45),
                                     (2, 49), (3, 49), (24, 49), (48, 49)])
    def test_odd_r_floor_stops_before_the_scan(self, monkeypatch, l, r):
        # at omega = 0.49 the overlap floor omega - (r-1)/(2r) lies above
        # margin/30 of the window; chasing overlaps below it, these rows'
        # rays would leave the float range and raise OverflowError
        def unsolved(*args):
            raise AssertionError("ray solve below the overlap floor")

        monkeypatch.setattr(secondmoment, "_ray_solve", unsolved)
        point = growth_point(EnsembleParams(l, r), "weight", 0.49)
        with pytest.raises(NoConvergenceError,
                           match="^overlap rays end before alpha = .*odd r"):
            verify_conditions(point)

    @pytest.mark.parametrize("pair,kind,omega,sizes", [
        ((2, 52), "stopping", 0.65, [97, 2000]),
        ((3, 52), "weight", 0.51, [97, 2000]),
        ((3, 64), "weight", 0.55, [97])],
        ids=["2:52-stopping", "3:52-weight", "3:64-weight"])
    def test_float_edge_makes_no_size_one_solves(self, monkeypatch, pair, kind,
                                                 omega, sizes):
        # where the coarse rays leave the float range, the span's end is
        # bisected on one kernel value per step: the rows solve rays only
        # in the coarse and the fine pass, and a row whose span cannot
        # reach margin/30 stops after the coarse one
        calls = []
        real = secondmoment._ray_solve

        def counted(point, ln_rho, u0):
            calls.append(ln_rho.size)
            return real(point, ln_rho, u0)

        monkeypatch.setattr(secondmoment, "_ray_solve", counted)
        point = growth_point(EnsembleParams(*pair), kind, omega)
        if len(sizes) == 1:
            with pytest.raises(OverflowError, match="overlap rays"):
                verify_conditions(point)
        else:
            rep = verify_conditions(point)
            assert rep.condition1_ok and rep.condition2_ok
        assert calls == sizes

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["left", "right"])
    def test_edge_bisection_on_either_side(self, monkeypatch, sign):
        # a fake cap residual that turns negative outside ln rho = -30.3 sign,
        # past the last converged ray: the right side runs ln rho downward,
        # so its bracket is reversed
        monkeypatch.setattr(secondmoment, "_cap_residual",
                            lambda point, x: (-x, sign * x + 30.3, -sign))
        ln_rho = -sign * np.arange(48.0, -1.0, -1.0)
        u = np.where(sign * ln_rho < -30.3, np.inf, 0.0)
        end, u_end = secondmoment._span_end(growth_point(P36, "weight", 0.3),
                                            ln_rho, u, np.zeros(u.size),
                                            -sign, 0.0, sign)
        assert end == pytest.approx(-30.3 * sign, abs=1e-12)
        assert sign * end >= -30.3 and u_end == -end

    @pytest.mark.parametrize("pair,kind,omega", [
        ((2, 52), "stopping", 0.65), ((3, 64), "weight", 0.55)],
        ids=["2:52-stopping", "3:64-weight"])
    def test_cap_residual_agrees_with_the_solver(self, pair, kind, omega):
        # a coarse ray comes back +inf exactly where its residual at the
        # cap is still negative
        point = growth_point(EnsembleParams(*pair), kind, omega)
        coarse = np.linspace(-secondmoment._RAY_SPAN, secondmoment._RAY_SPAN,
                             2 * secondmoment._RAY_SPAN + 1)
        u, _, _ = secondmoment._ray_solve(point, coarse,
                                          secondmoment._ray_seeds(point, coarse))
        assert np.isinf(u).any() and np.isfinite(u).any()
        for x, got in zip(coarse, u):
            f = secondmoment._cap_residual(point, float(x))[1]
            if got == np.inf:
                assert f < 0.0, x
            elif np.isfinite(got):
                assert f >= 0.0, x


# sha256 of the float64 bytes of the six _scan_rays outputs (ln rho, alpha,
# t1, t2, val and E(0)) of one row each
SCAN_SHA256 = [
    ((3, 6), "weight", 0.3,
     "c471979187a1a6cb3b7ef8316dc3e2ca9c7b7b306957148d44bb17a3cd78e540"),
    ((3, 6), "weight", 0.7,
     "6db6747032232665005b77fc2beddc3ca51b84749578c8f4c85918e6a33f0f8c"),
    # a competing maximum
    ((3, 6), "stopping", 0.021875,
     "0477dcd085881b5c5a49beac4001736fa06121a0fcf6eba550fc03afdb266bf4"),
    ((12, 24), "stopping", 0.6,
     "721d6836019f5dbb3e5831d735db98d21ffb7fbcb4aa6794b7245c10af297c41"),
    ((3, 64), "weight", 0.1,
     "3c89f01a743c8bf3f536c79911fdfd666bb5c8dbb0859c9a3bd9a8082711b7ed"),
    ((32, 64), "stopping", 0.2,
     "f7b9aa83625ee9f01880dc5c17f1b104feac1fced2eaf67ef6247d54909e37a0"),
]


class TestRayBits:
    @pytest.mark.parametrize("pair,kind,omega,digest", SCAN_SHA256,
                             ids=[f"{l}:{r}-{k}-{w}" for (l, r), k, w, _ in SCAN_SHA256])
    def test_scan_bits(self, pair, kind, omega, digest):
        point = growth_point(EnsembleParams(*pair), kind, omega)
        blob = b"".join(np.asarray(v, dtype=np.float64).tobytes()
                        for v in secondmoment._scan_rays(point))
        assert hashlib.sha256(blob).hexdigest() == digest

    @pytest.mark.parametrize("pair,omega,nan,inf", [
        ((2, 5), 0.5, 17, 0), ((3, 64), 0.7, 0, 39)], ids=["2:5", "3:64"])
    def test_batch_gives_each_ray_its_lone_bits(self, pair, omega, nan, inf):
        # rays settle at different steps and leave the batch as they do
        point = growth_point(EnsembleParams(*pair), "weight", omega)
        coarse = np.arange(-secondmoment._RAY_SPAN, secondmoment._RAY_SPAN + 1.0)
        seeds = secondmoment._ray_seeds(point, coarse)
        batch = secondmoment._ray_solve(point, coarse, seeds)
        assert np.isnan(batch[0]).sum() == nan
        assert np.isposinf(batch[0]).sum() == inf
        for k in range(coarse.size):
            alone = secondmoment._ray_solve(point, coarse[k:k + 1], seeds[k:k + 1])
            for got, want in zip(batch, alone):
                assert got[k:k + 1].tobytes() == want.tobytes(), coarse[k]


class TestPredictedSeeds:
    @pytest.mark.parametrize("pair,kind,omega", [
        ((3, 6), "weight", 0.3), ((3, 6), "stopping", 0.3),
        ((3, 6), "weight", 0.75), ((3, 4), "weight", 0.5),
        ((12, 24), "stopping", 0.6)])
    def test_square_root_in_closed_form(self, pair, kind, omega):
        # psi(omega^2) = 0 exactly: the stationary point there is the peak
        # solve itself, at alpha = omega^2 to the bit
        params = EnsembleParams(*pair)
        rep = verify_conditions(growth_point(params, kind, omega))
        at_square = [p for p in rep.stationary_points
                     if p.alpha == omega * omega]
        assert len(at_square) == 1
        assert at_square[0].exponent == rep.peak_exponent

    @pytest.mark.parametrize("kind", ["stopping", "weight"])
    def test_square_sign_change_is_not_bisected(self, monkeypatch, kind):
        # (3,6) stopping at 0.3 has one sign change of psi, the one at
        # omega^2, so no pair is interpolated; weight has a second one near
        # 0.29509, where psi rises: a minimum, neither interpolated nor listed
        def interpolate(*args):
            raise AssertionError("psi root interpolated")

        monkeypatch.setattr(secondmoment, "_cubic_max", interpolate)
        rep = verify_conditions(growth_point(P36, kind, 0.3))
        assert rep.condition1_ok and rep.condition2_ok
        assert [p.alpha for p in rep.stationary_points] == [0.3 * 0.3]


def _illinois_max(point, ln_rho, u, psi):
    """Converged reference for a maximum between two rays where psi falls
    from + to -: a bracketed secant (Illinois) in ln rho, one ray solve per
    step, warm-started from the u interpolated across the bracket.
    Returns (alpha, exponent)."""
    r = point.params.right_degree
    (x0, x1), (u0, u1), (f0, f1) = ln_rho, u, psi
    side = 0
    for _ in range(40):
        x = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not x0 < x < x1:
            x = 0.5 * (x0 + x1)
        seed = u0 + (u1 - u0) * (x - x0) / (x1 - x0)
        got, a2, val = secondmoment._ray_solve(point, np.array([x]),
                                               np.array([seed]))
        assert np.isfinite(got[0]), x
        alpha = float(a2[0]) / r
        t1, t2 = math.exp(got[0]), math.exp(x + 2.0 * got[0])
        f = float(_psi(point, alpha, t1, t2))
        # Illinois: halve the kept end's psi when the same end moves twice
        if f > 0.0:
            x0, u0, f0, f1 = x, float(got[0]), f, f1 * (0.5 if side > 0 else 1.0)
            side = 1
        else:
            x1, u1, f1, f0 = x, float(got[0]), f, f0 * (0.5 if side < 0 else 1.0)
            side = -1
        if f == 0.0 or x1 - x0 <= 1e-12:
            break
    return alpha, float(secondmoment._exponent(point, alpha, t1, t2, val[0]))


# stopping rows whose overlap curve has a maximum besides omega^2 (None:
# s_min + 1e-6)
COMPETING_ROWS = [((3, 6), 0.021875), ((3, 6), None), ((6, 12), None),
                  ((12, 16), None), ((4, 8), None), ((12, 16), 0.0981)]


class TestCubicMaximum:
    @pytest.mark.parametrize("pair,omega", COMPETING_ROWS,
                             ids=[f"{l}:{r}-{w or 'smin'}"
                                  for (l, r), w in COMPETING_ROWS])
    def test_cubic_matches_the_converged_secant(self, pair, omega):
        # psi = dE/dalpha on the saddle curve, so the cubic Hermite
        # interpolant through (E, psi) at the two rays lands on the
        # maximum that secant steps on ray solves converge to
        params = EnsembleParams(*pair)
        if omega is None:
            omega = min_abscissa(params, "stopping") + 1e-6
        point = growth_point(params, "stopping", omega)
        ln_rho, alphas, t1s, t2s, vals, _ = secondmoment._scan_rays(point)
        psis = _psi(point, alphas, t1s, t2s)
        exps = secondmoment._exponent(point, alphas, t1s, t2s, vals)
        compared = 0
        for idx in np.flatnonzero((psis[:-1] > 0.0) & (psis[1:] <= 0.0)):
            if ln_rho[idx] <= 0.0 <= ln_rho[idx + 1]:
                continue  # the omega^2 root, in closed form
            pair_ = slice(idx, idx + 2)
            got = secondmoment._cubic_max(alphas[pair_], exps[pair_],
                                          psis[pair_])
            alpha, exponent = _illinois_max(
                point, [float(v) for v in ln_rho[pair_]],
                [math.log(float(v)) for v in t1s[pair_]],
                [float(v) for v in psis[pair_]])
            assert abs(got.alpha - alpha) < 1e-7
            assert abs(got.exponent - exponent) < 1e-11
            compared += 1
        assert compared >= 1

    def test_closed_form_on_a_known_cubic(self):
        # E = (alpha - 0.3)^2 (alpha - 2) is a cubic, so its maximum at
        # alpha = 0.3 comes back to rounding from any bracketing pair
        def curve(alpha):
            return (alpha - 0.3) ** 2 * (alpha - 2.0)

        def slope(alpha):
            return 2.0 * (alpha - 0.3) * (alpha - 2.0) + (alpha - 0.3) ** 2

        for ends in ((0.1, 0.5), (0.29, 0.3), (0.2, 1.0)):
            alpha = np.array(ends)
            got = secondmoment._cubic_max(alpha, curve(alpha), slope(alpha))
            assert got.alpha == pytest.approx(0.3, abs=1e-12)
            assert got.exponent == pytest.approx(0.0, abs=1e-15)

    def test_rows_make_two_ray_solves(self, monkeypatch):
        # the competing maximum of (3,6) stopping at 0.021875 needs no ray
        # solve beyond the 97 coarse rays with the ray rho = 0 of the
        # endpoint, and the 2,000 fine rays (the secant refinement made 11
        # more)
        sizes = []
        real = secondmoment._ray_solve

        def counted(point, ln_rho, u0):
            sizes.append(ln_rho.size)
            return real(point, ln_rho, u0)

        monkeypatch.setattr(secondmoment, "_ray_solve", counted)
        rep = verify_conditions(growth_point(P36, "stopping", 0.021875))
        assert len(rep.stationary_points) == 2
        assert sizes == [2 * secondmoment._RAY_SPAN + 2, secondmoment._GRID_POINTS]


class TestPointSolve:
    def test_near_corner_is_a_coded_error(self):
        # 1e-12 above the alpha = 2w - 1 corner no Newton start from the
        # omega^2 anchor converges; no command asks for such an alpha
        point = growth_point(EnsembleParams(3, 32), "weight", 0.999)
        with pytest.raises(NoConvergenceError, match="overlap solve failed"):
            exponent_curve(point, 0.998 + 1e-12)

    def test_overflowing_trial_step_is_rejected(self):
        # a Newton trial step whose kernel overflows is shortened like a
        # nonpositive one, instead of ending the solve in an OverflowError
        params, omega, alpha = EnsembleParams(32, 64), 0.05, 0.04995
        point = growth_point(params, "weight", omega)
        assert exponent_curve(point, alpha) == pytest.approx(
            -0.1562436108877385, abs=1e-12)
        t1, t2, _, _ = _point_solve(point, alpha)
        r1, r2 = _reduced_residuals(params, "weight", omega, alpha, t1, t2)
        assert r1 < 1e-10 and r2 < 1e-10


class TestAnchorCheck:
    @staticmethod
    def _anchors(monkeypatch, point):
        """The (peak, edge alpha, edge exponent) that verify_conditions
        hands to the check."""
        seen = []
        monkeypatch.setattr(secondmoment, "_anchor_check",
                            lambda point, *args: seen.append(args))
        verify_conditions(point)
        monkeypatch.undo()
        return seen[0]

    @pytest.mark.parametrize("pair,kind,omega", [
        ((3, 6), "weight", 0.3), ((3, 6), "stopping", 0.75),
        ((32, 64), "stopping", 0.2)])
    def test_anchors_hold(self, monkeypatch, pair, kind, omega):
        # the last ray lies within margin/30 of omega, where the edge
        # defect stays below 3e-3
        point = growth_point(EnsembleParams(*pair), kind, omega)
        peak, edge_alpha, edge = self._anchors(monkeypatch, point)
        _, margin = secondmoment._grid_window(point)
        assert omega - margin / 30.0 <= edge_alpha < omega
        assert abs(edge - point.growth) < 3e-3
        secondmoment._anchor_check(point, peak, edge_alpha, edge)

    def test_shifted_peak(self, monkeypatch):
        point = growth_point(P36, "weight", 0.3)
        peak, edge_alpha, edge = self._anchors(monkeypatch, point)
        with pytest.raises(ExponentMismatchError, match="E\\(omega\\^2\\)"):
            secondmoment._anchor_check(point, peak + 1e-7, edge_alpha, edge)

    def test_shifted_edge(self, monkeypatch):
        point = growth_point(P36, "weight", 0.3)
        peak, edge_alpha, edge = self._anchors(monkeypatch, point)
        with pytest.raises(ExponentMismatchError, match="vs growth"):
            secondmoment._anchor_check(point, peak, edge_alpha, edge + 0.02)


class TestDelta:
    def test_half_abscissa_34_is_tight(self):
        rep = delta(growth_point(P34, "weight", 0.5), 0.95)
        assert rep.delta == pytest.approx(0.0, abs=1e-8)
        assert rep.bound == pytest.approx(1.0, abs=1e-8)

    def test_table_values_at_min_abscissa(self):
        for params, bound in ((P36, 0.740611), (EnsembleParams(6, 8), 0.989098)):
            wmin = min_abscissa(params, "weight")
            rep = delta(growth_point(params, "weight", wmin + 1e-6), 0.95)
            assert rep.bound == pytest.approx(bound, abs=1e-4)

    def test_delta_never_meaningfully_negative(self):
        for omega in np.linspace(0.15, 0.85, 15):
            val = delta_value(growth_point(P34, "weight", float(omega)))
            assert val >= -1e-9

    def test_condition_failure_leaves_report_empty(self):
        smin = min_abscissa(P36, "stopping")
        rep = delta(growth_point(P36, "stopping", smin + 1e-6), 0.95)
        assert not rep.condition1_ok
        assert rep.delta is None and rep.bound is None
        assert rep.stationary_points  # stationary points still reported

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            delta(growth_point(P34, "weight", 0.5), 0.0)

    @pytest.mark.parametrize("epsilon", [1e-300, 1e-160])
    def test_epsilon_square_must_be_normal(self, epsilon):
        # 1e-300 squares to 0.0 (division by zero), 1e-160 to a subnormal
        # (bound -inf); the check comes before the scan
        with pytest.raises(ValueError, match="subnormal or zero square"):
            delta(growth_point(P36, "weight", 0.3), epsilon)

    def test_smallest_epsilon_accepted(self):
        rep = delta(growth_point(P36, "weight", 0.3), 1.5e-154)
        assert math.isfinite(rep.bound)

    @pytest.mark.parametrize("kind,value", [("weight", "0.002009841150425906"),
                                            ("stopping", "0.009078678513621652")])
    def test_report_is_the_checked_report(self, kind, value):
        point = growth_point(P36, kind, 0.3)
        rep = delta(point, 0.95)
        assert isinstance(rep, secondmoment.ConditionReport)
        assert dataclasses.replace(rep, delta=None, bound=None) == (
            verify_conditions(point))
        assert repr(rep.delta) == value
        assert rep.bound == 1 - rep.delta / 0.95 ** 2

    def test_failed_condition_returns_the_checked_report(self):
        # (3,6) stopping just above s_min: the near-identical layer breaks
        # condition 1, and delta adds nothing to the verdicts
        point = growth_point(P36, "stopping", 0.0181)
        rep = delta(point, 0.95)
        assert not rep.condition1_ok
        assert rep.delta is None and rep.bound is None
        assert rep == verify_conditions(point)

    def test_one_report_type(self):
        import ldpc_moments
        assert not hasattr(ldpc_moments, "ConcentrationReport")
        assert not hasattr(secondmoment, "ConcentrationReport")

    @pytest.mark.parametrize("kind,omega", [("weight", 0.3), ("stopping", 0.3),
                                            ("weight", 0.6)])
    def test_univariate_saddle_solved_once(self, monkeypatch, kind, omega):
        # x* at omega, solved by the caller's growth point, seeds every
        # overlap solve, the endpoint extrapolation (omega >= 1/2) and
        # delta_value; none of them solves it again
        calls = []
        real = firstmoment.solve_saddle

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(firstmoment, "solve_saddle", counted)
        rep = delta(growth_point(P36, kind, omega), 0.95)
        assert rep.delta is not None
        assert len(calls) == 1


class TestClosedForm34:
    def test_half_is_zero(self):
        assert delta34_closed_form(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_spot_value(self):
        assert delta34_closed_form(0.25) == pytest.approx(0.08059, abs=1e-4)

    def test_matches_pipeline_on_grid(self):
        assert checks.closed_form_gap([0.15 + 0.05 * k for k in range(15)]) <= 1e-9

    def test_domain_guard(self):
        # the radicand stays positive on (0,1), shrinking to 0 at the edges;
        # outside the unit interval the formula is rejected
        with pytest.raises(DomainError):
            delta34_closed_form(1.5)
        with pytest.raises(DomainError):
            delta34_closed_form(0.0)
        assert math.isfinite(delta34_closed_form(0.999))


class TestLocalLimitRatio:
    def test_identity_offset(self):
        assert local_limit_ratio(growth_point(P36, "weight", 1 / 3),
                                 24, 1 / 6, (0, 0, 0)) == 1.0

    def test_prediction_accuracy_and_convergence(self):
        offsets = [(-3, 3, -3), (2, 0, 0), (-1, 1, -1)]
        point = growth_point(P36, "weight", 1 / 3)
        errs = {n: checks.llt_errors(point, n, 1 / 6, offsets) for n in (24, 48)}
        for o in offsets:
            assert errs[24][o] < 0.30
            assert errs[48][o] < errs[24][o]

    def test_mixed_parity_offset_off_lattice(self):
        with pytest.raises(OffLatticeError):
            local_limit_ratio(growth_point(P36, "weight", 1 / 3),
                              24, 1 / 6, (1, 0, 0))

    @pytest.mark.parametrize("offset", [(2.9, 0.5, 0), (2, 0, 0.5)])
    def test_non_integral_offset_rejected(self, offset):
        # a non-integral offset names no coefficient of the power
        point = growth_point(P36, "weight", 1 / 3)
        with pytest.raises(ValueError, match=r"offset = \S+ is not integral"):
            local_limit_ratio(point, 24, 1 / 6, offset)

    def test_stopping_kind_has_full_lattice(self):
        val = local_limit_ratio(growth_point(P36, "stopping", 1 / 3), 24, 1 / 6,
                                (1, 0, 0))
        assert val > 0.0

    def test_verify_locallimit_rows_unchanged(self, capsys):
        assert main(["verify", "--suite", "locallimit", "--format", "json"]) == 0
        assert capsys.readouterr().out == LOCALLIMIT_JSON


# ldpc-moments verify --suite locallimit --format json, recorded while every
# coefficient of the exact power was still computed on the whole staircase
LOCALLIMIT_JSON = """\
[
  {
    "check": "offset_-3_3_-3",
    "status": "PASS",
    "measured": "0.06518->0.02648",
    "tolerance": "<=0.3 decreasing"
  },
  {
    "check": "offset_3_-3_3",
    "status": "PASS",
    "measured": "0.02519->0.01587",
    "tolerance": "<=0.3 decreasing"
  },
  {
    "check": "offset_2_0_0",
    "status": "PASS",
    "measured": "0.01921->0.01118",
    "tolerance": "<=0.3 decreasing"
  },
  {
    "check": "offset_0_2_0",
    "status": "PASS",
    "measured": "0.01921->0.01118",
    "tolerance": "<=0.3 decreasing"
  },
  {
    "check": "offset_-1_1_-1",
    "status": "PASS",
    "measured": "0.01464->0.007109",
    "tolerance": "<=0.3 decreasing"
  },
  {
    "check": "offset_1_1_1",
    "status": "PASS",
    "measured": "0.0444->0.02078",
    "tolerance": "<=0.3 decreasing"
  },
  {
    "check": "identity_offset",
    "status": "PASS",
    "measured": 1.0,
    "tolerance": 1.0
  }
]
"""


class TestLargeDegreeRobustness:
    def test_full_overlap_range_solvable_at_degree_48(self):
        # corner-adjacent alphas force saddle components ~1e3; the rays
        # and the point solves must all hold up
        params = EnsembleParams(24, 48)
        for omega in (0.54, 0.86):
            rep = verify_conditions(growth_point(params, "weight", omega))
            assert rep.condition1_ok and rep.condition2_ok
        rep = delta(growth_point(params, "weight", 0.7), 0.95)
        assert rep.bound is not None and 0.99 <= rep.bound <= 1.0


class TestSecondMomentPrefactor:
    @staticmethod
    def _asymptotic_second_moment(params, kind, n, w):
        """Full squared-count approximation including every constant:
        d * sigma_c * r^(3/2) * w(1-w) * e^(2n*growth) /
        (2 pi n sqrt((w^2(1-w)^2 - (l-1) sigma_c^2) |B|)),
        with d = 4 for the parity-constrained codeword pair function, 1 for
        the stopping pair function."""
        l, r = params.left_degree, params.right_degree
        x = solve_saddle(params, kind, w)[0]
        B = pair_stats(params, kind, x, x * x)[2]
        sc2 = _sigma_c2(params, B)
        core = w ** 2 * (1 - w) ** 2 - (l - 1) * sc2
        d = 4.0 if kind == "weight" else 1.0
        return (d * math.sqrt(sc2) * r ** 1.5 * w * (1 - w)
                * math.exp(2 * n * growth_point(params, kind, w).growth)
                / (2 * math.pi * n * math.sqrt(core * _det3(B))))

    @pytest.mark.parametrize("kind,tol12,tol24", [("weight", 0.06, 0.01),
                                                  ("stopping", 0.03, 0.02)])
    def test_matches_exact_sum_with_constants(self, kind, tol12, tol24):
        # validates the whole chain: lattice factor, sigma_c, |B|, r^(3/2)
        params = P36
        w = 1.0 / 3.0
        errs = {}
        for n in (12, 24):
            exact = float(exactcomb.exact_second_moment(params, n, n // 3, kind))
            approx = self._asymptotic_second_moment(params, kind, n, w)
            errs[n] = abs(approx / exact - 1.0)
        assert errs[12] < tol12
        assert errs[24] < tol24
        assert errs[24] < errs[12]


class TestSigmaCurvatureCrossCheck:
    def test_second_difference_of_exact_coefficients(self):
        # discrete curvature of ln C_i near i = n w^2 vs -1/(n sigma_c^2)
        pair = exactcomb.expand_pair_gf(P36, "weight")
        w = 1.0 / 3.0
        rel = {}
        for n in (48, 96):
            W = n // 3
            i0 = round(n * w * w)
            B = _point_solve(growth_point(P36, "weight", w), i0 / n)[3]
            sigma_c2 = _sigma_c2(P36, B)
            idx = [(3 * (W - i), 3 * i, 3 * (W - i)) for i in
                   (i0 - 1, i0, i0 + 1)]
            coeffs = exactcomb.power_coefficients(pair, n // 2, idx)
            lnc = [math.log(coeffs[ix]) for ix in idx]
            d2 = lnc[2] - 2.0 * lnc[1] + lnc[0]
            rel[n] = abs(d2 / (-1.0 / (n * sigma_c2)) - 1.0)
        assert rel[48] < 0.20
        assert rel[96] < rel[48]

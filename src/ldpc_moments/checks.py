"""Self-check measurements shared by ``ldpc-moments verify`` and the tests.

Each function returns numbers, not verdicts: every caller compares them
with its own tolerances, so one shared predicate cannot hide a fault from
both the command line and the acceptance gate.
"""

import math

from . import ensemble_oracle, exactcomb, firstmoment, secondmoment
from .errors import NoBracketError
from .genfun import KIND_WEIGHT, EnsembleParams


def exhaustive_mismatches(params, n, kind):
    """(W, moment, exhaustive average, formula) wherever the two differ."""
    out = []
    for W in range(n + 1):
        exhaustive = ensemble_oracle.exhaustive_moment(params, n, W, kind)
        for moment, ex, gf in zip((1, 2), exhaustive, _exact_pair(params, n, W, kind)):
            if ex != gf:
                out.append((W, moment, ex, gf))
    return out


def hayman_errors(params, omega, ns):
    """{n: relative error of hayman_coeff} on the check-polynomial power
    coefficient of relative weight omega at block length n."""
    l, r = params.left_degree, params.right_degree
    poly = exactcomb.check_poly(r, KIND_WEIGHT)
    errs = {}
    for n in ns:
        m, k = params.check_count(n), round(n * l * omega)
        errs[n] = abs(firstmoment.hayman_coeff(poly, m, k)
                      / exactcomb.power_coeff(poly, m, k) - 1.0)
    return errs


def llt_errors(point, n, alpha, offsets):
    """{offset: relative error of local_limit_ratio} against the ratio of
    exact pair-GF power coefficients at block length n, for the ensemble,
    kind and abscissa of the growth point."""
    l = point.params.left_degree
    W, i0 = round(n * point.abscissa), round(n * alpha)
    base = (l * (W - i0), l * i0, l * (W - i0))
    pair = exactcomb.expand_pair_gf(point.params, point.kind)
    indices = [base] + [tuple(base[k] + o[k] for k in range(3)) for o in offsets]
    coeffs = exactcomb.power_coefficients(pair, point.params.check_count(n), indices)
    errors = {}
    for o, j in zip(offsets, indices[1:]):
        pred = secondmoment.local_limit_ratio(point, n, alpha, o)
        errors[o] = abs(pred / (coeffs[j] / coeffs[base]) - 1.0)
    return errors


def mc_attempts(params, n, W, kind, samples, seed):
    """Per moment (first, second), [(|MC mean - exact|, 3-sigma halfwidth)]
    per attempt.  Both moments share each sampling pass; if a moment misses
    its 3-sigma band, one more pass runs with seed + samples, and only the
    moments that missed record it."""
    exact = [float(e) for e in _exact_pair(params, n, W, kind)]
    attempts = ([], [])
    pending = (0, 1)
    for trial in range(2):
        estimates = ensemble_oracle.mc_moments(params, n, W, kind, samples,
                                               seed + trial * samples)
        for k in pending:
            attempts[k].append((abs(estimates[k].mean - exact[k]),
                                estimates[k].confidence_halfwidth_3sigma))
        pending = [k for k in pending if not attempts[k][-1][0] <= attempts[k][-1][1]]
        if not pending:
            break
    return attempts


def _exact_pair(params, n, W, kind):
    return (exactcomb.exact_first_moment(params, n, W, kind),
            exactcomb.exact_second_moment(params, n, W, kind))


def closed_form_gap(omegas):
    """Worst |delta_value - delta34_closed_form| of (3,4) weight over omegas."""
    params = EnsembleParams(3, 4)
    points = [firstmoment.growth_point(params, KIND_WEIGHT, w) for w in omegas]
    gaps = [abs(secondmoment.delta_value(gp)
                - secondmoment.delta34_closed_form(gp.abscissa)) for gp in points]
    return max(gaps, key=lambda g: math.inf if math.isnan(g) else g)  # NaN is worst


def endpoint_gap(point):
    """|face ray - extrapolated| endpoint exponent at the growth point's
    abscissa; NoBracketError where the ray rho = 0 has no finite root."""
    face = secondmoment._face_ray(point)
    if math.isnan(face):
        raise NoBracketError(f"no root on the ray rho = 0 at {point.abscissa}")
    return abs(face - secondmoment._endpoint_extrapolated(point))


def disjoint_term_errors(params, omega, ns):
    """{n: |ln S_0 / n - endpoint exponent|} for the exact disjoint-support
    term S_0 of the weight-kind second moment at block length n."""
    point = firstmoment.growth_point(params, KIND_WEIGHT, omega)
    endpoint = secondmoment.endpoint_exponent(point)
    return {n: abs(math.log(float(exactcomb.exact_term(
        params, n, round(n * omega), 0, KIND_WEIGHT))) / n - endpoint) for n in ns}

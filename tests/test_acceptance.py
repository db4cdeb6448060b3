"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v` (add -s to stream the lines).
"""

import math
import time

import numpy as np

from ldpc_moments import checks, firstmoment, secondmoment
from ldpc_moments.cli import run_bound_curve
from ldpc_moments.genfun import EnsembleParams

EPSILON = 0.95

TABLE1 = [  # rate 1/2
    ((3, 6), 0.0227334, 0.740611),
    ((6, 12), 0.0956337, 0.963306),
    ((12, 24), 0.109404, 0.999617),
]
TABLE2 = [  # rate 1/4
    ((3, 4), 0.112159, 0.667889),
    ((6, 8), 0.207437, 0.989098),
    ((12, 16), 0.214428, 0.999994),
]


def _report(criterion: str, ok: bool, detail: str = "") -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}"
          + (f" ({detail})" if detail else ""))
    return ok


def _table_check(rows):
    results = []
    for (l, r), wmin_target, bound_target in rows:
        params = EnsembleParams(l, r)
        wmin = firstmoment.min_abscissa(params, "weight")
        rep = secondmoment.delta(
            firstmoment.growth_point(params, "weight", wmin + 1e-6), EPSILON)
        results.append((abs(wmin - wmin_target) <= 1e-5
                        and rep.bound is not None
                        and abs(rep.bound - bound_target) <= 1e-3,
                        f"({l},{r}): wmin {wmin:.7f} bound {rep.bound:.6f}"))
    return results


def test_criterion_01_table_rate_half():
    start = time.monotonic()
    results = _table_check(TABLE1)
    elapsed = time.monotonic() - start
    ok = all(r[0] for r in results) and elapsed < 60.0
    assert _report("criterion 1: rate-1/2 table reproduction", ok,
                   "; ".join(r[1] for r in results) + f"; {elapsed:.1f}s")


def test_criterion_02_table_rate_quarter():
    results = _table_check(TABLE2)
    ok = all(r[0] for r in results)
    assert _report("criterion 2: rate-1/4 table reproduction", ok,
                   "; ".join(r[1] for r in results))


def test_criterion_03_bound_tight_at_half():
    worst = 0.0
    for l, r in ((3, 4), (3, 6), (6, 8), (6, 12)):
        params = EnsembleParams(l, r)
        rep = secondmoment.delta(
            firstmoment.growth_point(params, "weight", 0.5), EPSILON)
        assert rep.delta is not None
        worst = max(worst, abs(rep.delta))
    assert _report("criterion 3: delta(0.5) = 0 for four ensembles",
                   worst <= 1e-8, f"worst |delta| {worst:.2e}")


def test_criterion_04_closed_form_cross_check():
    params = EnsembleParams(3, 4)
    worst = 0.0
    for k in range(15):
        w = 0.15 + 0.05 * k
        rep = secondmoment.delta(
            firstmoment.growth_point(params, "weight", w), EPSILON)
        assert rep.delta is not None
        worst = max(worst, abs(rep.delta - secondmoment.delta34_closed_form(w)))
    spot = abs(secondmoment.delta34_closed_form(0.25) - 0.08059)
    ok = worst <= 1e-9 and spot <= 1e-4
    assert _report("criterion 4: (3,4) closed form matches pipeline", ok,
                   f"worst grid diff {worst:.2e}, spot diff {spot:.2e}")


def test_criterion_05_exact_oracle_equalities():
    start = time.monotonic()
    params = EnsembleParams(2, 4)
    mismatches = [(kind, W, moment) for kind in ("weight", "stopping")
                  for W, moment, _, _ in checks.exhaustive_mismatches(params, 4, kind)]
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed < 120.0
    assert _report("criterion 5: exhaustive ensemble equals moment formulas",
                   ok, f"{20} exact equalities; {elapsed:.1f}s")


def test_criterion_06_square_overlap_saddle_identity():
    rng = np.random.default_rng(20240601)
    ensembles = [(3, 4), (3, 6), (6, 8), (6, 12), (12, 24)]
    checked = 0
    worst_t, worst_e = 0.0, 0.0
    while checked < 20:
        l, r = ensembles[rng.integers(len(ensembles))]
        kind = "weight" if checked % 2 == 0 else "stopping"
        params = EnsembleParams(l, r)
        omega = float(rng.uniform(0.05, 0.6))
        point = firstmoment.growth_point(params, kind, omega)
        if point.growth <= 0.0:
            continue
        x = point.saddle_x
        t1, t2, _, _ = secondmoment._point_solve(point, omega * omega)
        worst_t = max(worst_t, abs(t1 - x), abs(t2 - x * x))
        peak = secondmoment.exponent_curve(point, omega * omega)
        growth = point.growth
        worst_e = max(worst_e, abs(peak - 2.0 * growth))
        checked += 1
    ok = worst_t <= 1e-9 and worst_e <= 1e-8
    assert _report("criterion 6: overlap saddle matches (x, x^2) at w^2", ok,
                   f"20 cases; worst saddle diff {worst_t:.2e}, "
                   f"worst exponent diff {worst_e:.2e}")


def test_criterion_07_hayman_convergence():
    errs = checks.hayman_errors(EnsembleParams(3, 6), 0.3, (20, 40))
    ok = errs[40] < errs[20] and errs[20] < 0.10 and errs[40] < 0.10
    assert _report("criterion 7: coefficient approximation tightens n=20->40",
                   ok, f"rel err {errs[20]:.4f} -> {errs[40]:.4f}")


def test_criterion_08_local_limit_theorem():
    params = EnsembleParams(3, 6)
    omega, alpha = 1.0 / 3.0, 1.0 / 6.0
    offsets = [(-3, 3, -3), (3, -3, 3), (-1, 1, -1), (1, 1, 1),
               (2, 0, 0), (0, 2, 0), (0, 0, 2), (-2, 0, 0), (2, 2, 2)]
    errs = {}
    for n in (24, 48):
        norms = [math.sqrt(6 / (3 * n)) * math.sqrt(sum(o * o for o in off))
                 for off in offsets]
        assert all(u <= 2.0 for u in norms)
        for off, err in checks.llt_errors(params, n, omega, alpha, offsets).items():
            errs[(n, off)] = err
    ok24 = max(errs[(24, o)] for o in offsets) <= 0.30
    closer = all(errs[(48, o)] < errs[(24, o)] for o in offsets)
    assert _report("criterion 8: local limit ratios vs exact coefficients",
                   ok24 and closer,
                   f"worst at n=24: {max(errs[(24, o)] for o in offsets):.3f}; "
                   f"all {len(offsets)} offsets tighten at n=48")


def test_criterion_09_monte_carlo_consistency():
    params = EnsembleParams(3, 6)
    n, W, samples = 12, 4, 10_000
    detail = []
    ok = True
    # a moment that misses is rerun once with a fresh seed, then fails
    attempts = checks.mc_attempts(params, n, W, "weight", samples, 314159)
    for moment, tries in zip((1, 2), attempts):
        detail += [f"m{moment}: dev {dev:.3g} vs 3s {hw:.3g}" for dev, hw in tries]
        ok = ok and any(dev <= hw for dev, hw in tries)
    assert _report("criterion 9: Monte-Carlo moments inside 3-sigma", ok,
                   "; ".join(detail))


def test_criterion_10_bound_shape():
    ok = True
    details = []
    for l, r in ((3, 6), (3, 4)):
        params = EnsembleParams(l, r)
        wmin = firstmoment.min_abscissa(params, "weight")
        rising = np.linspace(wmin + 1e-4, 0.5, 50)
        falling = np.linspace(0.5, 1.0 - wmin - 1e-4, 50)
        b_up = [row["bound"] for row in
                run_bound_curve(params, "weight", [float(w) for w in rising],
                                EPSILON)]
        b_dn = [row["bound"] for row in
                run_bound_curve(params, "weight", [float(w) for w in falling],
                                EPSILON)]
        numeric = all(isinstance(b, float) for b in b_up + b_dn)
        mono_up = all(b2 >= b1 - 1e-9 for b1, b2 in zip(b_up, b_up[1:]))
        mono_dn = all(b2 <= b1 + 1e-9 for b1, b2 in zip(b_dn, b_dn[1:]))
        ok = ok and numeric and mono_up and mono_dn
        details.append(f"({l},{r}): up {mono_up}, down {mono_dn}")
    assert _report("criterion 10: bound rises to 0.5 then falls", ok,
                   "; ".join(details))

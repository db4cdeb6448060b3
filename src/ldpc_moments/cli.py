"""Command-line surface: table/figure reproduction and verification suites.

Commands
  growth   growth-rate curve over an abscissa grid
  bound    concentration-bound curve (the data behind the figures)
  table    omega_min and the bound at omega_min+ for a list of degree pairs
  exact    exact first/second moments at small block length
  mc       Monte-Carlo moments against the exact oracle
  verify   named self-check suites; nonzero exit on any failure

Output is CSV (default) or JSON; identical configuration and seed produce
byte-identical files.  Exit codes: 0 ok, 1 verification failure, 2 usage
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import checks, ensemble_oracle, exactcomb, firstmoment, secondmoment
from .errors import SolverError, UnsupportedPolyError
from .genfun import KIND_WEIGHT, KINDS, EnsembleParams

BOUND_HEADER = ("abscissa", "x", "growth", "delta", "bound", "cond1", "cond2")
GROWTH_HEADER = ("abscissa", "x", "growth", "curvature")
TABLE_HEADER = ("pair", "min_abscissa", "bound")
EXACT_HEADER = ("n", "W", "first", "second")
MC_HEADER = ("moment", "mean", "variance", "halfwidth", "exact", "within_3sigma")
VERIFY_HEADER = ("check", "status", "measured", "tolerance")

VERIFY_SUITES = ("hayman", "locallimit", "closedform", "endpoint", "exact", "mc")

# the tables report the one-sided limit omega -> omega_min+
MIN_ABSCISSA_OFFSET = 1e-6


def run_growth_curve(params, kind, grid):
    rows = []
    for w in grid:
        row = {"abscissa": w, "x": None, "growth": None, "curvature": None}
        try:
            gp = firstmoment.growth_point(params, kind, w)
            row.update(x=gp.saddle_x, growth=gp.growth, curvature=gp.curvature_b)
        except (SolverError, ValueError) as exc:
            row["growth"] = _error_code(exc)
        except ArithmeticError:  # phi(x*) past the float range
            row["growth"] = "OVERFLOW"
        rows.append(row)
    return rows


def run_bound_curve(params, kind, grid, epsilon):
    """Rows of (abscissa, x, growth, delta, bound, cond1, cond2).

    Abscissas with nonpositive growth get bound="markov"; rows where a
    dominance condition fails keep delta/bound empty; per-row numerical
    failures are recorded in the bound column and never abort the sweep.
    """
    rows = []
    for w in grid:
        row = {k: None for k in BOUND_HEADER}
        row["abscissa"] = w
        try:
            gp = firstmoment.growth_point(params, kind, w)
            row.update(x=gp.saddle_x, growth=gp.growth)
            if gp.growth <= 0.0:
                row["bound"] = "markov"
            else:
                rep = secondmoment.delta(gp, epsilon)
                row.update(cond1=rep.condition1_ok, cond2=rep.condition2_ok,
                           delta=rep.delta, bound=rep.bound)
        except (SolverError, ValueError) as exc:
            row["bound"] = _error_code(exc)
        rows.append(row)
    return rows


def run_table(pairs, kind, epsilon):
    """One row per degree pair: typical minimum abscissa and bound there.

    Per-pair numerical failures, overflow included, are recorded in the
    bound column and never abort the table.  Raises ValueError before any
    computation when a pair is not a supported degree pair or the pairs do
    not share one design rate.
    """
    ensembles = [EnsembleParams(l, r) for l, r in pairs]
    rates = {round(p.design_rate, 12) for p in ensembles}
    if len(rates) != 1:
        raise ValueError(f"pairs must share one design rate, got rates {sorted(rates)}")
    rows = []
    for params in ensembles:
        row = {"pair": f"{params.left_degree}:{params.right_degree}",
               "min_abscissa": None, "bound": None}
        try:
            wmin = firstmoment.min_abscissa(params, kind)
            row["min_abscissa"] = wmin
            gp = firstmoment.growth_point(params, kind, wmin + MIN_ABSCISSA_OFFSET)
            rep = secondmoment.delta(gp, epsilon)
            row["bound"] = rep.bound if rep.bound is not None else "conditions_failed"
        except (SolverError, ValueError) as exc:
            row["bound"] = _error_code(exc)
        except ArithmeticError:  # the pair kernel past the float range
            row["bound"] = "OVERFLOW"
        rows.append(row)
    return rows


def run_exact(params, kind, n, W):
    first = exactcomb.exact_first_moment(params, n, W, kind)
    second = exactcomb.exact_second_moment(params, n, W, kind)
    return [{"n": n, "W": W, "first": str(first), "second": str(second)}]


def run_mc(params, kind, n, W, samples, seed):
    estimates = ensemble_oracle.mc_moments(params, n, W, kind, samples, seed)
    exact = (exactcomb.exact_first_moment(params, n, W, kind),
             exactcomb.exact_second_moment(params, n, W, kind))
    rows = []
    for moment, est, ex in zip((1, 2), estimates, exact):
        inside = abs(est.mean - float(ex)) <= est.confidence_halfwidth_3sigma
        rows.append({
            "moment": moment,
            "mean": est.mean,
            "variance": est.variance,
            "halfwidth": est.confidence_halfwidth_3sigma,
            "exact": str(ex),
            "within_3sigma": bool(inside),
        })
    return rows


def run_verify(suite, seed=12345):
    """Run one named self-check suite; returns (rows, all_passed)."""
    if suite not in VERIFY_SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {VERIFY_SUITES}")
    results = {"hayman": _verify_hayman, "locallimit": _verify_locallimit,
               "closedform": _verify_closedform, "endpoint": _verify_endpoint,
               "exact": _verify_exact, "mc": lambda: _verify_mc(seed)}[suite]()
    rows = [{"check": name, "status": _STATUS[ok], "measured": measured,
             "tolerance": tol} for name, ok, measured, tol in results]
    return rows, all(row["status"] != "FAIL" for row in rows)


# ---------------------------------------------------------------------------
# verify suites: (check, ok, measured, tolerance) rows; ok is None if skipped

_STATUS = {True: "PASS", False: "FAIL", None: "SKIP"}
_P36 = EnsembleParams(3, 6)


def _verify_hayman():
    binom = exactcomb.ExactPolynomial(1, {0: 1, 1: 1})
    err = abs(firstmoment.hayman_coeff(binom, 60, 18) / math.comb(60, 18) - 1.0)
    p6 = exactcomb.check_poly(6, KIND_WEIGHT)
    ratio = firstmoment.hayman_coeff(p6, 50, 10) / exactcomb.power_coeff(p6, 50, 10)
    errs = checks.hayman_errors(_P36, 0.3, (20, 40))
    off = firstmoment.hayman_coeff(p6, 9, 7)  # odd index off the even lattice
    rows = [("binomial_60_18", err <= 0.02, err, 0.02),
            ("weight_poly_ratio", 0.95 <= ratio <= 1.05, ratio, "0.95..1.05"),
            ("convergence_n20_n40",
             errs[40] < errs[20] and errs[40] < 0.10 and errs[20] < 0.10,
             f"{errs[20]:.4g}->{errs[40]:.4g}", "decreasing <0.1"),
            ("off_lattice_zero", off == 0.0, off, 0.0)]
    try:
        firstmoment.hayman_coeff(exactcomb.ExactPolynomial(1, {0: 5}), 10, 3)
        rows.append(("single_term_poly", False, "no error raised", "UNSUPPORTED_POLY"))
    except UnsupportedPolyError:
        rows.append(("single_term_poly", None, "UNSUPPORTED_POLY", "degenerate input"))
    except ValueError as exc:
        rows.append(("single_term_poly", False, repr(exc), "UNSUPPORTED_POLY"))
    return rows


def _verify_locallimit():
    omega, alpha = 1.0 / 3.0, 1.0 / 6.0
    offsets = [(-3, 3, -3), (3, -3, 3), (2, 0, 0), (0, 2, 0), (-1, 1, -1), (1, 1, 1)]
    gp = firstmoment.growth_point(_P36, KIND_WEIGHT, omega)
    e24, e48 = (checks.llt_errors(gp, n, alpha, offsets) for n in (24, 48))
    rows = [(f"offset_{o[0]}_{o[1]}_{o[2]}", e24[o] <= 0.30 and e48[o] < e24[o],
             f"{e24[o]:.4g}->{e48[o]:.4g}", "<=0.3 decreasing") for o in offsets]
    ident = secondmoment.local_limit_ratio(gp, 24, alpha, (0, 0, 0))
    return rows + [("identity_offset", ident == 1.0, ident, 1.0)]


def _verify_closedform():
    worst = checks.closed_form_gap([0.15 + 0.05 * k for k in range(15)])
    spot = abs(secondmoment.delta34_closed_form(0.25) - 0.08059)
    return [("grid_0.15_0.85", worst <= 1e-9, worst, 1e-9),
            ("spot_0.25", spot <= 1e-4, spot, 1e-4)]


def _verify_endpoint():
    gp = firstmoment.growth_point(_P36, KIND_WEIGHT, 0.3)
    diff = checks.endpoint_gap(gp)
    peak = secondmoment.exponent_curve(gp, 0.09)
    ident = abs(peak - 2.0 * gp.growth)
    errs = checks.disjoint_term_errors(_P36, 0.5, (24, 48))
    return [("saddle_vs_extrapolation", diff <= 1e-3, diff, 1e-3),
            ("peak_identity", ident <= 1e-8, ident, 1e-8),
            ("disjoint_term_growth", errs[48] < errs[24],
             f"{errs[24]:.4g}->{errs[48]:.4g}", "decreasing")]


def _verify_exact():
    rows = []
    for kind in KINDS:
        bad = checks.exhaustive_mismatches(EnsembleParams(2, 4), 4, kind)
        worst = "W={} m={}: {} != {}".format(*bad[-1]) if bad else "match"
        rows.append((f"exhaustive_{kind}", not bad, worst, "exact equality"))
    return rows


def _verify_mc(seed):
    attempts = checks.mc_attempts(_P36, 12, 4, KIND_WEIGHT, 10_000, seed)
    return [(f"moment{moment}_3sigma", any(dev <= hw for dev, hw in tries),
             ";".join(f"{dev:.4g}/{hw:.4g}" for dev, hw in tries), "|dev| <= 3sigma")
            for moment, tries in zip((1, 2), attempts)]


def _error_code(exc):
    return getattr(exc, "code", "ERROR")


# ---------------------------------------------------------------------------
# output formatting

def _fmt_cell(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.9g}"
    return str(v)


def render_csv(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt_cell(row[k]) for k in header))
    return "\n".join(lines) + "\n"


def render_json(header, rows):
    out = [{k: row[k] for k in header} for row in rows]
    return json.dumps(out, indent=2) + "\n"


def _emit(args, header, rows):
    text = (render_csv(header, rows) if args.format == "csv"
            else render_json(header, rows))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ldpc-moments",
        description="Concentration bounds for regular LDPC weight and "
                    "stopping-set distributions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, grid=False, block=False, sampling=False):
        p.add_argument("--kind", choices=KINDS, default=KIND_WEIGHT)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if grid:
            p.add_argument("--min", type=float, required=True)
            p.add_argument("--max", type=float, required=True)
            p.add_argument("--steps", type=int, required=True)
        if block:
            p.add_argument("--n", type=int, required=True)
            p.add_argument("--weight", type=int, default=None)
            p.add_argument("--size", type=int, default=None)
        if sampling:
            p.add_argument("--samples", type=int, default=10_000)
            p.add_argument("--seed", type=int, default=12345)

    p_growth = sub.add_parser("growth", help="growth-rate curve")
    p_growth.add_argument("--l", type=int, required=True)
    p_growth.add_argument("--r", type=int, required=True)
    add_common(p_growth, grid=True)

    p_bound = sub.add_parser("bound", help="concentration-bound curve")
    p_bound.add_argument("--l", type=int, required=True)
    p_bound.add_argument("--r", type=int, required=True)
    p_bound.add_argument("--epsilon", type=float, default=0.95)
    add_common(p_bound, grid=True)

    p_table = sub.add_parser("table", help="omega_min/bound table for pairs")
    p_table.add_argument("--pairs", required=True,
                         help="comma list like 3:6,6:12,12:24")
    p_table.add_argument("--epsilon", type=float, default=0.95)
    add_common(p_table)

    p_exact = sub.add_parser("exact", help="exact moments at small n")
    p_exact.add_argument("--l", type=int, required=True)
    p_exact.add_argument("--r", type=int, required=True)
    add_common(p_exact, block=True)

    p_mc = sub.add_parser("mc", help="Monte-Carlo moments vs exact oracle")
    p_mc.add_argument("--l", type=int, required=True)
    p_mc.add_argument("--r", type=int, required=True)
    add_common(p_mc, block=True, sampling=True)

    p_verify = sub.add_parser("verify", help="run a self-check suite")
    p_verify.add_argument("--suite", choices=VERIFY_SUITES, required=True)
    p_verify.add_argument("--seed", type=int, default=12345)
    p_verify.add_argument("--format", choices=("csv", "json"), default="csv")
    p_verify.add_argument("--out", default=None)
    return parser


def _parse_pairs(text):
    pairs = []
    for chunk in text.split(","):
        l_str, _, r_str = chunk.partition(":")
        pairs.append((int(l_str), int(r_str)))
    return pairs


def _grid(args, parser):
    if not (math.isfinite(args.min) and math.isfinite(args.max)):
        parser.error("--min and --max must be finite")
    if not (0.0 < args.min and args.max < 1.0):
        parser.error("--min and --max must lie in (0, 1)")
    if not args.min < args.max:
        parser.error("--min must be smaller than --max")
    if args.steps < 2:
        parser.error("--steps must be at least 2")
    try:
        return [float(v) for v in np.linspace(args.min, args.max, args.steps)]
    except MemoryError:
        parser.error(f"--steps {args.steps} is too large to allocate")


def _epsilon(args, parser):
    if not 0.0 < args.epsilon <= 1.0:
        parser.error("--epsilon must lie in (0, 1]")
    if args.epsilon ** 2 < sys.float_info.min:  # the bound divides by it
        parser.error("--epsilon squared underflows; use epsilon >= 1.5e-154")
    return args.epsilon


def _seed(args, parser):
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args.seed


def _block_index(args, parser):
    if args.n < 0:
        parser.error("--n must be nonnegative")
    W = args.weight if args.kind == KIND_WEIGHT else args.size
    if W is None:
        flag = "--weight" if args.kind == KIND_WEIGHT else "--size"
        parser.error(f"{flag} is required for kind={args.kind}")
    return W


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "growth":
            params = EnsembleParams(args.l, args.r)
            rows = run_growth_curve(params, args.kind, _grid(args, parser))
            _emit(args, GROWTH_HEADER, rows)
        elif args.command == "bound":
            params = EnsembleParams(args.l, args.r)
            epsilon = _epsilon(args, parser)
            rows = run_bound_curve(params, args.kind, _grid(args, parser),
                                   epsilon)
            _emit(args, BOUND_HEADER, rows)
        elif args.command == "table":
            try:
                pairs = _parse_pairs(args.pairs)
            except ValueError:
                parser.error(f"cannot parse --pairs {args.pairs!r}")
            epsilon = _epsilon(args, parser)
            try:
                rows = run_table(pairs, args.kind, epsilon)
            except ValueError as exc:
                parser.error(str(exc))
            _emit(args, TABLE_HEADER, rows)
        elif args.command == "exact":
            params = EnsembleParams(args.l, args.r)
            rows = run_exact(params, args.kind, args.n, _block_index(args, parser))
            _emit(args, EXACT_HEADER, rows)
        elif args.command == "mc":
            params = EnsembleParams(args.l, args.r)
            if args.samples < 2:
                parser.error("--samples must be at least 2")
            rows = run_mc(params, args.kind, args.n, _block_index(args, parser),
                          args.samples, _seed(args, parser))
            _emit(args, MC_HEADER, rows)
        elif args.command == "verify":
            rows, ok = run_verify(args.suite, seed=_seed(args, parser))
            _emit(args, VERIFY_HEADER, rows)
            if not ok:
                return 1
    except SystemExit as exc:
        return int(exc.code or 0)
    except (SolverError, ArithmeticError) as exc:
        code = getattr(exc, "code", type(exc).__name__)
        print(f"numerical failure [{code}]: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        code = getattr(exc, "code", "INVALID")
        print(f"invalid input [{code}]: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # only --out is opened
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

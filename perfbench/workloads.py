"""Workload definitions: the tasks one repetition runs, made from a seed.

A task is one call into the CLI layer that yields one or more output rows.
Every task a seed can produce has a stored reference, so every run is checked
byte for byte against output recorded from the unmodified package.
"""

from __future__ import annotations

import random

EPSILON = 0.95
KINDS = ("weight", "stopping")

# bound-sweep: a uniform grid of CELLS cells on (0, 1) per curve; each
# abscissa sits at one of SUBCELLS fixed positions inside its cell, so the
# stored reference covers every seed.  The seed picks a starting position per
# cell and later repetitions of a run step through the cell in bit-reversed
# order, so a run samples each cell evenly whatever the seed.  The r=64 curves
# are kept on purpose: they overflow at the seed and must show as crashed rows.
BOUND_CURVES = ((3, 6), (12, 24), (3, 64), (32, 64))
CELLS = 5
SUBCELLS = 32
SUBCELL_ORDER = tuple(int(f"{i:05b}"[::-1], 2) for i in range(SUBCELLS))

# table: the paper's rate-1/2 and rate-1/4 degree-pair lists
TABLE_PAIRS = ((3, 6), (6, 12), (12, 24), (24, 48), (3, 4), (6, 8), (12, 16))

# published table targets (pair, omega_min, bound at omega_min+), weight kind
TABLE_TARGETS = {
    (3, 6): (0.0227334, 0.740611),
    (6, 12): (0.0956337, 0.963306),
    (12, 24): (0.109404, 0.999617),
    (3, 4): (0.112159, 0.667889),
    (6, 8): (0.207437, 0.989098),
    (12, 16): (0.214428, 0.999994),
}
TARGET_TOL_ABSCISSA = 1e-5
TARGET_TOL_BOUND = 1e-3

# oracles: exact moments at the largest block lengths the oracle handles in
# about a second, seeded Monte-Carlo drawn from a pool of seeds that the
# reference covers, and the two self-check suites that need no sampling
EXACT_CASES = (("weight", 36, 12), ("stopping", 24, 8))
MC_N, MC_W, MC_SAMPLES = 12, 4, 2000
MC_SEED_BASE, MC_SEED_POOL = 12345, 16
VERIFY_SUITES = ("exact", "locallimit")

WORKLOADS = ("bound-sweep", "table", "oracles")

# the functions the traced run wraps, by module; HOT ones are aggregated per
# parent span instead of recording one span per call
LAYERS = {
    "genfun": ("pair_vgh", "saddle_stats_uni"),
    "firstmoment": ("solve_saddle", "min_abscissa", "growth_point"),
    "secondmoment": ("verify_conditions", "exponent_curve", "endpoint_exponent",
                     "delta_value"),
    "exactcomb": ("exact_first_moment", "exact_second_moment", "expand_pair_gf",
                  "power_coefficients"),
    "ensemble_oracle": ("sample_graph", "count_words", "mc_moments",
                        "exhaustive_moment"),
    "cli": ("run_bound_curve", "run_table", "run_exact", "run_mc", "run_verify",
            "render_csv"),
}
HOT = ("genfun.pair_vgh", "genfun.saddle_stats_uni")
LAYER_FIELDS = (("calls", "count"), ("busy_s", "s"), ("self_s", "s"),
                ("raised", "count"))

# the workload on which each traced function must record calls
HOME = {
    "bound-sweep": ("genfun.pair_vgh", "genfun.saddle_stats_uni",
                    "firstmoment.solve_saddle", "firstmoment.growth_point",
                    "secondmoment.verify_conditions", "secondmoment.exponent_curve",
                    "secondmoment.endpoint_exponent", "secondmoment.delta_value",
                    "cli.run_bound_curve", "cli.render_csv"),
    "table": ("firstmoment.min_abscissa", "cli.run_table"),
    "oracles": ("exactcomb.exact_first_moment", "exactcomb.exact_second_moment",
                "exactcomb.expand_pair_gf", "exactcomb.power_coefficients",
                "ensemble_oracle.sample_graph", "ensemble_oracle.count_words",
                "ensemble_oracle.mc_moments", "ensemble_oracle.exhaustive_moment",
                "cli.run_exact", "cli.run_mc", "cli.run_verify"),
}


def layer_names():
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def bound_abscissa(cell: int, sub: int) -> float:
    return (cell + (sub + 0.5) / SUBCELLS) / CELLS


def _bound_task(l, r, kind, cell, sub):
    return {"key": f"bound {l}:{r} {kind} {cell}.{sub}", "cmd": "bound",
            "l": l, "r": r, "kind": kind, "w": bound_abscissa(cell, sub)}


def _table_task(l, r, kind):
    return {"key": f"table {l}:{r} {kind}", "cmd": "table", "l": l, "r": r,
            "kind": kind}


def _exact_task(kind, n, W):
    return {"key": f"exact 3:6 {kind} n={n} W={W}", "cmd": "exact", "l": 3,
            "r": 6, "kind": kind, "n": n, "W": W}


def _mc_task(kind, mc_seed):
    return {"key": f"mc 3:6 {kind} n={MC_N} W={MC_W} seed={mc_seed}", "cmd": "mc",
            "l": 3, "r": 6, "kind": kind, "n": MC_N, "W": MC_W,
            "samples": MC_SAMPLES, "seed": mc_seed}


def _verify_task(suite):
    return {"key": f"verify {suite}", "cmd": "verify", "suite": suite}


def _mc_seed(pool_index: int) -> int:
    # consecutive pool entries use disjoint per-sample seed ranges
    return MC_SEED_BASE + MC_SAMPLES * pool_index


def tasks(workload: str, seed: int, rep: int = 0) -> list:
    """The tasks of repetition `rep` of a run, in the order they run.

    Only bound-sweep changes its input from one repetition to the next; the
    other workloads repeat theirs, so each task's fastest run can be used.
    """
    if workload == "bound-sweep":
        rng = random.Random(seed)
        step = SUBCELL_ORDER[rep % SUBCELLS]
        return [_bound_task(l, r, kind, cell,
                            (rng.randrange(SUBCELLS) + step) % SUBCELLS)
                for l, r in BOUND_CURVES for kind in KINDS for cell in range(CELLS)]
    rng = random.Random(seed)
    if workload == "table":
        out = [_table_task(l, r, kind) for l, r in TABLE_PAIRS for kind in KINDS]
        rng.shuffle(out)
        return out
    if workload == "oracles":
        mc_seed = _mc_seed(rng.randrange(MC_SEED_POOL))
        return ([_exact_task(*case) for case in EXACT_CASES]
                + [_mc_task(kind, mc_seed) for kind in KINDS]
                + [_verify_task(suite) for suite in VERIFY_SUITES])
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def reference_tasks(workload: str) -> list:
    """Every task that any seed can put into a repetition of the workload."""
    if workload == "bound-sweep":
        return [_bound_task(l, r, kind, cell, sub)
                for l, r in BOUND_CURVES for kind in KINDS
                for cell in range(CELLS) for sub in range(SUBCELLS)]
    if workload == "table":
        return [_table_task(l, r, kind) for l, r in TABLE_PAIRS for kind in KINDS]
    if workload == "oracles":
        return ([_exact_task(*case) for case in EXACT_CASES]
                + [_mc_task(kind, _mc_seed(i))
                   for i in range(MC_SEED_POOL) for kind in KINDS]
                + [_verify_task(suite) for suite in VERIFY_SUITES])
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")

"""Layered benchmark of ldpc-moments, timed from outside the package.

    python3 perfbench/run.py --workload bound-sweep --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from src/.
Each repetition of the workload runs in a fresh single-threaded worker
process (perfbench/worker.py), so no lru_cache carries over between
repetitions.  Whole repetitions run for at most --seconds (at least one).
Every row is checked against output stored from the unmodified package
(reference/).  Times are scaled to a nominal machine speed with a fixed
calibration kernel run around every task (calib.py, nominal_speed).

The last line of stdout is one JSON object: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.  The lines
before it list every metric by name and unit, and any failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.special import betainc

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"

SETUP_SAMPLES = 8  # set-up-only workers per run, besides one per repetition
RUN_LIMIT_S = 170.0  # a run, every worker included, ends well within 180 s
# calibration kernel time on the nominal machine; timings are scaled to it
NOMINAL_CALIB_S = 0.008

# single-threaded workers: numeric libraries must not start thread pools
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(tasks: list, trace: bool, deadline: float) -> dict:
    """One cold worker process, ended by `deadline` (time.monotonic())."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run time limit exceeded")
    job = json.dumps({"tasks": tasks, "trace": trace})
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), repr(spawn)],
            input=job, capture_output=True, text=True, env=worker_env(),
            cwd=ROOT, timeout=timeout, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker killed at the run time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    package = Path(out["package"]).resolve()
    if SRC.resolve() not in package.parents:
        raise BenchError(f"worker imported the package from {package}, not {SRC}")
    return out


def load_reference(workload: str) -> dict:
    """{task key: [expected output lines]} stored from the unmodified package."""
    ref = {}
    path = REFERENCE_DIR / f"{workload}.tsv"
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, _, text = line.rstrip("\n").partition("\t")
            ref.setdefault(key, []).append(text)
    return ref


class Tally:
    """Rows attempted, their outcomes, latencies and failed checks."""

    def __init__(self):
        self.attempted = 0
        self.crashed = 0
        self.errors = 0
        self.compared = 0
        self.mismatched = 0
        # key -> (rows, [seconds at nominal speed], [seconds]), completed runs
        self.task_s = {}
        self.failures = []  # (rows, message)
        self.crash_types = {}

    @property
    def completed(self) -> int:
        return self.attempted - self.crashed

    def latencies(self, raw: bool = False) -> list:
        """Latency of every distinct completed row, at nominal machine speed.

        A task that ran more than once in the run (same input, so the same
        work) counts the median of its runs, once.
        """
        out = []
        for rows, nominal, seconds in self.task_s.values():
            times = seconds if raw else nominal
            out.extend([statistics.median(times) / rows] * rows)
        return out

    @property
    def failed(self) -> int:
        return min(self.attempted, sum(rows for rows, _ in self.failures))

    def fail(self, rows: int, message: str) -> None:
        self.failures.append((rows, message))

    def add(self, result: dict, expected: list) -> None:
        """Account for one task result against its reference lines."""
        lines = result["lines"]
        rows = len(expected)
        self.attempted += rows
        if result["outcomes"] == ["crash"]:
            self.crashed += rows
            self.crash_types[lines[0]] = self.crash_types.get(lines[0], 0) + rows
            if not expected[0].startswith("!crash:"):
                self.fail(rows, f"{result['key']}: {result['detail']}")
            return
        if lines[0].startswith("!error:"):
            self.errors += rows
        else:
            self.errors += result["outcomes"].count("error")
        _, nominal, seconds = self.task_s.setdefault(result["key"], (rows, [], []))
        nominal.append(result["s"] * nominal_speed(result["calib_s"]))
        seconds.append(result["s"])
        if expected[0].startswith("!crash:"):
            return  # crashed when the reference was stored; nothing to compare
        self.compared += rows
        if len(lines) != rows:
            differing = rows
        else:
            differing = sum(a != b for a, b in zip(lines, expected))
        if differing:
            self.mismatched += differing
            self.fail(differing, f"{result['key']}: output differs from reference")


def nominal_speed(calib_s: list) -> float:
    """Machine speed around a timed section, relative to the nominal machine.

    `calib_s` are times of the calibration kernel (calib.py) taken right
    around the section.  A shared host changes speed by tens of percent from
    one few seconds to the next; a time multiplied by this factor reads as on
    a machine where the kernel takes NOMINAL_CALIB_S.
    """
    return NOMINAL_CALIB_S / statistics.median(calib_s)


def check_targets(workload: str, result: dict, tally: Tally) -> None:
    """Checks that hold on any seed: the paper's table values, MC coverage."""
    key, lines = result["key"], result["lines"]
    if lines[0].startswith("!"):
        return
    if workload == "table":
        pair, kind = key.split()[1:3]
        l, r = (int(v) for v in pair.split(":"))
        if kind == "weight" and (l, r) in workloads.TABLE_TARGETS:
            want_w, want_b = workloads.TABLE_TARGETS[(l, r)]
            _, w, b = lines[0].split(",")
            try:
                ok = (abs(float(w) - want_w) <= workloads.TARGET_TOL_ABSCISSA
                      and abs(float(b) - want_b) <= workloads.TARGET_TOL_BOUND)
            except ValueError:
                ok = False
            if not ok:
                tally.fail(1, f"{key}: {lines[0]} misses target {want_w}, {want_b}")
    elif key.startswith("mc "):
        for line in lines:
            if line.split(",")[-1] != "true":
                tally.fail(1, f"{key}: MC mean outside 3 sigma: {line}")


def tally_reps(workload: str, reps: list, reference: dict) -> Tally:
    tally = Tally()
    first = {}
    for rep in reps:
        for result in rep["results"]:
            key = result["key"]
            if key not in reference:
                raise BenchError(f"no reference output for task {key!r}")
            tally.add(result, reference[key])
            check_targets(workload, result, tally)
            if first.setdefault(key, result["lines"]) != result["lines"]:
                tally.fail(len(result["lines"]), f"{key}: output differs between repetitions")
    return tally


def quantile(values: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A Beta-weighted mean of all order statistics: with few distinct rows (14
    on table) it does not jump when two rows of near-equal cost swap places.
    """
    xs = sorted(values)
    n = len(xs)
    cdf = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(cdf), xs))


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timings(lat: list, setup: list) -> dict:
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "rows_per_s": metric(len(lat) / sum(lat), "1/s"),
        "row_s.p50": metric(quantile(lat, 0.5), "s"),
        "row_s.p90": metric(quantile(lat, 0.9), "s"),
    }


def end_to_end(tally: Tally, reps: list, setups: list) -> dict:
    """The end-to-end metrics, timings at nominal machine speed.

    `setups` are the workers whose set-up time counts, `reps` those that ran
    the workload.
    """
    if not tally.latencies():
        raise BenchError("no row completed")
    setup = [w["setup_s"] * nominal_speed(w["setup_calib_s"]) for w in setups]
    return {**timings(tally.latencies(), setup),
            "peak_rss_mb": metric(max(rep["peak_rss_mb"] for rep in reps), "MB")}


def measured(tally: Tally, setups: list) -> dict:
    """The timings of end_to_end as measured, at the machine's speed of the run."""
    out = timings(tally.latencies(raw=True), [w["setup_s"] for w in setups])
    return {f"measured.{name}": m for name, m in out.items()}


def diagnostics(tally: Tally, workers: list) -> dict:
    def ratio(part: int, whole: int) -> float:
        return part / whole if whole else 0.0
    calib_s = statistics.median(
        s for w in workers
        for s in w["setup_calib_s"] + [r["calib_s"][1] for r in w["results"]])
    return {
        "crash_ratio": metric(ratio(tally.crashed, tally.attempted), "ratio"),
        "error_ratio": metric(ratio(tally.errors, tally.attempted), "ratio"),
        "mismatch_ratio": metric(ratio(tally.mismatched, tally.compared), "ratio"),
        "machine.calib_s": metric(calib_s, "s"),
    }


def per_layer(traced: list, untraced: list, rows_per_rep: int, tally: Tally) -> dict:
    out = {}
    first = traced[0]["layers"]
    for rep in traced[1:]:
        for name, stats in rep["layers"].items():
            if stats["calls"] != first[name]["calls"]:
                tally.fail(0, f"{name}: call count differs between repetitions")
    for name in workloads.layer_names():
        for field, unit in workloads.LAYER_FIELDS:
            if unit == "count":
                value = first[name][field]
            else:
                value = statistics.median(rep["layers"][name][field] for rep in traced)
            out[f"{name}.{field}"] = metric(value, unit)
    out["genfun.pair_vgh.calls_per_row"] = metric(
        first["genfun.pair_vgh"]["calls"] / rows_per_rep, "count/row")

    def rep_s(rep):
        return sum(result["s"] * nominal_speed(result["calib_s"])
                   for result in rep["results"])
    overhead = (statistics.median(rep_s(rep) for rep in traced)
                - statistics.median(rep_s(rep) for rep in untraced))
    out["trace.overhead_s"] = metric(overhead, "s")
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ldpc_moments" / "__init__.py").is_file():
        print(f"ldpc_moments sources not found under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    reference = load_reference(args.workload)
    tasks = workloads.tasks(args.workload, args.seed)

    run_worker([], False, deadline)  # untimed: compiles the bytecode once
    setups = [run_worker([], False, deadline) for _ in range(SETUP_SAMPLES)]
    # a traced run repeats one input so that its counts and its overhead
    # compare like with like; an untraced run moves on to new inputs.  A
    # repetition starts only if one more of average length ends in time.
    untraced, traced = [], []
    loop_start = time.monotonic()
    while True:
        if args.trace:
            untraced.append(run_worker(tasks, False, deadline))
            traced.append(run_worker(tasks, True, deadline))
        else:
            rep_tasks = workloads.tasks(args.workload, args.seed, len(untraced))
            untraced.append(run_worker(rep_tasks, False, deadline))
        elapsed = time.monotonic() - loop_start
        if elapsed * (len(untraced) + 1) / len(untraced) > args.seconds:
            break
    setups += untraced

    tally = tally_reps(args.workload, untraced + traced, reference)
    if args.trace:
        rows_per_rep = sum(len(reference[task["key"]]) for task in tasks)
        metrics = {**per_layer(traced, untraced, rows_per_rep, tally),
                   **diagnostics(tally, setups + traced)}
        shown = metrics
    else:
        metrics = end_to_end(tally, untraced, setups)
        shown = {**metrics, **measured(tally, setups),
                 **diagnostics(tally, setups)}

    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} repetitions"
          f" + {len(traced)} traced, {tally.attempted} rows attempted,"
          f" {tally.completed} completed, {tally.compared} compared,"
          f" {len(tally.latencies())} distinct rows timed")
    for name, m in shown.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for text, rows in sorted(tally.crash_types.items()):
        print(f"  crashed rows {text[len('!crash:'):]}: {rows}")
    for rows, message in tally.failures:
        print(f"  FAILED CHECK: {message}")
    print(json.dumps({"correct": not tally.failures, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)

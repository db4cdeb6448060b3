"""Self-test of the benchmark: python3 -m pytest perfbench/test_perfbench.py

Takes about two minutes: every workload runs traced twice.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180, check=False)


def _result(workload, trace, seed=3):
    proc = _bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return {w: (_result(w, 1), _result(w, 1)) for w in workloads.WORKLOADS}


def test_traced_counts_repeat_and_cover_every_layer(traced):
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload, (first, second) in traced.items():
        for out in (first, second):
            assert out["correct"] and out["failed"] == 0, workload
            assert {k: v["unit"] for k, v in out["metrics"].items()} == names
        for name in workloads.layer_names():
            key = f"{name}.calls"
            assert first["metrics"][key] == second["metrics"][key], (workload, key)
        for name in workloads.HOME[workload]:
            assert first["metrics"][f"{name}.calls"]["value"] >= 1, (workload, name)


def test_seed_defects_show_and_outputs_match(traced):
    for workload, (out, _) in traced.items():
        assert out["metrics"]["mismatch_ratio"]["value"] == 0.0, workload
    assert traced["bound-sweep"][0]["metrics"]["crash_ratio"]["value"] > 0.0


def test_untraced_run_reports_every_end_to_end_metric():
    out = _result("table", 0)
    assert out["correct"] and out["attempted"] >= len(workloads.tasks("table", 3))
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == names
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_check_catches_changed_row_and_new_crash():
    reference = run.load_reference("table")
    key = "table 3:6 weight"
    good = {"key": key, "outcomes": ["ok"], "lines": reference[key], "s": 0.1,
            "detail": None}
    changed = dict(good, lines=["3:6,0.0227333942,0.740613132"])
    crashed = dict(good, outcomes=["crash"], lines=["!crash:OverflowError"],
                   detail="OverflowError: boom")
    def rep(result):
        return {"results": [dict(result, calib_s=[run.NOMINAL_CALIB_S] * 2)]}
    assert not run.tally_reps("table", [rep(good)], reference).failures
    for bad in (changed, crashed):
        tally = run.tally_reps("table", [rep(bad)], reference)
        assert tally.failed == 1


def test_times_scale_to_nominal_machine_speed():
    reference = run.load_reference("table")
    key = "table 3:6 weight"
    slow = run.NOMINAL_CALIB_S * 2
    result = {"key": key, "outcomes": ["ok"], "lines": reference[key], "s": 0.4,
              "detail": None, "calib_s": [slow, slow]}
    tally = run.tally_reps("table", [{"results": [result]}], reference)
    assert tally.latencies() == [0.2]
    assert tally.latencies(raw=True) == [0.4]


def test_quantile_weighs_the_rows_around_it():
    assert run.quantile([0.3] * 14, 0.9) == pytest.approx(0.3)
    values = [0.1 * i for i in range(1, 15)]
    assert run.quantile(values, 0.5) == pytest.approx(0.75)
    # p90 of 14 rows draws on the slowest few rows, not on one alone
    slowest_doubled = values[:-1] + [2 * values[-1]]
    assert run.quantile(values, 0.9) < run.quantile(slowest_doubled, 0.9)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "table", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
    assert not (Path(tmp_path) / "src").exists()

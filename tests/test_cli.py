"""Command-line surface: formats, determinism, exit codes."""

import json

import numpy as np
import pytest

from ldpc_moments import ensemble_oracle, firstmoment, secondmoment
from ldpc_moments.cli import (
    BOUND_HEADER,
    main,
    render_csv,
    render_json,
    run_bound_curve,
    run_growth_curve,
    run_mc,
    run_table,
    run_verify,
)
from ldpc_moments.firstmoment import min_abscissa
from ldpc_moments.genfun import EnsembleParams

P36 = EnsembleParams(3, 6)
P34 = EnsembleParams(3, 4)


class TestBoundCurve:
    def test_header_is_pinned(self, tmp_path):
        out = tmp_path / "bound.csv"
        code = main(["bound", "--l", "3", "--r", "6", "--min", "0.2",
                     "--max", "0.3", "--steps", "2", "--out", str(out)])
        assert code == 0
        first_line = out.read_text().splitlines()[0]
        assert first_line == "abscissa,x,growth,delta,bound,cond1,cond2"

    def test_markov_rows_below_minimum(self):
        rows = run_bound_curve(P36, "weight", [0.005, 0.01], 0.95)
        assert all(row["bound"] == "markov" for row in rows)
        assert all(row["delta"] is None for row in rows)

    def test_unit_bound_at_half_for_34(self):
        rows = run_bound_curve(P34, "weight", [0.5], 0.95)
        assert rows[0]["bound"] == pytest.approx(1.0, abs=1e-6)
        assert rows[0]["cond1"] is True and rows[0]["cond2"] is True

    def test_bound_grows_with_degrees_at_fixed_rate(self):
        b36 = run_bound_curve(P36, "weight", [0.3], 0.95)[0]["bound"]
        b612 = run_bound_curve(EnsembleParams(6, 12), "weight", [0.3], 0.95)[0]["bound"]
        assert b612 > b36

    def test_per_row_errors_never_abort(self):
        rows = run_bound_curve(P36, "weight", [0.3, 1.0], 0.95)
        assert rows[0]["bound"] == pytest.approx(0.99777, abs=1e-4)
        assert isinstance(rows[1]["bound"], str)  # recorded error code

    def test_condition_failure_leaves_fields_empty(self):
        smin = min_abscissa(P36, "stopping")
        rows = run_bound_curve(P36, "stopping", [smin + 1e-6], 0.95)
        assert rows[0]["cond1"] is False
        assert rows[0]["delta"] is None and rows[0]["bound"] is None
        text = render_csv(BOUND_HEADER, rows)
        fields = text.splitlines()[1].split(",")
        assert fields[3] == "" and fields[4] == ""

    def test_stopping_curve_row_mixture(self):
        smin = min_abscissa(P36, "stopping")
        rows = run_bound_curve(P36, "stopping",
                               [0.01, smin + 1e-6, 0.1], 0.95)
        assert rows[0]["bound"] == "markov"
        assert rows[1]["cond1"] is False and rows[1]["bound"] is None
        assert isinstance(rows[2]["bound"], float)

    @pytest.mark.parametrize("steps", [9, 99])
    @pytest.mark.parametrize("kind", ["weight", "stopping"])
    def test_rows_do_not_depend_on_the_curve(self, kind, steps):
        # no seed, cached solve or growth point carries over from one row to
        # the next: the curve of `bound --min 0.01 --max 0.99 --steps <steps>`
        # renders the same bytes as its abscissas run one at a time
        grid = np.linspace(0.01, 0.99, steps).tolist()
        curve = run_bound_curve(P36, kind, grid, 0.95)
        alone = [run_bound_curve(P36, kind, [w], 0.95)[0] for w in grid]
        for render in (render_csv, render_json):
            assert render(BOUND_HEADER, alone) == render(BOUND_HEADER, curve)


@pytest.fixture
def saddle_solves(monkeypatch):
    """Arguments of every solve_saddle call made from here on, through the
    firstmoment binding and any secondmoment binding."""
    calls = []
    real = firstmoment.solve_saddle

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (firstmoment, secondmoment):
        monkeypatch.setattr(module, "solve_saddle", counted, raising=False)
    return calls


class TestSaddleSolves:
    # the caller solves x* once per abscissa and passes its growth point
    # down; no second-moment function solves it again

    @pytest.mark.parametrize("kind", ["weight", "stopping"])
    def test_bound_curve_solves_once_per_row(self, saddle_solves, kind):
        grid = [0.1, 0.3, 0.6, 0.9]
        run_bound_curve(P36, kind, grid, 0.95)
        assert [args[2] for args in saddle_solves] == grid

    @pytest.mark.parametrize("suite,solves", [("endpoint", 2), ("locallimit", 1)])
    def test_verify_suite_solves_once_per_abscissa(self, saddle_solves, suite,
                                                   solves):
        run_verify(suite)
        assert len(saddle_solves) == solves


class TestNumericalFailure:
    def test_overflow_exits_3_without_traceback(self, capsys):
        # the check-degree power in the pair kernel overflows at r = 64
        assert main(["bound", "--l", "3", "--r", "64", "--min", "0.01",
                     "--max", "0.99", "--steps", "9"]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("numerical failure [")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    def test_peak_overflow_names_the_point(self, capsys):
        # the omega^2 peak of (3,64) stopping at 0.996875 is the kernel at
        # (x*, x*^2, x*) with x* = 319, where its check-degree power overflows
        assert main(["bound", "--l", "3", "--r", "64", "--kind", "stopping",
                     "--min", "0.996875", "--max", "0.998", "--steps", "2"]) == 3
        assert capsys.readouterr().err == (
            "numerical failure [OverflowError]: pair kernel overflows at "
            "(319.00000000000114, 101761.00000000073, 319.00000000000114) "
            "for r = 64\n")

    def test_growth_overflow_is_a_row(self, capsys):
        # beta(x*) = (1+x*)^64 - 64 x* leaves the float range near 1, where
        # x* is about 1e5; the row reads OVERFLOW and the curve goes on
        assert main(["growth", "--l", "3", "--r", "64", "--kind", "stopping",
                     "--min", "0.99", "--max", "0.99999", "--steps", "2",
                     "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows == [
            {"abscissa": 0.99, "x": 99.00000000000045,
             "growth": 0.05600153435484856, "curvature": 0.6336000000010245},
            {"abscissa": 0.99999, "x": None, "growth": "OVERFLOW",
             "curvature": None}]


class TestOddCheckDegree:
    # at odd r the x^r terms of p cancel, so no codeword has relative weight
    # (r-1)/r or more and the saddle equation has no root there
    @pytest.mark.parametrize("l,r", [(2, 3), (2, 5), (3, 7)])
    def test_unattainable_weights_are_no_bracket_rows(self, l, r, capsys):
        params = EnsembleParams(l, r)
        top = (r - 1) / r
        grid = [top, top + 1e-9, 0.9, 0.995]
        assert all(row["growth"] == "NO_BRACKET"
                   for row in run_growth_curve(params, "weight", grid))
        assert all(row["bound"] == "NO_BRACKET" and row["growth"] is None
                   for row in run_bound_curve(params, "weight", grid, 0.95))
        below = top - 1e-6
        assert isinstance(run_growth_curve(params, "weight", [below])[0]["growth"],
                          float)
        assert isinstance(
            run_bound_curve(params, "weight", [below], 0.95)[0]["growth"], float)
        for command in ("growth", "bound"):
            assert main([command, "--l", str(l), "--r", str(r), "--min", str(top),
                         "--max", "0.995", "--steps", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("NO_BRACKET") == 6

    @pytest.mark.parametrize("r,lo,hi,verdicts", [
        (45, "0.48", "0.52", ["true,true", "NO_CONVERGENCE", "true,true"]),
        (47, "0.49", "0.51", ["NO_CONVERGENCE"] * 3)])
    def test_rows_below_the_overlap_floor_are_rows(self, r, lo, hi, verdicts,
                                                   capsys):
        # no overlap lies below omega - (r-1)/(2r): inside that band the row
        # reads NO_CONVERGENCE before any ray leaves the float range, and
        # the curve goes on
        assert main(["bound", "--l", "2", "--r", str(r), "--min", lo,
                     "--max", hi, "--steps", "3"]) == 0
        rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
        # cond1,cond2 where they were checked, else the bound column's code
        assert [",".join(row[5:]) if row[5] else row[4] for row in rows] == verdicts

    def test_stopping_kind_keeps_the_whole_range(self):
        rows = run_growth_curve(EnsembleParams(2, 3), "stopping", [2 / 3, 0.9])
        assert all(isinstance(row["growth"], float) for row in rows)


class TestTable:
    def test_rate_half_values(self, tmp_path):
        out = tmp_path / "table.csv"
        code = main(["table", "--pairs", "3:6,6:12", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "pair,min_abscissa,bound"
        row36 = lines[1].split(",")
        assert float(row36[1]) == pytest.approx(0.0227334, abs=1e-5)
        assert float(row36[2]) == pytest.approx(0.740611, abs=1e-3)

    def test_mixed_rates_rejected(self):
        with pytest.raises(ValueError):
            run_table([(3, 6), (3, 4)], "weight", 0.95)

    def test_large_degree_pair_saturates(self):
        rows = run_table([(24, 48)], "weight", 0.95)
        assert rows[0]["min_abscissa"] == pytest.approx(0.110026, abs=1e-5)
        assert rows[0]["bound"] >= 0.9999

    def test_stopping_table_reports_failed_conditions(self):
        rows = run_table([(3, 6)], "stopping", 0.95)
        assert rows[0]["min_abscissa"] == pytest.approx(0.017990, abs=1e-5)
        assert rows[0]["bound"] == "conditions_failed"

    def test_largest_check_degree_is_a_row(self, capsys):
        # 32:64 stays inside the float range; as for 3:6, the near-identical
        # pairs (alpha 5e-6 below omega) beat the omega^2 peak at omega_min,
        # so condition 1 fails
        assert main(["table", "--pairs", "3:6,6:12,12:24,24:48,32:64",
                     "--kind", "stopping"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        assert lines[1] == "3:6,0.0179904858,conditions_failed"
        assert lines[5] == "32:64,0.0351013493,conditions_failed"

    def test_overflowing_pair_is_a_row(self, monkeypatch, capsys):
        # a pair whose delta overflows keeps its omega_min and reads
        # OVERFLOW, and the other rows are kept
        real = secondmoment.delta

        def delta(point, epsilon):
            if point.params == EnsembleParams(6, 12):
                raise OverflowError("pair kernel past the float range")
            return real(point, epsilon)

        monkeypatch.setattr(secondmoment, "delta", delta)
        assert main(["table", "--pairs", "3:6,6:12,12:24", "--kind",
                     "stopping"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert lines[1] == "3:6,0.0179904858,conditions_failed"
        assert lines[2] == "6:12,0.0630194958,OVERFLOW"
        assert lines[3] == "12:24,0.0584181515,conditions_failed"

    def test_mixed_rates_exit_code(self, capsys):
        assert main(["table", "--pairs", "3:6,3:4"]) == 2
        capsys.readouterr()


class TestFormats:
    def test_byte_identical_reruns(self, tmp_path):
        args = ["bound", "--l", "3", "--r", "4", "--min", "0.2", "--max",
                "0.6", "--steps", "4", "--epsilon", "0.95"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_roundtrip(self, tmp_path):
        out = tmp_path / "rows.json"
        code = main(["growth", "--l", "3", "--r", "6", "--min", "0.2",
                     "--max", "0.4", "--steps", "3", "--format", "json",
                     "--out", str(out)])
        assert code == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 3
        assert rows[0]["abscissa"] == pytest.approx(0.2)

    def test_csv_numbers_locale_free(self):
        rows = run_bound_curve(P36, "weight", [0.3], 0.95)
        text = render_csv(BOUND_HEADER, rows)
        data_line = text.splitlines()[1]
        assert "," in data_line and ";" not in data_line
        bound_field = data_line.split(",")[4]
        assert "." in bound_field
        # at least 6 significant digits survive a parse round trip
        assert float(bound_field) == pytest.approx(rows[0]["bound"], rel=1e-6)


class TestExactAndMc:
    def test_exact_command(self, capsys):
        assert main(["exact", "--l", "3", "--r", "6", "--n", "6",
                     "--weight", "2"]) == 0
        out = capsys.readouterr().out
        assert "5910/1547" in out

    def test_exact_requires_size_for_stopping(self, capsys):
        assert main(["exact", "--l", "3", "--r", "6", "--n", "6",
                     "--kind", "stopping"]) == 2
        capsys.readouterr()

    def test_mc_command(self, capsys):
        assert main(["mc", "--l", "2", "--r", "4", "--n", "4", "--weight", "2",
                     "--samples", "500", "--seed", "11"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "moment,mean,variance,halfwidth,exact,within_3sigma"
        assert lines[1].split(",")[-1] == "true"

    def test_mc_needs_two_samples(self, capsys):
        # one sample has no sample variance, so no confidence interval
        assert main(["mc", "--l", "2", "--r", "4", "--n", "4", "--weight", "2",
                     "--samples", "1", "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert "--samples must be at least 2" in captured.err and captured.out == ""

    def test_mc_seeded_byte_identical(self, tmp_path):
        args = ["mc", "--l", "2", "--r", "4", "--n", "4", "--weight", "2",
                "--samples", "200", "--seed", "31", "--format", "json"]
        out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_mc_counts_each_graph_once(self, monkeypatch):
        # both moment rows come from one pass over the sampled graphs
        calls = []
        count_words = ensemble_oracle.count_words

        def counting(graph, W, kind):
            calls.append(graph)
            return count_words(graph, W, kind)

        monkeypatch.setattr(ensemble_oracle, "count_words", counting)
        rows = run_mc(EnsembleParams(2, 4), "weight", 4, 2, 50, 11)
        assert [row["moment"] for row in rows] == [1, 2]
        assert len(calls) == 50


class TestVerifyCommand:
    @pytest.mark.parametrize("suite", ["hayman", "locallimit", "closedform",
                                       "endpoint", "exact", "mc"])
    def test_suites_pass(self, suite, capsys):
        assert main(["verify", "--suite", suite]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_unknown_suite_is_usage_error(self, capsys):
        assert main(["verify", "--suite", "nonsense"]) == 2
        capsys.readouterr()

    def test_run_verify_rows_shape(self):
        rows, ok = run_verify("closedform")
        assert ok and all(row["status"] == "PASS" for row in rows)

    def test_mc_rows_unchanged(self, capsys):
        assert main(["verify", "--suite", "mc", "--seed", "12345",
                     "--format", "json"]) == 0
        assert capsys.readouterr().out == MC_JSON

    def test_degenerate_input_surfaced_as_skip(self):
        rows, ok = run_verify("hayman")
        assert ok
        skipped = [r for r in rows if r["status"] == "SKIP"]
        assert len(skipped) == 1
        assert "UNSUPPORTED_POLY" in skipped[0]["measured"]


# ldpc-moments verify --suite mc --seed 12345 --format json, recorded while
# each moment still sampled its own 10,000 graphs
MC_JSON = """\
[
  {
    "check": "moment1_3sigma",
    "status": "PASS",
    "measured": "0.03636/0.1273",
    "tolerance": "|dev| <= 3sigma"
  },
  {
    "check": "moment2_3sigma",
    "status": "PASS",
    "measured": "1.209/5.34",
    "tolerance": "|dev| <= 3sigma"
  }
]
"""


class TestUsageErrors:
    def test_bad_grid(self, capsys):
        assert main(["bound", "--l", "3", "--r", "6", "--min", "0.5",
                     "--max", "0.2", "--steps", "5"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["growth", "bound"])
    @pytest.mark.parametrize("lo,hi", [("0.1", "inf"), ("nan", "0.3"), ("0.1", "nan")])
    def test_non_finite_grid(self, command, lo, hi, capsys):
        assert main([command, "--l", "3", "--r", "6", "--min", lo, "--max", hi,
                     "--steps", "3"]) == 2
        captured = capsys.readouterr()
        assert "--min and --max must be finite" in captured.err and captured.out == ""

    @pytest.mark.parametrize("command", ["growth", "bound"])
    @pytest.mark.parametrize("lo,hi", [("0", "0.5"), ("0.5", "1")])
    def test_grid_outside_unit_interval(self, command, lo, hi, capsys):
        # an abscissa of 0 or 1 has no saddle; it is a usage error, not an
        # uncoded ERROR row
        assert main([command, "--l", "3", "--r", "6", "--min", lo, "--max", hi,
                     "--steps", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "ldpc-moments: error: --min and --max must lie in (0, 1)")

    @pytest.mark.parametrize("command", [
        ["growth", "--l", "3", "--r", "6", "--min", "0.2", "--max", "0.3",
         "--steps", "2"],
        ["verify", "--suite", "hayman"],
    ], ids=["growth", "verify"])
    def test_unwritable_out(self, command, tmp_path, capsys):
        out = tmp_path / "missing" / "out.csv"
        assert main(command + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(out) in err and "Traceback" not in err

    def test_steps_minimum(self, capsys):
        assert main(["growth", "--l", "3", "--r", "6", "--min", "0.1",
                     "--max", "0.2", "--steps", "1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", [
        ["bound", "--l", "3", "--r", "6", "--min", "0.2", "--max", "0.3",
         "--steps", "2"],
        ["table", "--pairs", "3:6"],
    ], ids=["bound", "table"])
    def test_bad_epsilon(self, command, capsys):
        for epsilon in ("0", "1.5"):
            assert main(command + ["--epsilon", epsilon]) == 2
        assert "--epsilon must lie in (0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["bound", "--l", "3", "--r", "6", "--min", "0.3", "--max", "0.4",
         "--steps", "2"],
        ["table", "--pairs", "3:6"],
    ], ids=["bound", "table"])
    @pytest.mark.parametrize("epsilon", ["1e-300", "1e-160"])
    def test_epsilon_square_underflows(self, command, epsilon, capsys):
        # epsilon^2 is 0.0 (division by zero) or subnormal (bound -inf,
        # which JSON cannot hold)
        assert main(command + ["--epsilon", epsilon]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "ldpc-moments: error: --epsilon squared underflows; "
            "use epsilon >= 1.5e-154")

    def test_smallest_epsilon_accepted(self, capsys):
        assert main(["bound", "--l", "3", "--r", "6", "--min", "0.3", "--max",
                     "0.4", "--steps", "2", "--epsilon", "1.5e-154"]) == 0
        assert "inf" not in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["growth", "bound"])
    def test_steps_too_large_to_allocate(self, command, capsys):
        # 10**18 float64 values need 6.94 EiB, beyond any 64-bit address
        # space, so the allocation fails without taking memory
        assert main([command, "--l", "3", "--r", "6", "--min", "0.3", "--max",
                     "0.4", "--steps", str(10 ** 18)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"ldpc-moments: error: --steps {10 ** 18} is too large to allocate")

    @pytest.mark.parametrize("pairs", ["6:3", "3:0"])
    def test_bad_table_pair(self, pairs, capsys):
        assert main(["table", "--pairs", pairs]) == 2
        captured = capsys.readouterr()
        assert "need 2 <= l < r" in captured.err and captured.out == ""

    def test_missing_command(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_incompatible_block_length(self, capsys):
        # r does not divide n*l
        assert main(["exact", "--l", "3", "--r", "6", "--n", "5",
                     "--weight", "2"]) == 2
        assert "DIVISIBILITY" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["mc", "--l", "3", "--r", "6", "--n", "12", "--weight", "4"],
        ["verify", "--suite", "mc"],
    ], ids=["mc", "verify"])
    def test_negative_seed(self, command, capsys):
        assert main(command + ["--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "ldpc-moments: error: --seed must be nonnegative")

    @pytest.mark.parametrize("command", ["exact", "mc"])
    def test_negative_block_length(self, command, capsys):
        assert main([command, "--l", "3", "--r", "6", "--n", "-6",
                     "--weight", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "ldpc-moments: error: --n must be nonnegative")

    def test_mc_empty_block_rejected(self, capsys):
        assert main(["mc", "--l", "3", "--r", "6", "--n", "0", "--weight", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "invalid input [INVALID]: block length n must be positive, got 0")

    def test_unsupported_degree(self, capsys):
        assert main(["growth", "--l", "3", "--r", "100", "--min", "0.2",
                     "--max", "0.3", "--steps", "2"]) == 2
        capsys.readouterr()

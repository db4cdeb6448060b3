"""Replay of the benchmark reference: every stored bound and table row, and
the oracle rows that need no more than one Monte-Carlo seed.

``perfbench/reference/*.tsv`` holds one line per output row, ``key<TAB>csv``,
recorded from the package before any optimisation.  Each bound and table row
is rendered again and compared byte for byte.  Rows that crashed in the
reference (``!crash:...``, the r = 64 overflow) are skipped, as the benchmark
skips them.  Of the oracle rows, both exact-moment rows, both self-check
suites and the Monte-Carlo rows of seed 12345 are replayed.  The files are
only read.
"""

from collections import defaultdict
from pathlib import Path

import pytest

from ldpc_moments.cli import (
    BOUND_HEADER,
    EXACT_HEADER,
    MC_HEADER,
    TABLE_HEADER,
    VERIFY_HEADER,
    render_csv,
    run_bound_curve,
    run_exact,
    run_mc,
    run_table,
    run_verify,
)
from ldpc_moments.genfun import EnsembleParams

REFERENCE_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "reference"
EPSILON = 0.95


def _reference_rows(workload):
    """{(l, r, kind): [expected csv line]} of the rows that did not crash."""
    rows = defaultdict(list)
    with open(REFERENCE_DIR / f"{workload}.tsv", encoding="utf-8") as fh:
        for line in fh:
            key, _, text = line.rstrip("\n").partition("\t")
            if text.startswith("!crash:"):
                continue
            pair, kind = key.split()[1:3]
            l, r = (int(v) for v in pair.split(":"))
            rows[(l, r, kind)].append(text)
    return rows


BOUND = _reference_rows("bound-sweep")
TABLE = _reference_rows("table")


def _oracle_rows():
    """{task key: [expected csv line]} of the oracles reference."""
    rows = defaultdict(list)
    with open(REFERENCE_DIR / "oracles.tsv", encoding="utf-8") as fh:
        for line in fh:
            key, _, text = line.rstrip("\n").partition("\t")
            rows[key].append(text)
    return rows


ORACLES = _oracle_rows()
P36 = EnsembleParams(3, 6)
MC_SEED, MC_SAMPLES = 12345, 2000


def _mismatches(expected, render):
    bad = [(want, got) for want, got in ((w, render(w)) for w in expected)
           if got != want]
    return bad[:5], len(bad)


@pytest.mark.parametrize("curve", sorted(BOUND),
                         ids=[f"{l}:{r}-{k}" for l, r, k in sorted(BOUND)])
def test_bound_rows_match_reference(curve):
    l, r, kind = curve
    params = EnsembleParams(l, r)

    def render(line):
        # the reference abscissas are odd multiples of 1/320, so the printed
        # value parses back to the float the row was computed at
        rows = run_bound_curve(params, kind, [float(line.split(",")[0])], EPSILON)
        return render_csv(BOUND_HEADER, rows).splitlines()[1]

    assert _mismatches(BOUND[curve], render) == ([], 0)


def test_table_rows_match_reference():
    def render(curve):
        l, r, kind = curve
        rows = run_table([(l, r)], kind, EPSILON)
        return render_csv(TABLE_HEADER, rows).splitlines()[1]

    got = {curve: render(curve) for curve in TABLE}
    assert got == {curve: lines[0] for curve, lines in TABLE.items()}
    assert len(got) == 14


def _csv_rows(header, rows):
    return render_csv(header, rows).splitlines()[1:]


@pytest.mark.parametrize("kind,n,W", [("weight", 36, 12), ("stopping", 24, 8)])
def test_exact_rows_match_reference(kind, n, W):
    got = _csv_rows(EXACT_HEADER, run_exact(P36, kind, n, W))
    assert got == ORACLES[f"exact 3:6 {kind} n={n} W={W}"]


@pytest.mark.parametrize("suite", ["exact", "locallimit"])
def test_verify_rows_match_reference(suite):
    rows, passed = run_verify(suite)
    assert _csv_rows(VERIFY_HEADER, rows) == ORACLES[f"verify {suite}"]
    assert passed


@pytest.mark.parametrize("kind", ["weight", "stopping"])
def test_mc_rows_match_reference(kind):
    got = _csv_rows(MC_HEADER, run_mc(P36, kind, 12, 4, MC_SAMPLES, MC_SEED))
    assert got == ORACLES[f"mc 3:6 {kind} n=12 W=4 seed={MC_SEED}"]
    assert len(got) == 2

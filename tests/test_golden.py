"""Pinned CSV bytes of bound and table rows.

The expected rows were rendered by the package before the trivariate
statistics, determinant, bisection and saddle-cache code paths were merged.
A refactor that changes any digit, verdict or error code of these rows fails
here, without the benchmark harness.
"""

import pytest

from ldpc_moments.cli import (
    BOUND_HEADER,
    TABLE_HEADER,
    render_csv,
    run_bound_curve,
    run_table,
)
from ldpc_moments.genfun import EnsembleParams

EPSILON = 0.95

BOUND_ROWS = [
    (3, 6, "weight", 0.3,
     "0.3,0.436597775,0.266215285,0.00200984115,0.997773029,true,true"),
    (3, 6, "stopping", 0.3,
     "0.3,0.338528621,0.409982355,0.00907867851,0.989940522,true,true"),
    (12, 24, "weight", 0.15,
     "0.15,0.17656677,0.0762310508,4.98982291e-06,0.999994471,true,true"),
    # below the typical minimum weight: Markov regime
    (3, 6, "weight", 0.01,
     "0.01,0.0453132596,-0.00398042721,,markov,,"),
    # just above the typical minimum stopping-set size, where cond1 fails
    (3, 6, "stopping", 0.018,
     "0.018,0.0581436221,5.09896534e-06,,,false,true"),
]

TABLE_ROWS = [
    (3, 6, "weight", "3:6,0.0227333942,0.740613131"),
    (3, 6, "stopping", "3:6,0.0179904858,conditions_failed"),
]


@pytest.mark.parametrize("l,r,kind,w,line", BOUND_ROWS,
                         ids=[f"{l}:{r}-{k}-{w}" for l, r, k, w, _ in BOUND_ROWS])
def test_bound_row_bytes(l, r, kind, w, line):
    rows = run_bound_curve(EnsembleParams(l, r), kind, [w], EPSILON)
    assert render_csv(BOUND_HEADER, rows) == ",".join(BOUND_HEADER) + "\n" + line + "\n"


@pytest.mark.parametrize("l,r,kind,line", TABLE_ROWS,
                         ids=[f"{l}:{r}-{k}" for l, r, k, _ in TABLE_ROWS])
def test_table_row_bytes(l, r, kind, line):
    rows = run_table([(l, r)], kind, EPSILON)
    assert render_csv(TABLE_HEADER, rows) == ",".join(TABLE_HEADER) + "\n" + line + "\n"

"""Pinned CSV bytes of bound and table rows.

The first five bound rows were rendered by the package before the trivariate
statistics, determinant, bisection and saddle-cache code paths were merged;
the condition-false bound rows and the table rows are those of the benchmark
reference, the odd-r rows above 1/2 were rendered before the weight kernel
took its array powers as |v| ** e, and the omega_min reprs were recorded
before the minimum-abscissa scan was warm-started.  A refactor that changes
any digit, verdict or error code of these rows, or any bit of omega_min,
fails here, without the benchmark harness.
"""

import pytest

from ldpc_moments.cli import (
    BOUND_HEADER,
    TABLE_HEADER,
    render_csv,
    run_bound_curve,
    run_table,
)
from ldpc_moments.firstmoment import min_abscissa
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
    # condition-false rows of the benchmark reference: near-complete stopping
    # sets fail both conditions, and the near-corner (3,64) weight row fails
    # cond1; a change to the overlap scan could flip these verdicts
    (3, 6, "stopping", 0.990625,
     "0.990625,105.666663,0.0531094356,,,false,false"),
    (3, 6, "stopping", 0.996875,
     "0.996875,319,0.0211461152,,,false,false"),
    (12, 24, "stopping", 0.990625,
     "0.990625,105.666667,0.0531094358,,,false,false"),
    (12, 24, "stopping", 0.996875,
     "0.996875,319,0.0211461152,,,false,false"),
    (3, 64, "weight", 0.003125,
     "0.003125,0.00729469085,0.00869177286,,,false,true"),
    # odd r above 1/2: the weight brackets are negative on most rays there
    # and their power r - 2 is odd; a weight above (r-1)/r would need a
    # check with all of its r edges set, an odd parity, so (3,7) at 0.9
    # has no saddle
    (3, 7, "weight", 0.6,
     "0.6,1.50019237,0.375943098,5.6794746e-07,0.999999371,true,true"),
    (3, 7, "weight", 0.8,
     "0.8,4.61233109,0.187994972,0.0263821687,0.97076768,true,true"),
    (3, 7, "weight", 0.9, "0.9,,,,NO_BRACKET,,"),
    (2, 45, "weight", 0.7,
     "0.7,2.33333333,0.580057761,2.95319325e-14,1,true,true"),
]

TABLE_ROWS = [
    (3, 6, "weight", "3:6,0.0227333942,0.740613131"),
    (3, 6, "stopping", "3:6,0.0179904858,conditions_failed"),
    (6, 12, "weight", "6:12,0.0956336826,0.963306871"),
    (6, 12, "stopping", "6:12,0.0630194958,conditions_failed"),
    (12, 24, "weight", "12:24,0.109404068,0.999617416"),
    (12, 24, "stopping", "12:24,0.0584181515,conditions_failed"),
    (24, 48, "weight", "24:48,0.110026287,0.999999989"),
    (24, 48, "stopping", "24:48,0.0417947063,conditions_failed"),
    (3, 4, "weight", "3:4,0.112159252,0.667892154"),
    (3, 4, "stopping", "3:4,0.0793968067,conditions_failed"),
    (6, 8, "weight", "6:8,0.2074367,0.989098139"),
    (6, 8, "stopping", "6:8,0.123592794,conditions_failed"),
    (12, 16, "weight", "12:16,0.214427835,0.999993633"),
    (12, 16, "stopping", "12:16,0.0980439915,conditions_failed"),
]

# repr of the unrounded omega_min behind each table row
MIN_ABSCISSA_REPRS = [
    (3, 6, "weight", "0.02273339424133293"),
    (3, 6, "stopping", "0.01799048576354975"),
    (6, 12, "weight", "0.09563368263244801"),
    (6, 12, "stopping", "0.06301949577331623"),
    (12, 24, "weight", "0.10940406761169645"),
    (12, 24, "stopping", "0.05841815147399966"),
    (24, 48, "weight", "0.11002628746032925"),
    (24, 48, "stopping", "0.04179470634460466"),
    (3, 4, "weight", "0.11215925178528052"),
    (3, 4, "stopping", "0.07939680671692019"),
    (6, 8, "weight", "0.20743670005797687"),
    (6, 8, "stopping", "0.12359279441833745"),
    (12, 16, "weight", "0.21442783546447022"),
    (12, 16, "stopping", "0.09804399147033868"),
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


@pytest.mark.parametrize("l,r,kind,value", MIN_ABSCISSA_REPRS,
                         ids=[f"{l}:{r}-{k}" for l, r, k, _ in MIN_ABSCISSA_REPRS])
def test_min_abscissa_bits(l, r, kind, value):
    assert repr(min_abscissa(EnsembleParams(l, r), kind)) == value

"""A fixed pure-Python kernel that measures how fast the machine runs right now.

The package's time goes to interpreted float arithmetic on small lists
(`pair_vgh`), to many small function calls that build frozen dataclasses
(`saddle_stats_uni` inside the saddle solvers) and to rational and
big-integer arithmetic (the exact oracles).  The kernel does a fixed amount
of each, so a shared machine that slows down for a few seconds slows the
kernel and the workload alike.  It uses nothing from the package: a change to
the package cannot change its time.
"""

import math
import time
from dataclasses import dataclass
from fractions import Fraction

FLOAT_ROUNDS = 2000
CALL_ROUNDS = 1800
FRACTION_ROUNDS = 200


@dataclass(frozen=True)
class _Stats:
    a: float
    b: float


def _stats(r: int, x: float) -> _Stats:
    if x <= 0:
        raise ValueError("x must be positive")
    v = (1.0 - x) / (1.0 + x)
    a = r * x * (1.0 - v ** (r - 1)) / ((1.0 + x) * (1.0 + v ** r))
    dpp = r * (r - 1) * (1.0 + v ** (r - 2)) / ((1.0 + x) ** 2 * (1.0 + v ** r))
    return _Stats(a=a, b=a + x * x * dpp - a * a)


def kernel() -> float:
    acc = 0.0
    big = 1
    for i in range(FLOAT_ROUNDS):
        x = 1.0 + (i % 89) * 1e-3
        b0 = x ** 4
        grad = [0.0, 0.0, 0.0]
        for s in (-1.0, 1.0, 0.5):
            base = x + s * 1e-2
            b1 = base ** 3
            grad[0] += s * b1
            grad[1] += s * s * b0
            grad[2] += b1 * base
        acc += sum(grad) * 1e-9
        big = (big * 3 + i) % (1 << 400)
    for i in range(CALL_ROUNDS):
        x = 0.01 + i * 1e-4
        st = _stats(6, x)
        acc += st.a + math.log(st.b) + math.exp(-x)
    frac = Fraction(0)
    for i in range(FRACTION_ROUNDS):
        frac += Fraction(1, 3) * Fraction(i + 1, i + 7)
    return acc + (big & 1) + float(frac)


def sample() -> float:
    """Seconds one run of the kernel takes."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start

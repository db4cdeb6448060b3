"""Configuration-model graph sampling and direct count oracles.

A graph is a uniformly random matching of the n*l labeled variable sockets
onto the n*l labeled check sockets; multi-edges are kept and enter every
count with their multiplicity (a variable joined twice to a check cancels
mod 2 for codewords and counts as ">= 2 connections" for stopping sets).
That convention is what makes the sampled and exhaustive averages agree
exactly with the generating-function formulas.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import TooLargeError
from .genfun import KIND_WEIGHT, EnsembleParams, check_kind

_EXHAUSTIVE_N_CAP = 28
_NULLITY_CAP = 24  # 2^24 null-space vectors at most
_EXHAUSTIVE_WORK_CAP = 10_000_000  # socket-to-check maps times 2^n subsets
_SUBSET_CHUNK = 4096


@dataclass(frozen=True)
class TannerGraph:
    """One labeled-socket graph: socket_perm[vs] is the check socket matched
    to variable socket vs.  Variable v owns sockets v*l .. v*l+l-1; check c
    owns sockets c*r .. c*r+r-1."""

    n: int
    left_degree: int
    right_degree: int
    socket_perm: np.ndarray

    @property
    def check_count(self) -> int:
        return self.n * self.left_degree // self.right_degree

    @cached_property
    def multiplicity(self) -> np.ndarray:
        """Check-by-variable edge multiplicity matrix."""
        l, r, n = self.left_degree, self.right_degree, self.n
        # variable socket vs belongs to variable vs // l, check socket cs to
        # check cs // r: count every (check, variable) edge in one pass
        flat = (self.socket_perm // r) * n + np.arange(n * l) // l
        return np.bincount(flat, minlength=self.check_count * n).reshape(
            self.check_count, n)


def sample_graph(params: EnsembleParams, n: int, seed: int) -> TannerGraph:
    """Draw one graph uniformly over the (n*l)! socket permutations.

    Deterministic in ``seed`` (PCG64); callers running batches derive one
    seed per sample, so execution order never matters.
    """
    l, r = params.left_degree, params.right_degree
    if n < 1:
        raise ValueError(f"block length n must be positive, got {n}")
    params.check_count(n)
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = rng.permutation(n * l)
    return TannerGraph(n=n, left_degree=l, right_degree=r, socket_perm=perm)


def count_words(graph: TannerGraph, W: int, kind: str) -> int:
    """Exact number of weight-W codewords or size-W stopping sets of a graph.

    Codewords: weight-W vectors in the GF(2) null space of the parity matrix
    (edge multiplicities reduced mod 2).  Stopping sets: W-subsets of
    variables such that no check sees exactly one incident edge slot.  The
    exhaustive average counts each socket-to-check map with the same counters.
    """
    check_kind(kind)
    n = graph.n
    if n > _EXHAUSTIVE_N_CAP:
        raise TooLargeError(f"n={n} above exhaustive cap {_EXHAUSTIVE_N_CAP}")
    if not 0 <= W <= n:
        raise ValueError(f"W={W} outside [0, {n}]")
    if kind == KIND_WEIGHT:
        return _weight_profile(graph)[W]
    return _count_stopping(graph, W)


@dataclass(frozen=True)
class MomentEstimate:
    """Monte-Carlo estimate of one moment, E[count] or E[count^2], with a
    3-sigma halfwidth.

    With a single sample the variance is reported as 0 and the halfwidth as
    NaN (undefined), flagging the estimate as degenerate.
    """

    mean: float
    variance: float
    sample_count: int
    confidence_halfwidth_3sigma: float
    seed: int


def mc_moments(params: EnsembleParams, n: int, W: int, kind: str,
               samples: int, seed: int) -> tuple:
    """(E[count], E[count^2]) estimates from one pass over independent graphs.

    Each graph is sampled and counted once.  Per-sample seed is
    ``seed + index``; the estimates are therefore identical under any
    execution order or partitioning of the index range.
    """
    check_kind(kind)
    if samples < 1:
        raise ValueError("need at least one sample")
    counts = [count_words(sample_graph(params, n, seed + idx), W, kind)
              for idx in range(samples)]
    return (_estimate(np.array(counts, dtype=np.float64), seed),
            _estimate(np.array([c * c for c in counts], dtype=np.float64), seed))


def _estimate(values: np.ndarray, seed: int) -> MomentEstimate:
    samples = len(values)
    var = float(values.var(ddof=1)) if samples > 1 else 0.0
    halfwidth = 3.0 * math.sqrt(var / samples) if samples > 1 else math.nan
    return MomentEstimate(mean=float(values.mean()), variance=var,
                          sample_count=samples,
                          confidence_halfwidth_3sigma=halfwidth, seed=seed)


def exhaustive_moment(params: EnsembleParams, n: int, W: int,
                      kind: str) -> tuple:
    """Exact ensemble averages (E[count], E[count^2]) over all (n*l)! socket
    permutations.  A permutation matters only through the check each
    variable socket meets, so the work is the E!/(r!)^m maps of the E = n*l
    sockets onto the m checks (70 for (2,4) at n=4), each counted like one
    sampled graph; TooLargeError once maps * 2^n subsets exceeds 1e7."""
    check_kind(kind)
    l, r = params.left_degree, params.right_degree
    if n < 1:
        raise ValueError(f"block length n must be positive, got {n}")
    params.check_count(n)
    if _exhaustive_work(n * l, r, n) > _EXHAUSTIVE_WORK_CAP:
        raise TooLargeError(
            f"({n}*{l})!/({r}!)^{n * l // r} maps times 2^{n} subsets exceed the "
            f"exhaustive cap {_EXHAUSTIVE_WORK_CAP:g}")
    if not 0 <= W <= n:
        raise ValueError(f"W={W} outside [0, {n}]")
    weight_sums, stop_sums = _exhaustive_tallies(l, r, n)
    sums = weight_sums if kind == KIND_WEIGHT else stop_sums
    total = math.factorial(n * l)
    return tuple(Fraction(s, total) for s in sums[W])


# ---------------------------------------------------------------------------
# counting internals

def _parity_rows(graph: TannerGraph) -> list:
    """Bit-packed GF(2) parity rows (bit v set iff multiplicity odd), read
    straight off the socket permutation: each edge toggles its bit once."""
    l, r = graph.left_degree, graph.right_degree
    rows = [0] * graph.check_count
    for vs, cs in enumerate(graph.socket_perm.tolist()):
        rows[cs // r] ^= 1 << (vs // l)
    return rows


def _gf2_null_basis(rows: list, n: int) -> list:
    """Basis of the GF(2) null space of the given bit-packed rows."""
    rref = []
    pivot_cols = []
    for row in rows:
        cur = row
        for prow, pcol in zip(rref, pivot_cols):
            if (cur >> pcol) & 1:
                cur ^= prow
        if cur:
            pcol = cur.bit_length() - 1
            for k, prow in enumerate(rref):
                if (prow >> pcol) & 1:
                    rref[k] = prow ^ cur
            rref.append(cur)
            pivot_cols.append(pcol)
    pivot_set = set(pivot_cols)
    basis = []
    for free_col in range(n):
        if free_col in pivot_set:
            continue
        vec = 1 << free_col
        for prow, pcol in zip(rref, pivot_cols):
            if (prow >> free_col) & 1:
                vec |= 1 << pcol
        basis.append(vec)
    return basis


def _weight_profile(graph: TannerGraph) -> list:
    """Codeword counts at every weight 0..n, from one Gray-code walk."""
    basis = _gf2_null_basis(_parity_rows(graph), graph.n)
    if len(basis) > _NULLITY_CAP:
        raise TooLargeError(
            f"null space dimension {len(basis)} above cap {_NULLITY_CAP}")
    counts = [1] + [0] * graph.n  # the zero word
    cur = 0
    for g in range(1, 1 << len(basis)):
        cur ^= basis[(g & -g).bit_length() - 1]  # Gray-code walk
        counts[cur.bit_count()] += 1
    return counts


def _count_stopping(graph: TannerGraph, W: int) -> int:
    if W == 0:
        return 1  # the empty set
    # small integers: the float product is exact, and runs as one BLAS call
    mult = graph.multiplicity.astype(np.float64)
    total = 0
    for incidence in _incidence_chunks(graph.n, W):
        seen = mult @ incidence  # checks x subsets
        total += int((~(seen == 1).any(axis=0)).sum())
    return total


def _incidence_chunks(n: int, W: int):
    """0/1 variable-by-subset incidence matrices of every W-subset of n
    variables, in ``itertools.combinations`` order: one cached matrix while
    C(n, W) <= ``_SUBSET_CHUNK``, else chunks of that many subsets built on
    the fly, so memory stays bounded."""
    if math.comb(n, W) <= _SUBSET_CHUNK:
        yield _subset_incidence(n, W)
        return
    combos = itertools.combinations(range(n), W)
    while chunk := list(itertools.islice(combos, _SUBSET_CHUNK)):
        yield _incidence(chunk, n)


@lru_cache(maxsize=8)
def _subset_incidence(n: int, W: int) -> np.ndarray:
    out = _incidence(list(itertools.combinations(range(n), W)), n)
    out.flags.writeable = False  # shared by every caller
    return out


def _incidence(subsets: list, n: int) -> np.ndarray:
    out = np.zeros((n, len(subsets)))
    out[np.array(subsets, dtype=np.intp).T, np.arange(len(subsets))] = 1
    return out


def _exhaustive_work(E: int, r: int, n: int) -> int:
    """E!/(r!)^m * 2^n, the socket-to-check maps times the subsets of each,
    as a product of binomials C(E, r) C(E-r, r) ... that stops once it
    passes the cap, so that past the cap it is only a lower bound (2^n
    itself is clamped at a power of two above the cap)."""
    work = 2 ** min(n, _EXHAUSTIVE_WORK_CAP.bit_length())
    for left in range(E, 0, -r):
        if work > _EXHAUSTIVE_WORK_CAP:
            break
        work *= math.comb(left, r)
    return work


def _check_assignments(sockets: tuple, r: int):
    """Every way to deal the sockets to consecutive checks, r sockets each:
    one tuple of socket groups, check by check, per map of the sockets onto
    the len(sockets) // r labeled checks."""
    if not sockets:
        yield ()
        return
    for group in itertools.combinations(sockets, r):
        rest = tuple(s for s in sockets if s not in group)
        for tail in _check_assignments(rest, r):
            yield (group,) + tail


@lru_cache(maxsize=None)
def _exhaustive_tallies(l: int, r: int, n: int):
    """Per-W sums of counts and squared counts over all (n*l)! socket
    permutations.  Permutation perm sends variable socket vs to check
    perm[vs] // r, and each of the E!/(r!)^m socket-to-check maps arises
    from exactly (r!)^m permutations, so each map is counted once and its
    sums are scaled by (r!)^m.  Each distinct multiplicity matrix is counted
    once, on the graph that gives the j-th socket dealt to check c the
    check socket c*r + j."""
    E = n * l
    m = E // r
    weight_sums = [[0, 0] for _ in range(n + 1)]
    stop_sums = [[0, 0] for _ in range(n + 1)]
    profiles = {}
    for groups in _check_assignments(tuple(range(E)), r):
        mult = [[0] * n for _ in range(m)]
        for c, group in enumerate(groups):
            for vs in group:
                mult[c][vs // l] += 1
        key = tuple(tuple(row) for row in mult)
        prof = profiles.get(key)
        if prof is None:
            graph = TannerGraph(n=n, left_degree=l, right_degree=r,
                                socket_perm=np.argsort(np.ravel(groups)))
            prof = (_weight_profile(graph),
                    [_count_stopping(graph, W) for W in range(n + 1)])
            profiles[key] = prof
        wprof, sprof = prof
        for W in range(n + 1):
            cw, cs = wprof[W], sprof[W]
            weight_sums[W][0] += cw
            weight_sums[W][1] += cw * cw
            stop_sums[W][0] += cs
            stop_sums[W][1] += cs * cs
    scale = math.factorial(r) ** m  # permutations per map
    return (tuple((scale * a, scale * b) for a, b in weight_sums),
            tuple((scale * a, scale * b) for a, b in stop_sums))

"""Configuration-model sampling and direct counting against exact formulas."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from ldpc_moments import checks, ensemble_oracle
from ldpc_moments.ensemble_oracle import (
    TannerGraph,
    count_words,
    exhaustive_moment,
    mc_moments,
    sample_graph,
)
from ldpc_moments.errors import DivisibilityError, TooLargeError
from ldpc_moments.exactcomb import exact_first_moment, exact_second_moment
from ldpc_moments.genfun import EnsembleParams

P24 = EnsembleParams(2, 4)
P36 = EnsembleParams(3, 6)


def _chunked_stopping_count(graph, W, chunk=4096):
    """Size-W stopping sets by gathering the multiplicity columns of each
    W-subset (the count that the incidence-matrix product replaced)."""
    if W == 0:
        return 1
    mult = graph.multiplicity
    total = 0
    combos = itertools.combinations(range(graph.n), W)
    while subsets := list(itertools.islice(combos, chunk)):
        seen = mult[:, np.array(subsets, dtype=np.intp)].sum(axis=2)
        total += int((~(seen == 1).any(axis=0)).sum())
    return total


def _definition_profiles(graph):
    """Codeword and stopping-set counts at every size 0..n from a walk over
    all 2^n subsets of variables that applies the definitions to the edge
    slots each check sees, read straight off the socket permutation: a
    codeword leaves every check an even number, a stopping set leaves no
    check exactly one."""
    n, l, r = graph.n, graph.left_degree, graph.right_degree
    masks = np.arange(1 << n)
    chosen = (masks >> np.arange(n)[:, None]) & 1  # variables x subsets
    seen = np.zeros((graph.check_count, 1 << n), dtype=np.int64)
    for vs, cs in enumerate(graph.socket_perm.tolist()):
        seen[cs // r] += chosen[vs // l]
    sizes = chosen.sum(axis=0)
    weight = np.bincount(sizes[(seen % 2 == 0).all(axis=0)], minlength=n + 1)
    stopping = np.bincount(sizes[(seen != 1).all(axis=0)], minlength=n + 1)
    return weight.tolist(), stopping.tolist()


def _map_graphs(l, r, n):
    """The graph of every socket-to-check map of (l, r) at block length n,
    check c taking check sockets c*r .. c*r+r-1 in the order dealt."""
    for groups in ensemble_oracle._check_assignments(tuple(range(n * l)), r):
        perm = np.empty(n * l, dtype=np.int64)
        for c, group in enumerate(groups):
            perm[list(group)] = np.arange(c * r, (c + 1) * r)
        yield TannerGraph(n=n, left_degree=l, right_degree=r, socket_perm=perm)


def _permutation_tallies(l, r, n):
    """Per-W sums of counts and squared counts by walking every one of the
    (n*l)! socket permutations (the loop that counting each socket-to-check
    map once replaced).  The graph of each permutation is counted by the
    counters ``count_words`` uses, once per multiplicity matrix."""
    E = n * l
    m = E // r
    weight_sums = [[0, 0] for _ in range(n + 1)]
    stop_sums = [[0, 0] for _ in range(n + 1)]
    profiles = {}
    for perm in itertools.permutations(range(E)):
        mult = [[0] * n for _ in range(m)]
        for v in range(n):
            for j in range(l):
                mult[perm[v * l + j] // r][v] += 1
        key = tuple(tuple(row) for row in mult)
        prof = profiles.get(key)
        if prof is None:
            g = TannerGraph(n=n, left_degree=l, right_degree=r,
                            socket_perm=np.array(perm))
            prof = (ensemble_oracle._weight_profile(g),
                    [ensemble_oracle._count_stopping(g, W) for W in range(n + 1)])
            profiles[key] = prof
        wprof, sprof = prof
        for W in range(n + 1):
            cw, cs = wprof[W], sprof[W]
            weight_sums[W][0] += cw
            weight_sums[W][1] += cw * cw
            stop_sums[W][0] += cs
            stop_sums[W][1] += cs * cs
    return (tuple((a, b) for a, b in weight_sums),
            tuple((a, b) for a, b in stop_sums))


class _SquaredCount(int):
    """A per-graph count that tallies the products it takes part in."""

    products = 0

    def __mul__(self, other):
        _SquaredCount.products += 1
        return int(self) * int(other)

    __rmul__ = __mul__


def _count_visits(monkeypatch, n):
    """Make the weight and stopping counters return counts that tally their
    products, and return a function giving the configurations visited so
    far: each visit squares its weight and stopping count at every W once,
    2(n+1) products."""
    weight_profile = ensemble_oracle._weight_profile
    count_stopping = ensemble_oracle._count_stopping
    monkeypatch.setattr(ensemble_oracle, "_weight_profile",
                        lambda g: [_SquaredCount(c) for c in weight_profile(g)])
    monkeypatch.setattr(ensemble_oracle, "_count_stopping",
                        lambda g, W: _SquaredCount(count_stopping(g, W)))
    _SquaredCount.products = 0
    return lambda: _SquaredCount.products / (2 * (n + 1))


def _packed_parity(mult):
    """Rows of a multiplicity matrix mod 2, bit v per variable."""
    return [sum(1 << v for v, k in enumerate(row) if k % 2) for row in mult.tolist()]


def _lehmer_rank(perm):
    """Rank of a permutation in lexicographic order."""
    perm = list(perm)
    n = len(perm)
    rank = 0
    for i, v in enumerate(perm):
        smaller = sum(1 for u in perm[i + 1:] if u < v)
        rank = rank * (n - i) + smaller
    return rank


class TestSampleGraph:
    def test_deterministic_in_seed(self):
        g1 = sample_graph(P24, 4, 99)
        g2 = sample_graph(P24, 4, 99)
        assert np.array_equal(g1.socket_perm, g2.socket_perm)
        g3 = sample_graph(P24, 4, 100)
        assert not np.array_equal(g1.socket_perm, g3.socket_perm)

    def test_degree_tallies(self):
        g = sample_graph(P24, 4, 5)
        mult = g.multiplicity
        assert mult.sum(axis=0).tolist() == [2, 2, 2, 2]  # variables
        assert mult.sum(axis=1).tolist() == [4, 4]  # checks

    def test_divisibility_guard(self):
        with pytest.raises(DivisibilityError):
            sample_graph(P36, 5, 0)

    def test_socket_permutations_uniform_chi_square(self):
        # 40320 = 64 * 630: Lehmer-rank buckets are exactly equiprobable
        samples = 1_000_000
        buckets = np.zeros(64, dtype=np.int64)
        for i in range(samples):
            g = sample_graph(P24, 4, 1_000_000 + i)
            buckets[_lehmer_rank(g.socket_perm.tolist()) % 64] += 1
        expected = samples / 64.0
        chi2 = float(((buckets - expected) ** 2 / expected).sum())
        assert chi2 < stats.chi2.ppf(0.99, 63)


@pytest.mark.parametrize("n", [0, -4])
def test_nonpositive_block_length_rejected(n):
    message = f"block length n must be positive, got {n}"
    with pytest.raises(ValueError, match=message):
        sample_graph(P36, n, 1)
    with pytest.raises(ValueError, match=message):
        exhaustive_moment(P36, n, 0, "weight")


class TestParityRows:
    def test_sampled_graphs_match_multiplicity_mod_2(self):
        for seed in range(200):
            g = sample_graph(P36, 12, 3000 + seed)
            assert ensemble_oracle._parity_rows(g) == _packed_parity(g.multiplicity)

    def test_double_and_triple_edges(self):
        # v0 meets check 0 three times, v1 check 1 twice, v2 check 0 twice
        # and v3 check 1 three times: only the odd multiplicities survive
        perm = np.array([0, 1, 2, 6, 7, 3, 4, 5, 8, 9, 10, 11])
        g = TannerGraph(n=4, left_degree=3, right_degree=6, socket_perm=perm)
        assert g.multiplicity.tolist() == [[3, 1, 2, 0], [0, 2, 1, 3]]
        assert ensemble_oracle._parity_rows(g) == _packed_parity(g.multiplicity)
        assert ensemble_oracle._parity_rows(g) == [0b0011, 0b1100]


class TestCountWords:
    @pytest.mark.parametrize("kind", ["weight", "stopping"])
    def test_empty_configuration(self, kind):
        g = sample_graph(P24, 4, 1)
        assert count_words(g, 0, kind) == 1

    def test_null_space_cardinality(self):
        for seed in range(10):
            g = sample_graph(P36, 12, seed)
            total = sum(count_words(g, W, "weight") for W in range(13))
            assert total & (total - 1) == 0  # always a power of two

    def test_permutation_equivariance(self):
        g = sample_graph(P36, 12, 42)
        relabel = np.random.default_rng(0).permutation(12)
        perm = np.empty_like(g.socket_perm)
        for new_v in range(12):
            old_v = relabel[new_v]
            perm[new_v * 3:(new_v + 1) * 3] = g.socket_perm[old_v * 3:(old_v + 1) * 3]
        g2 = TannerGraph(n=12, left_degree=3, right_degree=6, socket_perm=perm)
        for W in range(13):
            assert count_words(g, W, "weight") == count_words(g2, W, "weight")
            assert count_words(g, W, "stopping") == count_words(g2, W, "stopping")

    def test_stopping_counts_multiplicity(self):
        # a variable double-connected to a check satisfies ">= 2" on its own
        perm = np.array([0, 1, 4, 5, 2, 3, 6, 7])  # v0 -> check0 twice, ...
        g = TannerGraph(n=4, left_degree=2, right_degree=4, socket_perm=perm)
        assert g.multiplicity[0, 0] == 2
        assert count_words(g, 1, "stopping") >= 1

    def test_weight_multiplicity_cancels(self):
        # same graph: v0's double edge contributes 0 mod 2 to check 0
        perm = np.array([0, 1, 4, 5, 2, 3, 6, 7])
        g = TannerGraph(n=4, left_degree=2, right_degree=4, socket_perm=perm)
        assert count_words(g, 1, "weight") >= 1

    @pytest.mark.parametrize("n,W", [(12, 4), (12, 6), (18, 6), (24, 3),
                                     (12, 0), (12, 12)])
    def test_stopping_count_matches_column_sums(self, n, W):
        # (18, 6) has 18564 subsets, more than one chunk, so it streams
        assert (math.comb(n, W) > ensemble_oracle._SUBSET_CHUNK) == ((n, W) == (18, 6))
        for seed in range(200):
            g = sample_graph(P36, n, 7000 + seed)
            assert count_words(g, W, "stopping") == _chunked_stopping_count(g, W)

    def test_multiplicity_counts_every_edge(self):
        for seed in range(50):
            g = sample_graph(P36, 12, seed)
            want = np.zeros((g.check_count, g.n), dtype=np.int64)
            for vs, cs in enumerate(g.socket_perm):
                want[cs // 6, vs // 3] += 1
            assert np.array_equal(g.multiplicity, want)
            assert g.multiplicity.dtype == np.int64

    def test_size_cap(self):
        g = sample_graph(EnsembleParams(2, 4), 30, 0)
        with pytest.raises(TooLargeError):
            count_words(g, 2, "weight")


class TestCountersMatchDefinitions:
    @staticmethod
    def _assert_matches(g):
        weight, stopping = _definition_profiles(g)
        assert [count_words(g, W, "weight") for W in range(g.n + 1)] == weight
        assert [count_words(g, W, "stopping") for W in range(g.n + 1)] == stopping

    @pytest.mark.parametrize("l,r,n,maps", [(2, 4, 4, 70), (3, 6, 4, 924)])
    def test_every_map(self, l, r, n, maps):
        graphs = list(_map_graphs(l, r, n))
        assert len(graphs) == maps  # (n*l)!/(r!)^m
        for g in graphs:
            self._assert_matches(g)

    def test_sampled_graphs(self):
        for seed in range(50):
            self._assert_matches(sample_graph(P36, 12, 9000 + seed))


class TestMcMoments:
    def test_first_and_second_moment_within_three_sigma(self):
        exact1 = float(exact_first_moment(P36, 12, 4, "weight"))
        exact2 = float(exact_second_moment(P36, 12, 4, "weight"))
        est1, est2 = mc_moments(P36, 12, 4, "weight", 10_000, 2024)
        assert abs(est1.mean - exact1) <= est1.confidence_halfwidth_3sigma
        assert abs(est2.mean - exact2) <= est2.confidence_halfwidth_3sigma

    def test_single_sample_flagged(self):
        for est in mc_moments(P24, 4, 2, "weight", 1, 7):
            assert est.variance == 0.0
            assert math.isnan(est.confidence_halfwidth_3sigma)

    def test_seed_schedule_is_per_sample(self):
        # the estimate is an order-insensitive function of seed+index counts
        pair = mc_moments(P24, 4, 2, "weight", 50, 300)
        singles = [mc_moments(P24, 4, 2, "weight", 1, 300 + i) for i in range(50)]
        for k, est in enumerate(pair):
            assert est.mean == pytest.approx(np.mean([s[k].mean for s in singles]),
                                             rel=1e-12)

    def test_replication_coverage(self):
        # 3-sigma interval should contain the exact value almost always
        exact = float(exact_first_moment(P24, 4, 2, "weight"))
        hits = 0
        for rep in range(100):
            est, _ = mc_moments(P24, 4, 2, "weight", 2000, 5000 + rep * 2000)
            if abs(est.mean - exact) <= est.confidence_halfwidth_3sigma:
                hits += 1
        assert hits >= 95


class TestExhaustiveMoment:
    @pytest.mark.parametrize("kind", ["weight", "stopping"])
    @pytest.mark.parametrize("W", [0, 1, 2, 3, 4])
    def test_matches_generating_function_first_moment(self, kind, W):
        assert exhaustive_moment(P24, 4, W, kind)[0] == exact_first_moment(
            P24, 4, W, kind)

    @pytest.mark.parametrize("kind", ["weight", "stopping"])
    @pytest.mark.parametrize("W", [0, 1, 2, 3, 4])
    def test_matches_generating_function_second_moment(self, kind, W):
        assert exhaustive_moment(P24, 4, W, kind)[1] == exact_second_moment(
            P24, 4, W, kind)

    def test_reference_value(self):
        assert exhaustive_moment(P24, 4, 2, "weight") == (Fraction(114, 35),
                                                          Fraction(492, 35))

    def test_size_cap(self):
        # the cap counts socket-to-check maps times 2^n subsets: (3,6) at
        # n=4 has 924 maps and 16 subsets, though 12! permutations
        assert exhaustive_moment(P36, 4, 2, "weight")[0] == exact_first_moment(
            P36, 4, 2, "weight")

    @pytest.mark.parametrize("l,r,n", [(2, 3, 6), (2, 64, 32)])
    def test_above_size_cap(self, l, r, n):
        # 369,600 maps times 2^6 subsets; one map but 2^32 subsets
        with pytest.raises(TooLargeError):
            exhaustive_moment(EnsembleParams(l, r), n, 2, "weight")

    @pytest.mark.parametrize("kind", ["weight", "stopping"])
    def test_matches_generating_function_at_36(self, kind):
        assert checks.exhaustive_mismatches(P36, 4, kind) == []


class TestExhaustiveTallies:
    @pytest.mark.parametrize("l,r,n", [(2, 3, 3), (2, 4, 4), (2, 6, 3), (3, 6, 2)])
    def test_matches_permutation_loop(self, l, r, n):
        assert ensemble_oracle._exhaustive_tallies(l, r, n) == _permutation_tallies(l, r, n)

    def test_visits_each_assignment_once(self, monkeypatch):
        # 8!/(4!)^2 = 70 maps of 8 sockets onto 2 checks of 4 sockets each
        visits = _count_visits(monkeypatch, 4)
        ensemble_oracle._exhaustive_tallies.cache_clear()
        try:
            exhaustive_moment(P24, 4, 2, "weight")
        finally:
            ensemble_oracle._exhaustive_tallies.cache_clear()
        assert visits() == math.factorial(8) // math.factorial(4) ** 2 == 70

    def test_permutation_loop_visits_every_permutation(self, monkeypatch):
        visits = _count_visits(monkeypatch, 4)
        _permutation_tallies(2, 4, 4)
        assert visits() == math.factorial(8) > 70

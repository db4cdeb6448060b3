"""Self-check measurements: the Monte-Carlo rerun rule."""

import pytest

from ldpc_moments import checks, ensemble_oracle
from ldpc_moments.ensemble_oracle import MomentEstimate
from ldpc_moments.exactcomb import exact_first_moment, exact_second_moment
from ldpc_moments.genfun import EnsembleParams

P24 = EnsembleParams(2, 4)
N, W, SAMPLES, SEED = 4, 2, 100, 900


def _estimate(mean, seed):
    return MomentEstimate(mean=mean, variance=1.0, sample_count=SAMPLES,
                          confidence_halfwidth_3sigma=1.0, seed=seed)


@pytest.fixture
def stub_passes(monkeypatch):
    """Replace mc_moments by a stub whose k-th pass misses the band of each
    moment named in the k-th entry of the returned list; records seeds."""
    exact = (float(exact_first_moment(P24, N, W, "weight")),
             float(exact_second_moment(P24, N, W, "weight")))
    misses, seeds = [], []

    def fake(params, n, W_, kind, samples, seed):
        missed = misses[len(seeds)]
        seeds.append(seed)
        return tuple(_estimate(exact[k] + (5.0 if k in missed else 0.0), seed)
                     for k in (0, 1))

    monkeypatch.setattr(ensemble_oracle, "mc_moments", fake)
    return misses, seeds


class TestMcAttempts:
    def test_only_the_missed_moment_is_rerun(self, stub_passes):
        misses, seeds = stub_passes
        misses += [{1}, {0}]  # pass 1 misses moment 2; pass 2 would miss moment 1
        first, second = checks.mc_attempts(P24, N, W, "weight", SAMPLES, SEED)
        assert seeds == [SEED, SEED + SAMPLES]
        assert [dev <= hw for dev, hw in first] == [True]
        assert [dev <= hw for dev, hw in second] == [False, True]

    def test_one_pass_when_both_moments_pass(self, stub_passes):
        misses, seeds = stub_passes
        misses += [set(), set()]
        first, second = checks.mc_attempts(P24, N, W, "weight", SAMPLES, SEED)
        assert seeds == [SEED]
        assert len(first) == len(second) == 1
        assert first[0][0] <= first[0][1] and second[0][0] <= second[0][1]

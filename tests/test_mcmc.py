import numpy as np
import pytest

from begrates.errors import ComputationError, ValidationError
from begrates.exact import build_joint_law
from begrates.mcmc import _batch_means, _sweep, chain_seeds, run_chain
from begrates.model import ModelParams, resampling_law
from oracles import blocklist_chain, branchy_sweep

POINT_A = ModelParams(1.0, 0.6)


class TestDeterminism:
    def test_identical_seeds_identical_outputs(self):
        a = run_chain(POINT_A, 30, 2000, 200, seed=12345)
        b = run_chain(POINT_A, 30, 2000, 200, seed=12345)
        assert a.moments == b.moments
        assert a.m_fraction == b.m_fraction

    def test_different_seeds_differ(self):
        a = run_chain(POINT_A, 30, 2000, 200, seed=1)
        b = run_chain(POINT_A, 30, 2000, 200, seed=2)
        assert a.moments != b.moments

    def test_chain_seeds_deterministic_and_distinct(self):
        s1 = chain_seeds(99, 8)
        s2 = chain_seeds(99, 8)
        assert s1 == s2
        assert len(set(s1)) == 8


class TestSweep:
    @pytest.mark.parametrize("n", [1, 2, 20, 100])
    @pytest.mark.parametrize("params", [POINT_A, ModelParams(1.0, 1.5), ModelParams(8.0, 0.5)],
                             ids=str)
    def test_matches_the_branchy_sweep(self, params, n):
        # same draws, same comparisons: the counts agree after every block,
        # from the three corners of the simplex and from interior states
        cum_minus, cum_zero = np.cumsum(resampling_law(params, n, np.arange(-n, n + 1))[:2],
                                        axis=0).tolist()
        rng = np.random.default_rng(n)
        starts = [(0, 0), (n, 0), (0, n)] + [
            (int(a), int(b)) for a, b in rng.multinomial(n, [1 / 3] * 3, size=4)[:, :2]]
        for start in starts:
            got = want = start
            for _ in range(20):
                sites = rng.integers(0, n, size=n).tolist()
                draws = rng.random(n).tolist()
                got = _sweep(*got, sites, draws, cum_minus, cum_zero)
                want = branchy_sweep(*want, sites, draws, cum_minus, cum_zero)
                assert got == want


class TestDrawsPerSweep:
    """A block's draws stay numpy arrays and only the sweep being run turns
    its slice into lists: the chain is the one drawn as whole-block lists."""

    # several blocks at n = 1, 20 and 100, a short last block at 777, and
    # one sweep per block at 20000
    @pytest.mark.parametrize("n, sweeps, burn_in", [(1, 20000, 2000), (20, 2000, 200),
                                                    (100, 400, 40), (777, 64, 8), (20000, 33, 1)])
    def test_matches_whole_block_lists(self, n, sweeps, burn_in):
        res = run_chain(POINT_A, n, sweeps, burn_in, seed=n, keep_trace=True)
        series = blocklist_chain(POINT_A, n, sweeps, seed=n)[burn_in:]
        assert res.trace == [(burn_in + k, s, m) for k, (s, m) in enumerate(series)]
        w = np.array([s for s, _ in series]) / float(n) ** 0.5
        w2 = w * w
        assert res.moments == {1: _batch_means(w), 2: _batch_means(w2),
                               4: _batch_means(w2 * w2)}
        assert res.m_fraction == _batch_means(np.array([m for _, m in series]) / n)


class TestFreezing:
    def test_spins_freeze_at_zero_for_large_beta(self):
        frozen = run_chain(ModelParams(8.0, 0.5), 40, 3000, 300, seed=5)
        warm = run_chain(ModelParams(0.3, 0.5), 40, 3000, 300, seed=5)
        assert frozen.m_fraction[0] < 0.01
        assert warm.m_fraction[0] > 0.5

    def test_ordered_phase_at_large_beta_k(self):
        # e^(2 beta K u / n) overflows here; the exact law sits on s = +-n
        params, n = ModelParams(1.0, 400.0), 10
        law = build_joint_law(params, n)
        assert law.s_probs[0] + law.s_probs[-1] > 1.0 - 1e-12
        res = run_chain(params, n, 200, 100, seed=1, keep_trace=True)
        assert {s for _, s, _ in res.trace} <= {-n, n}


class TestValidation:
    def test_bad_sweep_counts(self):
        with pytest.raises(ValidationError):
            run_chain(POINT_A, 10, 100, 100, seed=0)
        with pytest.raises(ValidationError):
            run_chain(POINT_A, 10, 40, 20, seed=0)  # fewer than 32 measured

    @pytest.mark.parametrize("gamma", [float("nan"), 0.7, 0.0, -1.0])
    def test_gamma_outside_range(self, gamma):
        with pytest.raises(ValidationError, match="gamma"):
            run_chain(POINT_A, 10, 100, 20, seed=0, gamma=gamma)

    def test_empty_or_unsizable_system(self, monkeypatch):
        # both refused before the first array is sized; the two cumulative
        # rows of 2n + 1 doubles pass np.intp's largest byte count from n = 2^58 on
        def no_arange(*args, **kwargs):
            raise AssertionError("an array was sized")

        monkeypatch.setattr(np, "arange", no_arange)
        with pytest.raises(ValidationError, match="n must be >= 1"):
            run_chain(POINT_A, 0, 100, 20, seed=0)
        for n in (2**58, 10**20):
            with pytest.raises(ComputationError, match="pass numpy's largest array"):
                run_chain(POINT_A, n, 40, 0, seed=0)
        with pytest.raises(AssertionError, match="sized"):
            run_chain(POINT_A, 2**58 - 1, 40, 0, seed=0)

    def test_negative_seed(self):
        with pytest.raises(ValidationError, match="seed"):
            run_chain(POINT_A, 10, 100, 20, seed=-1)
        with pytest.raises(ValidationError, match="seed"):
            chain_seeds(-1, 3)

    def test_trace_records_every_measured_sweep(self):
        res = run_chain(POINT_A, 10, 600, 100, seed=3, keep_trace=True)
        assert [sweep for sweep, _, _ in res.trace] == list(range(100, 600))
        assert all(-10 <= s <= 10 for _, s, _ in res.trace)

import pytest

from begrates.errors import ValidationError
from begrates.exact import build_joint_law, moment
from begrates.mcmc import chain_seeds, run_chain
from begrates.model import ModelParams

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


class TestAgainstExactLaw:
    @pytest.mark.parametrize("n", [20, 50])
    def test_second_moment_within_four_stderr(self, n):
        law = build_joint_law(POINT_A, n)
        exact = moment(law, 0.5, 2)
        res = run_chain(POINT_A, n, 12000, 1200, seed=777)
        est, se = res.moments[2]
        assert se > 0.0
        assert abs(est - exact) < 4.0 * se

    @pytest.mark.parametrize("n, seed", [(20, 11), (50, 22)])
    def test_nonzero_fraction_within_four_stderr(self, n, seed):
        law = build_joint_law(POINT_A, n)
        exact_m = law.expect(law.m_mean)
        res = run_chain(POINT_A, n, 12000, 1200, seed=seed)
        est, se = res.m_fraction
        assert se > 0.0
        assert abs(est - exact_m / n) < 4.0 * se

    def test_fourth_moment_too(self):
        n = 25
        law = build_joint_law(POINT_A, n)
        exact = moment(law, 0.5, 4)
        res = run_chain(POINT_A, n, 12000, 1200, seed=2024)
        est, se = res.moments[4]
        assert abs(est - exact) < 4.0 * se


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

    def test_empty_system(self):
        with pytest.raises(ValidationError, match="n must be >= 1"):
            run_chain(POINT_A, 0, 100, 20, seed=0)

    def test_negative_seed(self):
        with pytest.raises(ValidationError, match="seed"):
            run_chain(POINT_A, 10, 100, 20, seed=-1)
        with pytest.raises(ValidationError, match="seed"):
            chain_seeds(-1, 3)

    def test_trace_records_every_measured_sweep(self):
        res = run_chain(POINT_A, 10, 600, 100, seed=3, keep_trace=True)
        assert [sweep for sweep, _, _ in res.trace] == list(range(100, 600))
        assert all(-10 <= s <= 10 for _, s, _ in res.trace)

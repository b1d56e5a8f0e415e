import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from begrates.errors import ScheduleUnderflowError, ValidationError
from begrates.model import (
    BETA_C,
    ModelParams,
    RegionTag,
    Schedule,
    ScheduleMode,
    classify_region,
    critical_K,
    cumulant_gf,
    cumulant_gf_prime,
    f_single,
    g_derivs_at_zero,
    G_eval,
    G_prime,
    minimize_G,
    schedule_eval,
)
from oracles import (
    central_second_derivative,
    pair_conditional_funcs,
    pair_f1_expanded,
    richardson_fourth_derivative,
    richardson_second_derivative,
    series_g6_oracle,
)

TRICRITICAL = ModelParams(BETA_C, critical_K(BETA_C))


class TestCumulantGF:
    def test_zero_at_origin(self):
        assert cumulant_gf(1.0, 0.0) == 0.0

    @pytest.mark.parametrize("s", [0.3, 1.7])
    def test_even(self, s):
        assert cumulant_gf(1.0, -s) == cumulant_gf(1.0, s)

    def test_second_derivative_at_beta_c(self):
        # c''(0) = 1/3 at beta = log 4, consistent with K_c = 3/(2 log 4)
        d2 = central_second_derivative(lambda t: cumulant_gf(BETA_C, t), 0.0, 1e-4)
        assert abs(d2 - 1.0 / 3.0) < 1e-8
        assert abs(critical_K(BETA_C) - 1.0 / (2.0 * BETA_C * (1.0 / 3.0))) < 1e-12

    def test_stable_at_large_t(self):
        # no overflow and asymptotically t - beta - log(1 + 2 e^-beta)
        v = cumulant_gf(1.0, 700.0)
        assert math.isfinite(v)
        assert abs(v - (700.0 - 1.0 - math.log(1.0 + 2.0 * math.exp(-1.0)))) < 1e-12

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            cumulant_gf(1.0, math.nan)
        with pytest.raises(ValidationError):
            cumulant_gf(1.0, math.inf)
        with pytest.raises(ValidationError):
            cumulant_gf(-1.0, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        beta=st.floats(0.05, 20.0),
        t=st.floats(-650.0, 650.0),
    )
    def test_even_and_finite_everywhere(self, beta, t):
        v = cumulant_gf(beta, t)
        assert math.isfinite(v)
        assert v == cumulant_gf(beta, -t)
        assert v >= -1e-15  # log of a ratio >= 1

    def test_prime_matches_finite_difference(self):
        for beta in (0.5, 1.0, BETA_C):
            for t in (-2.0, -0.3, 0.0, 0.7, 3.0):
                fd = (cumulant_gf(beta, t + 5e-6) - cumulant_gf(beta, t - 5e-6)) / 1e-5
                assert abs(cumulant_gf_prime(beta, t) - fd) < 1e-9


class TestCriticalK:
    def test_tricritical_value(self):
        assert abs(critical_K(BETA_C) - 3.0 / (2.0 * math.log(4.0))) < 1e-14

    def test_at_beta_one(self):
        assert abs(critical_K(1.0) - (math.e + 2.0) / 4.0) < 1e-14

    @pytest.mark.parametrize("beta", [0.5, 1.0, BETA_C, 2.0])
    def test_consistent_with_curvature(self, beta):
        # K_c = 1 / (2 beta c''(0)) with c'' taken by finite differences
        d2 = richardson_second_derivative(lambda t: cumulant_gf(beta, t), 0.0)
        assert abs(critical_K(beta) - 1.0 / (2.0 * beta * d2)) < 1e-8


class TestGFunction:
    @pytest.mark.parametrize("beta", [0.8, 1.0, BETA_C])
    def test_g2_vanishes_on_critical_curve(self, beta):
        params = ModelParams(beta, critical_K(beta))
        assert abs(g_derivs_at_zero(params).g2) < 1e-12

    @pytest.mark.parametrize("K", [0.3, 1.0, 2.7])
    def test_g4_vanishes_at_beta_c(self, K):
        assert abs(g_derivs_at_zero(ModelParams(BETA_C, K)).g4) < 1e-12

    def test_g6_at_tricritical_point(self):
        g6 = g_derivs_at_zero(TRICRITICAL).g6
        oracle = series_g6_oracle(TRICRITICAL.beta, TRICRITICAL.K)
        assert abs(g6 - oracle) < 1e-6 * 162.0
        assert abs(g6 - 162.0) < 1e-6 * 162.0
        # leading Taylor term of G there is (162/720) x^6 = (9/40) x^6
        assert abs(g6 / math.factorial(6) - 9.0 / 40.0) < 1e-12

    def test_paper_style_closed_forms_agree(self):
        # same algebra, written through e^beta instead of the spin moment
        for beta, K in ((0.7, 0.4), (1.0, 0.6), (1.3, 1.1)):
            p = ModelParams(beta, K)
            g2, g4, _ = g_derivs_at_zero(p)
            eb = math.exp(beta)
            a = 2.0 * beta * K
            assert abs(g2 - a * (eb + 2.0 - 2.0 * a) / (eb + 2.0)) < 1e-13
            assert abs(g4 - 2.0 * a**4 * (4.0 - eb) / (eb + 2.0) ** 2) < 1e-12

    @pytest.mark.parametrize("params", [ModelParams(1.0, 0.6), ModelParams(0.9, 1.2)])
    def test_g2_g4_match_finite_differences(self, params):
        g2, g4, _ = g_derivs_at_zero(params)
        fd2 = richardson_second_derivative(lambda x: G_eval(params, x), 0.0)
        fd4 = richardson_fourth_derivative(lambda x: G_eval(params, x), 0.0)
        assert abs(fd2 - g2) < 1e-6 * max(1.0, abs(g2))
        assert abs(fd4 - g4) < 1e-6 * max(1.0, abs(g4))

    def test_gprime_matches_finite_difference(self):
        params = ModelParams(1.0, 0.6)
        for x in np.linspace(-1.2, 1.2, 13):
            fd = (G_eval(params, x + 5e-7) - G_eval(params, x - 5e-7)) / 1e-6
            assert abs(G_prime(params, x) - fd) < 1e-7


class TestFSingle:
    def test_zero_at_origin(self):
        assert f_single(ModelParams(1.0, 0.6), 0.0) == 0.0

    @pytest.mark.parametrize("x", [0.1, 0.9])
    def test_odd(self, x):
        p = ModelParams(1.0, 0.6)
        assert f_single(p, -x) == -f_single(p, x)

    def test_identity_with_gprime(self):
        p = ModelParams(1.0, 0.6)
        for x in np.linspace(-1.0, 1.0, 41):
            lhs = f_single(p, x)
            rhs = x - G_prime(p, x) / p.two_beta_K
            assert abs(lhs - rhs) < 1e-12

    @pytest.mark.parametrize(
        "params",
        [ModelParams(1.0, 0.6), ModelParams(0.5, 0.3), ModelParams(2.0, 1.2),
         ModelParams(BETA_C, critical_K(BETA_C))],
    )
    def test_identity_four_parameter_pairs(self, params):
        for x in np.linspace(-1.0, 1.0, 21):
            assert abs(f_single(params, x) - (x - G_prime(params, x) / params.two_beta_K)) < 1e-12

    def test_bounded_by_one(self):
        p = ModelParams(0.2, 5.0)
        for x in np.linspace(-50.0, 50.0, 101):
            assert abs(f_single(p, x)) <= 1.0


KERNEL_PARAMS = [
    ModelParams(beta, K)
    for beta in (0.3, 1.0, BETA_C, 2.0)
    for K in (0.3, 0.6, critical_K(beta), 5.0, 400.0)
]
KERNEL_XS = np.concatenate((np.linspace(-3.0, 3.0, 61), [0.0, -0.0, 1e-300, -2e-12, 0.5, 40.0]))


class TestArrayKernels:
    """Array calls are the scalar calls entry by entry, bit for bit."""

    @pytest.mark.parametrize("params", KERNEL_PARAMS, ids=str)
    def test_bit_identical_to_scalar_calls(self, params):
        ts = params.two_beta_K * KERNEL_XS
        for fn, head, xs in (
            (cumulant_gf, params.beta, ts),
            (cumulant_gf_prime, params.beta, ts),
            (G_eval, params, KERNEL_XS),
            (G_prime, params, KERNEL_XS),
            (f_single, params, KERNEL_XS),
            (lambda p, x: pair_conditional_funcs(p, x)[0], params, KERNEL_XS),
            (lambda p, x: pair_conditional_funcs(p, x)[1], params, KERNEL_XS),
        ):
            got = fn(head, xs)
            want = [fn(head, float(x)) for x in xs]
            assert all(isinstance(v, float) for v in want)
            np.testing.assert_array_equal(got, want, strict=True)
            # a 2-d input keeps its shape
            np.testing.assert_array_equal(fn(head, xs.reshape(-1, 1) * np.ones(3)),
                                          np.repeat(got[:, None], 3, axis=1))

    @pytest.mark.parametrize("params", [
        ModelParams(1.0, 0.6), ModelParams(1.0, critical_K(1.0)), TRICRITICAL,
        ModelParams(0.5, 0.3), ModelParams(1.0, 1.5), ModelParams(2.0, 1.2),
    ], ids=str)
    @pytest.mark.parametrize("n", [64, 8192])
    def test_f_single_on_the_u_grid(self, params, n):
        # the grid u / n, u = -n-1..n+1, of the per-class fdiff oracle in
        # test_stein.py
        us = np.arange(-n - 1, n + 2)
        want = np.array([f_single(params, u / n) for u in range(-n - 1, n + 2)])
        np.testing.assert_array_equal(f_single(params, us / n), want)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [0, 3, -1])
    def test_non_finite_entry_raises(self, bad, where):
        p = ModelParams(1.0, 0.6)
        xs = np.linspace(-1.0, 1.0, 7)
        xs[where] = bad
        for call in (lambda: cumulant_gf(1.0, xs), lambda: cumulant_gf_prime(1.0, xs),
                     lambda: G_eval(p, xs), lambda: G_prime(p, xs), lambda: f_single(p, xs),
                     lambda: pair_conditional_funcs(p, xs),
                     lambda: G_eval(p, xs.reshape(7, 1))):
            with pytest.raises(ValidationError):
                call()


class TestPairConditionals:
    def test_f2_at_origin(self):
        # K -> 0 limit: f2(0) = 2 e^-beta / (1 + 2 e^-beta); cross-checked as
        # E[w^2] of a single tilted spin (the n=1, K->0 brute force)
        beta = 1.0
        _, f2 = pair_conditional_funcs(ModelParams(beta, 0.6), 0.0)
        weights = [math.exp(-beta * l * l) for l in (-1, 0, 1)]
        expected = math.fsum(l * l * w for l, w in zip((-1, 0, 1), weights)) / math.fsum(weights)
        assert abs(f2 - expected) < 1e-14
        assert abs(f2 - 0.42388) < 5e-6

    def test_square_identity_and_range(self):
        for params in (ModelParams(1.0, 0.6), ModelParams(0.5, 1.4), ModelParams(2.0, 1.2)):
            for x in np.linspace(-1.0, 1.0, 41):
                f1, f2 = pair_conditional_funcs(params, x)
                assert abs(f1 - pair_f1_expanded(params, x)) < 1e-12
                assert 0.0 <= f1 <= 1.0
                assert 0.0 <= f2 <= 1.0

    def test_large_beta_K_stays_finite(self):
        # every term of the expanded f1 underflows here; f1 = f2^2 does not
        params = ModelParams(400.0, 1.0)
        for x, want in ((-1.0, 1.0), (0.5, 0.5), (1.0, 1.0)):
            f1, f2 = pair_conditional_funcs(params, x)
            assert f2 == want
            assert abs(f1 - pair_f1_expanded(params, x)) < 1e-12


class TestSchedule:
    def test_moving_beta_monotone_to_beta_c(self):
        s = Schedule(mode=ScheduleMode.MOVING_BETA, k=1.0, b=1.0, delta1=1.0 / 3.0,
                     delta2=0.5)
        betas = [schedule_eval(s, n).beta for n in (4, 16, 64, 256, 4096)]
        assert all(b2 > b1 for b1, b2 in zip(betas, betas[1:]))
        assert betas[-1] < BETA_C
        assert BETA_C - betas[-1] < 0.02

    def test_fixed_beta_value(self):
        s = Schedule(mode=ScheduleMode.FIXED_BETA, beta_fixed=1.0, k=1.0, delta2=0.5)
        p = schedule_eval(s, 100)
        assert p.beta == 1.0
        assert abs(p.K - (critical_K(1.0) - 0.1)) < 1e-14

    def test_K_converges_to_critical(self):
        s = Schedule(mode=ScheduleMode.FIXED_BETA, beta_fixed=1.0, k=1.0, delta2=0.5)
        gaps = [critical_K(1.0) - schedule_eval(s, n).K for n in (10, 1000, 100000)]
        assert gaps[0] > gaps[1] > gaps[2] > 0.0

    def test_underflow_raises(self):
        s = Schedule(mode=ScheduleMode.MOVING_BETA, k=1.0, b=3.5, delta1=0.5, delta2=0.5)
        with pytest.raises(ScheduleUnderflowError):
            schedule_eval(s, 1)  # 4 - 3.5 = 0.5 <= 1
        big_k = Schedule(mode=ScheduleMode.FIXED_BETA, beta_fixed=1.0, k=10.0, delta2=0.5)
        with pytest.raises(ScheduleUnderflowError):
            schedule_eval(big_k, 2)

    def test_invalid_schedules_rejected(self):
        with pytest.raises(ValidationError):
            Schedule(mode=ScheduleMode.FIXED_BETA, beta_fixed=1.0, k=0.0, delta2=0.5)
        with pytest.raises(ValidationError):
            Schedule(mode=ScheduleMode.MOVING_BETA, k=1.0, b=0.0, delta1=0.3, delta2=0.5)


class TestRegions:
    def test_reference_points(self):
        assert classify_region(ModelParams(1.0, 0.5)) is RegionTag.A
        assert classify_region(ModelParams(1.0, critical_K(1.0))) is RegionTag.B
        assert classify_region(TRICRITICAL) is RegionTag.C
        assert classify_region(ModelParams(1.0, 1.5)) is RegionTag.TWO_PHASE
        assert classify_region(ModelParams(2.0, critical_K(2.0))) is RegionTag.FIRST_ORDER_CURVE
        assert classify_region(ModelParams(2.0, 0.5)) is RegionTag.OTHER

    def test_tol_validation(self):
        with pytest.raises(ValidationError):
            classify_region(ModelParams(1.0, 0.5), tol=0.1)

    @settings(max_examples=200, deadline=None)
    @given(
        beta=st.floats(0.2, 2.5),
        frac=st.floats(0.2, 1.8),
        eps_b=st.floats(-1.0, 1.0),
        eps_k=st.floats(-1.0, 1.0),
    )
    def test_stability_under_small_perturbations(self, beta, frac, eps_b, eps_k):
        # perturbing by less than tol/2 never flips A <-> TwoPhase
        tol = 1e-6
        params = ModelParams(beta, frac * critical_K(beta))
        tag = classify_region(params, tol)
        params2 = ModelParams(beta + eps_b * tol / 2, params.K + eps_k * tol / 2)
        tag2 = classify_region(params2, tol)
        assert {tag, tag2} != {RegionTag.A, RegionTag.TWO_PHASE}


class TestMinimizeG:
    @pytest.mark.parametrize(
        "params",
        [ModelParams(1.0, 0.6), ModelParams(1.0, critical_K(1.0)), TRICRITICAL],
    )
    def test_unique_zero_on_single_phase_sets(self, params):
        assert minimize_G(params) == [0.0]

    def test_two_phase_pair(self):
        mins = minimize_G(ModelParams(1.0, 1.5))
        assert len(mins) == 2
        z = mins[1]
        assert z > 0.0
        assert mins == [-z, z]
        assert abs(G_prime(ModelParams(1.0, 1.5), z)) < 1e-11

    def test_symmetric_under_negation(self):
        for K in (1.3, 1.5, 2.0):
            mins = minimize_G(ModelParams(1.0, K))
            assert mins == sorted(-x for x in mins)


_NEAR_CRITICAL = ModelParams(1.3, critical_K(1.3) * (1.0 + 1e-7))


class TestMinimizersAgainstOracles:
    @pytest.mark.parametrize(
        "params",
        [ModelParams(beta, f * critical_K(beta))
         for beta in (0.5, 1.0, 1.3, BETA_C, 2.0, 2.5) for f in (0.9, 1.0, 1.1, 1.8)]
        + [ModelParams(1.0, 1.5), _NEAR_CRITICAL],
        ids=str,
    )
    def test_nonzero_minimizers_are_critical_points(self, params):
        # bisection on G' runs until the bracket cannot shrink, so G' is
        # zero to rounding there, also for a well inside the first grid step
        for x in minimize_G(params):
            if x != 0.0:
                assert abs(G_prime(params, x)) <= 1e-14

    @pytest.mark.parametrize(
        "params",
        [
            ModelParams(1.0, 0.6),  # A
            ModelParams(1.0, critical_K(1.0)),  # B
            TRICRITICAL,  # C
            ModelParams(1.0, 1.5),  # two-phase
            ModelParams(0.5, 3.0),
            _NEAR_CRITICAL,
            ModelParams(2.0, 0.5),  # beta > log 4
            ModelParams(2.0, 0.9 * critical_K(2.0)),
            ModelParams(2.0, critical_K(2.0)),
            ModelParams(2.5, critical_K(2.5)),
        ],
        ids=str,
    )
    def test_no_grid_point_lies_lower(self, params):
        # G is a difference of terms below 1 in size, so a dense-grid value
        # may undercut the true minimum by a few ulp of rounding
        grid_min = G_eval(params, np.linspace(-1.5, 1.5, 10**6)).min()
        for x in minimize_G(params):
            assert G_eval(params, x) <= grid_min + 4.0 * np.finfo(float).eps

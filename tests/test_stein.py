import math

import numpy as np
import pytest

from begrates.cases import case_by_id, comparison_density, params_at, regression_at
from begrates.density import SteinConstants, estimate_stein_constants, normalize_density
from begrates.errors import ValidationError
from begrates.exact import build_joint_law, moment
from begrates.model import BETA_C, ModelParams, critical_K, f_single, resampling_law
from begrates import stein
from begrates.stein import evaluate_bound, regression_decompose, step_table, variance_term
from oracles import (
    brute_step_moments,
    brute_variance_term,
    conditional_law,
    conditional_mean_sandwich_gap,
    conditional_step_moments,
    enumerated_joint_law,
    max_increment,
    mpmath_step_rows,
    normal_bound,
    variance_term_classwise,
    with_schedule,
)
from test_density import SHAPE_CASES

POINT_A = ModelParams(1.0, 0.6)

TEST_PARAMS = [
    ModelParams(1.0, 0.6),
    ModelParams(1.0, critical_K(1.0)),
    ModelParams(BETA_C, critical_K(BETA_C)),
    ModelParams(0.5, 0.3),
    ModelParams(1.0, 1.5),
    ModelParams(2.0, 1.2),
]


class TestConditionalStepMoments:
    """The per-class moments m0 + m1 M and v0 + v1 M of ``step_table``."""

    @pytest.mark.parametrize("params", TEST_PARAMS, ids=str)
    @pytest.mark.parametrize("n", [4, 6])
    def test_matches_exhaustive(self, params, n):
        gamma = 0.5
        steps = step_table(build_joint_law(params, n), gamma)
        (m0, m1), (v0, v1) = steps.mean, steps.second
        oracle, _ = brute_step_moments(params, n, gamma)
        for (s, M), (want1, want2) in oracle.items():
            assert abs(m0[s + n] + m1[s + n] * M - want1) < 1e-12
            assert abs(v0[s + n] + v1[s + n] * M - want2) < 1e-12

    def test_all_zero_class_has_zero_mean(self):
        n = 8
        m0, _ = step_table(build_joint_law(POINT_A, n), 0.5).mean
        assert m0[n] == 0.0  # the class s = M = 0

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_sandwich_every_class(self, n):
        for params in (POINT_A, ModelParams(2.0, 1.2)):
            law = build_joint_law(params, n)
            assert conditional_mean_sandwich_gap(law) <= 1e-15

    def test_sandwich_is_sharp_scale(self):
        # the exact mean really differs from f_single at the 1/n scale,
        # so the sandwich is the right envelope, not a sloppy one
        n = 64
        pm, _, pp = resampling_law(POINT_A, n, [10.0])
        exact = float(pp[0] - pm[0])
        f = f_single(POINT_A, 10.0 / n)
        assert exact != f
        assert abs(exact / f - 1.0) < 2.0 * POINT_A.two_beta_K / n


class TestLargeCoupling:
    """At 2 beta K = 800 the unshifted resampling weights e^(2 beta K u / n)
    overflow once 800 |u| / n passes ~709; the law is finite there, and so
    must be every Stein pass."""

    PARAMS = ModelParams(1.0, 400.0)

    def test_step_moments_match_exhaustive(self):
        n, gamma = 6, 0.5
        steps = step_table(build_joint_law(self.PARAMS, n), gamma)
        (m0, m1), (v0, v1) = steps.mean, steps.second
        oracle, _ = brute_step_moments(self.PARAMS, n, gamma)
        for (s, M), (want1, want2) in oracle.items():
            assert abs(m0[s + n] + m1[s + n] * M - want1) < 1e-12
            assert abs(v0[s + n] + v1[s + n] * M - want2) < 1e-12

    def test_passes_finite(self):
        law = build_joint_law(self.PARAMS, 64)
        steps = step_table(law, 0.5)
        assert math.isfinite(variance_term(steps))
        assert math.isfinite(regression_decompose(steps, *regression_at(case_by_id("fixed-A"), 64)))
        assert math.isfinite(conditional_mean_sandwich_gap(law))


class TestVarianceTerm:
    @pytest.mark.parametrize("params", TEST_PARAMS, ids=str)
    @pytest.mark.parametrize("n", [4, 6])
    def test_matches_exhaustive(self, params, n):
        law = build_joint_law(params, n)
        got = variance_term(step_table(law, 0.5))
        want = brute_variance_term(params, n, 0.5)
        assert abs(got - want) < 1e-12

    def test_nonnegative_and_jensen_ordering(self):
        steps = step_table(build_joint_law(POINT_A, 64), 0.5)
        v_w = variance_term(steps)
        v_f = variance_term_classwise(steps)
        assert 0.0 <= v_w <= v_f + 1e-18

    def test_region_a_cubic_decay(self):
        vals = [variance_term(step_table(build_joint_law(POINT_A, n), 0.5)) * n**3
                for n in (64, 256, 1024, 4096)]
        assert max(vals) <= 10.0 * vals[0]

    @pytest.mark.parametrize(
        "params,gamma",
        [(ModelParams(1.0, critical_K(1.0)), 0.25),
         (ModelParams(BETA_C, critical_K(BETA_C)), 1.0 / 6.0)],
        ids=["B", "C"],
    )
    def test_quartic_decay_on_curve_and_point(self, params, gamma):
        # after the gamma-dependent prefactor the conditional-variance term
        # scales like n^-4 on the critical curve and at the tricritical point
        vals = [variance_term(step_table(build_joint_law(params, n), gamma)) * n**4
                for n in (64, 256, 1024)]
        assert max(vals) <= 10.0 * vals[0]


class TestRegressionDecomposition:
    def test_reconstruction_is_exact_by_definition(self):
        # R is the residual, so rebuilding the conditional mean from
        # lambda * drift + R returns it to machine precision
        case = case_by_id("fixed-A")
        n = 6
        law = build_joint_law(POINT_A, n)
        steps = step_table(law, 0.5)
        m0, m1 = steps.mean
        lam, (q1, q3, q5) = regression_at(case, n)
        for s in range(-n, n + 1):
            w = s / n**0.5
            drift = lam * (q1 * w + q3 * w**3 + q5 * w**5)
            for M in range(abs(s), n + 1, 2):
                mean = m0[s + n] + m1[s + n] * M
                resid = mean - drift
                assert abs((drift + resid) - mean) < 1e-14

    def test_region_a_remainder_rate(self):
        # lambda^-1 sqrt(E R^2) = O(n^-1/2): scaled values stay bounded
        case = case_by_id("fixed-A")
        scaled = []
        for n in (64, 256, 1024, 4096):
            law = build_joint_law(POINT_A, n)
            lam, psi = regression_at(case, n)
            scaled.append(regression_decompose(step_table(law, 0.5), lam, psi) / lam * math.sqrt(n))
        assert max(scaled) <= 10.0 * scaled[0]

    def test_tricritical_coefficients(self):
        case = case_by_id("fixed-C")
        params = ModelParams(BETA_C, critical_K(BETA_C))
        lam, psi = regression_at(case, 128)
        assert abs(lam - 128.0 ** (-5.0 / 3.0)) < 1e-18
        g6 = 162.0
        assert abs(psi[2] - g6 / (120.0 * params.two_beta_K)) < 1e-9

    @pytest.mark.parametrize("n", [32, 128, 512])
    def test_fdiff_envelope(self, n):
        # the part of R from replacing f(S^i/n) by f(S/n) obeys
        # |.| <= 2 beta K n^(gamma-2) exactly
        _, fd_max, *_ = _per_class_passes(case_by_id("fixed-A"), POINT_A, n, 0.5, ())
        assert fd_max <= _fdiff_envelope(POINT_A, n, 0.5)


def _fdiff_envelope(params, n, gamma):
    return 2.0 * params.beta * params.K * float(n) ** (gamma - 2.0)


def _per_class_passes(case, params, n, gamma, thresholds):
    """The four Stein passes as explicit sums over the (s, M) classes, from
    the per-class table and the enumerated law (s >= 0, mirrored)."""
    ref = enumerated_joint_law(params, n)
    table = conditional_step_moments(params, n, gamma)
    lam, (q1, q3, q5) = regression_at(case, n)
    scale = n ** (1.0 - gamma)
    f = {u: f_single(params, u / n) for u in range(-n - 1, n + 2)}
    mult = np.where(np.arange(n + 1) > 0, 2.0, 1.0)
    r_l2 = fd_max = 0.0
    sec_mean = math.fsum(mult[s] * (ref.slices[s] @ table.sec[s]) for s in range(n + 1))
    h = np.empty(n + 1)
    classwise = 0.0
    tails = dict.fromkeys(thresholds, 0.0)
    for s in range(n + 1):
        Ms = np.arange(s, n + 1, 2)
        npl, nmi, nz = (Ms + s) // 2, (Ms - s) // 2, n - Ms
        p = ref.slices[s]
        w = s / scale
        resid = table.mean1[s] - lam * (q1 * w + q3 * w**3 + q5 * w**5)
        r_l2 += mult[s] * float(p @ resid**2)
        fd = (npl * (f[s - 1] - f[s]) + nmi * (f[s + 1] - f[s])) / (n * scale)
        fd_max = max(fd_max, float(np.abs(fd).max()))
        h[s] = float(p @ table.sec[s]) / ref.s_probs[s]
        classwise += mult[s] * float(p @ (table.sec[s] - sec_mean) ** 2)
        groups = [(npl, 1, s - 1), (nmi, -1, s + 1), (nz, 0, s)]
        for thresh in thresholds:
            per_class = 0.0
            for count, t, u in groups:
                law_l = conditional_law(params, n, u)
                jump2 = sum((t - l) ** 2 * pl for l, pl in zip((-1, 0, 1), law_l)
                            if abs(t - l) >= thresh)
                per_class = per_class + count * jump2
            tails[thresh] += mult[s] * float(p @ per_class) / (n * scale**2)
    var_w = math.fsum(mult * ref.s_probs * (h - sec_mean) ** 2)
    return math.sqrt(r_l2), fd_max, var_w, classwise, tails


class TestVectorisedPasses:
    """The O(n) affine-in-M passes against explicit per-class sums."""

    @pytest.mark.parametrize("n", [64, 512])
    @pytest.mark.parametrize("case_id", ["fixed-A", "fixed-C", "B1.k-"])
    def test_match_per_class_sums(self, case_id, n):
        case = case_by_id(case_id)
        params = params_at(case, n)
        gamma = case.gamma
        scale = n ** (1.0 - gamma)
        # thresholds A n^(1-gamma) in [0, 1], (1, 2] and above 2: jumps of
        # size 1 and 2, of size 2 only, and none count
        halfwidths = [t / scale for t in (0.5, 1.5, 3.0)]
        thresholds = [A * scale for A in halfwidths]
        # evaluate_bound's default A and twice it sit at the sizes 1 and 2 up
        # to rounding (1 + 2.2e-16 for fixed-A at 512 and B1.k- at 64), and
        # the jumps of that size count
        default_A = float(n) ** (gamma - 1.0)
        halfwidths += [default_A, 2.0 * default_A]
        thresholds += [1, 2]
        r_l2, fd_max, var_w, classwise, tails = _per_class_passes(
            case, params, n, gamma, thresholds
        )
        steps = step_table(build_joint_law(params, n), gamma)

        def close(got, want):
            return abs(got - want) <= 1e-9 * abs(want)

        assert close(regression_decompose(steps, *regression_at(case, n)), r_l2)
        assert fd_max <= _fdiff_envelope(params, n, gamma)
        assert close(variance_term(steps), var_w)
        assert close(variance_term_classwise(steps), classwise)
        for A, thresh in zip(halfwidths, thresholds):
            got = steps.tail(A)
            if thresh > 2.0:
                assert got == 0.0 == tails[thresh]
            else:
                assert close(got, tails[thresh])


class TestStepRowsAgainstMpmath:
    """``mean``, ``second`` and ||R||_2 against 40 digits from the same float law.

    The tolerances are rounding budgets, with eps = 2^-53:

    - A float pi_t(l) is an exp of a log-weight difference of size at most
      2Y, Y = beta (1 + 3K), whose roundings add up to 6 Y eps; with the exp,
      the 3-term sum and the division, pi carries (12 Y + 5) eps relative.
    - The per-site sums over l, the fold over the sites of a class and the
      division by n^(1 + p(1-gamma)) add at most 12 roundings more.
    - Every term is at most 2^p per site (|t - l|^p <= 2^p, sum_l pi = 1),
      so the terms of an intercept add up to at most 2^p (|s| + n) and those
      of a slope to 2^(p+1), before the division.
    """

    @pytest.mark.parametrize("case_id", ["fixed-A", "fixed-C", "C2.3", "C4.2"])
    def test_rows_and_residual(self, case_id):
        n, eps = 1024, 2.0**-53
        case = case_by_id(case_id)
        gamma, params = case.gamma, params_at(case, n)
        law = build_joint_law(params, n)
        lam, psi = regression_at(case, n)
        steps = step_table(law, gamma)
        mean, second, r_l2 = mpmath_step_rows(law, gamma, lam, psi)

        k = 12.0 * params.beta * (1.0 + 3.0 * params.K) + 17.0
        s = np.abs(law.s_values)
        tol = {}
        for p, got, want in ((1, steps.mean, mean), (2, steps.second, second)):
            norm = n * (float(n) ** (1.0 - gamma)) ** p
            tol[p] = (k * eps * 2**p * (s + n) / norm, k * eps * 2 ** (p + 1) / norm)
            assert np.all(np.abs(got[0] - want[0]) <= tol[p][0])
            assert np.all(np.abs(got[1] - want[1]) <= tol[p][1])

        # ||R~ - R||_2 bounds the change of the norm.  The class mean
        # r0 + m1 E[M|s] adds the row errors, the drift's (w and its powers
        # up to w^5 and the 3-term sum: 20 eps of sum |q_k w^k|) and 3
        # roundings of r0 and the sum.  The within-class variance loses
        # 3 eps E[M^2|s] to cancellation, and the squares, the pairwise sum
        # over 2n + 1 classes and the square root (log2(2n + 1) + 8) eps.
        q1, q3, q5 = psi
        w = law.w_values(gamma)
        m0, m1 = steps.mean
        drift = lam * (np.abs(q1 * w) + np.abs(q3 * w**3) + np.abs(q5 * w**5))
        r0 = m0 - lam * (q1 * w + q3 * w**3 + q5 * w**5)
        m_var = np.maximum(law.m_second - law.m_mean**2, 0.0)
        e0 = tol[1][0] + 20.0 * eps * drift + 3.0 * eps * (np.abs(r0) + np.abs(m1) * law.m_mean)
        e1 = tol[1][1]
        err = math.sqrt(law.expect((e0 + e1 * law.m_mean) ** 2 + e1**2 * m_var))
        err += 3.0 * eps * law.expect(m1**2 * law.m_second) / r_l2
        err += (math.log2(2 * n + 1) + 8.0) * eps * r_l2
        assert abs(regression_decompose(steps, lam, psi) - r_l2) <= err


def _bound_inputs(case_id, n):
    case = case_by_id(case_id)
    params = params_at(case, n)
    law = build_joint_law(params, n)
    mm = {k: moment(law, case.gamma, k) for k in (2, 4, 6)}
    density = comparison_density(case, n, mm)
    consts = estimate_stein_constants(density, step=0.01)
    return case, law, density, consts


class TestEvaluateBound:
    @pytest.mark.parametrize("case_id", ["fixed-A", "fixed-B", "fixed-C", "B1.k-"])
    def test_dominance_at_default_halfwidth(self, case_id):
        case, law, density, consts = _bound_inputs(case_id, 256)
        report = evaluate_bound(law, case.gamma, case, density, consts)
        assert report.total >= report.exact_dk
        assert abs(report.total - math.fsum(report.terms.values())) < 1e-12
        assert all(v >= 0.0 for v in report.terms.values())

    def test_tail_vanishes_above_increment_bound(self):
        case, law, density, consts = _bound_inputs("fixed-A", 128)
        A = max_increment(128, 0.5) * (1.0 + 1e-9)
        report = evaluate_bound(law, case.gamma, case, density, consts, A=A)
        assert report.terms["tail_term"] == 0.0

    def test_tail_positive_at_spec_halfwidth(self):
        # |W - W'| reaches 2 n^(gamma-1), so at A = n^(gamma-1) the tail
        # indicator still fires on every spin-changing resample
        case, law, density, consts = _bound_inputs("fixed-A", 128)
        report = evaluate_bound(law, case.gamma, case, density, consts)
        assert report.terms["tail_term"] > 0.0

    def test_total_scaling_region_a(self):
        # with A above the increment bound the total decays like n^-1/2
        scaled = []
        for n in (64, 256, 1024):
            case, law, density, consts = _bound_inputs("fixed-A", n)
            A = max_increment(n, 0.5) * (1.0 + 1e-9)
            rep = evaluate_bound(law, case.gamma, case, density, consts, A=A)
            scaled.append(rep.total * math.sqrt(n))
        assert max(scaled) <= 100.0 * min(scaled)
        assert max(scaled) <= 100.0 * scaled[0]

    def test_total_scaling_at_default_halfwidth(self):
        # at A = n^(gamma-1) the truncated tail keeps the total O(1), but the
        # n^(1/2)-scaled totals still stay within a factor 100 over the ladder
        scaled = []
        for n in (64, 1024):
            case, law, density, consts = _bound_inputs("fixed-A", n)
            rep = evaluate_bound(law, case.gamma, case, density, consts)
            scaled.append(rep.total * math.sqrt(n))
        assert max(scaled) <= 100.0 * scaled[0]

    @pytest.mark.parametrize("case_id", SHAPE_CASES)
    @pytest.mark.parametrize("n", [64, 256])
    def test_psi_term_is_the_plain_exact_sum(self, case_id, n):
        # E|psi(W)| is summed largest term first; fsum is correctly rounded,
        # so it must equal the sum in s order bit for bit
        case = case_by_id(case_id)
        law = build_joint_law(params_at(case, n), n)
        density = comparison_density(case, n, {k: moment(law, case.gamma, k) for k in (2, 4, 6)})
        unit = SteinConstants(d1=1.0, d2=1.0, d3=1.0, d4=1.0, grid_spec={})
        report = evaluate_bound(law, case.gamma, case, density, unit)
        q1, q3, q5 = regression_at(case, n)[1]
        w = law.w_values(case.gamma)
        plain = math.fsum(law.s_probs * np.abs(q1 * w + q3 * w**3 + q5 * w**5))
        assert report.terms["psi_term"] == 1.5 * report.a_halfwidth * plain

    def test_positive_drift_scale_required(self):
        # with k = -1 the drift of C8.1.k- at n = 64 has
        # c = E[W(-psi(W))] = -0.494; a valid density stands in for its own,
        # which cannot be normalised
        case = with_schedule(case_by_id("C8.1.k-"), k=-1.0)
        law = build_joint_law(params_at(case, 64), 64)
        unit = SteinConstants(d1=1.0, d2=1.0, d3=1.0, d4=1.0, grid_spec={})
        with pytest.raises(ValidationError, match=r"drift scale .* = -0\.494"):
            evaluate_bound(law, case.gamma, case, normalize_density(0.5, 0.0, 0.0), unit)

    @pytest.mark.parametrize("A", [0.0, -1.0, math.nan, math.inf])
    def test_positive_halfwidth_required(self, A):
        case, law, density, consts = _bound_inputs("fixed-A", 64)
        with pytest.raises(ValidationError):
            evaluate_bound(law, case.gamma, case, density, consts, A=A)


class TestOneStepTablePerBound:
    """Each bound builds its step table once: one ``resampling_law`` pass."""

    @pytest.fixture
    def law_calls(self, monkeypatch):
        calls = []
        original = stein.resampling_law

        def counted(params, n, us):
            calls.append(n)
            return original(params, n, us)

        monkeypatch.setattr(stein, "resampling_law", counted)
        return calls

    def test_evaluate_bound(self, law_calls):
        case, law, density, consts = _bound_inputs("fixed-C", 64)
        evaluate_bound(law, case.gamma, case, density, consts)
        assert law_calls == [64]

    def test_normal_bound(self, law_calls):
        case = case_by_id("fixed-A")
        normal_bound(build_joint_law(params_at(case, 64), 64), case.gamma, case)
        assert law_calls == [64]


class TestNormalBound:
    def test_dominates_exact_distance(self):
        case = case_by_id("fixed-A")
        for n in (64, 256, 1024):
            law = build_joint_law(params_at(case, n), n)
            rep = normal_bound(law, 0.5, case)
            assert rep.total >= rep.exact_dk
            assert rep.terms["tail_term"] == 0.0

    def test_rejects_small_halfwidth(self):
        case = case_by_id("fixed-A")
        law = build_joint_law(POINT_A, 64)
        with pytest.raises(ValidationError):
            normal_bound(law, 0.5, case, A=0.5 * max_increment(64, 0.5))

    def test_rejects_nonlinear_drift(self):
        case = case_by_id("fixed-C")
        params = params_at(case, 64)
        law = build_joint_law(params, 64)
        with pytest.raises(ValidationError):
            normal_bound(law, case.gamma, case)

    def test_rate_region_a(self):
        case = case_by_id("fixed-A")
        scaled = []
        for n in (64, 256, 1024, 4096):
            law = build_joint_law(params_at(case, n), n)
            rep = normal_bound(law, 0.5, case)
            scaled.append(rep.total * math.sqrt(n))
        assert max(scaled) <= 10.0 * scaled[0]

import math

import numpy as np
import pytest
from scipy.stats import norm

from begrates import density, exact
from begrates.cases import case_by_id, case_catalog, params_at
from begrates.errors import CapExceededError, ComputationError, ValidationError
from begrates.exact import (
    build_joint_law,
    hs_check,
    kolmogorov_distance,
    moment,
    pair_covariance,
)
from begrates.model import BETA_C, ModelParams, critical_K
from begrates.rates import run_rung
from oracles import (
    brute_configs,
    brute_moment,
    brute_pair_covariance,
    dense_smoothed_cdf,
    enumerated_joint_law,
    grid_scan_kolmogorov,
    max_relative_gap,
    mpmath_joint_law,
    mpmath_ratio_row,
    mpmath_raised_row,
    rowmajor_segment_integrals,
    sequential_ratio_row,
    sequential_running_products,
    traced_peak,
)
from test_acceptance import REGION_REPS, SIX_POINTS

POINT_A = ModelParams(1.0, 0.6)


def _hs_lattice(params, n, gamma):
    """hs_check's point rule: the law, c = R D sigma, m, R and J."""
    law = build_joint_law(params, n)
    D = float(n) ** (1.0 - gamma)
    noise_var = 1.0 / (params.two_beta_K * float(n) ** (1.0 - 2.0 * gamma))
    width = math.sqrt(moment(law, gamma, 2) + noise_var)
    h = 16.0 * width * D / 2000.0
    m, R = (math.ceil(h), 1) if h >= 1.0 else (1, math.floor(1.0 / h))
    return law, R * D * math.sqrt(noise_var), m, R, math.floor(8.0 * width * R * D / m)


class TestBuildJointLaw:
    def test_n1_closed_form(self):
        # three configurations: weight 1 for s=0 and e^{-beta(1-K)} for s=+-1;
        # each s has the one slice M = |s|
        beta, K = 1.0, 0.6
        law = build_joint_law(ModelParams(beta, K), 1)
        e = math.exp(-beta * (1.0 - K))
        assert abs(law.slice_probs(0)[0] - 1.0 / (1.0 + 2.0 * e)) < 1e-15
        assert abs(law.slice_probs(1)[0] - e / (1.0 + 2.0 * e)) < 1e-15
        assert abs(law.slice_probs(-1)[0] - e / (1.0 + 2.0 * e)) < 1e-15

    def test_normalised_and_symmetric(self):
        law = build_joint_law(POINT_A, 40)
        total = math.fsum(law.atoms().values())
        assert abs(total - 1.0) < 1e-12
        for s in range(1, 41):
            np.testing.assert_array_equal(law.slice_probs(s), law.slice_probs(-s))

    def test_cap(self, monkeypatch):
        # every refusal comes before the first array is sized
        def no_arange(*args, **kwargs):
            raise AssertionError("an array was sized")

        monkeypatch.setattr(np, "arange", no_arange)
        with pytest.raises(CapExceededError):
            build_joint_law(POINT_A, 101, cap=100)
        with pytest.raises(ValidationError):
            build_joint_law(POINT_A, 0)
        with pytest.raises(ValidationError):
            build_joint_law(ModelParams(700.0, 0.5), 4)
        # 2n + 1 doubles pass np.intp's largest byte count from n = 2^59 on
        for n in (2**59, 10**20):
            with pytest.raises(ComputationError, match="pass numpy's largest array"):
                build_joint_law(POINT_A, n, cap=n)
        with pytest.raises(AssertionError, match="sized"):
            build_joint_law(POINT_A, 2**59 - 1, cap=2**59)

    @pytest.mark.parametrize("n", [10, 1000])
    @pytest.mark.parametrize("K", [1e17, 1e300])
    def test_huge_beta_K_is_a_two_point_law(self, K, n):
        # the tilt factor's exponent is floored at -2^20; the law is P(+-n) = 1/2
        law = build_joint_law(ModelParams(1.0, K), n)
        assert law.s_probs[0] == law.s_probs[-1] == 0.5
        assert not law.s_probs[1:-1].any()
        assert math.isfinite(law.log_partition)

    def test_log_partition_overflow_is_a_computation_error(self):
        with pytest.raises(ComputationError, match="log Z overflows"):
            build_joint_law(ModelParams(1.0, 1e306), 1000)

    def test_log_partition_against_brute_force(self):
        # Z = 3^-n sum exp(-beta H); n = 4 is enough to pin the constant
        _, _, log_z = brute_configs(POINT_A, 4)
        assert abs(build_joint_law(POINT_A, 4).log_partition - log_z) < 1e-12


class TestGeneratingFunctionLaw:
    """P(s), E[M|s] and E[M^2|s] from the O(n) recurrences against the O(n^2)
    enumeration and a 40-digit evaluation of the same generating function."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 64, 1024, 4096])
    @pytest.mark.parametrize("params", SIX_POINTS, ids=str)
    def test_matches_enumeration(self, params, n):
        law = build_joint_law(params, n)
        ref = enumerated_joint_law(params, n)
        keep = ref.s_probs > 1e-250
        for got, want in ((law.s_probs, ref.s_probs), (law.m_mean, ref.m_mean),
                          (law.m_second, ref.m_second)):
            np.testing.assert_allclose(got[n:][keep], want[keep], rtol=1e-11, atol=0.0)
        assert abs(law.log_partition - ref.log_partition) <= 1e-11 * abs(ref.log_partition)

    @pytest.mark.parametrize(
        "params,n",
        [(ModelParams(BETA_C, critical_K(BETA_C)), 4096), (ModelParams(2.0, 1.2), 4096),
         (ModelParams(BETA_C, critical_K(BETA_C)), 8192)]
        # large beta K, where e^(-beta K (2s-1)/n) alone underflows
        + [(params, n) for params in (ModelParams(400.0, 1.0), ModelParams(600.0, 0.8),
                                      ModelParams(300.0, 1.3), ModelParams(1.0, 500.0))
           for n in (64, 1024)],
        ids=str,
    )
    def test_matches_mpmath(self, params, n):
        law = build_joint_law(params, n)
        probs, m_mean, m_second = mpmath_joint_law(params, n)
        keep = probs > 1e-250
        np.testing.assert_allclose(law.s_probs[n:][keep], probs[keep], rtol=1e-12, atol=0.0)
        # every slice, deep tails included, unless the moment itself is
        # below the normal range of a double
        for got, want in ((law.m_mean[n:], m_mean), (law.m_second[n:], m_second)):
            normal = want > 1e-290
            np.testing.assert_allclose(got[normal], want[normal], rtol=3e-15, atol=0.0)

    def test_slices_rebuild_the_conditional_moments(self):
        n = 40
        law = build_joint_law(ModelParams(2.0, 1.2), n)
        for s in (-7, 0, 3, n):
            ps = law.slice_probs(s)
            Ms = np.arange(abs(s), n + 1, 2)
            assert abs(ps.sum() - law.s_probs[n + s]) <= 1e-15 * law.s_probs[n + s]
            assert abs(ps @ Ms / ps.sum() - law.m_mean[n + s]) <= 1e-13 * n

    def test_slices_against_mpmath(self):
        # a slice weight is e^(-beta M) over three factorials, read as a sum
        # of three log-factorials of at most log 300! ~ 1415; each of them,
        # their sum and the shifts before exp is off by an ulp of 1415 or two,
        # so the atoms are within eight such ulps of the 40-digit slice,
        # relatively (both scaled by the law's own P(s))
        import mpmath as mp

        n = 300
        law = build_joint_law(POINT_A, n)
        worst = 0.0
        with mp.workdps(40):
            a = mp.exp(-mp.mpf(POINT_A.beta))
            for s in range(n + 1):
                w = [mp.mpf(math.factorial(n) // (math.factorial((M + s) // 2)
                                                  * math.factorial((M - s) // 2)
                                                  * math.factorial(n - M))) * a**M
                     for M in range(s, n + 1, 2)]
                total = mp.fsum(w)
                want = np.array([float(law.s_probs[n + s] * x / total) for x in w])
                worst = max(worst, float((np.abs(law.slice_probs(s) - want) / want).max()))
        assert worst <= 8.0 * math.ulp(math.lgamma(n + 1.0))


class TestBlockedLaw:
    """The running product is taken in numpy blocks and the one ratio row
    with float counters; on the law's own inputs both are bit for bit the
    sequential loops of ``oracles``.  The loop runs once, at order n-2, and
    reading the M rows runs it no more."""

    @staticmethod
    def _check(params, n, monkeypatch):
        products, row, seen = exact._running_products, exact._ratio_row, []

        def same(got, want):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

        def checked_products(factors, expos):
            got = products(factors, expos)
            for g, w in zip(got, sequential_running_products(factors, expos)):
                same(g, w)
            seen.append("products")
            return got

        def checked_row(m, inv_a, size):
            got = row(m, inv_a, size)
            same(got, sequential_ratio_row(m, inv_a, size))
            seen.append(m)
            return got

        monkeypatch.setattr(exact, "_running_products", checked_products)
        monkeypatch.setattr(exact, "_ratio_row", checked_row)
        law = build_joint_law(params, n)
        law.m_mean
        assert seen == [n - 2, "products"]

    # the block edges of 512 factors, and n = 8192
    @pytest.mark.parametrize("n", [1, 2, 3, 511, 512, 513, 1025, 8192])
    @pytest.mark.parametrize("params", SIX_POINTS, ids=str)
    def test_six_points(self, params, n, monkeypatch):
        self._check(params, n, monkeypatch)

    # beta at its cap; beta K = 1e17; beta K = 6e5, past 2^19, where the
    # tilt's exponent floor of -2^20 acts
    @pytest.mark.parametrize("n", [3, 513, 1025])
    @pytest.mark.parametrize("params", [ModelParams(600.0, 0.8), ModelParams(1.0, 1e17),
                                        ModelParams(2.0, 3e5)], ids=str)
    def test_extreme_inputs(self, params, n, monkeypatch):
        self._check(params, n, monkeypatch)


class TestRaisedRow:
    """The rows of orders n-1 and n are the loop's row of order n-2 raised
    once and twice by ``exact._raised_row``.  Its budget is derived from its
    roundings, as factors: x is within F of y when x / y lies in [1/F, F],
    and one rounding is within 1 / (1 - u).  Each D_s is within 3 roundings
    of the identity on the given row, the ratio D_{s-1} / D_s within 7, the
    raised entry within 8 and rho_0 = 1 / rho_1 within 9, so one step is
    within S = (1 - u)^-9 of the identity on its own input.  An entry of the
    identity's output is rho_s D_{s-1} / D_s with each D a positive sum, so
    inputs within F move it by at most F^3; rho_0 as much and the top entry
    (m+1) e^beta not at all.  So the k-th raised row is within
    F_k = F_{k-1}^3 S, F_0 = 1, of the identity applied k times to the
    loop's row, and |got / want - 1| <= F_k - 1."""

    BETAS = (0.01, 0.5, 1.0, math.log(4.0), 5.0, 100.0, 600.0)
    STEP = (1.0 - 2.0**-53) ** -9

    @staticmethod
    def _raised(n, beta):
        """The loop's row of order n-2 and the rows of orders n-1 and n."""
        inv_a, a = math.exp(beta), math.exp(-beta)
        held = sequential_ratio_row(n - 2, inv_a, n + 3)
        one = exact._raised_row(held, a, inv_a, n - 2)
        return held, one, exact._raised_row(one, a, inv_a, n - 1)

    @pytest.mark.parametrize("beta", BETAS)
    def test_within_the_rounding_budget_of_the_identity(self, beta):
        # n = 1 starts from the all-inf row of order -1: its one step sets
        # only rho_0 = 0, the order-0 row, exactly
        import mpmath as mp

        inv_a, a = math.exp(beta), math.exp(-beta)
        with mp.workdps(40):
            for n in (1, 2, 3, 4, 66, 1025):
                held, one, two = self._raised(n, beta)
                want, factor = held, 1.0
                for k, got in ((1, one), (2, two)):
                    want = mpmath_raised_row(want, a, (n - 2 + k) * inv_a, n - 3 + k)
                    factor = factor**3 * self.STEP
                    assert max_relative_gap(got, want) <= factor - 1.0, (n, k)

    # n = 8192 at the smallest beta, where the loop's own error grows most
    # with n, at the tricritical beta and at the cap
    @pytest.mark.parametrize(
        "beta, sizes",
        [pytest.param(beta, (1, 2, 3, 4, 66, 1025), id=f"{beta:.4g}-small") for beta in BETAS]
        + [pytest.param(beta, (8192,), id=f"{beta:.4g}-8192")
           for beta in (0.01, math.log(4.0), 600.0)])
    def test_against_the_sequential_rows(self, beta, sizes):
        # The loop's rows of orders n-2+k are within e_k of the 40-digit rows
        # X of (1 + a(x + 1/x))^m, so within the factor 1 / (1 - e_k)
        # (measured by the oracle; the loop reads e^beta, not 1/a, and that
        # shows in the e's too).  The identity maps X_m to X_{m+1} exactly,
        # with (m+1)/a on top where the code puts (m+1) e^beta, a factor
        # a e^beta within 1 / (1 - |a e^beta - 1|) of 1.  So the raised rows
        # are within F_k = F_{k-1}^3 S / (1 - |a e^beta - 1|) of X_{n-2+k},
        # F_0 = 1 / (1 - e_0), and within F_k / (1 - e_k) of the loop's own
        # row of that order
        import mpmath as mp

        inv_a, a = math.exp(beta), math.exp(-beta)
        with mp.workdps(40):
            top = 1.0 / (1.0 - float(abs(mp.mpf(a) * mp.mpf(inv_a) - 1)))
            for n in sizes:
                for k, got in enumerate(self._raised(n, beta)):
                    seq = sequential_ratio_row(n - 2 + k, inv_a, n + 3)
                    e = max_relative_gap(seq, mpmath_ratio_row(n - 2 + k, a, n + 3))
                    factor = 1.0 / (1.0 - e) if k == 0 else factor**3 * self.STEP * top
                    assert max_relative_gap(got, seq) <= factor / (1.0 - e) - 1.0, (n, k)


class TestLazyCountRows:
    """``_ratio_row`` runs once per law, at order n-2; m_mean and m_second
    are built from that kept row, once, on the first read of either."""

    @pytest.fixture
    def ratio_rows(self, monkeypatch):
        orders = []
        original = exact._ratio_row

        def counted(m, inv_a, size):
            orders.append(m)
            return original(m, inv_a, size)

        monkeypatch.setattr(exact, "_ratio_row", counted)
        return orders

    def test_rung_reads_one_row(self, ratio_rows):
        run_rung(case_by_id("fixed-C"), 64)
        assert ratio_rows == [62]

    def test_bound_and_covariance_read_one_row(self, ratio_rows):
        run_rung(case_by_id("fixed-C"), 64, bound=True)
        assert ratio_rows == [62]
        ratio_rows.clear()
        pair_covariance(POINT_A, 64)
        assert ratio_rows == [62]

    def test_second_read_builds_nothing(self, ratio_rows):
        law = build_joint_law(POINT_A, 64)
        m_mean = law.m_mean
        assert ratio_rows == [62]
        assert law.m_mean is m_mean and law.m_second is law.m_second
        assert ratio_rows == [62]


class TestMoments:
    def test_order_zero(self):
        law = build_joint_law(POINT_A, 10)
        assert moment(law, 0.5, 0) == 1.0

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_odd_orders_vanish(self, k):
        law = build_joint_law(POINT_A, 25)
        assert moment(law, 0.5, k) == 0.0

    def test_against_brute_force(self):
        params, n, gamma = POINT_A, 4, 0.5
        law = build_joint_law(params, n)
        for k in (2, 4, 6):
            assert abs(moment(law, gamma, k) - brute_moment(params, n, gamma, k)) < 1e-12

    @pytest.mark.parametrize("n", [64, 1024, 8192])
    def test_bit_identical_to_plain_fsum(self, n):
        # fsum is correctly rounded and the terms are exactly even, so twice
        # the sum over s > 0 is the plain fsum over all 2n + 1 terms, built
        # by the same rule: w^2 once, then k/2 products of P(s) by it.  The
        # order fsum is fed in changes only its cost, so the reference is fed
        # largest first too (in s order it takes ten times as long at
        # n = 8192).  Odd orders are exactly 0 by symmetry
        for case in case_catalog():
            law = build_joint_law(params_at(case, n), n)
            w = law.w_values(case.gamma)
            w2 = w * w
            terms = law.s_probs * w2
            for k in range(1, 13):
                got = moment(law, case.gamma, k)
                if k % 2:
                    assert got == 0.0, (case.case_id, k)
                else:
                    assert got == math.fsum(np.sort(terms)[::-1].tolist()), (case.case_id, k)
                    terms = terms * w2

    @pytest.mark.parametrize("n", [64, 1024])
    def test_terms_exactly_even(self, n):
        # the terms at -s and s agree bit for bit; numpy's power does not
        # keep that ((-w)**4 != w**4 on 45 of the 1024 pairs of the fixed-C
        # lattice s / n^(5/6) at n = 1024), and a moment doubled from s > 0
        # would then differ from the sum over all s
        for case in case_catalog():
            law = build_joint_law(params_at(case, n), n)
            w = law.w_values(case.gamma)
            for k in range(2, 13, 2):
                terms = exact._moment_terms(law.s_probs, w, k)
                assert terms[n - 1 :: -1].tobytes() == terms[n + 1 :].tobytes(), (case.case_id, k)

    @pytest.mark.parametrize("n", [64, 1024])
    @pytest.mark.parametrize("region", sorted(REGION_REPS))
    def test_against_mpmath_on_the_laws_own_probs(self, region, n):
        # With P(s) and D = n^(1-gamma) taken as exact, a term P(s) (s/D)^k
        # passes 2k roundings (w = s/D, raised to the k-th; w w, to the
        # (k/2)-th; the k/2 products), every term has one sign, and fsum
        # rounds once more: so the moment is within gamma_(2k+1) =
        # (2k+1) u / (1 - (2k+1) u) of the 40-digit sum, relatively.  A
        # rounding below the normal range adds at most 2^-1075 instead, at
        # most 2k per term, later scaled by at most max(1, w_n)^k
        import mpmath as mp

        params, gamma = REGION_REPS[region]
        law = build_joint_law(params, n)
        D = float(n) ** (1.0 - gamma)
        u = 2.0**-53
        with mp.workdps(40):
            w = [mp.mpf(s) / mp.mpf(D) for s in range(1, n + 1)]
            probs = [mp.mpf(p) for p in law.s_probs[n + 1 :].tolist()]
            for k in range(2, 13, 2):
                want = 2 * mp.fsum(p * x**k for p, x in zip(probs, w))
                g = (2 * k + 1) * u / (1.0 - (2 * k + 1) * u)
                tiny = 2 * n * 2 * k * 2.0**-1075 * max(1.0, n / D) ** k
                got = moment(law, gamma, k)
                assert abs(mp.mpf(got) - want) <= g * want + tiny, (k, got, want)

    def test_bound_rung_sums_each_moment_once(self, monkeypatch):
        # run_rung sums E[W^2], E[W^4] and E[W^6]; evaluate_bound's E[W^2]
        # and drift moments read the law's kept doubles
        orders = []
        terms = exact._moment_terms

        def counted(probs, w, k):
            orders.append(k)
            return terms(probs, w, k)

        monkeypatch.setattr(exact, "_moment_terms", counted)
        for case_id in ("fixed-A", "fixed-C", "C6.1.b+"):
            orders.clear()
            run_rung(case_by_id(case_id), 256, bound=True)
            assert sorted(orders) == [2, 4, 6], case_id

    def test_kept_moment_is_a_fresh_sum(self):
        # each (gamma, k) is its own entry, and a second read returns the
        # double a fresh law sums
        law = build_joint_law(POINT_A, 1024)
        first = {(gamma, k): moment(law, gamma, k) for gamma in (0.25, 0.5) for k in (2, 4, 6)}
        assert len(set(first.values())) == len(first)
        fresh = build_joint_law(POINT_A, 1024)
        for (gamma, k), value in first.items():
            assert moment(law, gamma, k) == value == moment(fresh, gamma, k), (gamma, k)

    def test_validation(self):
        law = build_joint_law(POINT_A, 10)
        with pytest.raises(ValidationError):
            moment(law, 0.7, 2)
        with pytest.raises(ValidationError):
            moment(law, 0.5, 13)


class TestKolmogorov:
    def test_point_mass_far_left(self):
        law = build_joint_law(POINT_A, 12)
        far = float(law.w_values(0.5)[0]) - 10.0
        cdf = lambda t: np.where(np.asarray(t) >= far, 1.0, 0.0)
        assert kolmogorov_distance(law, 0.5, cdf) == 1.0

    def test_scalar_only_cdf_rejected(self):
        law = build_joint_law(POINT_A, 12)
        with pytest.raises(ValidationError):
            kolmogorov_distance(law, 0.5, lambda t: 0.5 * math.erfc(-t / math.sqrt(2.0)))

    def test_wrong_shape_cdf_rejected(self):
        law = build_joint_law(POINT_A, 12)
        with pytest.raises(ValidationError):
            kolmogorov_distance(law, 0.5, lambda t: 0.5)

    def test_matches_dense_grid_scan(self):
        # n = 6 law against the standard normal, oracle = 1e6-point sup scan
        law = build_joint_law(POINT_A, 6)
        d = kolmogorov_distance(law, 0.5, norm.cdf)
        w = law.w_values(0.5)
        scan = grid_scan_kolmogorov(
            w, law.s_probs, norm.cdf, float(w[0]) - 1.0, float(w[-1]) + 1.0
        )
        assert scan <= d + 1e-12  # the scan can only undershoot the sup
        assert abs(d - scan) < 1e-9


class TestHubbardStratonovich:
    @pytest.mark.parametrize("n", [64, 256, 1024, 4096])
    @pytest.mark.parametrize("region", sorted(REGION_REPS))
    def test_identity_at_rounding_level(self, region, n):
        params, gamma = REGION_REPS[region]
        assert hs_check(params, n, gamma) < 1e-13

    @pytest.mark.parametrize("n", [8, 16, 64, 256, 1024, 4096])
    @pytest.mark.parametrize("region", sorted(REGION_REPS))
    def test_banded_sum_matches_dense_oracle(self, region, n):
        params, gamma = REGION_REPS[region]
        law, c, m, R, J = _hs_lattice(params, n, gamma)
        D = float(n) ** (1.0 - gamma)
        w, sigma = law.w_values(gamma), c / (R * D)
        # hs_check's points (at n = 8 and 16 they run past both ends of the
        # lattice), then points whose bands run past either end of it
        wide = math.ceil((w[-1] + 2.0 * exact._HS_CUTOFF * sigma) * R * D / m)
        for top in (J, wide):
            ts = np.arange(-top * m, top * m + 1, m) / (R * D)
            banded = exact._smoothed_lattice_cdf(law.s_probs, c, m, R, top)
            dense = dense_smoothed_cdf(w, law.s_probs, sigma, ts)
            assert np.abs(banded - dense).max() < 1e-14

    @pytest.mark.parametrize("region", sorted(REGION_REPS))
    def test_normal_cdfs_only_inside_the_band(self, region, monkeypatch):
        params, gamma = REGION_REPS[region]
        calls = []
        erfc = math.erfc

        def counting_erfc(x):
            calls.append(x)
            return erfc(x)

        monkeypatch.setattr(math, "erfc", counting_erfc)
        for n in (1024, 4096):
            law, c, m, R, J = _hs_lattice(params, n, gamma)
            band = 2 * int(exact._HS_CUTOFF * c) + 1
            calls.clear()
            hs_check(params, n, gamma)
            assert len(calls) == band
            for points in (1, 100):  # one table, whatever the number of points
                calls.clear()
                exact._smoothed_lattice_cdf(law.s_probs, c, m, R, points)
                assert len(calls) == band

    @pytest.mark.parametrize("region", sorted(REGION_REPS))
    def test_rowmajor_quadrature_and_plain_exp_bit_identical(self, region, monkeypatch):
        params, gamma = REGION_REPS[region]
        got = hs_check(params, 1024, gamma)
        monkeypatch.setattr(exact, "_segment_integrals", rowmajor_segment_integrals)
        monkeypatch.setattr(exact, "_exp_nonzero", np.exp)
        assert got == hs_check(params, 1024, gamma)

    def test_g_density_working_set(self):
        # the G-density's kernel holds at most twelve (6, _BLOCK) node
        # arrays at once (G_eval's chain) beside four arrays over the grid's
        # cells, fewer than 8192 at n = 1024; one pass over all cells held
        # 2.3 MB
        hs_check(POINT_A, 64, 0.5)
        cells = 8192
        assert traced_peak(lambda: hs_check(POINT_A, 1024, 0.5)) <= 8 * (
            4 * cells + 12 * 6 * density._BLOCK)

    @pytest.mark.parametrize("K, n, gamma", [(1e8, 1024, 0.25), (1e10, 64, 0.5),
                                             (1e14, 64, 0.5), (1e17, 64, 0.5)])
    def test_vanishing_g_density_is_a_computation_error(self, K, n, gamma):
        # the wells of exp(-n G) are narrower than a cell, so its total is 0
        with pytest.raises(ComputationError, match="G-density"):
            hs_check(ModelParams(1.0, K), n, gamma)

    @pytest.mark.parametrize("K, n, match", [
        (1e10, 64, "has total 0 on its grid"),  # the zero-total branch
        (1e8, 64, "n G rises by"),  # the well test, with a positive total
    ])
    def test_each_refusal_names_its_branch(self, K, n, match):
        with pytest.raises(ComputationError, match=match):
            hs_check(ModelParams(1.0, K), n, 0.5)

    def test_lattice_past_the_limit_is_refused_before_allocating(self, monkeypatch):
        # K = 1e-10 at n = 64 needs 1.9e7 entries, past the 2^22 floor; the
        # guard must come before the lattice and its normal-CDF table
        def no_erfc(x):
            raise AssertionError("the normal-CDF table was built")

        monkeypatch.setattr(math, "erfc", no_erfc)
        with pytest.raises(ComputationError, match="lattice of 1.87e"):
            hs_check(ModelParams(1.0, 1e-10), 64, 0.5)

    def test_well_wider_than_a_lattice_cell_is_resolved(self):
        # the wells at x = +-1 have width n^gamma / sqrt(n G'') ~ 0.22, below
        # the 0.25 of 4096 uniform cells on [-hi, hi]; the points' lattice,
        # refined by the least integer that keeps cells within that, has
        # cells of 0.17 and resolves them
        assert hs_check(ModelParams(1.0, 10.0), 4096, 0.5) < 1e-12

    def test_both_cdfs_symmetric(self):
        # symmetry of the smoothed law: P(W+Y <= -t) + P(W+Y <= t) = 1
        params, n, gamma = POINT_A, 128, 0.5
        law = build_joint_law(params, n)
        from scipy.special import ndtr

        w = law.w_values(gamma)
        sigma = 1.0 / math.sqrt(params.two_beta_K * n ** (1.0 - 2.0 * gamma))
        for t in (0.3, 1.1):
            up = float(law.s_probs @ ndtr((t - w) / sigma))
            dn = float(law.s_probs @ ndtr((-t - w) / sigma))
            assert abs(up + dn - 1.0) < 1e-10


class TestPairCovariance:
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_matches_brute_force(self, n):
        for params in (POINT_A, ModelParams(2.0, 1.2)):
            got = pair_covariance(params, n)
            want = brute_pair_covariance(params, n)
            assert abs(got - want) < 1e-12

    def test_single_spin_rejected(self):
        with pytest.raises(ValidationError, match="n >= 2"):
            pair_covariance(POINT_A, 1)

    def test_region_a_against_mpmath(self):
        # The covariance is (V - y) / (n(n-1)), V = Var(M), y = n q (1 - q),
        # and in region A V and y cancel to ~1e-4 of either.  Three budgets,
        # each over |V - y|:
        # - with E[M|s] and E[M^2|s] rounded once to doubles, each
        #   conditional variance E[M^2|s] - E[M|s]^2 is off by up to
        #   4 u E[M|s]^2 (E[M^2|s] rounded, E[M|s] rounded, doubled by the
        #   square, the square rounded), so V by 4 u E[E[M|s]^2];
        # - P(s) is a running product of n ratios, so off by up to n u
        #   relatively, which moves V - y by up to n u (V + |1 - 2q| E[M]);
        # - every other rounding, the N = 2n + 1 term sums and q(1 - q)
        #   included, is relative to V or y, at most
        #   (log2 N + 6) u (1 + q/(1-q)), so it is magnified by the final
        #   subtraction's condition number (V + y) / |V - y|.
        # The bound reads 1.1e-8 here.  The reference stays at 40 digits
        # from the mpmath law through the cancellation
        import mpmath as mp

        n, u = 4096, 2.0**-53
        with mp.workdps(40):
            probs, m_mean, m_second = mpmath_joint_law(POINT_A, n, rounded=False)
            mult = [1] + [2] * n  # s and -s share P(s) and the moments of M
            em = mp.fsum(c * p * m for c, p, m in zip(mult, probs, m_mean))
            em2 = mp.fsum(c * p * m for c, p, m in zip(mult, probs, m_second))
            mean_sq = mp.fsum(c * p * m * m for c, p, m in zip(mult, probs, m_mean))
            q = em / n
            var, y = em2 - em**2, n * q * (1 - q)
            want = float((var - y) / (n * (n - 1)))
            per_slice = 4 * u * mean_sq
            from_probs = n * u * (var + abs(1 - 2 * q) * em)
            final = (math.log2(2 * n + 1) + 6) * u * (1 + q / (1 - q)) * (var + y)
            tol = float((per_slice + from_probs + final) / abs(var - y)) + 3 * u
        assert abs(pair_covariance(POINT_A, n) - want) <= tol * abs(want)

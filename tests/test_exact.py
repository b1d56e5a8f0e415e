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
    brute_force_law,
    brute_moment,
    brute_pair_covariance,
    dense_smoothed_cdf,
    enumerated_joint_law,
    grid_scan_kolmogorov,
    mpmath_joint_law,
    rowmajor_segment_integrals,
    traced_peak,
    tv_distance,
)

POINT_A = ModelParams(1.0, 0.6)

# the six-point parameter set used throughout the exhaustive cross-checks
TEST_PARAMS = [
    ModelParams(1.0, 0.6),
    ModelParams(1.0, critical_K(1.0)),
    ModelParams(BETA_C, critical_K(BETA_C)),
    ModelParams(0.5, 0.3),
    ModelParams(1.0, 1.5),
    ModelParams(2.0, 1.2),
]

# the smoothing-identity regions: (params, gamma) for A, B and C
HS_REGIONS = {
    "A": (POINT_A, 0.5),
    "B": (ModelParams(1.0, critical_K(1.0)), 0.25),
    "C": (ModelParams(BETA_C, critical_K(BETA_C)), 1.0 / 6.0),
}


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

    @pytest.mark.parametrize("n", [2, 5, 8])
    @pytest.mark.parametrize("params", TEST_PARAMS, ids=str)
    def test_matches_brute_force(self, params, n):
        law = build_joint_law(params, n)
        assert tv_distance(law.atoms(), brute_force_law(params, n)) < 1e-12

    def test_normalised_and_symmetric(self):
        law = build_joint_law(POINT_A, 40)
        total = math.fsum(law.atoms().values())
        assert abs(total - 1.0) < 1e-12
        for s in range(1, 41):
            np.testing.assert_array_equal(law.slice_probs(s), law.slice_probs(-s))

    def test_cap(self):
        with pytest.raises(CapExceededError):
            build_joint_law(POINT_A, 101, cap=100)
        with pytest.raises(ValidationError):
            build_joint_law(POINT_A, 0)
        with pytest.raises(ValidationError):
            build_joint_law(ModelParams(700.0, 0.5), 4)

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
    @pytest.mark.parametrize("params", TEST_PARAMS, ids=str)
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
        [(ModelParams(BETA_C, critical_K(BETA_C)), 4096), (ModelParams(2.0, 1.2), 4096)]
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


class TestLazyCountRows:
    """P(s) reads only the ratio row of order n; the rows of orders n-1 and
    n-2 are built once, on the first read of m_mean or m_second."""

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
        assert ratio_rows == [64]

    def test_bound_and_covariance_read_three(self, ratio_rows):
        run_rung(case_by_id("fixed-C"), 64, bound=True)
        assert sorted(ratio_rows) == [62, 63, 64]
        ratio_rows.clear()
        pair_covariance(POINT_A, 64)
        assert sorted(ratio_rows) == [62, 63, 64]

    def test_second_read_builds_nothing(self, ratio_rows):
        law = build_joint_law(POINT_A, 64)
        m_mean = law.m_mean
        assert len(ratio_rows) == 3
        assert law.m_mean is m_mean and law.m_second is law.m_second
        assert len(ratio_rows) == 3


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
        # fsum is correctly rounded, so feeding the terms largest first
        # changes its cost, never its result.  Odd orders are exactly 0 by
        # symmetry (a plain sum would leave rounding noise: numpy's
        # vectorised power does not always give (-x)**k == -(x**k))
        for case in case_catalog():
            law = build_joint_law(params_at(case, n), n)
            w = law.w_values(case.gamma)
            for k in range(1, 13):
                got = moment(law, case.gamma, k)
                if k % 2:
                    assert got == 0.0, (case.case_id, k)
                else:
                    assert got == math.fsum((law.s_probs * w**k).tolist()), (case.case_id, k)

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
    @pytest.mark.parametrize(
        "params,gamma",
        [
            (POINT_A, 0.5),
            (ModelParams(1.0, critical_K(1.0)), 0.25),
            (ModelParams(BETA_C, critical_K(BETA_C)), 1.0 / 6.0),
        ],
        ids=["A", "B", "C"],
    )
    def test_identity_small_error_at_1024(self, params, gamma):
        assert hs_check(params, 1024, gamma) < 1e-3

    @pytest.mark.parametrize("n", [64, 256, 1024, 4096])
    @pytest.mark.parametrize("region", sorted(HS_REGIONS))
    def test_identity_at_rounding_level(self, region, n):
        params, gamma = HS_REGIONS[region]
        assert hs_check(params, n, gamma) < 1e-13

    @pytest.mark.parametrize("n", [8, 16, 64, 256, 1024, 4096])
    @pytest.mark.parametrize("region", sorted(HS_REGIONS))
    def test_banded_sum_matches_dense_oracle(self, region, n):
        params, gamma = HS_REGIONS[region]
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

    @pytest.mark.parametrize("region", sorted(HS_REGIONS))
    def test_normal_cdfs_only_inside_the_band(self, region, monkeypatch):
        params, gamma = HS_REGIONS[region]
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

    @pytest.mark.parametrize("region", sorted(HS_REGIONS))
    def test_rowmajor_quadrature_and_plain_exp_bit_identical(self, region, monkeypatch):
        params, gamma = HS_REGIONS[region]
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
        # the two O(1) terms cancel to a covariance of ~1e-8, so every
        # rounding in the per-slice moments is magnified ~1e8; the reference
        # stays at 40 digits from the mpmath law through the cancellation
        import mpmath as mp

        n = 4096
        with mp.workdps(40):
            probs, m_mean, m_second = mpmath_joint_law(POINT_A, n, rounded=False)
            mult = [1] + [2] * n  # s and -s share P(s) and the moments of M
            em = mp.fsum(c * p * m for c, p, m in zip(mult, probs, m_mean))
            em2 = mp.fsum(c * p * m for c, p, m in zip(mult, probs, m_second))
            want = float((em2 - em) / (n * (n - 1)) - (em / n) ** 2)
        assert abs(pair_covariance(POINT_A, n) - want) <= 3e-8 * abs(want)

    def test_region_a_scaling(self):
        # |Cov| * n stays bounded in the single-phase region (min(4g,1) = 1)
        vals = [abs(pair_covariance(POINT_A, n)) * n for n in (64, 256, 1024, 4096)]
        assert max(vals) <= 10.0 * vals[0]

    def test_tricritical_scaling(self):
        # gamma = 1/6 so the derivative bound scales like n^(2/3)
        params = ModelParams(BETA_C, critical_K(BETA_C))
        vals = [
            abs(pair_covariance(params, n)) * n ** (2.0 / 3.0)
            for n in (64, 256, 1024, 4096)
        ]
        assert max(vals) <= 10.0 * vals[0]

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import norm

from begrates import density as density_module
from begrates.cases import case_by_id, case_catalog, comparison_density, params_at
from begrates.density import (
    density_from_regression,
    estimate_stein_constants,
    normalize_density,
)
from begrates.errors import EnvelopeGridError, NonIntegrableDensityError, ValidationError
from begrates.exact import build_joint_law, kolmogorov_distance, moment
from oracles import (
    gaussian_stein_solution,
    plain_exp_poly_integrand,
    quad_cdf,
    quad_norm,
    rowmajor_segment_integrals,
    scan_stein_constants,
    stein_solution,
    traced_peak,
    whole_segment_integrals,
)

# one case per comparison-density shape: Gaussian, quartic, sextic and the
# mixed and double-well boundary shapes
SHAPE_CASES = ("fixed-A", "fixed-B", "fixed-C", "B1.k+", "B1.k-", "C1.k+b-", "C1.k-b-",
               "C6.1.b+", "C6.1.b-", "C7.1.k+", "C7.1.k-")


@pytest.fixture(scope="module")
def shape_densities():
    """The comparison densities of SHAPE_CASES at n = 64."""
    n = 64
    out = {}
    for case_id in SHAPE_CASES:
        case = case_by_id(case_id)
        law = build_joint_law(params_at(case, n), n)
        out[case_id] = comparison_density(case, n, {k: moment(law, case.gamma, k) for k in (2, 4, 6)})
    return out


# Gaussian, quartic, sextic, three double wells, a very wide and a very
# narrow Gaussian, a narrow sextic and a mixed shape
TABLE_SHAPES = [(0.5, 0.0, 0.0), (0.0, 0.25, 0.0), (0.0, 0.0, 0.2), (-1.0, 0.5, 0.0),
                (-1.0, 0.0, 1.0), (0.5, -2.0, 1.0), (1e-3, 0.0, 0.0), (50.0, 0.0, 0.0),
                (0.0, 0.0, 200.0), (-3.0, 0.5, 0.02)]

# a double well whose barrier is past the envelope floor, a shallow and a
# steep double well, a narrow Gaussian and a very wide mixed shape
EDGE_SHAPES = [(0.0, -20.0, 1.0), (-5.0, 0.0, 1.0), (-40.0, 1.0, 0.0), (100.0, 0.0, 0.0),
               (1e-12, 0.0, 1e-12)]


def _power_form(y, b1, b2, b3):
    return b1 * y + b2 * y * y + b3 * y * y * y


class TestNormalization:
    def test_standard_normal(self):
        d = normalize_density(0.5, 0.0, 0.0)
        assert abs(d.log_norm - math.log(math.sqrt(2.0 * math.pi))) < 1e-12
        assert abs(d.moment(2) - 1.0) < 1e-10

    def test_pure_quartic_fourth_moment(self):
        # E[X^4] = 1/(4c) for exp(-c x^4): Gamma(5/4) = Gamma(1/4)/4
        c = 9.0 / 40.0
        d = normalize_density(0.0, c, 0.0)
        assert abs(d.moment(4) - 1.0 / (4.0 * c)) < 1e-10

    def test_pure_sextic_sixth_moment(self):
        c = 9.0 / 40.0
        d = normalize_density(0.0, 0.0, c)
        assert abs(d.moment(6) - 1.0 / (6.0 * c)) < 1e-10

    def test_double_well(self):
        d = normalize_density(-1.0, 0.0, 1.0)
        assert abs(d.cdf(0.0) - 0.5) < 1e-12
        xs = np.linspace(-2.0, 2.0, 9)
        np.testing.assert_allclose(d.pdf(xs), d.pdf(-xs), rtol=1e-14)

    def test_negative_quartic_with_sextic(self):
        d = normalize_density(0.5, -2.0, 1.0)
        assert abs(d.cdf(0.0) - 0.5) < 1e-12

    def test_mass_is_one(self):
        for coeffs in ((0.5, 0, 0), (0, 0.25, 0), (0, 0, 0.2), (-1, 0, 1), (1, 2, 3)):
            d = normalize_density(*coeffs)
            assert abs(d.cdf(d.truncation) - 1.0) < 1e-10
            assert abs(d.moment(0) - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "coeffs", [(0.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (1.0, -1.0, 0.0), (0.0, 1.0, -1.0)]
    )
    def test_nonintegrable_rejected(self, coeffs):
        with pytest.raises(NonIntegrableDensityError):
            normalize_density(*coeffs)


class TestCdfAndMoments:
    def test_cdf_midpoint_and_symmetry(self):
        d = normalize_density(0.3, 0.1, 0.05)
        assert abs(d.cdf(0.0) - 0.5) < 1e-10
        for t in (0.4, 1.3, 2.5):
            assert abs(d.cdf(-t) - (1.0 - d.cdf(t))) < 1e-10

    def test_gaussian_quantile(self):
        d = normalize_density(0.5, 0.0, 0.0)
        # error-function oracle for the 97.5% point
        assert abs(d.cdf(1.959964) - norm.cdf(1.959964)) < 1e-10
        assert abs(d.cdf(1.959964) - 0.975) < 1e-6

    def test_cdf_monotone_and_clamped(self):
        d = normalize_density(0.0, 0.0, 0.225)
        ts = np.linspace(-12.0, 12.0, 301)
        vals = d.cdf(ts)
        assert np.all(np.diff(vals) >= -1e-15)
        assert vals[0] == 0.0 and vals[-1] == 1.0

    def test_odd_moments_zero(self):
        d = normalize_density(0.2, 0.3, 0.0)
        assert d.moment(1) == 0.0
        assert d.moment(5) == 0.0

    # exp(-b x^p) on a grid of half-width ~1e50..1e150, with the first even
    # order whose moment b^(-k/p) Gamma((k+1)/p) / Gamma(1/p) is past the
    # double range: every lower moment is a double, however far x^k on the
    # grid is past the range
    @pytest.mark.parametrize("coeffs,power,order", [
        ((1e-300, 0.0, 0.0), 2, 4), ((1e-100, 0.0, 0.0), 2, 8), ((0.0, 1e-200, 0.0), 4, 8),
        ((0.0, 0.0, 1e-300), 6, 8)], ids=str)
    def test_moment_past_the_double_range_raises(self, coeffs, power, order):
        d = normalize_density(*coeffs)
        b = max(coeffs)
        for k in range(2, order, 2):
            closed = (-k / power * math.log(b) + math.lgamma((k + 1) / power)
                      - math.lgamma(1 / power))
            assert math.log(d.moment(k)) == pytest.approx(closed, abs=1e-9), k
        with pytest.raises(NonIntegrableDensityError, match=rf"E\[X\^{order}\]"):
            d.moment(order)

    def test_negative_moment_order_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            normalize_density(0.5, 0.0, 0.0).moment(-2)

    def test_gaussian_even_moments(self):
        # N(0, s^2): E[X^4] = 3 s^4, E[X^6] = 15 s^6
        s2 = 1.7
        d = normalize_density(1.0 / (2.0 * s2), 0.0, 0.0)
        assert abs(d.moment(2) - s2) < 1e-9
        assert abs(d.moment(4) - 3.0 * s2**2) < 1e-8
        assert abs(d.moment(6) - 15.0 * s2**3) < 1e-7

    def test_psi_matches_log_derivative(self):
        d = normalize_density(0.4, 0.2, 0.1)
        for x in np.linspace(-2.0, 2.0, 17):
            fd = (d.logpdf(x + 5e-7) - d.logpdf(x - 5e-7)) / 1e-6
            assert abs(d.psi(x) - fd) < 1e-6

    @pytest.mark.parametrize("coeffs", [(0.5, 0.0, 0.0), (0.0, 0.25, 0.0), (0.3, 0.1, 0.05),
                                        (-1.0, 0.0, 1.0), (0.5, -2.0, 1.0), (-0.4, 0.3, 0.0)])
    def test_horner_poly_and_psi_match_power_form(self, coeffs):
        b1, b2, b3 = coeffs
        d = normalize_density(*coeffs)
        xs = np.linspace(-4.0, 4.0, 2001)
        power = b1 * xs * xs + b2 * xs**4 + b3 * xs**6
        scale = abs(b1) * xs * xs + abs(b2) * xs**4 + abs(b3) * xs**6  # absolute near zeros
        assert np.all(np.abs(d.poly(xs) - power) <= 1e-13 * scale)
        dpower = -(2.0 * b1 * xs + 4.0 * b2 * xs**3 + 6.0 * b3 * xs**5)
        dscale = np.abs(2.0 * b1 * xs) + np.abs(4.0 * b2 * xs**3) + np.abs(6.0 * b3 * xs**5)
        assert np.all(np.abs(d.psi(xs) - dpower) <= 1e-13 * dscale)

    @pytest.mark.parametrize("case_id", SHAPE_CASES)
    def test_horner_normalisation_matches_power_form(self, case_id, shape_densities, monkeypatch):
        d = shape_densities[case_id]
        got = {k: d.moment(k) for k in (2, 4, 6)}
        monkeypatch.setattr(density_module, "_poly_of_square", _power_form)
        ref = normalize_density(d.b1, d.b2, d.b3)
        assert abs(d.log_norm - ref.log_norm) <= 1e-12 * max(1.0, abs(ref.log_norm))
        for k in (2, 4, 6):
            assert abs(got[k] - ref.moment(k)) <= 1e-12 * ref.moment(k)

    def test_cdf_at_sorted_agrees_with_scalar(self):
        d = normalize_density(0.1, 0.0, 0.02)
        ts = np.linspace(-3.0, 3.0, 41)
        batch = d.cdf_at_sorted(ts)
        single = np.array([d.cdf(float(t)) for t in ts])
        np.testing.assert_allclose(batch, single, atol=1e-11)


class TestCumulativeTable:
    """One 6-point rule per grid cell serves the table, the partial cell of a
    CDF query and the moments.  The table is the only source of the CDF
    (``cdf_at_sorted`` is ``cdf``), of the survival function and of the
    normalising constant."""

    @pytest.mark.parametrize("coeffs", TABLE_SHAPES, ids=str)
    def test_table_matches_adaptive_quadrature(self, coeffs):
        # the 1e-9 total check alone passes a midpoint-rule table whose CDF
        # is off by ~8e-7; this catches a 2-point rule (~8e-13)
        d = normalize_density(*coeffs)
        sd = math.sqrt(d.moment(2))
        idx = np.searchsorted(d._grid, np.linspace(-3.0 * sd, 3.0 * sd, 13))
        want = quad_cdf(*coeffs, d.truncation, d._grid[idx])
        assert np.abs(d._cdf[idx] - want).max() <= 1e-13
        assert np.abs(d.cdf(-d._grid[idx]) - (1.0 - want)).max() <= 1e-13

    @pytest.mark.parametrize("coeffs", TABLE_SHAPES, ids=str)
    def test_matches_a_24_point_build(self, coeffs, monkeypatch):
        # the cells are narrow enough that 24 points change only the last digits
        d = normalize_density(*coeffs)
        ts = np.linspace(-3.0, 3.0, 41) * math.sqrt(d.moment(2))
        got = {k: d.moment(k) for k in (2, 4, 6)}
        got_cdf = d.cdf(ts)
        monkeypatch.setattr(density_module, "_GL6", np.polynomial.legendre.leggauss(24))
        ref = normalize_density(*coeffs)
        assert np.abs(d._cdf - ref._cdf).max() <= 1e-15
        assert np.abs(got_cdf - ref.cdf(ts)).max() <= 1e-15
        assert abs(d.log_norm - ref.log_norm) <= 4e-15 * abs(ref.log_norm)
        for k in (2, 4, 6):
            assert abs(got[k] - ref.moment(k)) <= 4e-15 * ref.moment(k)

    def test_normal_right_tail(self):
        # the right tail is read from small cells on the left, so it keeps
        # its relative accuracy far beyond 1 - CDF
        d = normalize_density(0.5, 0.0, 0.0)
        xs = np.array([3.0, 5.0, 10.0, 20.0, 30.0])
        want = ndtr(-xs)
        assert np.all(np.abs(d.cdf(-xs) - want) <= 1e-12 * want)

    @pytest.mark.parametrize("case_id,n", [("C3.2", 128), ("C3.1", 128), ("B2.1", 64)])
    def test_kolmogorov_distance_against_adaptive_quadrature(self, case_id, n):
        case = case_by_id(case_id)
        law = build_joint_law(params_at(case, n), n)
        d = comparison_density(case, n, {k: moment(law, case.gamma, k) for k in (2, 4, 6)})
        want = kolmogorov_distance(law, case.gamma,
                                   lambda xs: quad_cdf(d.b1, d.b2, d.b3, d.truncation, xs))
        assert abs(kolmogorov_distance(law, case.gamma, d.cdf_at_sorted) - want) <= 1e-13


@pytest.fixture(scope="module")
def catalog_atoms():
    """(b1, b2, b3) of every comparison density of the catalog at n = 64 and
    256, each with the atoms of W of its law."""
    out = {}
    for case in case_catalog():
        for n in (64, 256):
            law = build_joint_law(params_at(case, n), n)
            d = comparison_density(case, n, {k: moment(law, case.gamma, k) for k in (2, 4, 6)})
            out[(d.b1, d.b2, d.b3)] = law.w_values(case.gamma)
    return out


@pytest.fixture(scope="module")
def catalog_shapes(catalog_atoms):
    return sorted(catalog_atoms)


def _norm_check_gap(coeffs) -> float:
    """Relative gap between the package's adaptive check of the norm and
    scipy's ``quad`` on the same interval, shift and break points."""
    pmin, crit = density_module._poly_minimum(*coeffs)
    T = normalize_density(*coeffs).truncation
    got = density_module._adaptive_total(density_module._poly_integrand(coeffs, pmin), T, crit)
    return abs(got / quad_norm(*coeffs, pmin, T, crit) - 1.0)


class TestNormCheck:
    """The table total is checked against an adaptive 10/21-point
    Gauss-Legendre pair; it must agree with scipy's ``quad``, keep the
    outcomes of the ``quad`` check it replaced, and still reject a table
    that is off."""

    def test_catalog_shapes_match_quad(self, catalog_shapes):
        assert len(catalog_shapes) >= 42
        assert max(_norm_check_gap(c) for c in catalog_shapes) <= 1e-12

    @pytest.mark.parametrize("coeffs", EDGE_SHAPES, ids=str)
    def test_edge_shapes_match_quad(self, coeffs):
        assert _norm_check_gap(coeffs) <= 1e-12

    def test_rejects_what_quad_rejected(self):
        # all the mass lies within 1e-150 of 0, between the rule's nodes
        with pytest.raises(NonIntegrableDensityError, match="quadrature failed"):
            normalize_density(1e300, 0.0, 0.0)
        # wells of width ~0.5 at +-7071, narrower than the table's cells, and an
        # exponent of -2.5e7 at them, whose rounding (~1e-8) the check cannot beat
        with pytest.raises(NonIntegrableDensityError):
            normalize_density(-1.0, 1e-8, 0.0)

    @pytest.mark.parametrize("coeffs", TABLE_SHAPES, ids=str)
    def test_gate_bites(self, coeffs, monkeypatch):
        # scaling the 6-point weights moves the table total, not the check
        nodes, weights = density_module._GL6
        monkeypatch.setattr(density_module, "_GL6", (nodes, weights * (1.0 + 1e-10)))
        normalize_density(*coeffs)
        monkeypatch.setattr(density_module, "_GL6", (nodes, weights * (1.0 + 1e-8)))
        with pytest.raises(NonIntegrableDensityError, match="cumulative grid disagrees"):
            normalize_density(*coeffs)

    def test_interval_cap_raises(self, monkeypatch):
        # N(0,1) starts from 32 intervals and halves a few of them once
        monkeypatch.setattr(density_module, "_NORM_LIMIT", 33)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonIntegrableDensityError, match="does not converge on 33 intervals"):
                normalize_density(0.5, 0.0, 0.0)


def _table_queries(coeffs, xs):
    """The table, log_norm, the CDF at ``xs`` and E[X^2..8] of one density."""
    d = normalize_density(*coeffs)
    return d._cdf, d.log_norm, d.cdf(xs), [d.moment(k) for k in range(2, 9, 2)]


class TestNodeMajorKernel:
    """The node-major 6-point sum, with exp skipped where it is exactly 0,
    gives the row-major sum with a plain exp bit for bit."""

    @staticmethod
    def _assert_bit_identical(coeffs, xs, monkeypatch):
        new = _table_queries(coeffs, xs)
        with monkeypatch.context() as m:
            m.setattr(density_module, "_segment_integrals", rowmajor_segment_integrals)
            m.setattr(density_module, "_poly_integrand", plain_exp_poly_integrand)
            old = _table_queries(coeffs, xs)
        assert np.array_equal(new[0], old[0])
        assert new[1] == old[1]
        assert np.array_equal(new[2], old[2])
        assert new[3] == old[3]

    def test_catalog_shapes(self, catalog_atoms, monkeypatch):
        for coeffs, atoms in catalog_atoms.items():
            self._assert_bit_identical(coeffs, atoms, monkeypatch)

    @pytest.mark.parametrize("coeffs", EDGE_SHAPES, ids=str)
    def test_edge_shapes(self, coeffs, monkeypatch):
        T = normalize_density(*coeffs).truncation
        self._assert_bit_identical(coeffs, np.linspace(-1.1 * T, 1.1 * T, 2001), monkeypatch)

    def test_skip_zero_exp_is_np_exp(self):
        tiny = np.finfo(float).tiny
        x = np.concatenate((np.linspace(-800.0, 10.0, 400001),
                            np.linspace(-746.5, math.log(tiny), 100001),  # the subnormal band
                            [-np.inf, -746.0, np.nextafter(-746.0, 0.0), -745.13, 709.0, np.inf]))
        got = density_module._exp_nonzero(x)
        assert np.array_equal(got.view(np.int64), np.exp(x).view(np.int64))
        assert np.count_nonzero((got > 0.0) & (got < tiny)) > 1000
        assert np.isnan(density_module._exp_nonzero(np.array([np.nan, -np.nan]))).all()


_BLOCK = density_module._BLOCK


class TestBlockedKernel:
    """The kernel runs over blocks of at most _BLOCK segments: its results
    are those of one pass over all segments bit for bit, and its working set
    does not grow with the segment count."""

    @pytest.mark.parametrize("rule", ["_GL6", "_GL10", "_GL21"])
    @pytest.mark.parametrize("count", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
    def test_blocks_change_no_bit(self, rule, count):
        # a double well on uneven cells, nonzero on every one
        edges = np.sort(np.random.default_rng(count).uniform(-4.0, 4.0, count + 1))
        a, b = edges[:-1], edges[1:]
        poly = density_module._poly_integrand((-3.0, 0.5, 0.02), -2.4)
        nodes_weights = getattr(density_module, rule)
        widths = []

        def integrand(Y):
            widths.append(Y.shape[1])
            return poly(Y)

        got = density_module._segment_integrals(a, b, integrand, nodes_weights)
        # no block of one segment beside others: numpy sums a (node, 1)
        # array in another order
        assert sum(widths) == count and max(widths) <= _BLOCK
        assert min(widths) >= min(count, _BLOCK // 2)
        assert np.array_equal(got, whole_segment_integrals(a, b, poly, nodes_weights))
        if rule == "_GL6":
            assert np.array_equal(got, rowmajor_segment_integrals(a, b, poly))

    @pytest.mark.parametrize("points", [6, 10, 21])
    def test_rules_are_numpys_leggauss(self, points):
        got = getattr(density_module, f"_GL{points}")
        for have, want in zip(got, np.polynomial.legendre.leggauss(points)):
            assert have.dtype == want.dtype
            assert have.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_cdf_working_set(self):
        # one query on N sorted points holds at most seven N-sized arrays
        # (points, indices, anchors, partial masses and their sums) beside
        # eight (6, _BLOCK) node arrays; one pass over all N points held
        # about 25 N-sized ones (26 MB)
        d = normalize_density(0.5, 0.0, 0.0)
        xs = np.linspace(-6.0, 6.0, 2**17 + 1)
        d.cdf(xs[:8])
        assert traced_peak(lambda: d.cdf(xs)) <= 8 * (7 * xs.size + 8 * 6 * _BLOCK)


class TestRegressionDensity:
    def test_pure_cases_reduce_to_moment_inverses(self):
        moments = {2: 0.9, 4: 2.4, 6: 11.0}
        d4 = density_from_regression((0.0, 0.7, 0.0), moments)
        assert abs(d4.b2 - 1.0 / (4.0 * moments[4])) < 1e-15
        assert d4.b1 == 0.0 and d4.b3 == 0.0
        d6 = density_from_regression((0.0, 0.0, 1.3), moments)
        assert abs(d6.b3 - 1.0 / (6.0 * moments[6])) < 1e-15
        d2 = density_from_regression((2.2, 0.0, 0.0), moments)
        assert abs(d2.b1 - 1.0 / (2.0 * moments[2])) < 1e-15

    def test_mixed_coefficients(self):
        moments = {2: 1.1, 4: 3.0, 6: 14.0}
        q = (0.5, 0.25, 0.0)
        d = density_from_regression(q, moments)
        c = q[0] * moments[2] + q[1] * moments[4]
        assert abs(d.b1 - q[0] / (2.0 * c)) < 1e-15
        assert abs(d.b2 - q[1] / (4.0 * c)) < 1e-15

    def test_negative_linear_coefficient_normalizes(self):
        # k < 0 branch: b1 < 0 with b2 > 0 still integrates
        moments = {2: 2.0, 4: 9.0, 6: 60.0}
        d = density_from_regression((-0.2, 0.3, 0.0), moments)
        assert d.b1 < 0.0 < d.b2
        assert abs(d.cdf(0.0) - 0.5) < 1e-10

    def test_nonpositive_drift_scale_rejected(self):
        with pytest.raises(NonIntegrableDensityError):
            density_from_regression((-1.0, 0.0, 0.0), {2: 1.0, 4: 1.0, 6: 1.0})


class TestSteinSolution:
    def test_matches_gaussian_closed_form(self):
        d = normalize_density(0.5, 0.0, 0.0)
        xs = np.linspace(-6.0, 6.0, 121)
        for z in (-1.2, 0.0, 0.5, 2.0):
            got = stein_solution(d, z, xs)
            want = gaussian_stein_solution(z, xs)
            assert np.abs(got - want).max() < 1e-9

    def test_continuity_and_decay(self):
        # the numerator CDF(x^z) - CDF(x)CDF(z) dies like the density; the
        # solution itself decays like 1/|psi(x)| (about 1/x for the normal)
        d = normalize_density(0.5, 0.0, 0.0)
        z = 0.5
        xs = np.linspace(-10.0, 10.0, 4001)
        f = stein_solution(d, z, xs)
        assert np.all(np.isfinite(f))
        assert np.abs(np.diff(f)).max() < 0.02  # no jumps on a 5e-3 grid
        edge = abs(float(stein_solution(d, z, 10.0)))
        assert edge <= 1.05 / abs(d.psi(10.0))
        num = d.cdf(z) * d.cdf(-10.0)
        assert num < 1e-6

    def test_ode_residual_off_the_jump(self):
        # f' + psi f = 1{x<=z} - P(z), residual bounded by numerics
        for coeffs in ((0.5, 0.0, 0.0), (0.0, 0.25, 0.0), (0.2, 0.1, 0.05)):
            d = normalize_density(*coeffs)
            z = 0.37
            pz = d.cdf(z)
            h = 1e-5
            for x in (-2.1, -0.4, 0.9, 1.7):
                fp = (stein_solution(d, z, x + h) - stein_solution(d, z, x - h)) / (2 * h)
                res = fp + d.psi(x) * stein_solution(d, z, x) - ((x <= z) - pz)
                assert abs(res) < 1e-6

    @pytest.mark.parametrize("z", [-1.2, 0.5])
    def test_past_the_floor_reads_the_tail_limit(self, z):
        # past |x| ~ 34.6, N(0, 1) is below e^-600 of its peak: f_z is read as
        # S(z)/psi left of z and -F(z)/psi right of it
        d = normalize_density(0.5, 0.0, 0.0)
        xs = np.array([-40.0, -35.0, 35.0, 40.0])
        got = stein_solution(d, z, xs)
        want = np.where(xs <= z, d.cdf(-z), -d.cdf(z)) / d.psi(xs)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("z,x", [(37.0, 36.0), (36.5, 36.4), (36.0, 35.0)])
    def test_past_the_right_floor_against_mpmath(self, z, x):
        # x <= z, both past the right floor: F(x) = 1 and f_z(x) = S(z)/p(x),
        # read as S(z)/p(z) e^(poly(x) - poly(z)); f_-z(-x) is the same value
        import mpmath as mp

        with mp.workdps(40):
            want = float(mp.ncdf(-z) * mp.ncdf(x) / mp.npdf(x))
        d = normalize_density(0.5, 0.0, 0.0)
        got = stein_solution(d, z, np.array([x]))[0]
        assert abs(got - want) <= 1e-12 * want
        assert abs(stein_solution(d, -z, -x) - want) <= 1e-12 * want

    def test_tiny_survival_times_the_left_factor(self):
        # f_36(-13.35) = S(36) F(-13.35) / p(-13.35); the product F(x) S(z)
        # alone is subnormal, so it is formed as S(z) times F/p
        import mpmath as mp

        with mp.workdps(40):
            want = float(mp.ncdf(-36) * mp.ncdf(-13.35) / mp.npdf(-13.35))
        got = stein_solution(normalize_density(0.5, 0.0, 0.0), 36.0, -13.35)
        assert abs(got - want) <= 1e-12 * want


class TestSteinConstants:
    @pytest.mark.parametrize("key", SHAPE_CASES + ("N(0,1)", "double well"))
    def test_envelope_grid_is_mirrored(self, key, shape_densities):
        # x[N-1-i] == -x[i] bit for bit, so S = F reversed on the grid
        extra = {"N(0,1)": (0.5, 0.0, 0.0), "double well": (-1.0, 0.0, 1.0)}
        d = normalize_density(*extra[key]) if key in extra else shape_densities[key]
        xs = density_module._envelope_grid(d, 0.005)
        reach = estimate_stein_constants(d).grid_spec["x_max"]
        assert xs[0] == -reach and xs[-1] == reach
        np.testing.assert_array_equal(xs, -xs[::-1])
        np.testing.assert_array_equal(d.cdf(-xs), d.cdf(xs)[::-1])

    @pytest.mark.parametrize("step", [5e-3, 1e-3])
    def test_standard_normal_envelopes_within_the_proved_bounds(self, step):
        # Chen, Goldstein & Shao (2011), Lemma 2.3: for N(0, 1) the Stein
        # solution has sup |f_z| = sqrt(2 pi)/4, attained at z = x = 0, and
        # |f_z'| <= 1 and |f_z'(x) - f_z'(y)| <= 1
        consts = estimate_stein_constants(normalize_density(0.5, 0.0, 0.0), step=step)
        assert abs(consts.d1 - math.sqrt(2.0 * math.pi) / 4.0) <= 1e-15
        assert consts.d2 <= 1.0
        assert consts.d3 <= 1.0

    def test_gaussian_envelopes(self):
        d = normalize_density(0.5, 0.0, 0.0)
        consts = estimate_stein_constants(d)
        assert consts.d1 <= math.sqrt(2.0 * math.pi) / 4.0 + 0.01
        assert abs(consts.d1 - math.sqrt(2.0 * math.pi) / 4.0) < 1e-3
        assert consts.d2 <= 1.01
        assert consts.d3 <= 2.0 * consts.d2 + 1e-12
        assert consts.grid_spec["points"] > 1000

    @staticmethod
    def _assert_matches_scan(d, step):
        got = estimate_stein_constants(d, step=step)
        want = scan_stein_constants(d, 10.0, step)
        assert got.grid_spec == want["grid_spec"]
        for key in ("d1", "d2", "d3", "d4"):
            assert abs(getattr(got, key) - want[key]) <= 1e-12 * want[key], key

    @pytest.mark.parametrize("case_id", SHAPE_CASES)
    def test_matches_full_scan_on_comparison_densities(self, case_id, shape_densities):
        self._assert_matches_scan(shape_densities[case_id], 0.02)

    @pytest.mark.parametrize("coeffs", [(0.5, 0.0, 0.0), (-1.0, 0.0, 1.0)])
    def test_matches_full_scan_at_default_step(self, coeffs):
        self._assert_matches_scan(normalize_density(*coeffs), 0.005)

    @pytest.mark.parametrize("coeffs", [(-1.0, 1e-4, 0.0), (0.0, -20.0, 1.0)], ids=str)
    def test_deep_double_well_has_no_envelope_grid(self, coeffs):
        # p(0) underflows against the wells, so no grid about 0 reaches both
        with pytest.raises(EnvelopeGridError, match="barrier at 0"):
            estimate_stein_constants(normalize_density(*coeffs))

    def test_outer_barrier_has_no_envelope_grid(self):
        # poly = 70 y (y - 4)^2, y = x^2: equal wells at 0 and +-2 behind a
        # barrier of 663.7 at +-1.1547, which a grid clipped from 0 stops inside
        with pytest.raises(EnvelopeGridError, match=r"barrier at \+-1\.1547"):
            estimate_stein_constants(normalize_density(1120.0, -560.0, 70.0))

    @staticmethod
    def _assert_grid_within_floor(d):
        # estimate_stein_constants reads A = F/p on this grid with no tail
        # rule, which holds only while p is representable at every point
        try:
            xs = density_module._envelope_grid(d, 0.005)
        except EnvelopeGridError:
            return
        assert np.max(d.poly(xs) - d.poly_min) <= density_module._LOG_FLOOR

    @settings(max_examples=200, deadline=None)
    @given(b1=st.just(0.0) | st.floats(1e-300, 200.0) | st.floats(-200.0, -1e-300),
           b2=st.just(0.0) | st.floats(1e-300, 50.0) | st.floats(-50.0, -1e-300),
           b3=st.just(0.0) | st.floats(1e-300, 10.0))
    def test_envelope_grid_stays_within_the_log_floor(self, b1, b2, b3):
        try:
            d = normalize_density(b1, b2, b3)
        except NonIntegrableDensityError:
            assume(False)
        self._assert_grid_within_floor(d)

    def test_catalog_envelope_grids_stay_within_the_log_floor(self):
        for case in case_catalog():
            for n in (64, 1024):
                law = build_joint_law(params_at(case, n), n)
                moments = {k: moment(law, case.gamma, k) for k in (2, 4, 6)}
                self._assert_grid_within_floor(comparison_density(case, n, moments))

    def test_narrow_density_grid_clipped(self):
        d = normalize_density(0.0, 0.0, 0.225)
        consts = estimate_stein_constants(d)
        assert consts.grid_spec["x_max"] < 10.0
        assert all(v > 0.0 for v in (consts.d1, consts.d2, consts.d3, consts.d4))

import math
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from begrates.cases import (
    CaseSpec,
    case_by_id,
    case_catalog,
    comparison_density,
    params_at,
    predicted_rate,
    regression_at,
)
from begrates.errors import InvalidCaseParametersError
from begrates.exact import build_joint_law, moment
from begrates.model import BETA_C, Schedule, critical_K, g_derivs_at_zero
from oracles import branch_regression_at, stein_solution, with_schedule

SIXTH, TWELFTH = 1.0 / 6.0, 1.0 / 12.0

# the Kolmogorov rate r of every catalog case at its default parameters
PAPER_RATES = {
    "fixed-A": 0.5, "fixed-B": 0.25, "fixed-C": SIXTH, "seq-A": 0.5,
    "B1.k+": 0.25, "B1.k-": 0.25, "B2.1": 0.2, "B2.2": 0.4, "B3.1": 0.1, "B3.2": 0.25,
    "C1.k+b+": SIXTH, "C1.k+b-": SIXTH, "C1.k-b+": SIXTH, "C1.k-b-": SIXTH,
    "C2.1": 0.25, "C2.2": 0.3, "C2.3": 0.4,
    "C3.1": 0.1, "C3.2": 0.14, "C3.3": 0.13, "C3.4": 0.22,
    "C4.1": 1.0 / 15.0, "C4.2": 1.0 / 30.0, "C4.3": 1.0 / 15.0, "C4.4": TWELFTH,
    "C4.5": SIXTH,
    "C5.1": 0.04, "C5.2": 0.08, "C5.3": 0.14, "C5.4": 0.22,
    "C6.1.b+": TWELFTH, "C6.1.b-": TWELFTH, "C6.2.b+": SIXTH, "C6.2.b-": SIXTH,
    "C7.1.k+": 7.0 / 60.0, "C7.1.k-": 7.0 / 60.0, "C7.2.k+": SIXTH, "C7.2.k-": SIXTH,
    "C8.1.k+": 0.14, "C8.1.k-": 0.14, "C8.2.k+": 0.22, "C8.2.k-": 0.22,
}


class TestCatalogShape:
    def test_total_count(self):
        assert len(case_catalog()) == 42

    def test_family_counts(self):
        fam = Counter(c.theorem for c in case_catalog())
        assert fam["fixed-A"] == fam["fixed-B"] == fam["fixed-C"] == fam["seq-A"] == 1
        assert sum(v for k, v in fam.items() if k in ("B1", "B2", "B3")) == 6
        assert sum(v for k, v in fam.items() if k.startswith("C")) == 32

    def test_per_theorem_counts(self):
        fam = Counter(c.theorem for c in case_catalog())
        assert fam["B1"] == 2 and fam["B2"] == 2 and fam["B3"] == 2
        assert fam["C1"] == 4 and fam["C2"] == 3 and fam["C3"] == 4
        assert fam["C4"] == 5 and fam["C5"] == 4
        assert fam["C6"] == 4 and fam["C7"] == 4 and fam["C8"] == 4

    def test_ids_unique(self):
        ids = [c.case_id for c in case_catalog()]
        assert len(set(ids)) == len(ids)

    def test_lookup_reuses_one_catalog(self):
        assert case_by_id("fixed-C") is case_by_id("fixed-C")
        assert all(case_by_id(c.case_id) is c for c in case_catalog())
        assert case_catalog() is not case_catalog()
        with pytest.raises(InvalidCaseParametersError, match="unknown case id 'nope'"):
            case_by_id("nope")

    def test_phase_speed_vanishes(self):
        # the paper's standing hypothesis: v (family B) or w (family C) is 0,
        # which every branch predicate of predicted_rate implies
        for c in case_catalog():
            g, s = c.gamma, c.schedule
            if c.theorem.startswith("B"):
                speed = min(2 * g + s.delta2 - 1.0, 4 * g - 1.0)
            elif c.theorem.startswith("C"):
                speed = min(2 * g + s.delta2 - 1.0, 4 * g + s.delta1 - 1.0, 6 * g - 1.0)
            else:
                speed = 0.0
            assert abs(speed) < 1e-12, c.case_id

    def test_rates_match_the_paper_table(self):
        got = {c.case_id: c.predicted_exponent for c in case_catalog()}
        assert got.keys() == PAPER_RATES.keys()
        for cid, r in PAPER_RATES.items():
            assert abs(got[cid] - r) < 1e-12, cid

    def test_gamma_ranges(self):
        for c in case_catalog():
            assert 0.0 < c.gamma <= 0.5


class TestPredictedRate:
    def test_b3_slow_branch(self):
        case = with_schedule(case_by_id("B3.1"), delta2=0.6)
        assert abs(predicted_rate(case) - 0.1) < 1e-12

    def test_b3_fast_branch(self):
        case = with_schedule(case_by_id("B3.1"), delta2=0.8)
        assert abs(predicted_rate(case) - 0.25) < 1e-12

    def test_b2_at_gamma_03(self):
        assert abs(predicted_rate(case_by_id("B2.1")) - 0.2) < 1e-12

    def test_c4_fast_corner(self):
        assert abs(predicted_rate(case_by_id("C4.5")) - 1.0 / 6.0) < 1e-12

    def test_invalid_parameters_rejected(self):
        with pytest.raises(InvalidCaseParametersError):
            with_schedule(case_by_id("B3.1"), delta2=0.4)  # needs delta2 > 1/2
        with pytest.raises(InvalidCaseParametersError):
            with_schedule(case_by_id("B1.k+"), delta2=0.7)  # needs delta2 = 1/2
        with pytest.raises(InvalidCaseParametersError):
            with_schedule(case_by_id("C1.k+b+"), delta1=0.5)

    @pytest.mark.parametrize("case_id", ["C5.1", "C8.1.k+"])
    def test_c5_c8_need_positive_b(self, case_id):
        # with b < 0 a rung's comparison density cannot be normalised
        with pytest.raises(InvalidCaseParametersError, match="b > 0"):
            with_schedule(case_by_id(case_id), b=-1.0)


def _ladder_rate(theorem, g, d1, d2):
    """The B2, B3, C2 and C3 rates as if/else ladders over the theorems'
    sub-branches, the form they had before they were stated as minima."""
    if theorem == "B2":
        return 4 * g - 1.0 if g <= 1.0 / 3.0 else g
    if theorem == "B3":
        return d2 - 0.5 if d2 < 0.75 else 0.25
    if theorem == "C2":
        if g >= 1.0 / 3.0:
            return g
        return 4 * g + d1 - 1.0 if d1 < 1 - 3 * g else g
    if g <= 0.2:
        return 4 * g + d1 - 1.0 if d1 < 2 * g else 6 * g - 1.0
    return 4 * g + d1 - 1.0 if d1 < 1 - 3 * g else g


def _open(lo, hi):
    return st.floats(lo, hi, exclude_min=True, exclude_max=True)


# (gamma, delta1, delta2) inside each theorem's branch predicate
_BRANCH_PARAMS = {
    "B2": _open(0.25, 0.5).map(lambda g: (g, 1.0, 1.0 - 2 * g)),
    "B3": _open(0.5, 2.0).map(lambda d2: (0.25, 1.0, d2)),
    "C2": st.tuples(_open(0.25, 0.5), _open(0.0, 2.0)).map(
        lambda t: (t[0], t[1], 1.0 - 2 * t[0])),
    "C3": st.tuples(st.floats(1.0 / 6.0, 0.25, exclude_min=True), _open(0.0, 2.0)).map(
        lambda t: (t[0], 1.0 - 4 * t[0] + t[1], 1.0 - 2 * t[0])),
}
_BRANCH_CASES = {"B2": "B2.1", "B3": "B3.1", "C2": "C2.1", "C3": "C3.1"}


class TestRatesAsMinima:
    @pytest.mark.parametrize("theorem", sorted(_BRANCH_PARAMS))
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_minimum_is_the_branch_ladder(self, theorem, data):
        g, d1, d2 = data.draw(_BRANCH_PARAMS[theorem])
        base = case_by_id(_BRANCH_CASES[theorem])
        schedule = replace(base.schedule, delta2=d2)
        if theorem.startswith("C"):
            schedule = replace(schedule, delta1=d1)
        try:
            case = replace(base, gamma=g, schedule=schedule)
        except InvalidCaseParametersError:
            assume(False)  # rounding put the draw on the predicate's edge
        # the forms differ only by rounding, where two branches meet
        assert case.predicted_exponent == pytest.approx(_ladder_rate(theorem, g, d1, d2),
                                                        abs=1e-15)

    def test_unknown_theorem_tag_is_rejected(self):
        with pytest.raises(InvalidCaseParametersError, match="unknown theorem tag 'D1'"):
            CaseSpec(case_id="D1.1", theorem="D1", subcase="", gamma=0.5, validity="")


class TestTheoremKinds:
    # each theorem fixes whether (beta_n, K_n) is a fixed point, a fixed-beta
    # or a moving-beta schedule; a case carrying another kind is not built
    def test_moving_beta_theorem_rejects_a_fixed_beta_schedule(self):
        fixed_beta = Schedule(beta_fixed=1.0, k=1.0, delta2=0.8)
        with pytest.raises(InvalidCaseParametersError, match="C4.1: C4 needs a moving-beta"):
            replace(case_by_id("C4.1"), schedule=fixed_beta)

    def test_fixed_beta_theorem_rejects_a_moving_beta_schedule(self):
        moving_beta = Schedule(k=1.0, b=1.0, delta1=0.6, delta2=0.6)
        with pytest.raises(InvalidCaseParametersError, match="B3.1: B3 needs a fixed-beta"):
            replace(case_by_id("B3.1"), schedule=moving_beta)

    def test_schedule_theorem_without_a_schedule_is_rejected(self):
        with pytest.raises(InvalidCaseParametersError, match="B1 needs a fixed-beta"):
            CaseSpec(case_id="B1.x", theorem="B1", subcase="", gamma=0.25, validity="")

    def test_fixed_point_theorem_without_a_point_is_rejected(self):
        with pytest.raises(InvalidCaseParametersError, match="fixed-A needs a fixed-point"):
            CaseSpec(case_id="fixed-A.x", theorem="fixed-A", subcase="", gamma=0.5,
                     validity="")

    def test_density_pattern_is_not_an_argument(self):
        with pytest.raises(ValueError, match="density_pattern"):
            replace(case_by_id("C4.1"), density_pattern="x2")


class TestParamsAt:
    def test_fixed_cases(self):
        c = case_by_id("fixed-B")
        p = params_at(c, 999)
        assert p.beta == 1.0 and abs(p.K - critical_K(1.0)) < 1e-14

    def test_seq_a_converges_into_region(self):
        c = case_by_id("seq-A")
        p64 = params_at(c, 64)
        p4096 = params_at(c, 4096)
        assert abs(p4096.beta - 1.0) < abs(p64.beta - 1.0)
        assert abs(p4096.K - 0.6) < abs(p64.K - 0.6)

    def test_c1_schedule_limits(self):
        c = case_by_id("C1.k+b+")
        p = params_at(c, 2**20)
        assert abs(p.beta - BETA_C) < 1e-2
        assert abs(p.K - critical_K(p.beta)) < 1e-2


class TestRegression:
    @pytest.mark.parametrize("n", [64, 1024, 8192])
    def test_matches_the_per_theorem_table(self, n):
        for case in case_catalog():
            lam, q = regression_at(case, n)
            ref_lam, ref_q = branch_regression_at(case, n)
            assert q == ref_q, case.case_id
            assert abs(lam - ref_lam) <= 1e-14 * ref_lam, case.case_id

    def test_b1_coefficients(self):
        c = case_by_id("B1.k+")
        n = 256
        lam, (q1, q3, q5) = regression_at(c, n)
        p = params_at(c, n)
        assert abs(lam - n**-1.5) < 1e-18
        assert abs(q1 - 1.0 / critical_K(p.beta)) < 1e-14
        g4 = g_derivs_at_zero(p).g4
        assert abs(q3 - g4 / (6.0 * p.two_beta_K)) < 1e-14
        assert q5 == 0.0

    def test_fixed_c_coefficients(self):
        c = case_by_id("fixed-C")
        n = 512
        lam, (q1, q3, q5) = regression_at(c, n)
        p = params_at(c, n)
        assert abs(lam - n ** (-5.0 / 3.0)) < 1e-18
        assert q1 == 0.0 and q3 == 0.0
        g6 = g_derivs_at_zero(p).g6
        assert abs(q5 - g6 / (math.factorial(5) * p.two_beta_K)) < 1e-14

    def test_c1_q3_tracks_b_not_n(self):
        # under the moving schedule 4 - e^(beta_n) = b/n^d1 exactly, so
        # q3 = g4 n^d1 / (6 * 2bK) = b * C4(beta_n, K_n) / (6 * 2bK) at every n
        c = case_by_id("C1.k+b+")
        vals = []
        for n in (64, 4096):
            _, (_, q3, _) = regression_at(c, n)
            p = params_at(c, n)
            c4 = 2.0 * p.two_beta_K**4 / (math.exp(p.beta) + 2.0) ** 2
            assert abs(q3 - c4 / (6.0 * p.two_beta_K)) < 1e-10
            vals.append(q3)
        # O(1) across the ladder (an n^(1/3) drift would be a factor 4)
        assert max(vals) < 1.6 * min(vals)

    def test_gaussian_case_sign_requirements(self):
        # linear-only drift must be positive for the density to normalise
        c = case_by_id("B2.1")
        _, (q1, q3, q5) = regression_at(c, 128)
        assert q1 > 0.0 and q3 == 0.0 and q5 == 0.0


class TestComparisonDensity:
    def test_sign_audit_b1(self):
        # k > 0: both coefficients positive; k < 0: b1 < 0, still integrable
        n = 128
        for cid, sign in (("B1.k+", 1.0), ("B1.k-", -1.0)):
            case = case_by_id(cid)
            law = build_joint_law(params_at(case, n), n)
            mm = {k: moment(law, case.gamma, k) for k in (2, 4, 6)}
            d = comparison_density(case, n, mm)
            assert math.copysign(1.0, d.b1) == sign
            assert d.b2 > 0.0
            assert abs(d.cdf(0.0) - 0.5) < 1e-9

    def test_pattern_matches_active_coefficients(self):
        n = 64
        for case in case_catalog():
            law = build_joint_law(params_at(case, n), n)
            mm = {k: moment(law, case.gamma, k) for k in (2, 4, 6)}
            d = comparison_density(case, n, mm)
            active = {
                "x2": d.b1 != 0.0,
                "x4": d.b2 != 0.0,
                "x6": d.b3 != 0.0,
            }
            expected = set(case.density_pattern.split("+"))
            got = {k for k, v in active.items() if v}
            assert got == expected, (case.case_id, got, expected)

    def test_stein_ode_residual_for_every_catalog_density(self):
        # f' + psi f = 1{x<=z} - P(z) holds to numerics for each case's density
        n, z, h = 64, 0.45, 1e-5
        for case in case_catalog():
            law = build_joint_law(params_at(case, n), n)
            mm = {k: moment(law, case.gamma, k) for k in (2, 4, 6)}
            d = comparison_density(case, n, mm)
            pz = d.cdf(z)
            for x in (-1.1, 0.2, 0.9):
                fp = (stein_solution(d, z, x + h) - stein_solution(d, z, x - h)) / (2 * h)
                res = fp + d.psi(x) * stein_solution(d, z, x) - ((x <= z) - pz)
                assert abs(res) < 1e-6, (case.case_id, x, res)

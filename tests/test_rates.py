import gc
import math
import weakref

import numpy as np
import pytest

from begrates import rates, stein
from begrates.cases import case_by_id
from begrates.errors import (
    CapExceededError,
    ComputationError,
    DegenerateFitError,
    ValidationError,
)
from begrates.rates import (
    Rung,
    default_ladder,
    fit_loglog,
    run_all,
    run_case,
    run_rung,
    summary_row,
)
from oracles import with_schedule


class TestFitLogLog:
    def test_exact_power_law(self):
        pts = [(n, 3.0 * n**-0.5) for n in (8, 16, 32, 64, 128)]
        slope, intercept, r2 = fit_loglog(pts)
        assert abs(slope + 0.5) < 1e-12
        assert abs(intercept - math.log(3.0)) < 1e-12
        assert abs(r2 - 1.0) < 1e-12

    def test_constant_degenerate(self):
        with pytest.raises(DegenerateFitError):
            fit_loglog([(n, 0.25) for n in (8, 16, 32, 64)])

    def test_too_few_points(self):
        with pytest.raises(ValidationError):
            fit_loglog([(8, 0.5), (16, 0.4), (32, 0.3)])

    def test_nonpositive_distance(self):
        with pytest.raises(ValidationError):
            fit_loglog([(8, 0.5), (16, 0.4), (32, 0.0), (64, 0.2)])

    def test_noisy_power_law_recovers_slope(self):
        rng = np.random.default_rng(31415)
        truth = -0.75
        pts = [
            (n, 2.0 * n**truth * float(np.exp(0.05 * rng.standard_normal())))
            for n in (16, 32, 64, 128, 256, 512, 1024)
        ]
        slope, _, _ = fit_loglog(pts)
        assert abs(slope - truth) < 0.05


class TestRunRung:
    def test_bound_mode_reads_the_bounds_distance(self):
        rung = run_rung(case_by_id("fixed-C"), 256, bound=True)
        assert rung.d_k == rung.bound.exact_dk
        assert rung.bound.n == 256 and rung.bound.case_id == "fixed-C"

    @pytest.mark.parametrize("case_id", ["fixed-A", "C4.2"])
    def test_distance_matches_the_ladder_bit_for_bit(self, case_id):
        case = case_by_id(case_id)
        ladder = [64, 128, 256, 512]
        rep = run_case(case, ladder)
        for point in rep.ladder:
            plain = run_rung(case, point.n)
            assert plain.d_k == point.d_k
            assert plain.moments == point.moments
            assert run_rung(case, point.n, bound=True).d_k == point.d_k

    @pytest.mark.parametrize("bound", [False, True])
    def test_one_distance_per_rung(self, monkeypatch, bound):
        calls = []
        original = rates.kolmogorov_distance
        assert stein.kolmogorov_distance is original

        def counted(*args, **kwargs):
            calls.append(args[0].n)
            return original(*args, **kwargs)

        monkeypatch.setattr(rates, "kolmogorov_distance", counted)
        monkeypatch.setattr(stein, "kolmogorov_distance", counted)
        run_rung(case_by_id("fixed-A"), 128, bound=bound)
        assert calls == [128]

    @pytest.mark.parametrize("bound", [False, True])
    def test_the_law_is_not_kept(self, monkeypatch, bound):
        laws = []
        original = rates.build_joint_law

        def tracked(*args, **kwargs):
            law = original(*args, **kwargs)
            laws.append(weakref.ref(law))
            return law

        monkeypatch.setattr(rates, "build_joint_law", tracked)
        rung = run_rung(case_by_id("fixed-A"), 128, bound=bound)
        gc.collect()
        assert len(laws) == 1 and laws[0]() is None
        assert rung.d_k > 0.0

    def test_halfwidth_needs_the_bound(self):
        with pytest.raises(ValidationError):
            run_rung(case_by_id("fixed-A"), 64, halfwidth=0.3)

    def test_cap_is_passed_to_the_law(self):
        with pytest.raises(CapExceededError):
            run_rung(case_by_id("fixed-A"), 128, cap=64)


class TestRunCase:
    def test_fixed_a_small_ladder(self):
        rep = run_case(case_by_id("fixed-A"), [64, 128, 256, 512])
        assert [p.n for p in rep.ladder] == [64, 128, 256, 512]
        assert rep.fitted_slope <= -0.4
        assert rep.bounded_ok()
        assert 0.0 < rep.ladder[-1].d_k < 1.0
        assert set(rep.ladder[0].moments) == {2, 4, 6}
        assert all(type(p) is Rung and p.bound is None for p in rep.ladder)

    def test_single_point_ladder_rejected(self):
        with pytest.raises(ComputationError):
            run_case(case_by_id("fixed-A"), [64])

    def test_duplicate_ladder_rejected(self):
        with pytest.raises(ValidationError):
            run_case(case_by_id("fixed-A"), [64, 64, 128, 256])

    def test_skipped_points_are_recorded(self):
        # a huge k makes K_n <= 0 at small n; those rungs are skipped
        case = with_schedule(case_by_id("B3.2"), k=4.9)
        rep = run_case(case, [4, 64, 128, 256, 512])
        assert any(n == 4 for n, _ in rep.skipped)
        assert [p.n for p in rep.ladder] == [64, 128, 256, 512]

    def test_default_ladder_tops(self):
        assert default_ladder(case_by_id("fixed-A"))[-1] == 2**12
        assert default_ladder(case_by_id("fixed-C"))[-1] == 2**13

    def test_default_ladder_bounds(self):
        case = case_by_id("fixed-A")
        assert default_ladder(case, 7, 9) == [128, 256, 512]
        assert default_ladder(case, 11) == [2**11, 2**12]
        for lo, hi in ((-1, None), (-1, 3), (9, 7), (13, None)):
            with pytest.raises(ValidationError):
                default_ladder(case, lo, hi)

    def test_summary_row_fields(self):
        rep = run_case(case_by_id("fixed-A"), [64, 128, 256, 512])
        row = summary_row(rep)
        assert row["case_id"] == "fixed-A"
        assert row["slope_ok"] and row["bounded_ok"]


class TestPhaseTransitionVisibility:
    def test_b3_slow_vs_fast(self):
        ladder = [2**e for e in range(6, 12)]
        slow = run_case(with_schedule(case_by_id("B3.1"), delta2=0.6), ladder)
        fast = run_case(with_schedule(case_by_id("B3.1"), delta2=0.8), ladder)
        assert slow.fitted_slope - fast.fitted_slope >= 0.05
        assert fast.fitted_slope < slow.fitted_slope <= 0.0


class TestRunAll:
    def test_subset_sorted_and_passing(self, monkeypatch):
        # a two-case catalog in unsorted order keeps the run short
        monkeypatch.setattr(rates, "case_catalog",
                            lambda: [case_by_id("fixed-A"), case_by_id("B2.1")])
        reports = run_all()
        assert [r.case.case_id for r in reports] == ["B2.1", "fixed-A"]
        for r in reports:
            assert r.slope_ok() and r.bounded_ok()

    def test_pool_is_sized_by_the_cases(self, monkeypatch):
        # a stub pool records its size and maps in-process, so a huge
        # --threads starts no processes
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(rates, "ProcessPoolExecutor", SerialPool)
        pooled = run_all(threads=10**6, max_exp=9)
        assert sizes == [42]
        assert pooled == run_all(threads=1, max_exp=9)

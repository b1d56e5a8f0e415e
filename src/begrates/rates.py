"""Ladder experiments: exact Kolmogorov distances against each case's density.

For every n on a ladder the case's schedule is evaluated, the exact law
built, the comparison density constructed from finite-n moments, and the
exact Kolmogorov distance computed; an ordinary least-squares fit of
log d_K on log n summarises the decay.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cases import CaseSpec, case_catalog, comparison_density, params_at
from .errors import (
    CapExceededError,
    ComputationError,
    DegenerateFitError,
    ScheduleUnderflowError,
    ValidationError,
)
from .exact import DEFAULT_N_CAP, build_joint_law, kolmogorov_distance, moment

__all__ = [
    "LadderPoint",
    "RateReport",
    "default_ladder",
    "fit_loglog",
    "run_case",
    "run_all",
    "summary_row",
]

SLOPE_TOLERANCE = 0.15
BOUNDEDNESS_FACTOR = 10.0


@dataclass(frozen=True)
class LadderPoint:
    n: int
    d_k: float
    moments: dict[int, float]


@dataclass(frozen=True)
class RateReport:
    case: CaseSpec
    ladder: list[LadderPoint]
    fitted_slope: float
    fitted_intercept: float
    r_squared: float
    skipped: list[tuple[int, str]]  # (n, reason) for ladder points that failed

    @property
    def scaled_distances(self) -> list[float]:
        r = self.case.predicted_exponent
        return [p.d_k * p.n**r for p in self.ladder]

    def slope_ok(self) -> bool:
        return self.fitted_slope <= -self.case.predicted_exponent + SLOPE_TOLERANCE

    def bounded_ok(self) -> bool:
        scaled = self.scaled_distances
        return max(scaled) <= BOUNDEDNESS_FACTOR * scaled[0]

    def to_json_dict(self) -> dict:
        return {
            "case_id": self.case.case_id,
            "theorem": self.case.theorem,
            "subcase": self.case.subcase,
            "gamma": self.case.gamma,
            "predicted_exponent": self.case.predicted_exponent,
            "ladder": [
                {"n": p.n, "d_k": p.d_k, "moments": {str(k): v for k, v in p.moments.items()}}
                for p in self.ladder
            ],
            "fitted_slope": self.fitted_slope,
            "fitted_intercept": self.fitted_intercept,
            "r_squared": self.r_squared,
            "slope_ok": self.slope_ok(),
            "bounded_ok": self.bounded_ok(),
            "skipped": [list(x) for x in self.skipped],
        }


def default_ladder(case: CaseSpec, min_exp: int = 6) -> list[int]:
    return [2**e for e in range(min_exp, case.ladder_max_exp + 1)]


def fit_loglog(points: list[tuple[int, float]]) -> tuple[float, float, float]:
    """OLS fit of log d on log n; returns (slope, intercept, r_squared)."""
    if len(points) < 4:
        raise ValidationError(f"need at least 4 ladder points, got {len(points)}")
    if any(d <= 0.0 for _, d in points):
        raise ValidationError("all distances must be positive for a log-log fit")
    ln = np.log([float(n) for n, _ in points])
    ld = np.log([d for _, d in points])
    if float(np.ptp(ld)) == 0.0:
        raise DegenerateFitError("all distances equal; no slope information")
    design = np.vstack([ln, np.ones_like(ln)]).T
    (slope, intercept), residuals, *_ = np.linalg.lstsq(design, ld, rcond=None)
    fitted = design @ np.array([slope, intercept])
    ss_res = float(np.sum((ld - fitted) ** 2))
    ss_tot = float(np.sum((ld - ld.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def run_case(
    case: CaseSpec,
    n_ladder: list[int] | None = None,
    *,
    cap: int = DEFAULT_N_CAP,
) -> RateReport:
    """Run one case over a ladder of sizes.

    Each rung records E[W^2], E[W^4] and E[W^6], the moments the comparison
    density is built from.

    Per-n schedule or cap failures are recorded and skipped; at least four
    successful points are required for the fit.
    """
    ladder = sorted(n_ladder) if n_ladder is not None else default_ladder(case)
    if len(set(ladder)) != len(ladder):
        raise ValidationError("ladder entries must be distinct")
    points: list[LadderPoint] = []
    skipped: list[tuple[int, str]] = []
    for n in ladder:
        try:
            params = params_at(case, n)
            law = build_joint_law(params, n, cap=cap)
            mm = {k: moment(law, case.gamma, k) for k in (2, 4, 6)}
            density = comparison_density(case, n, mm)
            d = kolmogorov_distance(law, case.gamma, density.cdf_at_sorted)
        except (ScheduleUnderflowError, CapExceededError) as exc:
            skipped.append((n, f"{type(exc).__name__}: {exc}"))
            continue
        points.append(LadderPoint(n=n, d_k=d, moments=mm))
    if len(points) < 4:
        raise ComputationError(
            f"{case.case_id}: only {len(points)} usable ladder points "
            f"({len(skipped)} skipped); need >= 4"
        )
    slope, intercept, r2 = fit_loglog([(p.n, p.d_k) for p in points])
    return RateReport(
        case=case,
        ladder=points,
        fitted_slope=slope,
        fitted_intercept=intercept,
        r_squared=r2,
        skipped=skipped,
    )


def run_all(
    cases: list[CaseSpec] | None = None,
    *,
    threads: int = 1,
    n_ladder: list[int] | None = None,
) -> list[RateReport]:
    """Run every case (the full catalog by default), sorted by case id.

    ``n_ladder`` overrides each case's default ladder.  ``threads`` > 1 fans
    the cases out to worker processes; results are aggregated in
    deterministic (sorted) order either way.
    """
    if cases is None:
        cases = case_catalog()
    cases = sorted(cases, key=lambda c: c.case_id)
    if threads <= 1:
        return [run_case(c, n_ladder) for c in cases]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        reports = list(pool.map(run_case, cases, [n_ladder] * len(cases)))
    return reports


def summary_row(report: RateReport) -> dict:
    scaled = report.scaled_distances
    return {
        "case_id": report.case.case_id,
        "theorem": report.case.theorem,
        "gamma": report.case.gamma,
        "predicted_exponent": report.case.predicted_exponent,
        "fitted_slope": report.fitted_slope,
        "r_squared": report.r_squared,
        "n_min": report.ladder[0].n,
        "n_max": report.ladder[-1].n,
        "d_k_at_n_max": report.ladder[-1].d_k,
        "scaled_max_over_first": max(scaled) / scaled[0],
        "slope_ok": report.slope_ok(),
        "bounded_ok": report.bounded_ok(),
    }

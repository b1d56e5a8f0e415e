"""Rungs and ladders: exact Kolmogorov distances against each case's density.

A rung is one (case, n): the case's schedule is evaluated, the exact law
built, the comparison density constructed from the finite-n moments E[W^2],
E[W^4] and E[W^6], and the exact Kolmogorov distance computed; on request the
exchangeable-pair Stein bound is set against it.  ``run_rung`` is the one
home of that chain: the ladders here, the ``stein-bound`` command and the
acceptance sweep all call it.  A ladder is the rungs n = 2^min_exp ..
2^max_exp (``default_ladder``, the one ladder rule of ``rate-scan --case``
and ``--all``), and an ordinary least-squares fit of log d_K on log n
summarises its decay.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .cases import CaseSpec, case_catalog, comparison_density, params_at
from .density import estimate_stein_constants
from .errors import (
    CapExceededError,
    ComputationError,
    DegenerateFitError,
    ScheduleUnderflowError,
    ValidationError,
)
from .exact import DEFAULT_N_CAP, build_joint_law, kolmogorov_distance, moment
from .stein import BoundReport, evaluate_bound

__all__ = [
    "Rung",
    "run_rung",
    "RateReport",
    "default_ladder",
    "fit_loglog",
    "run_case",
    "run_all",
]

SLOPE_TOLERANCE = 0.15
BOUNDEDNESS_FACTOR = 10.0
DEFAULT_MIN_EXP = 6


@dataclass(frozen=True)
class Rung:
    """One (case, n) rung.  Neither the law nor the density is kept."""

    n: int
    moments: dict[int, float]  # E[W^k] for k = 2, 4, 6
    d_k: float
    bound: BoundReport | None = None


def run_rung(
    case: CaseSpec,
    n: int,
    *,
    cap: int = DEFAULT_N_CAP,
    bound: bool = False,
    halfwidth: float | None = None,
) -> Rung:
    """Law, moments, comparison density and exact d_K at one (case, n).

    With ``bound`` the Stein envelopes and the bound at half-width
    ``halfwidth`` (default 2 n^(gamma-1) (1 + 1e-9), just above the largest
    increment) follow, and d_K is the bound's own ``exact_dk``, so d_K is
    computed once either way.
    """
    if halfwidth is not None and not bound:
        raise ValidationError("a half-width is only read with the bound")
    law = build_joint_law(params_at(case, n), n, cap=cap)
    moments = {k: moment(law, case.gamma, k) for k in (2, 4, 6)}
    density = comparison_density(case, n, moments)
    if not bound:
        d_k = kolmogorov_distance(law, case.gamma, density.cdf_at_sorted)
        return Rung(n, moments, d_k)
    consts = estimate_stein_constants(density)
    report = evaluate_bound(law, case.gamma, case, density, consts, A=halfwidth)
    return Rung(n, moments, report.exact_dk, report)


@dataclass(frozen=True)
class RateReport:
    case: CaseSpec
    ladder: list[Rung]
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


def default_ladder(case: CaseSpec, min_exp: int = DEFAULT_MIN_EXP,
                   max_exp: int | None = None) -> list[int]:
    """Sizes 2^min_exp .. 2^max_exp; the top defaults to ``case.ladder_max_exp``.

    The exponents are ``rate-scan``'s ``--min-exp`` and ``--max-exp``.
    """
    top = case.ladder_max_exp if max_exp is None else max_exp
    if min_exp < 0:
        raise ValidationError(f"--min-exp must be >= 0, got {min_exp}")
    if top < min_exp:
        named = f"--max-exp {top}" if max_exp is not None else f"{case.case_id}'s top {top}"
        raise ValidationError(f"{named} is below --min-exp {min_exp}")
    if top >= sys.float_info.max_exp:
        raise ValidationError(f"--max-exp {top} is past {sys.float_info.max_exp - 1}: "
                              f"2^{top} is not a finite double")
    return [2**e for e in range(min_exp, top + 1)]


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
    (slope, intercept), *_ = np.linalg.lstsq(design, ld, rcond=None)
    fitted = design @ np.array([slope, intercept])
    ss_res = float(np.sum((ld - fitted) ** 2))
    ss_tot = float(np.sum((ld - ld.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def run_case(case: CaseSpec, n_ladder: list[int]) -> RateReport:
    """Run one case over a ladder of sizes.

    Each rung (``run_rung``) records E[W^2], E[W^4] and E[W^6], the moments
    the comparison density is built from.

    Per-n schedule or cap failures are recorded and skipped; at least four
    successful points are required for the fit.
    """
    ladder = sorted(n_ladder)
    if len(set(ladder)) != len(ladder):
        raise ValidationError("ladder entries must be distinct")
    points: list[Rung] = []
    skipped: list[tuple[int, str]] = []
    for n in ladder:
        try:
            points.append(run_rung(case, n))
        except (ScheduleUnderflowError, CapExceededError) as exc:
            skipped.append((n, f"{type(exc).__name__}: {exc}"))
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


def run_all(*, threads: int = 1, min_exp: int = DEFAULT_MIN_EXP,
            max_exp: int | None = None) -> list[RateReport]:
    """Run every case of the catalog, sorted by case id.

    Each case runs ``default_ladder(case, min_exp, max_exp)``, so an absent
    ``max_exp`` tops each ladder at the case's own ``ladder_max_exp``; every
    ladder is checked before any case runs.  ``threads`` > 1 fans the cases
    out to at most one worker process per case; results are aggregated in
    deterministic (sorted) order either way.
    """
    cases = sorted(case_catalog(), key=lambda c: c.case_id)
    ladders = [default_ladder(c, min_exp, max_exp) for c in cases]
    if threads <= 1:
        return [run_case(c, ladder) for c, ladder in zip(cases, ladders)]
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing: only here
    with ProcessPoolExecutor(max_workers=min(threads, len(cases))) as pool:
        return list(pool.map(run_case, cases, ladders))

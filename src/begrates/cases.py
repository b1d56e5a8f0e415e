"""Catalog of the 42 convergence-rate cases for the rescaled spin sum.

Each case fixes a scaling exponent gamma, a parameter schedule (or a fixed
(beta, K)), the shape of the comparison density, and a predicted Kolmogorov
rate exponent r with d_K <= const * n^-r.  The catalog covers:

  * 3 fixed-parameter cases (region A, critical curve, tricritical point),
  * 1 sequence case converging into the interior of region A,
  * 6 cases for sequences onto the critical curve (theorem family B),
  * 32 cases for sequences into the tricritical point (theorem family C).

Multi-branch rate tables contribute one catalog entry per branch; cases whose
mixed density changes shape with the sign of k or b contribute one entry per
sign.  Each fact is stated once: ``predicted_rate`` derives r from gamma and
the schedule, and enforces the branch predicate, whenever a case is built;
``regression_at`` takes lambda = n^(2 gamma - 2) and the active regression
coefficients from gamma and the density pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .density import PolyDensity, density_from_regression
from .errors import InvalidCaseParametersError
from .model import (
    BETA_C,
    ModelParams,
    Schedule,
    ScheduleMode,
    critical_K,
    g_derivs_at_zero,
    schedule_eval,
)

__all__ = [
    "CaseSpec",
    "case_catalog",
    "case_by_id",
    "predicted_rate",
    "params_at",
    "regression_at",
    "comparison_density",
]

_GAUSSIAN = "x2"

# default fixed-parameter points
_POINT_A = ModelParams(1.0, 0.6)
_POINT_B = ModelParams(1.0, critical_K(1.0))
_POINT_C = ModelParams(BETA_C, critical_K(BETA_C))


@dataclass(frozen=True)
class CaseSpec:
    """One convergence-rate case.

    ``density_pattern`` lists the active exponent monomials ("x2", "x2+x4",
    ...); ``validity`` describes the branch predicate the defaults were
    chosen to satisfy.  ``ladder_max_exp`` is the top power of two of the
    default ladder.  ``predicted_exponent``, the r in d_K <= const * n^-r, is
    computed by ``predicted_rate`` on construction, so a case outside its
    branch predicate cannot be built.
    """

    case_id: str
    theorem: str
    subcase: str
    gamma: float
    density_pattern: str
    validity: str
    schedule: Schedule | None = None
    fixed_params: ModelParams | None = None
    ladder_max_exp: int = 12
    predicted_exponent: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "predicted_exponent", predicted_rate(self))


def params_at(case: CaseSpec, n: int) -> ModelParams:
    """Model parameters of the case at size n."""
    if case.theorem == "seq-A":
        # bounded sequence drifting into the interior of the single-phase
        # region; any such sequence gives the region-A behaviour
        target = case.fixed_params
        drift = 0.25 / math.sqrt(n)
        return ModelParams(target.beta * (1.0 + drift), target.K * (1.0 + drift))
    if case.schedule is not None:
        return schedule_eval(case.schedule, n)
    return case.fixed_params


def regression_at(case: CaseSpec, n: int) -> tuple[float, tuple[float, float, float]]:
    """(lambda, (q1, q3, q5)) of the exchangeable-pair regression at size n.

    The pair satisfies E[W - W'|F] = lambda*(q1 W + q3 W^3 + q5 W^5) + R with
    lambda = n^(2 gamma - 2) for every case; under each branch predicate this
    is the exponent its theorem states.  The coefficients of the monomials in
    ``density_pattern`` are read off the Taylor expansion of G at the origin,
    q_(2j-1) = G^(2j)(0) / ((2j-1)! 2 beta K), and the others are zero.  Under
    a schedule q1 is k/K_c(beta_n), and a moving-beta schedule scales q3 by
    n^delta1, since there G''''(0) vanishes like b/n^delta1.
    """
    p = params_at(case, n)
    b2k = p.two_beta_K
    g2, g4, g6 = g_derivs_at_zero(p)
    s = case.schedule
    active = case.density_pattern.split("+")
    q1 = q3 = q5 = 0.0
    if "x2" in active:
        q1 = g2 / b2k if s is None else s.k / critical_K(p.beta)
    if "x4" in active:
        moving = s is not None and s.mode is ScheduleMode.MOVING_BETA
        q3 = g4 * (float(n) ** s.delta1 if moving else 1.0) / (6.0 * b2k)
    if "x6" in active:
        q5 = g6 / (120.0 * b2k)
    return float(n) ** (2.0 * case.gamma - 2.0), (q1, q3, q5)


def comparison_density(case: CaseSpec, n: int, moments: Mapping[int, float]) -> PolyDensity:
    """The case's comparison density, built with finite-n moments of W."""
    _, q = regression_at(case, n)
    return density_from_regression(q, moments)


# ---------------------------------------------------------------------------
# predicted rates


def _require(cond: bool, case: CaseSpec, msg: str) -> None:
    if not cond:
        raise InvalidCaseParametersError(f"{case.case_id}: {msg}")


_EPS = 1e-12


def predicted_rate(case: CaseSpec) -> float:
    """Rate exponent r such that d_K <= const * n^-r for this case.

    Validates the case's branch predicate (gamma, delta1, delta2 ranges) and
    raises InvalidCaseParametersError when the parameters fall outside it.
    Each B and C predicate implies the paper's standing hypothesis v = 0
    (family B) or w = 0 (family C).
    """
    g = case.gamma
    th = case.theorem
    s = case.schedule

    if th in ("fixed-A", "seq-A"):
        _require(abs(g - 0.5) < _EPS, case, "gamma must be 1/2")
        return 0.5
    if th == "fixed-B":
        _require(abs(g - 0.25) < _EPS, case, "gamma must be 1/4")
        return 0.25
    if th == "fixed-C":
        _require(abs(g - 1.0 / 6.0) < _EPS, case, "gamma must be 1/6")
        return 1.0 / 6.0

    if th == "B1":
        _require(abs(g - 0.25) < _EPS and abs(s.delta2 - 0.5) < _EPS, case,
                 "needs gamma=1/4, delta2=1/2")
        return 0.25
    if th == "B2":
        _require(0.25 < g < 0.5 and abs(2 * g - (1 - s.delta2)) < _EPS, case,
                 "needs 2 gamma = 1 - delta2 with gamma in (1/4, 1/2)")
        return 4 * g - 1.0 if g <= 1.0 / 3.0 else g
    if th == "B3":
        _require(abs(g - 0.25) < _EPS and s.delta2 > 0.5, case,
                 "needs gamma=1/4, delta2 > 1/2")
        return s.delta2 - 0.5 if s.delta2 < 0.75 else 0.25
    if th == "C1":
        _require(
            abs(g - 1.0 / 6.0) < _EPS
            and abs(s.delta1 - 1.0 / 3.0) < _EPS
            and abs(s.delta2 - 2.0 / 3.0) < _EPS,
            case,
            "needs gamma=1/6, delta1=1/3, delta2=2/3",
        )
        return 1.0 / 6.0
    if th == "C2":
        _require(0.25 < g < 0.5 and abs(2 * g - (1 - s.delta2)) < _EPS and s.delta1 > 0,
                 case, "needs 2 gamma = 1 - delta2, gamma in (1/4, 1/2)")
        if g >= 1.0 / 3.0:
            return g
        return 4 * g + s.delta1 - 1.0 if s.delta1 < 1 - 3 * g else g
    if th == "C3":
        _require(
            1.0 / 6.0 < g <= 0.25
            and abs(2 * g - (1 - s.delta2)) < _EPS
            and s.delta1 > 2 * s.delta2 - 1.0,
            case,
            "needs 2 gamma = 1 - delta2, gamma in (1/6, 1/4], delta1 > 2 delta2 - 1",
        )
        if g <= 0.2:
            return 4 * g + s.delta1 - 1.0 if s.delta1 < 2 * g else 6 * g - 1.0
        return 4 * g + s.delta1 - 1.0 if s.delta1 < 1 - 3 * g else g
    if th == "C4":
        _require(
            abs(g - 1.0 / 6.0) < _EPS and s.delta1 > 1.0 / 3.0 and s.delta2 > 2.0 / 3.0,
            case, "needs gamma=1/6, delta1 > 1/3, delta2 > 2/3",
        )
        return min(1.0 / 6.0, s.delta1 - 1.0 / 3.0, s.delta2 - 2.0 / 3.0)
    if th == "C5":
        _require(
            1.0 / 6.0 < g < 0.25
            and abs(4 * g - (1 - s.delta1)) < _EPS
            and 2 * s.delta2 > s.delta1 + 1.0
            and s.b > 0,
            case,
            "needs 4 gamma = 1 - delta1, gamma in (1/6, 1/4), 2 delta2 > delta1 + 1, b > 0",
        )
        return min(g, 2 * g + s.delta2 - 1.0, 6 * g - 1.0)
    if th == "C6":
        _require(
            abs(g - 1.0 / 6.0) < _EPS
            and abs(s.delta1 - 1.0 / 3.0) < _EPS
            and s.delta2 > 2.0 / 3.0,
            case, "needs gamma=1/6, delta1=1/3, delta2 > 2/3",
        )
        return min(1.0 / 6.0, s.delta2 - 2.0 / 3.0)
    if th == "C7":
        _require(
            abs(g - 1.0 / 6.0) < _EPS
            and s.delta1 > 1.0 / 3.0
            and abs(s.delta2 - 2.0 / 3.0) < _EPS,
            case, "needs gamma=1/6, delta1 > 1/3, delta2=2/3",
        )
        return min(1.0 / 6.0, s.delta1 - 1.0 / 3.0)
    if th == "C8":
        _require(
            1.0 / 6.0 < g < 0.25
            and abs(4 * g - (1 - s.delta1)) < _EPS
            and abs(2 * s.delta2 - (s.delta1 + 1.0)) < _EPS
            and s.b > 0,
            case,
            "needs 4 gamma = 1 - delta1, 2 delta2 = delta1 + 1, gamma in (1/6, 1/4), b > 0",
        )
        return min(g, 6 * g - 1.0)
    raise InvalidCaseParametersError(f"unknown theorem tag {th!r}")


# ---------------------------------------------------------------------------
# the catalog


def _fixed_beta(k: float, delta2: float) -> Schedule:
    return Schedule(
        mode=ScheduleMode.FIXED_BETA, beta_fixed=1.0, k=k, delta2=delta2
    )


def _moving(k: float, b: float, delta1: float, delta2: float) -> Schedule:
    return Schedule(
        mode=ScheduleMode.MOVING_BETA, k=k, b=b, delta1=delta1, delta2=delta2
    )


def _build_catalog() -> list[CaseSpec]:
    """All 42 cases with representative default parameters.

    Defaults sit at interior points of each branch's validity region; sign
    variants carry |k| = |b| = 1.
    """
    cases: list[CaseSpec] = []

    cases.append(CaseSpec(
        case_id="fixed-A", theorem="fixed-A", subcase="(beta, K) in region A",
        gamma=0.5, density_pattern=_GAUSSIAN,
        validity="K < K_c(beta), beta <= log 4", fixed_params=_POINT_A))
    cases.append(CaseSpec(
        case_id="fixed-B", theorem="fixed-B", subcase="(beta, K_c(beta)), beta < log 4",
        gamma=0.25, density_pattern="x4",
        validity="on the critical curve below the tricritical point",
        fixed_params=_POINT_B))
    cases.append(CaseSpec(
        case_id="fixed-C", theorem="fixed-C", subcase="tricritical point",
        gamma=1.0 / 6.0, density_pattern="x6",
        validity="(log 4, 3/(2 log 4))", fixed_params=_POINT_C, ladder_max_exp=13))
    cases.append(CaseSpec(
        case_id="seq-A", theorem="seq-A", subcase="bounded sequence into region A",
        gamma=0.5, density_pattern=_GAUSSIAN,
        validity="any positive bounded sequence converging into A",
        fixed_params=_POINT_A))

    # family B: K_n onto the critical curve at fixed beta = 1.0
    for sign, tag in ((1.0, "k+"), (-1.0, "k-")):
        cases.append(CaseSpec(
            case_id=f"B1.{tag}", theorem="B1", subcase=f"critical speed, {tag}",
            gamma=0.25, density_pattern="x2+x4",
            validity="gamma=1/4, delta2=1/2",
            schedule=_fixed_beta(k=sign, delta2=0.5)))
    cases.append(CaseSpec(
        case_id="B2.1", theorem="B2", subcase="gamma in (1/4, 1/3]",
        gamma=0.3, density_pattern=_GAUSSIAN,
        validity="2 gamma = 1 - delta2, slow K_n",
        schedule=_fixed_beta(k=1.0, delta2=0.4)))
    cases.append(CaseSpec(
        case_id="B2.2", theorem="B2", subcase="gamma in [1/3, 1/2)",
        gamma=0.4, density_pattern=_GAUSSIAN,
        validity="2 gamma = 1 - delta2, slow K_n",
        schedule=_fixed_beta(k=1.0, delta2=0.2)))
    cases.append(CaseSpec(
        case_id="B3.1", theorem="B3", subcase="delta2 in (1/2, 3/4)",
        gamma=0.25, density_pattern="x4",
        validity="gamma=1/4, fast K_n", schedule=_fixed_beta(k=1.0, delta2=0.6)))
    cases.append(CaseSpec(
        case_id="B3.2", theorem="B3", subcase="delta2 >= 3/4",
        gamma=0.25, density_pattern="x4",
        validity="gamma=1/4, fastest K_n", schedule=_fixed_beta(k=1.0, delta2=1.0)))

    # family C: (beta_n, K_n) into the tricritical point
    third, two_thirds = 1.0 / 3.0, 2.0 / 3.0
    for k in (1.0, -1.0):
        for b in (1.0, -1.0):
            tag = f"k{'+' if k > 0 else '-'}b{'+' if b > 0 else '-'}"
            cases.append(CaseSpec(
                case_id=f"C1.{tag}", theorem="C1", subcase=f"critical speeds, {tag}",
                gamma=1.0 / 6.0, density_pattern="x2+x4+x6",
                validity="gamma=1/6, delta1=1/3, delta2=2/3",
                schedule=_moving(k=k, b=b, delta1=third, delta2=two_thirds),
                ladder_max_exp=13))

    c2 = [
        ("C2.1", 0.3, 0.05, "gamma in (1/4, 1/3], delta1 < 1 - 3 gamma"),
        ("C2.2", 0.3, 0.30, "gamma in (1/4, 1/3], delta1 >= 1 - 3 gamma"),
        ("C2.3", 0.4, 0.20, "gamma in [1/3, 1/2)"),
    ]
    for cid, g, d1, desc in c2:
        cases.append(CaseSpec(
            case_id=cid, theorem="C2", subcase=desc, gamma=g,
            density_pattern=_GAUSSIAN,
            validity="2 gamma = 1 - delta2, delta1 > 0",
            schedule=_moving(k=1.0, b=1.0, delta1=d1, delta2=1.0 - 2.0 * g),
            ladder_max_exp=13))

    c3 = [
        ("C3.1", 0.19, 0.34, "gamma in (1/6, 1/5], 1-4g < delta1 < 2g"),
        ("C3.2", 0.19, 0.50, "gamma in (1/6, 1/5], delta1 >= 2 gamma"),
        ("C3.3", 0.22, 0.25, "gamma in [1/5, 1/4], 1-4g < delta1 < 1-3g"),
        ("C3.4", 0.22, 0.50, "gamma in [1/5, 1/4], delta1 >= 1 - 3 gamma"),
    ]
    for cid, g, d1, desc in c3:
        cases.append(CaseSpec(
            case_id=cid, theorem="C3", subcase=desc, gamma=g,
            density_pattern=_GAUSSIAN,
            validity="2 gamma = 1 - delta2, delta1 > 2 delta2 - 1",
            schedule=_moving(k=1.0, b=1.0, delta1=d1, delta2=1.0 - 2.0 * g),
            ladder_max_exp=13))

    c4 = [
        ("C4.1", 0.40, 0.80, "delta1 in (1/3,1/2), delta2 in (2/3,5/6), d1 <= d2-1/3"),
        ("C4.2", 0.45, 0.70, "delta1 in (1/3,1/2), delta2 in (2/3,5/6), d1 > d2-1/3"),
        ("C4.3", 0.40, 1.00, "delta1 in (1/3,1/2), delta2 >= 5/6"),
        ("C4.4", 0.70, 0.75, "delta1 >= 1/2, delta2 in (2/3,5/6)"),
        ("C4.5", 0.70, 1.00, "delta1 >= 1/2, delta2 >= 5/6"),
    ]
    for cid, d1, d2, desc in c4:
        cases.append(CaseSpec(
            case_id=cid, theorem="C4", subcase=desc, gamma=1.0 / 6.0,
            density_pattern="x6",
            validity="gamma=1/6, delta1 > 1/3, delta2 > 2/3",
            schedule=_moving(k=1.0, b=1.0, delta1=d1, delta2=d2),
            ladder_max_exp=13))

    c5 = [
        ("C5.1", 0.18, 0.68, "gamma in (1/6, 1/5), delta2 < 4 gamma"),
        ("C5.2", 0.18, 0.80, "gamma in (1/6, 1/5), delta2 >= 4 gamma"),
        ("C5.3", 0.22, 0.70, "gamma in [1/5, 1/4), delta2 < 1 - gamma"),
        ("C5.4", 0.22, 0.90, "gamma in [1/5, 1/4), delta2 >= 1 - gamma"),
    ]
    for cid, g, d2, desc in c5:
        cases.append(CaseSpec(
            case_id=cid, theorem="C5", subcase=desc, gamma=g,
            density_pattern="x4",
            validity="4 gamma = 1 - delta1, 2 delta2 > delta1 + 1, b > 0",
            schedule=_moving(k=1.0, b=1.0, delta1=1.0 - 4.0 * g, delta2=d2),
            ladder_max_exp=13))

    for br, d2 in (("1", 0.75), ("2", 1.0)):
        for b in (1.0, -1.0):
            tag = "b+" if b > 0 else "b-"
            cases.append(CaseSpec(
                case_id=f"C6.{br}.{tag}", theorem="C6",
                subcase=f"delta2 {'in (2/3, 5/6)' if br == '1' else '>= 5/6'}, {tag}",
                gamma=1.0 / 6.0, density_pattern="x4+x6",
                validity="gamma=1/6, delta1=1/3, delta2 > 2/3",
                schedule=_moving(k=1.0, b=b, delta1=third, delta2=d2),
                ladder_max_exp=13))

    for br, d1 in (("1", 0.45), ("2", 0.70)):
        for k in (1.0, -1.0):
            tag = "k+" if k > 0 else "k-"
            cases.append(CaseSpec(
                case_id=f"C7.{br}.{tag}", theorem="C7",
                subcase=f"delta1 {'in (1/3, 1/2)' if br == '1' else '>= 1/2'}, {tag}",
                gamma=1.0 / 6.0, density_pattern="x2+x6",
                validity="gamma=1/6, delta1 > 1/3, delta2=2/3",
                schedule=_moving(k=k, b=1.0, delta1=d1, delta2=two_thirds),
                ladder_max_exp=13))

    # the k < 0 side of C8 sits above the critical curve at finite n; a unit
    # offset leaves E[W (-psi(W))] negative at desk sizes, so those defaults
    # use a shallower |k|
    for br, g in (("1", 0.19), ("2", 0.22)):
        for k in (1.0, -0.25):
            tag = "k+" if k > 0 else "k-"
            d1 = 1.0 - 4.0 * g
            cases.append(CaseSpec(
                case_id=f"C8.{br}.{tag}", theorem="C8",
                subcase=f"gamma {'in (1/6, 1/5]' if br == '1' else 'in [1/5, 1/4)'}, {tag}",
                gamma=g, density_pattern="x2+x4",
                validity="4 gamma = 1 - delta1, 2 delta2 = delta1 + 1, b > 0",
                schedule=_moving(k=k, b=1.0, delta1=d1, delta2=(d1 + 1.0) / 2.0),
                ladder_max_exp=13))

    return cases


# cases are frozen, so the catalog is built once and shared
_CATALOG = tuple(_build_catalog())
_BY_ID = {case.case_id: case for case in _CATALOG}


def case_catalog() -> list[CaseSpec]:
    """All 42 cases in catalog order, as a fresh list."""
    return list(_CATALOG)


def case_by_id(case_id: str) -> CaseSpec:
    if case_id not in _BY_ID:
        raise InvalidCaseParametersError(f"unknown case id {case_id!r}")
    return _BY_ID[case_id]

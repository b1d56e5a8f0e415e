"""Catalog of the 42 convergence-rate cases for the rescaled spin sum.

Each case fixes a scaling exponent gamma, a parameter schedule (or its
theorem's fixed (beta, K)), the shape of the comparison density, and a
predicted Kolmogorov rate exponent r with d_K <= const * n^-r.  The catalog
covers:

  * 3 fixed-parameter cases (region A, critical curve, tricritical point),
  * 1 sequence case converging into the interior of region A,
  * 6 cases for sequences onto the critical curve (theorem family B),
  * 32 cases for sequences into the tricritical point (theorem family C).

Multi-branch rate tables contribute one catalog entry per branch; cases whose
mixed density changes shape with the sign of k or b contribute one entry per
sign.  Each fact is stated once: a case states its id, subcase, gamma and
schedule, its theorem is the id up to the first ".", and one row of
``_THEOREMS`` per theorem holds its density pattern, its parameter kind, its
hypothesis as a predicate and as text, the terms of the minimum that gives
its rate, its fixed point and the top of its default ladder;
``predicted_rate`` checks a case against its row whenever the case is built
and takes r as that minimum; ``regression_at`` takes lambda = n^(2 gamma - 2)
and the active regression coefficients from gamma and the density pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple

from .density import PolyDensity, density_from_regression
from .errors import InvalidCaseParametersError
from .model import (
    BETA_C,
    ModelParams,
    Schedule,
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

_EPS = 1e-12


def _eq(a: float, b: float) -> bool:
    return abs(a - b) < _EPS


class _Theorem(NamedTuple):
    """What one theorem fixes: the active exponent monomials of its limit
    density; whether (beta_n, K_n) is a fixed point (seq-A drifts onto its
    point by itself), a fixed-beta or a moving-beta schedule; its hypothesis
    on (gamma, schedule), as a predicate and as text; the exponents other
    than gamma of the minimum that gives its rate; the fixed point, for the
    fixed-point theorems; and the top power of two of the default ladder."""

    pattern: str
    kind: str
    holds: Callable[[float, Schedule | None], bool]
    hypothesis: str
    terms: Callable[[float, Schedule | None], tuple] = lambda g, s: ()
    point: ModelParams | None = None
    top: int = 12


# the fixed points: region A, the critical curve, the tricritical point
_POINT_A = ModelParams(1.0, 0.6)
_POINT_B = ModelParams(1.0, critical_K(1.0))
_POINT_C = ModelParams(BETA_C, critical_K(BETA_C))

_FIXED_A = _Theorem("x2", "fixed-point", lambda g, s: _eq(g, 0.5), "gamma=1/2", point=_POINT_A)
_THEOREMS = {
    "fixed-A": _FIXED_A, "seq-A": _FIXED_A,
    "fixed-B": _Theorem(
        "x4", "fixed-point", lambda g, s: _eq(g, 0.25), "gamma=1/4", point=_POINT_B),
    "fixed-C": _Theorem(
        "x6", "fixed-point", lambda g, s: _eq(g, 1.0 / 6.0), "gamma=1/6", point=_POINT_C, top=13),
    "B1": _Theorem(
        "x2+x4", "fixed-beta", lambda g, s: _eq(g, 0.25) and _eq(s.delta2, 0.5),
        "gamma=1/4, delta2=1/2"),
    "B2": _Theorem(
        "x2", "fixed-beta", lambda g, s: 0.25 < g < 0.5 and _eq(2 * g, 1 - s.delta2),
        "2 gamma = 1 - delta2, gamma in (1/4, 1/2)", lambda g, s: (4 * g - 1.0,)),
    "B3": _Theorem(
        "x4", "fixed-beta", lambda g, s: _eq(g, 0.25) and s.delta2 > 0.5,
        "gamma=1/4, delta2 > 1/2", lambda g, s: (s.delta2 - 0.5,)),
    "C1": _Theorem(
        "x2+x4+x6", "moving-beta",
        lambda g, s: _eq(g, 1.0 / 6.0) and _eq(s.delta1, 1.0 / 3.0) and _eq(s.delta2, 2.0 / 3.0),
        "gamma=1/6, delta1=1/3, delta2=2/3", top=13),
    "C2": _Theorem(
        "x2", "moving-beta", lambda g, s: 0.25 < g < 0.5 and _eq(2 * g, 1 - s.delta2),
        "2 gamma = 1 - delta2, gamma in (1/4, 1/2)",
        lambda g, s: (4 * g + s.delta1 - 1.0,), top=13),
    "C3": _Theorem(
        "x2", "moving-beta",
        lambda g, s: (1.0 / 6.0 < g <= 0.25 and _eq(2 * g, 1 - s.delta2)
                      and s.delta1 > 2 * s.delta2 - 1.0),
        "2 gamma = 1 - delta2, gamma in (1/6, 1/4], delta1 > 2 delta2 - 1",
        lambda g, s: (6 * g - 1.0, 4 * g + s.delta1 - 1.0), top=13),
    "C4": _Theorem(
        "x6", "moving-beta",
        lambda g, s: _eq(g, 1.0 / 6.0) and s.delta1 > 1.0 / 3.0 and s.delta2 > 2.0 / 3.0,
        "gamma=1/6, delta1 > 1/3, delta2 > 2/3",
        lambda g, s: (s.delta1 - 1.0 / 3.0, s.delta2 - 2.0 / 3.0), top=13),
    "C5": _Theorem(
        "x4", "moving-beta",
        lambda g, s: (1.0 / 6.0 < g < 0.25 and _eq(4 * g, 1 - s.delta1)
                      and 2 * s.delta2 > s.delta1 + 1.0 and s.b > 0),
        "4 gamma = 1 - delta1, gamma in (1/6, 1/4), 2 delta2 > delta1 + 1, b > 0",
        lambda g, s: (2 * g + s.delta2 - 1.0, 6 * g - 1.0), top=13),
    "C6": _Theorem(
        "x4+x6", "moving-beta",
        lambda g, s: _eq(g, 1.0 / 6.0) and _eq(s.delta1, 1.0 / 3.0) and s.delta2 > 2.0 / 3.0,
        "gamma=1/6, delta1=1/3, delta2 > 2/3", lambda g, s: (s.delta2 - 2.0 / 3.0,), top=13),
    "C7": _Theorem(
        "x2+x6", "moving-beta",
        lambda g, s: _eq(g, 1.0 / 6.0) and s.delta1 > 1.0 / 3.0 and _eq(s.delta2, 2.0 / 3.0),
        "gamma=1/6, delta1 > 1/3, delta2=2/3", lambda g, s: (s.delta1 - 1.0 / 3.0,), top=13),
    "C8": _Theorem(
        "x2+x4", "moving-beta",
        lambda g, s: (1.0 / 6.0 < g < 0.25 and _eq(4 * g, 1 - s.delta1)
                      and _eq(2 * s.delta2, s.delta1 + 1.0) and s.b > 0),
        "4 gamma = 1 - delta1, 2 delta2 = delta1 + 1, gamma in (1/6, 1/4), b > 0",
        lambda g, s: (6 * g - 1.0,), top=13),
}


@dataclass(frozen=True)
class CaseSpec:
    """One convergence-rate case: its id, its subcase text, gamma and, for a
    schedule theorem, the schedule.

    The ``theorem`` is the id up to its first ".", and its row of
    ``_THEOREMS`` gives, on construction, the ``fixed_params`` (the
    theorem's point; None under a schedule), ``ladder_max_exp`` (the top
    power of two of the default ladder), the ``density_pattern`` ("x2",
    "x2+x4", ...), the ``parameter_kind`` and the ``validity`` text of its
    hypothesis; ``predicted_exponent``, the r in d_K <= const * n^-r, is
    computed by ``predicted_rate``, so a case that does not fit its theorem
    cannot be built.
    """

    case_id: str
    subcase: str
    gamma: float
    schedule: Schedule | None = None
    theorem: str = field(init=False)
    fixed_params: ModelParams | None = field(init=False)
    ladder_max_exp: int = field(init=False)
    density_pattern: str = field(init=False)
    parameter_kind: str = field(init=False)
    validity: str = field(init=False)
    predicted_exponent: float = field(init=False)

    def __post_init__(self) -> None:
        theorem = self.case_id.partition(".")[0]
        if theorem not in _THEOREMS:
            raise InvalidCaseParametersError(f"unknown theorem tag {theorem!r}")
        row = _THEOREMS[theorem]
        object.__setattr__(self, "theorem", theorem)
        object.__setattr__(self, "fixed_params", row.point)
        object.__setattr__(self, "ladder_max_exp", row.top)
        object.__setattr__(self, "density_pattern", row.pattern)
        object.__setattr__(self, "parameter_kind", row.kind)
        object.__setattr__(self, "validity", row.hypothesis)
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
        moving = s is not None and s.beta_fixed is None
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


def predicted_rate(case: CaseSpec) -> float:
    """Rate exponent r such that d_K <= const * n^-r for this case.

    Reads the theorem's row of ``_THEOREMS``.  First checks that the case
    carries a schedule exactly when the row's kind is one, and of that kind,
    then the row's hypothesis on gamma, delta1 and delta2; raises
    InvalidCaseParametersError when either fails.  r is the minimum of gamma
    and the row's rate terms; a case whose r is not positive is refused the
    same way.  Each B and C hypothesis implies the paper's standing
    hypothesis v = 0 (family B) or w = 0 (family C).
    """
    g, s, row = case.gamma, case.schedule, _THEOREMS[case.theorem]
    carried = ("fixed-point" if s is None
               else "moving-beta" if s.beta_fixed is None else "fixed-beta")
    if carried != row.kind:
        raise InvalidCaseParametersError(
            f"{case.case_id}: {case.theorem} needs a {row.kind} parameter set")
    if not row.holds(g, s):
        raise InvalidCaseParametersError(f"{case.case_id}: needs {row.hypothesis}")
    rate = min((g, *row.terms(g, s)))
    if not rate > 0.0:  # the hypothesis holds equalities to 1e-12, and the terms round
        raise InvalidCaseParametersError(
            f"{case.case_id}: needs {row.hypothesis}; its rate {rate!r} is not positive")
    return rate


# ---------------------------------------------------------------------------
# the catalog


def _build_catalog() -> list[CaseSpec]:
    """All 42 cases with representative default parameters.

    Defaults sit at interior points of each branch's validity region; sign
    variants carry |k| = |b| = 1.
    """
    cases = [
        CaseSpec("fixed-A", "(beta, K) in region A", 0.5),
        CaseSpec("fixed-B", "(beta, K_c(beta)), beta < log 4", 0.25),
        CaseSpec("fixed-C", "tricritical point", 1.0 / 6.0),
        CaseSpec("seq-A", "bounded sequence into region A", 0.5),
    ]

    # family B: K_n onto the critical curve at fixed beta = 1.0
    for sign, tag in ((1.0, "k+"), (-1.0, "k-")):
        cases.append(CaseSpec(f"B1.{tag}", f"critical speed, {tag}", 0.25,
                              Schedule(beta_fixed=1.0, k=sign, delta2=0.5)))
    b23 = [
        ("B2.1", 0.3, 0.4, "gamma in (1/4, 1/3]"),
        ("B2.2", 0.4, 0.2, "gamma in [1/3, 1/2)"),
        ("B3.1", 0.25, 0.6, "delta2 in (1/2, 3/4)"),
        ("B3.2", 0.25, 1.0, "delta2 >= 3/4"),
    ]
    for cid, g, d2, desc in b23:
        cases.append(CaseSpec(cid, desc, g, Schedule(beta_fixed=1.0, k=1.0, delta2=d2)))

    # family C: (beta_n, K_n) into the tricritical point
    third, two_thirds = 1.0 / 3.0, 2.0 / 3.0
    for k in (1.0, -1.0):
        for b in (1.0, -1.0):
            tag = f"k{'+' if k > 0 else '-'}b{'+' if b > 0 else '-'}"
            cases.append(CaseSpec(f"C1.{tag}", f"critical speeds, {tag}", 1.0 / 6.0,
                                  Schedule(k=k, b=b, delta1=third, delta2=two_thirds)))

    c23 = [
        ("C2.1", 0.3, 0.05, "gamma in (1/4, 1/3], delta1 < 1 - 3 gamma"),
        ("C2.2", 0.3, 0.30, "gamma in (1/4, 1/3], delta1 >= 1 - 3 gamma"),
        ("C2.3", 0.4, 0.20, "gamma in [1/3, 1/2)"),
        ("C3.1", 0.19, 0.34, "gamma in (1/6, 1/5], 1-4g < delta1 < 2g"),
        ("C3.2", 0.19, 0.50, "gamma in (1/6, 1/5], delta1 >= 2 gamma"),
        ("C3.3", 0.22, 0.25, "gamma in [1/5, 1/4], 1-4g < delta1 < 1-3g"),
        ("C3.4", 0.22, 0.50, "gamma in [1/5, 1/4], delta1 >= 1 - 3 gamma"),
    ]
    for cid, g, d1, desc in c23:
        cases.append(CaseSpec(
            cid, desc, g, Schedule(k=1.0, b=1.0, delta1=d1, delta2=1.0 - 2.0 * g)))

    c4 = [
        ("C4.1", 0.40, 0.80, "delta1 in (1/3,1/2), delta2 in (2/3,5/6), d1 <= d2-1/3"),
        ("C4.2", 0.45, 0.70, "delta1 in (1/3,1/2), delta2 in (2/3,5/6), d1 > d2-1/3"),
        ("C4.3", 0.40, 1.00, "delta1 in (1/3,1/2), delta2 >= 5/6"),
        ("C4.4", 0.70, 0.75, "delta1 >= 1/2, delta2 in (2/3,5/6)"),
        ("C4.5", 0.70, 1.00, "delta1 >= 1/2, delta2 >= 5/6"),
    ]
    for cid, d1, d2, desc in c4:
        cases.append(CaseSpec(
            cid, desc, 1.0 / 6.0, Schedule(k=1.0, b=1.0, delta1=d1, delta2=d2)))

    c5 = [
        ("C5.1", 0.18, 0.68, "gamma in (1/6, 1/5), delta2 < 4 gamma"),
        ("C5.2", 0.18, 0.80, "gamma in (1/6, 1/5), delta2 >= 4 gamma"),
        ("C5.3", 0.22, 0.70, "gamma in [1/5, 1/4), delta2 < 1 - gamma"),
        ("C5.4", 0.22, 0.90, "gamma in [1/5, 1/4), delta2 >= 1 - gamma"),
    ]
    for cid, g, d2, desc in c5:
        cases.append(CaseSpec(
            cid, desc, g, Schedule(k=1.0, b=1.0, delta1=1.0 - 4.0 * g, delta2=d2)))

    for br, d2 in (("1", 0.75), ("2", 1.0)):
        for b in (1.0, -1.0):
            tag = "b+" if b > 0 else "b-"
            cases.append(CaseSpec(
                f"C6.{br}.{tag}", f"delta2 {'in (2/3, 5/6)' if br == '1' else '>= 5/6'}, {tag}",
                1.0 / 6.0, Schedule(k=1.0, b=b, delta1=third, delta2=d2)))

    for br, d1 in (("1", 0.45), ("2", 0.70)):
        for k in (1.0, -1.0):
            tag = "k+" if k > 0 else "k-"
            cases.append(CaseSpec(
                f"C7.{br}.{tag}", f"delta1 {'in (1/3, 1/2)' if br == '1' else '>= 1/2'}, {tag}",
                1.0 / 6.0, Schedule(k=k, b=1.0, delta1=d1, delta2=two_thirds)))

    # the k < 0 side of C8 sits above the critical curve at finite n; a unit
    # offset leaves E[W (-psi(W))] negative at desk sizes, so those defaults
    # use a shallower |k|
    for br, g in (("1", 0.19), ("2", 0.22)):
        for k in (1.0, -0.25):
            tag = "k+" if k > 0 else "k-"
            d1 = 1.0 - 4.0 * g
            cases.append(CaseSpec(
                f"C8.{br}.{tag}",
                f"gamma {'in (1/6, 1/5]' if br == '1' else 'in [1/5, 1/4)'}, {tag}", g,
                Schedule(k=k, b=1.0, delta1=d1, delta2=(d1 + 1.0) / 2.0)))

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

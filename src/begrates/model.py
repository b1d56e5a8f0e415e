"""Closed-form analytics of the mean-field three-state spin model.

Spins live on the complete graph and take values in {-1, 0, +1}; the model is
parametrised by an inverse temperature ``beta > 0`` and an interaction
strength ``K > 0``.  This module holds everything that is an explicit
function of (beta, K): the cumulant generating function of the tilted
single-spin measure, the critical interaction curve K_c(beta), the
free-energy function

    G(x) = beta*K*x**2 - c_beta(2*beta*K*x)

with its Taylor data at the origin, the finite-n resampling law of one spin,
region classification in the (beta, K) plane, the (beta_n, K_n) parameter
schedules and the global minimizers of G.

All functions are pure; there is no shared mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ScheduleUnderflowError, ValidationError

__all__ = [
    "BETA_C",
    "ModelParams",
    "Schedule",
    "RegionTag",
    "cumulant_gf",
    "cumulant_gf_prime",
    "critical_K",
    "spin_second_moment",
    "G_eval",
    "G_prime",
    "g_derivs_at_zero",
    "resampling_law",
    "schedule_eval",
    "classify_region",
    "minimize_G",
]

BETA_C = math.log(4.0)
"""Critical inverse temperature log(4); K_c(BETA_C) = 3/(2 log 4)."""


def _check_finite(name: str, value):
    """``value`` as a float, or as a float array when it is a numpy array."""
    if isinstance(value, np.ndarray):
        value = value.astype(float, copy=False)
        finite = np.isfinite(value).all()
    else:
        value = float(value)
        finite = math.isfinite(value)
    if not finite:
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value


def _as_output(value):
    """A 0-d result as a float; arrays pass through."""
    return float(value) if np.ndim(value) == 0 else value


def _check_positive(name: str, value: float) -> float:
    value = _check_finite(name, value)
    if value <= 0.0:
        raise ValidationError(f"{name} must be positive, got {value!r}")
    return value


@dataclass(frozen=True)
class ModelParams:
    """Inverse temperature and interaction strength of a single model; 2 beta K
    must stay finite too, since every kernel reads it."""

    beta: float
    K: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", _check_positive("beta", self.beta))
        object.__setattr__(self, "K", _check_positive("K", self.K))
        if not math.isfinite(self.two_beta_K):
            raise ValidationError(f"2 beta K overflows at beta={self.beta!r}, K={self.K!r}")

    @property
    def two_beta_K(self) -> float:
        return 2.0 * self.beta * self.K


def spin_second_moment(beta: float) -> float:
    """E[w^2] = 2 e^{-beta} / (1 + 2 e^{-beta}) for a single tilted spin.

    Every even moment of a {-1,0,1}-valued spin equals this number, which is
    why all cumulant derivatives at 0 below are polynomials in it.
    """
    beta = _check_positive("beta", beta)
    e = math.exp(-beta)
    return 2.0 * e / (1.0 + 2.0 * e)


def cumulant_gf(beta: float, t):
    """Cumulant generating function log E[exp(t*w)] of a single tilted spin.

    Equals log((1 + e^{-beta}(e^t + e^{-t})) / (1 + 2 e^{-beta})).  Evaluated
    through log-add-exp so that |t| up to ~700 never overflows.  Like
    ``cumulant_gf_prime``, ``G_eval`` and ``G_prime`` it works elementwise
    on a numpy array; a scalar gives a float.
    """
    beta = _check_positive("beta", beta)
    t = _check_finite("t", t)
    num = np.logaddexp(0.0, np.logaddexp(t - beta, -t - beta))
    den = np.logaddexp(0.0, math.log(2.0) - beta)
    return _as_output(num - den)


def _scaled_denominator(beta: float, a):
    """(1 + 2 e^{-beta} cosh(a)) e^{beta - a}, the denominator of c'_beta scaled
    by e^{beta - a}; the exponent is clamped at 700 so it never overflows."""
    return np.exp(np.minimum(beta - a, 700.0)) + 1.0 + np.exp(-2.0 * a)


def cumulant_gf_prime(beta: float, t):
    """First derivative of ``cumulant_gf`` in t.

    c'(t) = 2 e^{-beta} sinh(t) / (1 + 2 e^{-beta} cosh(t)), written with the
    exponentials scaled by e^{beta - |t|} so the evaluation is stable for all t.
    Strictly increasing with range (-1, 1).
    """
    beta = _check_positive("beta", beta)
    t = _check_finite("t", t)
    a = np.abs(t)
    num = -np.expm1(-2.0 * a)  # 1 - e^{-2a}
    return _as_output(np.sign(t) * num / _scaled_denominator(beta, a))


def critical_K(beta: float) -> float:
    """Critical interaction strength K_c(beta) = (e^beta + 2) / (4 beta).

    Zeroes the quadratic Taylor coefficient of G at the origin:
    K_c = 1 / (2 beta c''(0)).  Raises ValidationError once e^beta passes the
    double range (beta > log(max double) ~ 709.78).
    """
    beta = _check_positive("beta", beta)
    try:
        return (math.exp(beta) + 2.0) / (4.0 * beta)
    except OverflowError:
        raise ValidationError(
            f"K_c(beta) is past the double range at beta={beta!r} (beta > 709.78)") from None


def G_eval(params: ModelParams, x):
    """The free-energy function G(x) = beta*K*x^2 - c_beta(2*beta*K*x)."""
    x = _check_finite("x", x)
    return params.beta * params.K * x * x - cumulant_gf(params.beta, params.two_beta_K * x)


def G_prime(params: ModelParams, x):
    """G'(x) = 2 beta K (x - c'_beta(2 beta K x))."""
    x = _check_finite("x", x)
    return params.two_beta_K * (x - cumulant_gf_prime(params.beta, params.two_beta_K * x))


class GDerivs(NamedTuple):
    g2: float
    g4: float
    g6: float


def g_derivs_at_zero(params: ModelParams) -> GDerivs:
    """Even Taylor derivatives G''(0), G''''(0), G^(6)(0) at the origin.

    With m = spin_second_moment(beta), the cumulant derivatives at zero are
    c''(0) = m, c''''(0) = m - 3 m^2 and c^(6)(0) = m - 15 m^2 + 30 m^3, so

        g2 = 2 beta K (1 - 2 beta K m)            [= 2bK(e^b+2-4bK)/(e^b+2)]
        g4 = -(2 beta K)^4 (m - 3 m^2)            [= 2(2bK)^4(4-e^b)/(e^b+2)^2]
        g6 = -(2 beta K)^6 (m - 15 m^2 + 30 m^3).

    g2 vanishes exactly at K = K_c(beta); g4 vanishes exactly at beta = log 4;
    g6 = 162 at (log 4, 3/(2 log 4)).
    """
    m = spin_second_moment(params.beta)
    a = params.two_beta_K
    g2 = a * (1.0 - a * m)
    g4 = -(a**4) * (m - 3.0 * m * m)
    g6 = -(a**6) * (m - 15.0 * m * m + 30.0 * m**3)
    return GDerivs(g2, g4, g6)


def resampling_law(params: ModelParams, n: int, u) -> np.ndarray:
    """Law (pi_-, pi_0, pi_+) of a spin resampled given that the other n - 1
    spins sum to u: three rows over the entries of ``u``.

    The weight of l in {-1, 0, +1} is exp(-beta l^2 + beta K (l^2 + 2 l u) / n),
    the finite-n law whose mean pi_+ - pi_- tends to c'_beta(2 beta K u / n),
    the mean-field kernel x - G'(x) / (2 beta K) at x = u / n.  The
    log-weights are shifted by their maximum, so no weight overflows however
    large 2 beta K |u| / n is.
    """
    shift = params.two_beta_K * np.asarray(u, dtype=float) / n
    base = -params.beta + params.beta * params.K / n
    log_w = np.stack((base - shift, np.zeros_like(shift), base + shift))
    w = np.exp(log_w - log_w.max(axis=0))
    return w / w.sum(axis=0)


# ---------------------------------------------------------------------------
# parameter schedules


@dataclass(frozen=True)
class Schedule:
    """Parameter sequences beta_n, K_n.

    A schedule is fixed-beta exactly when ``beta_fixed`` is set: then
    beta_n = beta_fixed and it takes no b and no delta1.  Otherwise beta moves
    to BETA_C as beta_n = log(e^{BETA_C} - b / n^delta1), with b != 0 and
    delta1 > 0.  Either way K_n = K_c(beta_n) - k / n^delta2.
    """

    k: float
    delta2: float
    beta_fixed: float | None = None
    b: float | None = None
    delta1: float | None = None

    def __post_init__(self) -> None:
        if self.k == 0.0:
            raise ValidationError("schedule requires k != 0")
        _check_finite("k", self.k)
        _check_positive("delta2", self.delta2)
        if self.beta_fixed is None:
            if self.b is None or self.b == 0.0:
                raise ValidationError("moving-beta schedule requires b != 0")
            if self.delta1 is None:
                raise ValidationError("moving-beta schedule requires a delta1")
            _check_finite("b", self.b)
            _check_positive("delta1", self.delta1)
        else:
            if self.b is not None or self.delta1 is not None:
                raise ValidationError("fixed-beta schedule takes no b and no delta1, got "
                                      f"b={self.b!r}, delta1={self.delta1!r}")
            _check_positive("beta_fixed", self.beta_fixed)


def schedule_eval(schedule: Schedule, n: int) -> ModelParams:
    """Evaluate (beta_n, K_n) at a given n.

    Raises ScheduleUnderflowError when the requested n is too small for the
    chosen (b, k), i.e. when beta_n <= 0 or K_n <= 0.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if schedule.beta_fixed is None:
        arg = 4.0 - schedule.b / float(n) ** schedule.delta1
        if arg <= 1.0:
            raise ScheduleUnderflowError(
                f"beta_n <= 0 at n={n} for b={schedule.b}, delta1={schedule.delta1}"
            )
        beta_n = math.log(arg)
    else:
        beta_n = float(schedule.beta_fixed)
    K_n = critical_K(beta_n) - schedule.k / float(n) ** schedule.delta2
    if K_n <= 0.0:
        raise ScheduleUnderflowError(
            f"K_n <= 0 at n={n} for k={schedule.k}, delta2={schedule.delta2}"
        )
    return ModelParams(beta_n, K_n)


# ---------------------------------------------------------------------------
# region classification


class RegionTag(str, Enum):
    A = "A"
    B = "B"
    C = "C"
    FIRST_ORDER_CURVE = "FirstOrderCurve"
    TWO_PHASE = "TwoPhase"
    OTHER = "Other"


_REGION_TOL = 1e-9


def classify_region(params: ModelParams) -> RegionTag:
    """Classify (beta, K) against the phase diagram.

    A: single-phase region (0 < beta <= BETA_C, K below the critical curve);
    B: on the critical curve with beta < BETA_C; C: the point
    (BETA_C, K_c(BETA_C)).  Above the curve: TwoPhase, or FirstOrderCurve when
    on the curve with beta > BETA_C.  Every boundary comparison is buffered
    by the relative ``_REGION_TOL``.  The on-curve band is
    _REGION_TOL (max(1, K_c) + beta |K_c'(beta)|) wide on each side, with
    K_c' = K_c (1 - 1/beta) - 1/(2 beta), so moving K by less than half the
    buffer times max(1, K_c) and beta by less than half of it times beta
    never moves a point between A and TwoPhase.
    """
    beta, K = params.beta, params.K
    kc = critical_K(beta)
    k_scale = max(1.0, kc) + abs(kc * (beta - 1.0) - 0.5)  # beta |K_c'| = |K_c (beta - 1) - 1/2|
    b_scale = max(1.0, BETA_C)
    on_curve = abs(K - kc) <= _REGION_TOL * k_scale
    at_beta_c = abs(beta - BETA_C) <= _REGION_TOL * b_scale

    if at_beta_c and on_curve:
        return RegionTag.C
    if on_curve:
        return RegionTag.B if beta < BETA_C else RegionTag.FIRST_ORDER_CURVE
    if K > kc + _REGION_TOL * k_scale:
        return RegionTag.TWO_PHASE
    if beta <= BETA_C + _REGION_TOL * b_scale:
        return RegionTag.A
    return RegionTag.OTHER


# ---------------------------------------------------------------------------
# minimisation of G


def minimize_G(params: ModelParams) -> list[float]:
    """Global minimizers of G on [-1.5, 1.5], sorted; the origin is exactly 0.0.

    G is even, so only [0, 1.5] is scanned, on a 1e-3 grid, and only G' is
    read there.  The origin is a local minimum when G' >= 0 at the first grid
    point to its right; every other local minimum is a sign change of G' from
    - to + between neighbouring grid points, bisected on G' until the midpoint
    stops moving.  The minima whose G is within 1e-12 (relative) of the least
    are kept and mirrored.  A well closer to the origin than one grid step is
    not resolved: it is found between the first two grid points or not at all.
    """
    step = 1e-3
    xs = np.arange(0.0, 1.5 + 0.5 * step, step)
    gp = G_prime(params, xs)
    minima = [0.0] if gp[1] >= 0.0 else []
    for i in np.flatnonzero((gp[:-1] < 0.0) & (gp[1:] >= 0.0)):
        lo, hi = float(xs[i]), float(xs[i + 1])
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:
            if G_prime(params, mid) < 0.0:
                lo = mid
            else:
                hi = mid
            mid = 0.5 * (lo + hi)
        minima.append(mid)
    values = [G_eval(params, x) for x in minima]
    vmin = min(values)
    keep = [x for x, v in zip(minima, values) if v <= vmin + 1e-12 * max(1.0, abs(vmin))]
    return sorted(set(keep) | {-x for x in keep if x > 0.0})

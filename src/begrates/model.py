"""Closed-form analytics of the mean-field three-state spin model.

Spins live on the complete graph and take values in {-1, 0, +1}; the model is
parametrised by an inverse temperature ``beta > 0`` and an interaction
strength ``K > 0``.  This module holds everything that is an explicit
function of (beta, K): the cumulant generating function of the tilted
single-spin measure, the critical interaction curve K_c(beta), the
free-energy function

    G(x) = beta*K*x**2 - c_beta(2*beta*K*x)

with its Taylor data at the origin, the single-spin and pair conditional-mean
kernels, region classification in the (beta, K) plane, the (beta_n, K_n)
parameter schedules and the Legendre transform of c_beta.

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
    "ScheduleMode",
    "Region",
    "RegionTag",
    "LegendreResult",
    "cumulant_gf",
    "cumulant_gf_prime",
    "critical_K",
    "spin_second_moment",
    "G_eval",
    "G_prime",
    "g_derivs_at_zero",
    "f_single",
    "pair_conditional_funcs",
    "resampling_law",
    "schedule_eval",
    "classify_region",
    "minimize_G",
    "legendre_rate",
    "legendre_transform",
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
    """Inverse temperature and interaction strength of a single model."""

    beta: float
    K: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", _check_positive("beta", self.beta))
        object.__setattr__(self, "K", _check_positive("K", self.K))

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
    ``cumulant_gf_prime``, ``G_eval``, ``G_prime`` and ``f_single`` it works
    elementwise on a numpy array; a scalar gives a float.
    """
    beta = _check_positive("beta", beta)
    t = _check_finite("t", t)
    num = np.logaddexp(0.0, np.logaddexp(t - beta, -t - beta))
    den = np.logaddexp(0.0, math.log(2.0) - beta)
    return _as_output(num - den)


def _scaled_denominator(beta: float, a):
    """(1 + 2 e^{-beta} cosh(a)) e^{beta - a}, the denominator of c'_beta and of
    f2 scaled by e^{beta - a}; the exponent is clamped at 700 so it never overflows."""
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
    K_c = 1 / (2 beta c''(0)).
    """
    beta = _check_positive("beta", beta)
    return (math.exp(beta) + 2.0) / (4.0 * beta)


def f_single(params: ModelParams, x):
    """Conditional-mean kernel of one spin given the rest.

    f(x) = 2 e^{-beta} sinh(2 beta K x) / (1 + 2 e^{-beta} cosh(2 beta K x));
    odd, bounded by 1 in absolute value, and equal to x - G'(x)/(2 beta K).
    """
    return cumulant_gf_prime(params.beta, params.two_beta_K * _check_finite("x", x))


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


def pair_conditional_funcs(params: ModelParams, x):
    """Kernels (f1, f2) for conditional second moments of one and two spins.

    f2(x) = 2 e^{-b} cosh(2bKx) / (1 + 2 e^{-b} cosh(2bKx)) approximates
    E[w_i^2 | rest]; f1 plays the same role for E[w_i^2 w_j^2 | rest].  Both
    take values in [0, 1] and satisfy f2(x)^2 = f1(x) identically.  Each is
    evaluated from its own closed form (f1 is not computed as f2 squared).
    Like ``f_single`` both work elementwise on a numpy array.
    """
    beta = params.beta
    a = np.abs(params.two_beta_K * _check_finite("x", x))
    e2a = np.exp(-2.0 * a)
    # f2: numerator and denominator scaled by e^{beta - a}
    f2 = (1.0 + e2a) / _scaled_denominator(beta, a)
    # f1: numerator and denominator scaled by e^{-2a}
    num1 = math.exp(-2.0 * beta) * (1.0 + 2.0 * e2a + np.exp(-4.0 * a))
    den1 = e2a + 2.0 * np.exp(-beta - a) * (1.0 + e2a) + num1
    return _as_output(num1 / den1), _as_output(f2)


def resampling_law(params: ModelParams, n: int, u) -> np.ndarray:
    """Law (pi_-, pi_0, pi_+) of a spin resampled given that the other n - 1
    spins sum to u: three rows over the entries of ``u``.

    The weight of l in {-1, 0, +1} is exp(-beta l^2 + beta K (l^2 + 2 l u) / n),
    the finite-n law whose mean pi_+ - pi_- tends to f_single(u / n).  The
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


class ScheduleMode(str, Enum):
    FIXED_BETA = "fixed-beta"
    MOVING_BETA = "moving-beta"


@dataclass(frozen=True)
class Schedule:
    """Parameter sequences beta_n, K_n.

    In moving-beta mode beta_n = log(e^{BETA_C} - b / n^delta1); in fixed-beta
    mode beta_n = beta_fixed.  In both modes K_n = K_c(beta_n) - k / n^delta2.
    """

    mode: ScheduleMode
    k: float
    delta2: float
    beta_fixed: float | None = None
    b: float = 0.0
    delta1: float = 1.0

    def __post_init__(self) -> None:
        mode = ScheduleMode(self.mode)
        object.__setattr__(self, "mode", mode)
        if self.k == 0.0:
            raise ValidationError("schedule requires k != 0")
        _check_finite("k", self.k)
        _check_positive("delta2", self.delta2)
        if mode is ScheduleMode.MOVING_BETA:
            if self.b == 0.0:
                raise ValidationError("moving-beta schedule requires b != 0")
            _check_finite("b", self.b)
            _check_positive("delta1", self.delta1)
        else:
            if self.beta_fixed is None:
                raise ValidationError("fixed-beta schedule requires beta_fixed")
            _check_positive("beta_fixed", self.beta_fixed)


def schedule_eval(schedule: Schedule, n: int) -> ModelParams:
    """Evaluate (beta_n, K_n) at a given n.

    Raises ScheduleUnderflowError when the requested n is too small for the
    chosen (b, k), i.e. when beta_n <= 0 or K_n <= 0.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if schedule.mode is ScheduleMode.MOVING_BETA:
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


@dataclass(frozen=True)
class Region:
    tag: RegionTag
    boundary_tolerance: float


def classify_region(params: ModelParams, tol: float = 1e-9) -> Region:
    """Classify (beta, K) against the phase diagram.

    A: single-phase region (0 < beta <= BETA_C, K below the critical curve);
    B: on the critical curve with beta < BETA_C; C: the point
    (BETA_C, K_c(BETA_C)).  Above the curve: TwoPhase, or FirstOrderCurve when
    on the curve with beta > BETA_C.  ``tol`` is relative and buffers all
    boundary comparisons so the classification is stable under perturbations
    smaller than tol/2.
    """
    if not (0.0 < tol <= 1e-3):
        raise ValidationError(f"tol must lie in (0, 1e-3], got {tol!r}")
    beta, K = params.beta, params.K
    kc = critical_K(beta)
    k_scale = max(1.0, kc)
    b_scale = max(1.0, BETA_C)
    on_curve = abs(K - kc) <= tol * k_scale
    at_beta_c = abs(beta - BETA_C) <= tol * b_scale

    if at_beta_c and abs(K - critical_K(BETA_C)) <= tol * max(1.0, critical_K(BETA_C)):
        tag = RegionTag.C
    elif on_curve:
        tag = RegionTag.B if beta < BETA_C else RegionTag.FIRST_ORDER_CURVE
    elif K > kc + tol * k_scale:
        tag = RegionTag.TWO_PHASE
    elif beta <= BETA_C + tol * b_scale:
        tag = RegionTag.A
    else:
        tag = RegionTag.OTHER
    return Region(tag=tag, boundary_tolerance=tol)


# ---------------------------------------------------------------------------
# minimisation of G and the Legendre transform


def minimize_G(params: ModelParams) -> list[float]:
    """Global minimizers of G on [-1.5, 1.5].

    Coarse grid scan (G is even and real-analytic, so a 1e-3 grid brackets
    every local minimum at these parameter ranges), then bisection on G' to
    |G'| < 1e-12.  The returned set is symmetric under negation.
    """
    step = 1e-3
    xs = np.arange(-1.5, 1.5 + 0.5 * step, step)
    gs = G_eval(params, xs)
    gmin = gs.min()
    window = 1e-6 * max(1.0, abs(gmin))
    interior = np.arange(1, len(xs) - 1)
    is_min = (gs[interior] <= gs[interior - 1]) & (gs[interior] <= gs[interior + 1])
    # G is even: polish the nonnegative branch and mirror, so the returned
    # set is exactly symmetric
    candidates = [
        int(i)
        for i in interior[is_min]
        if gs[i] <= gmin + window and xs[i] >= -0.5 * step
    ]

    polished: list[float] = []
    for i in candidates:
        lo, hi = float(xs[i - 1]), float(xs[i + 1])
        glo, ghi = G_prime(params, lo), G_prime(params, hi)
        if glo > 0 or ghi < 0:  # no sign change; grid point itself is the best guess
            polished.append(float(xs[i]))
            continue
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            gm = G_prime(params, mid)
            if abs(gm) < 1e-12 or (hi - lo) < 1e-16:
                break
            if gm > 0:
                hi = mid
            else:
                lo = mid
        polished.append(0.5 * (lo + hi))

    values = [G_eval(params, x) for x in polished]
    vmin = min(values)
    keep = sorted(
        x for x, v in zip(polished, values) if v <= vmin + 1e-12 * max(1.0, abs(vmin))
    )
    # where G is extremely flat (high-order minimum) neighbouring grid points
    # tie; merge each run of near-adjacent survivors into one representative,
    # preferring the point closest to the origin
    clusters: list[list[float]] = []
    for x in keep:
        if clusters and x - clusters[-1][-1] <= 2.5 * step:
            clusters[-1].append(x)
        else:
            clusters.append([x])
    out = []
    for cluster in clusters:
        x = min(cluster, key=abs)
        out.append(0.0 if abs(x) < 1e-9 or min(abs(c) for c in cluster) < 1e-9 else x)
    # mirror the positive minimizers (G is even)
    out = sorted(set(out) | {-x for x in out if x > 0.0})
    return out


class LegendreResult(NamedTuple):
    value: float
    t: float
    saturated: bool


_LEGENDRE_T_CAP = 50.0


def legendre_transform(beta: float, z: float) -> LegendreResult:
    """sup_t (t z - c_beta(t)), solved through c'(t) = z by bisection.

    c' is strictly increasing onto (-1, 1); the search interval is capped at
    |t| <= 50.  When |z| >= c'(50) the supremum over the capped interval is
    returned with ``saturated`` set (c' approaches its limits exponentially
    fast, so the capped value agrees with the true limit far below double
    precision for |z| = 1).
    """
    beta = _check_positive("beta", beta)
    z = _check_finite("z", z)
    if abs(z) > 1.0:
        raise ValidationError(f"z must lie in [-1, 1], got {z!r}")
    cap = _LEGENDRE_T_CAP
    if z == 0.0:
        return LegendreResult(0.0, 0.0, False)
    hi_val = cumulant_gf_prime(beta, cap)
    if abs(z) >= hi_val:
        t = math.copysign(cap, z)
        return LegendreResult(t * z - cumulant_gf(beta, t), t, True)
    lo, hi = -cap, cap
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cumulant_gf_prime(beta, mid) < z:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    t = 0.5 * (lo + hi)
    value = t * z - cumulant_gf(beta, t)
    if value < 0.0:
        if value < -1e-12:
            raise ValidationError(f"negative rate {value!r}; solver failure")
        value = 0.0
    return LegendreResult(value, t, False)


def legendre_rate(beta: float, z: float) -> float:
    """Large-deviation rate function of the spin mean under the product law."""
    return legendre_transform(beta, z).value

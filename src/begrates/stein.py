"""Exchangeable-pair machinery and the exact general-density Kolmogorov bound.

The pair (W, W') resamples one uniformly chosen spin from its exact
conditional law.  The bound reads lambda and the drift psi of
``cases.regression_at``, the L2 size of the regression residual R,
Var(E[(W-W')^2 | W]) and the truncated tail expectation, each exact under
the (s, M) law.  ``step_table`` takes the pair's increment law once per
bound, from one ``resampling_law`` pass.  For fixed s every class moment of
the increment is affine in M, and one rule (``StepTable.class_moment``) gives
each as (intercept, slope) rows, which every pass reads as one O(n)
expression in P(s), E[M|s] and E[M^2|s].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cases import CaseSpec, regression_at
from .density import PolyDensity, SteinConstants, _drift_scale
from .errors import ValidationError
from .exact import JointLaw, _fsum_largest_first, kolmogorov_distance, moment
from .model import resampling_law

__all__ = [
    "StepTable",
    "step_table",
    "BoundReport",
    "regression_decompose",
    "variance_term",
    "evaluate_bound",
]


@dataclass(frozen=True)
class StepTable:
    """The pair's increment law per s = -n..n, built by ``step_table``.

    W - W' = (t - l)/n^(1-gamma), with t the removed and l the resampled
    spin.  ``resample`` holds the law (pi_t(-1), pi_t(0), pi_t(+1)) of l for
    the site groups t = +1, -1, 0.  Every class moment is one call of
    ``class_moment``: the step mean is p = 1, the step second moment p = 2.
    """

    law: JointLaw
    gamma: float
    resample: tuple[np.ndarray, np.ndarray, np.ndarray]

    def class_moment(self, p: int, sizes=(1, 2)) -> tuple[np.ndarray, np.ndarray]:
        """(intercept, slope) rows over s of E[(W - W')^p ; |t - l| in sizes | s, M]
        = intercept + slope M: per site, the sum over l of (t - l)^p pi_t(l)."""
        n = self.law.n
        plus, minus, zero = (
            sum((t - l) ** p * pi_l for l, pi_l in zip((-1, 0, 1), pi) if abs(t - l) in sizes)
            for t, pi in zip((1, -1, 0), self.resample))
        # summed over the n+- = (M +- s)/2 and n0 = n - M sites of the class
        s = np.arange(-n, n + 1, dtype=float)
        c0, c1 = 0.5 * s * (plus - minus) + n * zero, 0.5 * (plus + minus) - zero
        norm = n * (float(n) ** (1.0 - self.gamma)) ** p
        return c0 / norm, c1 / norm

    def tail(self, A: float) -> float:
        """E[(W - W')^2 ; |W - W'| >= A], exactly.

        |t - l| takes the sizes 1 and 2, and a size counts when it reaches
        the threshold A n^(1-gamma).  The 1e-15 slack is there because at
        A = n^(gamma-1) the threshold is the size 1 up to rounding (1 + 2.2e-16
        or 1 - 1.1e-16 on some rungs), so every size-1 jump counts.  At the
        default A of ``evaluate_bound`` the threshold is 2 (1 + 1e-9), past
        both sizes, so the tail is 0.
        """
        thresh = A * float(self.law.n) ** (1.0 - self.gamma)
        v0, v1 = self.class_moment(2, [k for k in (1, 2) if k >= thresh - 1e-15])
        return self.law.expect(v0 + v1 * self.law.m_mean)


def step_table(law: JointLaw, gamma: float) -> StepTable:
    """The increment law of ``StepTable`` from one ``resampling_law`` pass.

    Site groups per class: n+ spins at +1 (each sees u = s - 1), n- at -1
    (u = s + 1), n0 at 0 (u = s).
    """
    n = law.n
    pi = resampling_law(law.params, n, np.arange(-n - 1, n + 2))  # u = -n-1..n+1
    return StepTable(law, gamma, tuple(pi[:, 1 - t : 2 * n + 2 - t] for t in (1, -1, 0)))


# ---------------------------------------------------------------------------
# regression residual


def _drift(w: np.ndarray, psi_coeffs: tuple[float, float, float]) -> np.ndarray:
    """-psi(w) = q1 w + q3 w^3 + q5 w^5 in the Horner form w (q1 + w^2 (q3 +
    w^2 q5)) of ``PolyDensity.psi``, which is exactly odd in w."""
    q1, q3, q5 = psi_coeffs
    w2 = w * w
    return w * (q1 + w2 * (q3 + w2 * q5))


def regression_decompose(
    steps: StepTable, lam: float, psi_coeffs: tuple[float, float, float]
) -> float:
    """||R||_2 = sqrt(E[R^2]), exactly, for E[W - W' | F] = lambda (-psi(W)) + R.

    psi(x) = -(q1 x + q3 x^3 + q5 x^5).  R is defined as the residual, so it
    is affine in M on each (s, M) class, like the step mean it is read from.
    """
    law = steps.law
    m0, m1 = steps.class_moment(1)
    r0 = m0 - lam * _drift(law.w_values(steps.gamma), psi_coeffs)  # R = r0 + m1 M per class
    # E[R^2 | s] unexpanded, so the small residual does not cancel away
    m_var = np.maximum(law.m_second - law.m_mean**2, 0.0)
    return math.sqrt(law.expect((r0 + m1 * law.m_mean) ** 2 + m1**2 * m_var))


# ---------------------------------------------------------------------------
# variance of the conditional second moment


def variance_term(steps: StepTable) -> float:
    """Var(E[(W - W')^2 | W]), exactly.

    W generates the same sigma-field as s, so the (s, M) conditional second
    moments are first collapsed to s-classes through E[M | s].
    """
    law = steps.law
    v0, v1 = steps.class_moment(2)
    h = v0 + v1 * law.m_mean
    return law.expect((h - law.expect(h)) ** 2)


# ---------------------------------------------------------------------------
# the bound


@dataclass(frozen=True)
class BoundReport:
    """Itemised Kolmogorov bound next to the exact distance it dominates."""

    lam: float
    a_halfwidth: float
    terms: dict[str, float]
    total: float
    exact_dk: float
    constants: dict[str, float]

    def dominates(self) -> bool:
        return self.total >= self.exact_dk


def evaluate_bound(
    law: JointLaw,
    gamma: float,
    case: CaseSpec,
    density: PolyDensity,
    consts: SteinConstants,
    A: float | None = None,
) -> BoundReport:
    """General-density Kolmogorov bound, every term exact under the law.

    The Stein equation for the comparison density is scaled by
    c = E[W(-psi(W))], so the density-level envelopes d1..d4 enter divided
    by c.  The increment |W - W'| reaches 2 n^(gamma-1), so the tail term
    vanishes only for A above that; the default A = 2 n^(gamma-1) (1 + 1e-9)
    is just above it, and its tail term is exactly 0.  An A whose bound is
    not finite raises ValidationError; a c that is not positive raises
    NonIntegrableDensityError, in ``_drift_scale``.
    """
    n = law.n
    if A is None:
        A = 2.0 / float(n) ** (1.0 - gamma) * (1.0 + 1e-9)
    if not (0.0 < A < math.inf):
        raise ValidationError(f"half-width A must be positive and finite, got {A!r}")
    # d_K first, so the step table is not alive during the CDF pass
    exact_dk = kolmogorov_distance(law, gamma, density.cdf_at_sorted)
    steps = step_table(law, gamma)
    lam, psi_coeffs = regression_at(case, n)

    m2 = moment(law, gamma, 2)
    c = _drift_scale(psi_coeffs, lambda k: m2 if k == 2 else moment(law, gamma, k))
    d1, d2, d3, d4 = consts.d1 / c, consts.d2 / c, consts.d3 / c, consts.d4 / c

    var_cond = variance_term(steps)
    r_l2 = regression_decompose(steps, lam, psi_coeffs)
    # |psi| is exactly even, so E|psi(W)| is twice its sum over s > 0
    w = law.w_values(gamma)[n + 1 :]
    e_abs_psi = 2.0 * _fsum_largest_first(law.s_probs[n + 1 :] * np.abs(_drift(w, psi_coeffs)))
    tail = steps.tail(A)

    try:  # A**3 overflows past A ~ 5.6e102
        terms = {
            "variance_term": d2 / (2.0 * lam) * math.sqrt(var_cond),
            "remainder_term": (d1 + d2 * math.sqrt(m2) + 1.5 * A) * r_l2 / lam,
            "cube_term": d4 * A**3 / (4.0 * lam),
            "psi_term": 1.5 * A * e_abs_psi,
            "tail_term": d3 / (2.0 * lam) * tail,
        }
        total = math.fsum(terms.values())
    except OverflowError:
        total = math.inf
    if not (total < math.inf):
        raise ValidationError(f"the bound at half-width A = {A!r} is not finite")
    return BoundReport(
        lam=lam,
        a_halfwidth=A,
        terms=terms,
        total=total,
        exact_dk=exact_dk,
        constants={"d1": consts.d1, "d2": consts.d2, "d3": consts.d3, "d4": consts.d4},
    )


"""Exchangeable-pair machinery and the exact general-density Kolmogorov bound.

The pair (W, W') resamples one uniformly chosen spin from its exact
conditional law.  The bound reads lambda and the drift psi of
``cases.regression_at``, the L2 size of the regression residual R,
Var(E[(W-W')^2 | W]) and the truncated tail expectation, each exact under
the (s, M) law.  For fixed s each per-class increment
moment is affine in M; ``step_table`` builds those affine rows once per
bound, from one ``resampling_law`` pass, and every pass reads them as one
O(n) expression in P(s), E[M|s] and E[M^2|s].
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


def _site_sum(n: int, s: np.ndarray, plus, minus, zero):
    """(intercept, slope) of n+ plus + n- minus + n0 zero as a function of M,
    with n+- = (M +- s)/2 and n0 = n - M."""
    return 0.5 * s * (plus - minus) + n * zero, 0.5 * (plus + minus) - zero


@dataclass(frozen=True)
class StepTable:
    """Per-s (intercept, slope) rows, over s = -n..n, of the class moments

        E[W - W' | s, M]                   = mean[0] + mean[1] M
        E[(W - W')^2 | s, M]               = second[0] + second[1] M
        E[(W - W')^2 ; |t - l| = 2 | s, M] = jump2[0] + jump2[1] M

    with t the removed and l the resampled spin.  Built by ``step_table``.
    """

    law: JointLaw
    gamma: float
    mean: tuple[np.ndarray, np.ndarray]
    second: tuple[np.ndarray, np.ndarray]
    jump2: tuple[np.ndarray, np.ndarray]

    def tail(self, A: float) -> float:
        """E[(W - W')^2 ; |W - W'| >= A], exactly.

        Increment values are (t - l)/n^(1-gamma) and |t - l| takes values
        0, 1, 2; a jump of 0 adds nothing to the second moment.
        """
        thresh = A * float(self.law.n) ** (1.0 - self.gamma)
        if 1.0 >= thresh - 1e-15:
            v0, v1 = self.second
        elif 2.0 >= thresh - 1e-15:
            v0, v1 = self.jump2
        else:
            return 0.0
        return self.law.expect(v0 + v1 * self.law.m_mean)


def step_table(law: JointLaw, gamma: float) -> StepTable:
    """The class moments of ``StepTable`` from one ``resampling_law`` pass.

    Site groups per class: n+ spins at +1 (each sees u = s - 1), n- at -1
    (u = s + 1), n0 at 0 (u = s).
    """
    n = law.n
    scale = float(n) ** (1.0 - gamma)
    s = law.s_values.astype(float)
    pi = resampling_law(law.params, n, np.arange(-n - 1, n + 2))  # u = -n-1..n+1
    pm_p, pz_p, pp_p = pi[:, :-2]  # t = +1, u = s - 1
    pm_m, pz_m, pp_m = pi[:, 2:]  # t = -1, u = s + 1
    pm_z, pz_z, pp_z = pi[:, 1:-1]  # t = 0, u = s
    e0, e1 = _site_sum(n, s, pp_p - pm_p, pp_m - pm_m, pp_z - pm_z)  # sum of E[w']
    v0, v1 = _site_sum(n, s, 4.0 * pm_p + pz_p, 4.0 * pp_m + pz_m, pp_z + pm_z)
    j0, j1 = _site_sum(n, s, 4.0 * pm_p, 4.0 * pp_m, 0.0)
    var_scale = n * scale**2
    return StepTable(law, gamma, ((s - e0) / (n * scale), -e1 / (n * scale)),
                     (v0 / var_scale, v1 / var_scale), (j0 / var_scale, j1 / var_scale))


# ---------------------------------------------------------------------------
# regression residual


def regression_decompose(
    steps: StepTable, lam: float, psi_coeffs: tuple[float, float, float]
) -> float:
    """||R||_2 = sqrt(E[R^2]), exactly, for E[W - W' | F] = lambda (-psi(W)) + R.

    psi(x) = -(q1 x + q3 x^3 + q5 x^5).  R is defined as the residual, so it
    is affine in M on each (s, M) class, like the step mean it is read from.
    """
    law = steps.law
    q1, q3, q5 = psi_coeffs
    m0, m1 = steps.mean
    w = law.w_values(steps.gamma)
    r0 = m0 - lam * (q1 * w + q3 * w**3 + q5 * w**5)  # R = r0 + m1 M on each class
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
    v0, v1 = steps.second
    h = v0 + v1 * law.m_mean
    return law.expect((h - law.expect(h)) ** 2)


# ---------------------------------------------------------------------------
# the bound


@dataclass(frozen=True)
class BoundReport:
    """Itemised Kolmogorov bound next to the exact distance it dominates."""

    case_id: str
    n: int
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
    by c.  The default half-width A = n^(gamma-1) matches the exponent
    bookkeeping of the rate proofs; note the increment |W - W'| reaches
    2 n^(gamma-1), so the tail term only vanishes for A above that.
    """
    n = law.n
    if A is None:
        A = float(n) ** (gamma - 1.0)
    if not (0.0 < A < math.inf):
        raise ValidationError(f"half-width A must be positive and finite, got {A!r}")
    # d_K first, so the step table is not alive during the CDF pass
    exact_dk = kolmogorov_distance(law, gamma, density.cdf_at_sorted)
    steps = step_table(law, gamma)
    lam, psi_coeffs = regression_at(case, n)
    q1, q3, q5 = psi_coeffs

    m2 = moment(law, gamma, 2)
    c = _drift_scale(psi_coeffs, lambda k: m2 if k == 2 else moment(law, gamma, k))
    if not (c > 0.0):
        raise ValidationError(f"drift scale E[W(-psi(W))] = {c!r} must be positive")
    d1, d2, d3, d4 = consts.d1 / c, consts.d2 / c, consts.d3 / c, consts.d4 / c

    var_cond = variance_term(steps)
    r_l2 = regression_decompose(steps, lam, psi_coeffs)
    w = law.w_values(gamma)
    e_abs_psi = _fsum_largest_first(law.s_probs * np.abs(q1 * w + q3 * w**3 + q5 * w**5))
    tail = steps.tail(A)

    terms = {
        "variance_term": d2 / (2.0 * lam) * math.sqrt(var_cond),
        "remainder_term": (d1 + d2 * math.sqrt(m2) + 1.5 * A) * r_l2 / lam,
        "cube_term": d4 * A**3 / (4.0 * lam),
        "psi_term": 1.5 * A * e_abs_psi,
        "tail_term": d3 / (2.0 * lam) * tail,
    }
    total = math.fsum(terms.values())
    return BoundReport(
        case_id=case.case_id,
        n=n,
        lam=lam,
        a_halfwidth=A,
        terms=terms,
        total=total,
        exact_dk=exact_dk,
        constants={"d1": consts.d1, "d2": consts.d2, "d3": consts.d3, "d4": consts.d4},
    )


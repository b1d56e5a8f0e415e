"""Independent oracles used across the test suite.

Everything here recomputes package quantities by a different route:
exhaustive 3^n enumeration, finite differences, high-precision series
differentiation, dense-grid scans and scipy's adaptive quadrature.  Oracles
deliberately avoid the package's own code paths except for elementary inputs.

The last sections hold quantities that only the tests read, built on the
package's own kernels: a case with a modified schedule, the one-spin
conditional-mean kernel f_single and the pair kernels (f1, f2), the
conditional-mean sandwich gap, the Stein solution f_z and the Gaussian
bound.
"""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import dataclass, replace
from itertools import product

import numpy as np
from scipy.special import gammaln, ndtr

from begrates.cases import CaseSpec, params_at, regression_at
from begrates.density import _LOG_FLOOR, normalize_density
from begrates.errors import ValidationError
from begrates.exact import kolmogorov_distance, moment
from begrates.model import (
    ModelParams,
    _as_output,
    _check_finite,
    _scaled_denominator,
    critical_K,
    cumulant_gf_prime,
    g_derivs_at_zero,
    resampling_law,
)
from begrates.stein import BoundReport, regression_decompose, step_table, variance_term


def brute_configs(params: ModelParams, n: int):
    """All 3^n configurations with their normalised probabilities, and log Z
    relative to the uniform product measure on {-1,0,1}^n."""
    beta, K = params.beta, params.K
    cfgs = list(product((-1, 0, 1), repeat=n))
    logw = []
    for cfg in cfgs:
        s = sum(cfg)
        M = sum(1 for v in cfg if v != 0)
        logw.append(-beta * M + beta * K * s * s / n)
    best = max(logw)
    weights = [math.exp(v - best) for v in logw]
    total = math.fsum(weights)
    return cfgs, [w / total for w in weights], best + math.log(total) - n * math.log(3.0)


def brute_force_law(params: ModelParams, n: int) -> dict[tuple[int, int], float]:
    """The 3^n enumeration aggregated to (s, M), each class summed with fsum."""
    cfgs, probs, _ = brute_configs(params, n)
    by_class: dict[tuple[int, int], list[float]] = {}
    for cfg, p in zip(cfgs, probs):
        by_class.setdefault((sum(cfg), sum(1 for v in cfg if v != 0)), []).append(p)
    return {k: math.fsum(ps) for k, ps in by_class.items()}


def tv_distance(a: dict, b: dict) -> float:
    """Total variation distance between two laws keyed by atom."""
    return 0.5 * math.fsum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in set(a) | set(b))


@dataclass
class EnumeratedLaw:
    """The (s, M) law for s >= 0 (it is symmetric in s) and its s-statistics."""

    slices: list  # slices[s][j] = P(s, M = s + 2j)
    s_probs: np.ndarray  # P(s), s = 0..n
    m_mean: np.ndarray  # E[M | s]
    m_second: np.ndarray  # E[M^2 | s]
    log_partition: float


def enumerated_joint_law(params: ModelParams, n: int) -> EnumeratedLaw:
    """O(n^2) enumeration of the (s, M) classes in log space.

    log w(s, M) = log multinomial(n; n+, n-, n0) - beta M + beta K s^2 / n with
    one global normalisation; conditional moments of M are slice averages.
    """
    beta, K = params.beta, params.K
    lf = gammaln(np.arange(n + 2, dtype=np.float64))  # lf[m] = log((m-1)!)
    log_slices = []
    for s in range(n + 1):
        Ms = np.arange(s, n + 1, 2)
        logc = lf[n + 1] - lf[(Ms + s) // 2 + 1] - lf[(Ms - s) // 2 + 1] - lf[n - Ms + 1]
        log_slices.append(logc - beta * Ms + beta * K / n * s * s)
    best = max(float(lw.max()) for lw in log_slices)
    raw = [np.exp(lw - best) for lw in log_slices]
    total = float(raw[0].sum()) + 2.0 * math.fsum(float(r.sum()) for r in raw[1:])
    slices = [r / total for r in raw]
    s_probs = np.array([float(p.sum()) for p in slices])
    m_mean = np.zeros(n + 1)
    m_second = np.zeros(n + 1)
    for s, p in enumerate(slices):
        if s_probs[s] > 0.0:
            Ms = np.arange(s, n + 1, 2, dtype=float)
            m_mean[s] = float(p @ Ms) / s_probs[s]
            m_second[s] = float(p @ (Ms * Ms)) / s_probs[s]
    log_partition = best + math.log(total) - n * math.log(3.0)
    return EnumeratedLaw(slices, s_probs, m_mean, m_second, log_partition)


def mpmath_joint_law(params: ModelParams, n: int, dps: int = 40, *, rounded: bool = True):
    """(P(s), E[M|s], E[M^2|s]) for s = 0..n at ``dps`` digits, as float
    arrays, or as lists of mpf with ``rounded=False`` (for sums that must
    cancel at full precision; do that arithmetic under ``workdps(dps)``).

    Runs the generating-function recurrence for c_s = [x^s](1 + a(x + 1/x))^m
    (a = e^-beta) at m = n, n-1, n-2 in mpmath, whose exponent range is
    unbounded, so no weight needs rescaling.
    """
    import mpmath as mp

    with mp.workdps(dps):
        a = mp.exp(-mp.mpf(params.beta))

        def row(m):
            c = [mp.mpf(0)] * (n + 3)
            if m >= 0:
                c[m] = a**m
                for s in range(m, 0, -1):
                    c[s - 1] = (a * (m + s + 1) * c[s + 1] + s * c[s]) / (a * (m - s + 1))
            return c

        c0, c1, c2 = row(n), row(n - 1), row(n - 2)
        bk = mp.mpf(params.beta) * mp.mpf(params.K) / n
        w = [mp.exp(bk * s * s) * c0[s] for s in range(n + 1)]
        total = w[0] + 2 * mp.fsum(w[1:])
        em = [n * a * (c1[abs(s - 1)] + c1[s + 1]) / c0[s] for s in range(n + 1)]
        emm = [n * (n - 1) * a * a * (c2[abs(s - 2)] + 2 * c2[s] + c2[s + 2]) / c0[s]
               for s in range(n + 1)]
        rows = ([x / total for x in w], em, [x + y for x, y in zip(emm, em)])
        if not rounded:
            return rows
        return tuple(np.array([float(x) for x in row]) for row in rows)


def sequential_ratio_row(m: int, inv_a: float, size: int) -> np.ndarray:
    """``exact._ratio_row`` as first written: the same recurrence, one Python
    step a ratio, with the counters m + s + 1, m - s + 1 and s as ints."""
    rho = [math.inf] * size
    inv = 0.0  # 1 / rho_{s+1}
    for s in range(m, 0, -1):
        rho[s] = ((m + s + 1) * inv + s * inv_a) / (m - s + 1)
        inv = 1.0 / rho[s]
    if m >= 0:
        rho[0] = inv
    return np.array(rho)


def mpmath_ratio_row(m: int, a: float, size: int) -> list:
    """rho_s = c_{s-1} / c_s for s = 0..size-1, c_s = [x^s](1 + a(x + 1/x))^m
    with the double ``a`` taken exactly, as mpf (inf above m): the ratio
    recurrence run in mpmath at the caller's ``workdps``."""
    import mpmath as mp

    inv_a = 1 / mp.mpf(a)
    rho = [mp.inf] * size
    inv = mp.mpf(0)
    for s in range(m, 0, -1):
        rho[s] = ((m + s + 1) * inv + s * inv_a) / (m - s + 1)
        inv = 1 / rho[s]
    if m >= 0:
        rho[0] = inv
    return rho


def mpmath_raised_row(rho, a: float, top: float, m: int) -> list:
    """The identity of ``exact._raised_row`` in mpmath at the caller's
    ``workdps``: rho^(m+1)_s = rho_s D_{s-1} / D_s for 1 <= s <= m, with
    D_s = 1 + a rho_s + a / rho_{s+1}, then rho^(m+1)_{m+1} = top and
    rho^(m+1)_0 = 1 / rho^(m+1)_1.  rho holds floats or mpf; a and top are
    taken exactly."""
    import mpmath as mp

    rho = [mp.mpf(x) for x in rho]
    a = mp.mpf(a)
    den = [1 + a * rho[s] + a / rho[s + 1] for s in range(m + 1)]
    out = [mp.inf] * len(rho)
    for s in range(1, m + 1):
        out[s] = rho[s] * den[s - 1] / den[s]
    out[m + 1] = mp.mpf(top)
    out[0] = 1 / out[1]
    return out


def max_relative_gap(got: np.ndarray, want) -> float:
    """max |got_s / want_s - 1| for a float row against a float row or a
    list of mpf (compared in mpmath at the caller's ``workdps``).  Entries
    where either row is 0 or inf must agree exactly.  Two floats within a
    factor 2 subtract exactly, so a float gap is rounded only once."""
    import mpmath as mp

    floats = np.array([float(w) for w in want])
    regular = (0.0 < floats) & (floats < math.inf)
    assert np.array_equal(got[~regular], floats[~regular]), "0 or inf entries differ"
    got = got[regular]
    assert ((0.0 < got) & (got < math.inf)).all()
    if isinstance(want, np.ndarray):
        return float((np.abs(got - want[regular]) / want[regular]).max(initial=0.0))
    exact = [w for w, keep in zip(want, regular.tolist()) if keep]
    return float(max((abs(g / w - 1) for g, w in zip(got.tolist(), exact)), default=mp.mpf(0)))


def sequential_running_products(factors: np.ndarray,
                                expos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``exact._running_products`` as first written: one product a factor,
    renormalised by ``math.frexp`` after each."""
    mant = [1.0]
    expo = [0]
    here, e = 1.0, 0
    for f, fe in zip(factors.tolist(), expos.tolist()):
        here, k = math.frexp(here * f)
        e += k + fe
        mant.append(here)
        expo.append(e)
    return np.array(mant), np.array(expo)


def branch_regression_at(case, n: int) -> tuple[float, tuple[float, float, float]]:
    """(lambda, (q1, q3, q5)) restated theorem by theorem, as the reference
    for the pattern-driven ``cases.regression_at``.

    The pair satisfies E[W - W'|F] = lambda*(q1 W + q3 W^3 + q5 W^5) + R with
    the coefficients read off the Taylor expansion of G at the origin:
    q1 from G''(0) (equal to k/K_c(beta_n) under the schedule), q3 from
    G''''(0) and q5 from G^(6)(0).
    """
    p = params_at(case, n)
    b2k = p.two_beta_K
    g2, g4, g6 = g_derivs_at_zero(p)
    th = case.theorem
    s = case.schedule

    if th in ("fixed-A", "seq-A"):
        return 1.0 / n, (g2 / b2k, 0.0, 0.0)
    if th == "fixed-B":
        return float(n) ** -1.5, (0.0, g4 / (6.0 * b2k), 0.0)
    if th == "fixed-C":
        return float(n) ** (-5.0 / 3.0), (0.0, 0.0, g6 / (120.0 * b2k))
    if th == "B1":
        return float(n) ** -1.5, (s.k / critical_K(p.beta), g4 / (6.0 * b2k), 0.0)
    if th == "B2":
        return float(n) ** -(1.0 + s.delta2), (s.k / critical_K(p.beta), 0.0, 0.0)
    if th == "B3":
        return float(n) ** -1.5, (0.0, g4 / (6.0 * b2k), 0.0)
    if th == "C1":
        q3 = g4 * float(n) ** s.delta1 / (6.0 * b2k)
        return float(n) ** (-5.0 / 3.0), (s.k / critical_K(p.beta), q3, g6 / (120.0 * b2k))
    if th in ("C2", "C3"):
        return float(n) ** -(1.0 + s.delta2), (s.k / critical_K(p.beta), 0.0, 0.0)
    if th == "C4":
        return float(n) ** (-5.0 / 3.0), (0.0, 0.0, g6 / (120.0 * b2k))
    if th == "C5":
        lam = float(n) ** -(1.0 + 2.0 * case.gamma + s.delta1)
        return lam, (0.0, g4 * float(n) ** s.delta1 / (6.0 * b2k), 0.0)
    if th == "C6":
        q3 = g4 * float(n) ** s.delta1 / (6.0 * b2k)
        return float(n) ** (-5.0 / 3.0), (0.0, q3, g6 / (120.0 * b2k))
    if th == "C7":
        return float(n) ** (-5.0 / 3.0), (s.k / critical_K(p.beta), 0.0, g6 / (120.0 * b2k))
    if th == "C8":
        q3 = g4 * float(n) ** s.delta1 / (6.0 * b2k)
        return float(n) ** -(1.0 + s.delta2), (s.k / critical_K(p.beta), q3, 0.0)
    raise ValueError(f"unknown theorem tag {th!r}")


def brute_moment(params: ModelParams, n: int, gamma: float, k: int) -> float:
    cfgs, probs, _ = brute_configs(params, n)
    scale = n ** (1.0 - gamma)
    return math.fsum(p * (sum(cfg) / scale) ** k for cfg, p in zip(cfgs, probs))


def conditional_law(params: ModelParams, n: int, u: int) -> tuple[float, float, float]:
    """Exact 3-point resampling law (pi_-1, pi_0, pi_+1) given the rest sums to u.

    The log-weights are shifted by their maximum, so large beta K u / n does
    not overflow.
    """
    beta, K = params.beta, params.K
    logs = [-beta * l * l + beta * K * (l * l + 2 * l * u) / n for l in (-1, 0, 1)]
    ws = [math.exp(v - max(logs)) for v in logs]
    tot = math.fsum(ws)
    return ws[0] / tot, ws[1] / tot, ws[2] / tot


def brute_step_moments(params: ModelParams, n: int, gamma: float):
    """Exhaustive E[W-W'|config] and E[(W-W')^2|config], grouped by (s, M).

    Verifies along the way that both are constant on each (s, M) class.
    """
    cfgs, probs, _ = brute_configs(params, n)
    scale = n ** (1.0 - gamma)
    by_class: dict[tuple[int, int], tuple[float, float]] = {}
    weights: dict[tuple[int, int], float] = {}
    for cfg, p in zip(cfgs, probs):
        s = sum(cfg)
        M = sum(1 for v in cfg if v != 0)
        m1 = 0.0
        m2 = 0.0
        for t in cfg:
            pm, pz, pp = conditional_law(params, n, s - t)
            mean = pp - pm
            second = (t + 1) ** 2 * pm + t * t * pz + (t - 1) ** 2 * pp
            m1 += t - mean
            m2 += second
        vals = (m1 / (n * scale), m2 / (n * scale * scale))
        key = (s, M)
        if key in by_class:
            old = by_class[key]
            assert abs(old[0] - vals[0]) < 1e-13 and abs(old[1] - vals[1]) < 1e-13
        by_class[key] = vals
        weights[key] = weights.get(key, 0.0) + p
    return by_class, weights


def brute_variance_term(params: ModelParams, n: int, gamma: float) -> float:
    """Var(E[(W-W')^2 | W]) by exhaustive enumeration (condition on s)."""
    by_class, weights = brute_step_moments(params, n, gamma)
    by_s_num: dict[int, float] = {}
    by_s_den: dict[int, float] = {}
    for (s, M), (m1, m2) in by_class.items():
        w = weights[(s, M)]
        by_s_num[s] = by_s_num.get(s, 0.0) + w * m2
        by_s_den[s] = by_s_den.get(s, 0.0) + w
    mean = math.fsum(by_s_num.values())
    var = math.fsum(
        by_s_den[s] * (by_s_num[s] / by_s_den[s] - mean) ** 2 for s in by_s_num
    )
    return var


@dataclass
class StepMomentTable:
    """Per-class E[W - W' | s, M] (``mean1``) and E[(W - W')^2 | s, M]
    (``sec``) for s >= 0, as arrays over M = s, s + 2, ..., n; the mean is
    odd in s and the second moment even."""

    mean1: list
    sec: list


def conditional_step_moments(params: ModelParams, n: int, gamma: float) -> StepMomentTable:
    """The O(n^2) per-(s, M) table of class step moments, summed site group
    by site group: n+ spins at +1 (each sees u = s - 1), n- at -1 (u = s + 1)
    and n0 at 0 (u = s), each resampled from the scalar 3-point law."""
    scale = n ** (1.0 - gamma)
    mean1, sec = [], []
    for s in range(n + 1):
        Ms = np.arange(s, n + 1, 2)
        m1, m2 = np.full(Ms.size, float(s)), np.zeros(Ms.size)
        for count, t in (((Ms + s) // 2, 1), ((Ms - s) // 2, -1), (n - Ms, 0)):
            pm, pz, pp = conditional_law(params, n, s - t)
            m1 -= count * (pp - pm)
            m2 += count * ((t + 1) ** 2 * pm + t * t * pz + (t - 1) ** 2 * pp)
        mean1.append(m1 / (n * scale))
        sec.append(m2 / (n * scale * scale))
    return StepMomentTable(mean1, sec)


def mpmath_step_rows(law, gamma: float, lam: float, psi_coeffs, dps: int = 40):
    """``StepTable.class_moment`` for p = 1 and 2 and ``regression_decompose``'s
    ||R||_2 at ``dps`` digits, from the same float law (P(s), E[M|s],
    E[M^2|s]), lambda and psi coefficients, with the resampling law taken
    exactly from the law's parameters.

    Returns ((m0, m1), (v0, v1), r_l2), the rows as float arrays over
    s = -n..n and r_l2 as a float, each rounded once from its mpf value.
    """
    import mpmath as mp

    n = law.n
    with mp.workdps(dps):
        beta, K = mp.mpf(law.params.beta), mp.mpf(law.params.K)

        def pi(u):  # (pi(-1), pi(0), pi(+1)) given the other spins sum to u
            ws = [mp.exp(-beta * l * l + beta * K * (l * l + 2 * l * u) / n) for l in (-1, 0, 1)]
            total = mp.fsum(ws)
            return [x / total for x in ws]

        law_u = {u: pi(u) for u in range(-n - 1, n + 2)}
        scale = mp.mpf(n) ** (1 - mp.mpf(gamma))
        rows = []
        for p in (1, 2):
            c0, c1 = [], []
            for s in range(-n, n + 1):
                plus, minus, zero = (
                    mp.fsum((t - l) ** p * x for l, x in zip((-1, 0, 1), law_u[s - t]))
                    for t in (1, -1, 0))
                c0.append((s * (plus - minus) / 2 + n * zero) / (n * scale**p))
                c1.append(((plus + minus) / 2 - zero) / (n * scale**p))
            rows.append((c0, c1))
        q1, q3, q5 = (mp.mpf(q) for q in psi_coeffs)
        terms = []
        for i, s in enumerate(range(-n, n + 1)):
            w = s / scale
            m0, m1 = rows[0][0][i], rows[0][1][i]
            mm, msec = mp.mpf(law.m_mean[i]), mp.mpf(law.m_second[i])
            r_bar = m0 - lam * (q1 * w + q3 * w**3 + q5 * w**5) + m1 * mm
            terms.append(mp.mpf(law.s_probs[i]) * (r_bar**2 + m1**2 * max(msec - mm**2, 0)))
        r_l2 = float(mp.sqrt(mp.fsum(terms)))
        mean, second = (tuple(np.array([float(x) for x in c]) for c in row) for row in rows)
    return mean, second, r_l2


def variance_term_classwise(steps) -> float:
    """Var(E[(W - W')^2 | F]) over the full (s, M) classes, from a
    ``stein.StepTable``: ``variance_term`` plus the mean within-s variance of
    the affine class moment, so at least as large (conditional Jensen)."""
    law = steps.law
    m_var = np.maximum(law.m_second - law.m_mean**2, 0.0)
    return variance_term(steps) + law.expect(steps.class_moment(2)[1] ** 2 * m_var)


def brute_pair_covariance(params: ModelParams, n: int) -> float:
    """Cov(w_1^2, w_2^2) directly from the 3^n enumeration."""
    cfgs, probs, _ = brute_configs(params, n)
    e1 = math.fsum(p * cfg[0] ** 2 for cfg, p in zip(cfgs, probs))
    e12 = math.fsum(p * cfg[0] ** 2 * cfg[1] ** 2 for cfg, p in zip(cfgs, probs))
    return e12 - e1 * e1


def central_second_derivative(f, x: float, h: float) -> float:
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def central_fourth_derivative(f, x: float, h: float) -> float:
    return (
        f(x + 2 * h) - 4.0 * f(x + h) + 6.0 * f(x) - 4.0 * f(x - h) + f(x - 2 * h)
    ) / h**4


def richardson_second_derivative(f, x: float, h: float = 0.02) -> float:
    """O(h^4) second derivative: Richardson over two central stencils."""
    coarse = central_second_derivative(f, x, h)
    fine = central_second_derivative(f, x, h / 2.0)
    return (4.0 * fine - coarse) / 3.0


def richardson_fourth_derivative(f, x: float, h: float = 0.05) -> float:
    """O(h^4) fourth derivative: Richardson over two 5-point stencils."""
    coarse = central_fourth_derivative(f, x, h)
    fine = central_fourth_derivative(f, x, h / 2.0)
    return (4.0 * fine - coarse) / 3.0


def series_g6_oracle(beta: float, K: float) -> float:
    """G^(6)(0) by high-precision Taylor differentiation of the cumulant."""
    import mpmath as mp

    with mp.workdps(50):
        b = mp.mpf(beta)

        def c(t):
            return mp.log((1 + mp.e**-b * (mp.e**t + mp.e**-t)) / (1 + 2 * mp.e**-b))

        c6 = mp.taylor(c, 0, 6)[6] * mp.factorial(6)
        return float(-((2 * mp.mpf(beta) * mp.mpf(K)) ** 6) * c6)


def grid_scan_kolmogorov(w: np.ndarray, probs: np.ndarray, cdf, lo: float, hi: float,
                         points: int = 1_000_000) -> float:
    """Dense-grid sup scan of |F_n - F| (lower bound on the true sup).

    The grid is the uniform mesh refined with the atoms and the floats just
    below them, so the left-limit candidates at the jumps are resolved.
    """
    grid = np.concatenate([
        np.linspace(lo, hi, points),
        w,
        np.nextafter(w, -np.inf),
    ])
    grid.sort()
    fn = np.searchsorted(w, grid, side="right")
    cum = np.concatenate(([0.0], np.cumsum(probs)))
    return float(np.abs(cum[fn] - cdf(grid)).max())


def dense_smoothed_cdf(w: np.ndarray, probs: np.ndarray, sigma: float,
                       ts: np.ndarray) -> np.ndarray:
    """sum_i probs_i Phi((t - w_i) / sigma) over every atom at every t, in
    chunks of at most 4M normal CDFs."""
    cdf = np.zeros_like(ts)
    chunk = max(1, 4_000_000 // max(1, ts.size))
    for i in range(0, w.size, chunk):
        z = (ts[None, :] - w[i : i + chunk, None]) / sigma
        cdf += probs[i : i + chunk] @ ndtr(z)
    return cdf


def branchy_sweep(n_plus: int, n_minus: int, sites: list, draws: list,
                  cum_minus: list, cum_zero: list) -> tuple[int, int]:
    """The heat-bath sweep on the counts as first written: the site's old
    spin, then the new one, then both counts, on every update."""
    n = len(sites)
    for i, x in zip(sites, draws):
        old = 1 if i < n_plus else (-1 if i < n_plus + n_minus else 0)
        j = n_plus - n_minus - old + n
        new = -1 if x < cum_minus[j] else (0 if x < cum_zero[j] else 1)
        if new != old:
            n_plus += (new == 1) - (old == 1)
            n_minus += (new == -1) - (old == -1)
    return n_plus, n_minus


def blocklist_chain(params: ModelParams, n: int, sweeps: int, seed: int) -> list[tuple[int, int]]:
    """(s, M) after every sweep of the heat-bath chain from the all-zero
    state, with the draws taken as the sampler first took them: a block of
    max(1, 16384 // n) sweeps at a time, all its site indices and then all
    its uniforms, each turned into one Python list for the whole block."""
    rng = np.random.default_rng(seed)
    cum_minus, cum_zero = np.cumsum(resampling_law(params, n, np.arange(-n, n + 1))[:2],
                                    axis=0).tolist()
    n_plus = n_minus = 0
    series = []
    block = max(1, 16384 // n)
    for first in range(0, sweeps, block):
        count = min(block, sweeps - first)
        sites = rng.integers(0, n, size=count * n).tolist()
        draws = rng.random(count * n).tolist()
        for k in range(count):
            n_plus, n_minus = branchy_sweep(n_plus, n_minus, sites[k * n:(k + 1) * n],
                                            draws[k * n:(k + 1) * n], cum_minus, cum_zero)
            series.append((n_plus - n_minus, n_plus + n_minus))
    return series


def quad_cdf(b1: float, b2: float, b3: float, T: float, xs) -> np.ndarray:
    """CDF of exp(-(b1 x^2 + b2 x^4 + b3 x^6)) on [-T, T] at each of ``xs``,
    by adaptive quadrature of the power form at (near) full double precision.

    The exponent is shifted by its minimum on a fine grid, and the local
    extrema found there are passed to ``quad`` as break points, so double
    wells keep their full accuracy.
    """
    from scipy.integrate import quad

    def poly(x):
        return b1 * x * x + b2 * x**4 + b3 * x**6

    fine = np.linspace(-T, T, 20001)
    vals = poly(fine)
    slope = np.diff(vals)
    extrema = fine[1:-1][slope[:-1] * slope[1:] <= 0.0].tolist()
    shift = float(vals.min())

    def mass(lo, hi):
        inner = [c for c in extrema if lo < c < hi]
        return quad(lambda x: math.exp(-(poly(x) - shift)), lo, hi, points=inner or None,
                    epsabs=0.0, epsrel=2e-14, limit=200)[0]

    total = mass(-T, T)
    return np.array([mass(-T, float(x)) / total for x in xs])


def quad_norm(b1: float, b2: float, b3: float, shift: float, T: float, breaks) -> float:
    """Integral of exp(-(poly(x) - shift)) over [-T, T] by scipy's adaptive
    ``quad``, with the ``breaks`` inside (-T, T) as break points and the
    exponent in the Horner form the package evaluates, so that only the
    integration rule differs from the package's own check of the norm."""
    from scipy.integrate import quad

    def integrand(x):
        y = x * x
        return math.exp(-(y * (b1 + y * (b2 + y * b3)) - shift))

    points = sorted({c for c in breaks if -T < c < T})
    return quad(integrand, -T, T, points=points or None, epsabs=1e-13, epsrel=1e-13,
                limit=500)[0]


def rowmajor_segment_integrals(a, b, integrand, rule=None) -> np.ndarray:
    """The per-cell Gauss-Legendre sum as it stood before the node-major
    layout: nodes laid out (segment, node) and the weighted values summed by
    a row sum, 6 points unless ``rule`` is given."""
    nodes, weights = np.polynomial.legendre.leggauss(6) if rule is None else rule
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    X = mid[:, None] + half[:, None] * nodes[None, :]
    return (integrand(X) * weights[None, :]).sum(axis=1) * half


def whole_segment_integrals(a, b, integrand, rule) -> np.ndarray:
    """The node-major Gauss-Legendre sum in one pass over every segment, as
    it stood before the kernel ran in blocks: one (node, segment) array."""
    nodes, weights = rule
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return (integrand(nodes[:, None] * half + mid) * weights[:, None]).sum(axis=0) * half


def traced_peak(call) -> int:
    """Peak bytes that tracemalloc sees allocated during ``call()``, numpy's
    array buffers included."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def plain_exp_poly_integrand(coeffs, shift: float, k: int = 0, unit: float = 1.0):
    """(x/unit)^k exp(-(poly(x) - shift)) with a plain ``np.exp`` over every
    node, the exponent in the Horner form in x^2."""
    b1, b2, b3 = coeffs

    def integrand(Y):
        Y = Y * Y
        V = np.exp(-(Y * (b1 + Y * (b2 + Y * b3)) - shift))
        if k:
            V *= (Y / unit / unit) ** (k // 2)
        return V

    return integrand


def pair_f1_expanded(params: ModelParams, x: float, dps: int = 50) -> float:
    """The pair kernel f1 from its expanded closed form, in mpmath (whose
    exponent range is unbounded): numerator and denominator scaled by
    e^{-2a}, a = 2 beta K |x|."""
    import mpmath as mp

    with mp.workdps(dps):
        beta = mp.mpf(params.beta)
        a = abs(2 * beta * mp.mpf(params.K) * mp.mpf(x))
        e2a = mp.exp(-2 * a)
        num = mp.exp(-2 * beta) * (1 + 2 * e2a + mp.exp(-4 * a))
        den = e2a + 2 * mp.exp(-beta - a) * (1 + e2a) + num
        return float(num / den)


def gaussian_stein_solution(z: float, x: np.ndarray) -> np.ndarray:
    """Closed-form Stein solution for the standard normal (scipy oracle)."""
    from scipy.stats import norm

    x = np.asarray(x, dtype=float)
    return np.where(
        x <= z,
        norm.cdf(x) * norm.sf(z),
        norm.cdf(z) * norm.sf(x),
    ) / norm.pdf(x)


def scan_stein_constants(d, half_range: float, step: float) -> dict:
    """Stein envelopes d1..d4 and grid spec by a full N x N (z, x) scan.

    Materialises f_z(x) = (x <= z ? F(x) S(z) : F(z) S(x)) / p(x) on the
    grid in chunks of z rows and takes every maximum directly, O(N^2).
    The grid is clipped where the density leaves its representable range and
    mirrored, exactly as ``estimate_stein_constants`` declares it; S comes
    from its own ``d.cdf(-xs)`` pass, so agreement also checks that the package's
    S = F reversed holds on that grid.
    """
    reach = half_range
    if d.poly(reach) - d.poly_min > _LOG_FLOOR:
        lo, hi = 0.0, reach
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if d.poly(mid) - d.poly_min > _LOG_FLOOR:
                hi = mid
            else:
                lo = mid
        reach = lo
    npts = int(round(2 * reach / step)) + 1
    xs = np.linspace(-reach, reach, npts)
    xs = 0.5 * (xs - xs[::-1])
    h = xs[1] - xs[0]
    F = d.cdf(xs)
    S = d.cdf(-xs)
    pdf = np.exp(d.logpdf(xs))
    psi = d.psi(xs)

    d1 = d2 = d3 = d4 = 0.0
    for start in range(0, npts, 64):
        zi = slice(start, min(start + 64, npts))
        left = xs[None, :] <= xs[zi][:, None]
        num = np.where(left, F[None, :] * S[zi][:, None], F[zi][:, None] * S[None, :])
        f = num / pdf[None, :]
        d1 = max(d1, float(np.abs(f).max()))
        slopes = np.diff(f, axis=1) / h
        d2 = max(d2, float(np.abs(slopes).max()))
        d3 = max(d3, float((slopes.max(axis=1) - slopes.min(axis=1)).max()))
        d4 = max(d4, float(np.abs(np.diff(psi[None, :] * f, axis=1) / h).max()))
    spec = {"z_min": -reach, "z_max": reach, "x_min": -reach, "x_max": reach,
            "step": float(h), "points": npts}
    return {"d1": d1, "d2": d2, "d3": d3, "d4": d4, "grid_spec": spec}


# ---------------------------------------------------------------------------
# quantities only the tests read


def with_schedule(case: CaseSpec, **schedule_updates) -> CaseSpec:
    """Copy of a case with modified schedule fields (rate recomputed)."""
    return replace(case, schedule=replace(case.schedule, **schedule_updates))


def f_single(params: ModelParams, x):
    """Conditional-mean kernel of one spin given the rest.

    f(x) = 2 e^{-beta} sinh(2 beta K x) / (1 + 2 e^{-beta} cosh(2 beta K x));
    odd, bounded by 1 in absolute value, and equal to x - G'(x)/(2 beta K).
    Like ``G_prime`` it works elementwise on a numpy array.
    """
    return cumulant_gf_prime(params.beta, params.two_beta_K * _check_finite("x", x))


def pair_conditional_funcs(params: ModelParams, x):
    """Kernels (f1, f2) for conditional second moments of one and two spins.

    f2(x) = 2 e^{-b} cosh(2bKx) / (1 + 2 e^{-b} cosh(2bKx)) approximates
    E[w_i^2 | rest]; f1 plays the same role for E[w_i^2 w_j^2 | rest].  Both
    take values in [0, 1].  f1(x) = 4 e^{-2b} cosh^2(2bKx) / (1 + 2 e^{-b}
    cosh(2bKx))^2 is f2 squared and is computed so; expanded, its terms all
    underflow once beta and 2 beta K |x| pass about 372.  Like ``f_single``
    both work elementwise on a numpy array.
    """
    a = np.abs(params.two_beta_K * _check_finite("x", x))
    # numerator and denominator scaled by e^{beta - a}
    f2 = (1.0 + np.exp(-2.0 * a)) / _scaled_denominator(params.beta, a)
    return _as_output(f2 * f2), _as_output(f2)


def conditional_mean_sandwich_gap(law) -> float:
    """Worst violation of the e^{+-2 beta K / n} sandwich around f_single.

    The exact conditional mean of a resampled spin at S^i = u lies between
    e^{-2 beta K/n} f(u/n) and e^{2 beta K/n} f(u/n); returns the largest
    amount (over all u reachable at this n) by which that fails.  Zero up to
    roundoff when the construction is correct.
    """
    n = law.n
    us = np.arange(-n, n + 1, dtype=float)
    pm, _, pp = resampling_law(law.params, n, us)
    exact = pp - pm
    f = f_single(law.params, us / n)
    a = law.params.two_beta_K / n
    lo = np.minimum(f * math.exp(-a), f * math.exp(a))
    hi = np.maximum(f * math.exp(-a), f * math.exp(a))
    gap = np.maximum(lo - exact, exact - hi)
    return float(gap.max())


def stein_solution(d, z: float, x) -> np.ndarray | float:
    """Solution f_z of f' + psi f = 1{. <= z} - P(z) for the density d.

    f_z(x) = [P(min(x,z)) - P(x) P(z)] / p(x) = S(Z) A(y) with A = F/p, where
    (y, Z) = (x, z) for x <= z and (-x, -z) beyond: no cancellation, and far
    in the left tail A is its asymptote 1/psi instead of 0/0.  Past the
    right floor F(y) = 1 and p(y) may underflow, so S(Z)/p(y) is read as
    S(Z)/p(Z) e^(poly(y) - poly(Z)), with S(Z)/p(Z) from the table while S(Z)
    is a normal double and -1/psi(Z) beyond.  The envelopes of
    ``density.estimate_stein_constants`` read the same factor A, F/p alone:
    their grid stops within _LOG_FLOOR of poly_min, where no tail rule acts.
    """
    scalar = np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    left = xs <= z
    y, Z = np.where(left, xs, -xs), np.where(left, z, -z)
    deep = d.poly(y) - d.poly_min > _LOG_FLOOR
    A = np.empty_like(y)
    np.divide(d.cdf(y), d.pdf(y), out=A, where=~deep)
    np.divide(1.0, d.psi(y), out=A, where=deep)
    out = d.cdf(-Z) * A
    far = (y > 0.0) & deep
    y, Z = y[far], Z[far]
    S = d.cdf(-Z)
    mills = np.divide(S, d.pdf(Z), out=-1.0 / d.psi(Z), where=S >= np.finfo(float).tiny)
    out[far] = mills * np.exp(d.poly(y) - d.poly(Z))
    return float(out[0]) if scalar else out


def max_increment(n: int, gamma: float) -> float:
    """Almost-sure bound on |W - W'|: one resampled spin moves by at most 2."""
    return 2.0 / float(n) ** (1.0 - gamma)


def normal_bound(law, gamma: float, case, A: float | None = None) -> BoundReport:
    """Fully explicit bound against N(0, E[W^2]) for linear-regression cases.

    Valid when psi is linear (psi(x) = -x/sigma^2) and requires the a.s.
    increment bound |W - W'| <= A, i.e. A >= 2 n^(gamma-1).  Its constants
    are the Gaussian closed forms, so it checks the general-density bound of
    ``stein.evaluate_bound`` on the Gaussian cases.
    """
    n = law.n
    inc = max_increment(n, gamma)
    if A is None:
        A = inc * (1.0 + 1e-9)
    if A < inc:
        raise ValidationError(
            f"normal bound requires A >= {inc!r} (the a.s. increment bound), got {A!r}"
        )
    steps = step_table(law, gamma)
    lam, psi_coeffs = regression_at(case, n)
    q1, q3, q5 = psi_coeffs
    if q3 != 0.0 or q5 != 0.0 or q1 == 0.0:
        raise ValidationError("normal bound needs a purely linear regression drift")
    sigma2 = 1.0 / q1
    ew2 = moment(law, gamma, 2)
    rt = math.sqrt(ew2)
    var_cond = variance_term(steps)
    r_l2 = regression_decompose(steps, lam, psi_coeffs)
    sq2pi = math.sqrt(2.0 * math.pi)

    terms = {
        "variance_term": sigma2 / (2.0 * lam) * math.sqrt(var_cond),
        "remainder_term": sigma2 * (rt * (sq2pi + 4.0) / 4.0 + 1.5 * A) * r_l2 / lam,
        "cube_term": sigma2 * A**3 / lam * (rt * sq2pi / 16.0 + rt / 4.0),
        "psi_term": sigma2 * 1.5 * A * rt,
        "tail_term": 0.0,
    }
    density = normalize_density(1.0 / (2.0 * ew2), 0.0, 0.0)
    return BoundReport(
        lam=lam,
        a_halfwidth=A,
        terms=terms,
        total=math.fsum(terms.values()),
        exact_dk=kolmogorov_distance(law, gamma, density.cdf),
        constants={"sigma2": sigma2},
    )

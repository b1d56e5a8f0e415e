"""Exact finite-n law of the total spin.

The Hamiltonian depends on a configuration only through the spin sum s and
the number M of nonzero spins.  Summing the multinomial weights
n! / (n+! n-! n0!) e^(-beta M) over M gives the s-marginal from a generating
function, with a = e^(-beta):

    P(s) ~ exp(beta K s^2 / n) c_s,    c_s = [x^s] (1 + a(x + 1/x))^n,

and differentiating in a gives the conditional moments of M,

    E[M | s]        = n a (c'_{s-1} + c'_{s+1}) / c_s,
    E[M(M-1) | s]   = n (n-1) a^2 (c''_{s-2} + 2 c''_s + c''_{s+2}) / c_s,

where c' and c'' are the coefficient rows of the (n-1)-th and (n-2)-th
powers.  Each row comes from an all-positive three-term recurrence, so the
law costs O(n) time and memory, and every quantity the bounds consume is a
moment of M given s.  Single (s, M) slices are rebuilt on demand, in O(n)
each, for atom listings and small-n oracle checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterator, Mapping

import numpy as np
from scipy.special import gammaln, ndtr

from .density import _segment_integrals
from .errors import CapExceededError, ValidationError
from .model import G_eval, ModelParams

__all__ = [
    "DEFAULT_N_CAP",
    "JointLaw",
    "build_joint_law",
    "moment",
    "kolmogorov_distance",
    "hs_check",
    "pair_covariance",
    "brute_force_law",
    "tv_distance",
]

DEFAULT_N_CAP = 20000
# e^beta times s must stay finite in the coefficient recurrence
_BETA_MAX = 600.0
# ln 2 in two parts; k * _LN2_HI is exact for |k| < 2^20
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10


@dataclass
class JointLaw:
    """Probability law of (s, M) under the finite-n Gibbs measure.

    Held as the s-marginal and the first two moments of M given s, each over
    s = -n..n and exactly symmetric in s.  ``log_partition`` is the log
    normalising constant relative to the uniform product measure on
    {-1,0,1}^n.
    """

    n: int
    params: ModelParams
    log_partition: float
    s_values: np.ndarray = field(repr=False)
    s_probs: np.ndarray = field(repr=False)
    m_mean: np.ndarray = field(repr=False)  # E[M | s]
    m_second: np.ndarray = field(repr=False)  # E[M^2 | s]

    def slice_probs(self, s: int) -> np.ndarray:
        """P(s, M) over M = |s|, |s| + 2, ..., n: P(s) times the normalised
        multinomial weights n!/(n+! n-! n0!) e^(-beta M) of the slice."""
        t = abs(s)
        Ms = np.arange(t, self.n + 1, 2)
        lw = -(gammaln((Ms + t) // 2 + 1) + gammaln((Ms - t) // 2 + 1)
               + gammaln(self.n - Ms + 1)) - self.params.beta * Ms
        w = np.exp(lw - lw.max())
        return self.s_probs[self.n + t] * w / w.sum()

    def iter_slices(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Yield (s, M array, probability array) for every s in [-n, n]."""
        for s in range(-self.n, self.n + 1):
            yield s, np.arange(abs(s), self.n + 1, 2), self.slice_probs(s)

    def atoms(self) -> dict[tuple[int, int], float]:
        out: dict[tuple[int, int], float] = {}
        for s, Ms, ps in self.iter_slices():
            for M, p in zip(Ms, ps):
                out[(s, int(M))] = float(p)
        return out

    def w_values(self, gamma: float) -> np.ndarray:
        return self.s_values / float(self.n) ** (1.0 - gamma)

    def expect(self, values: np.ndarray) -> float:
        """E[values(s)] for an array of per-s values over s = -n..n."""
        return float((self.s_probs * values).sum())

    def count_moments(self) -> tuple[float, float]:
        """(E[M], E[M^2]) of the nonzero-spin count."""
        return self.expect(self.m_mean), self.expect(self.m_second)


def _coefficient_row(m: int, inv_a: float, size: int) -> tuple[np.ndarray, np.ndarray]:
    """c_s / a^m for s = 0..size-1, c_s = [x^s](1 + a(x + 1/x))^m, as
    mantissas and binary exponents (value = mantissa * 2^exponent).

    Runs the all-positive downward recurrence
    c_{s-1} = (a(m+s+1) c_{s+1} + s c_s) / (a(m-s+1)) from c_{m+1} = 0 and
    c_m = a^m.  Anchoring every row at its top entry keeps rows of different
    m apart by exact powers of a.  Entries above m (all of them for m < 0)
    are zero.
    """
    mant = [0.0] * size
    expo = [0] * size
    above, here, e = 0.0, 1.0, 0  # c_{s+1} and c_s, both scaled by 2^-e
    for s in range(m, 0, -1):
        mant[s], expo[s] = here, e
        here, k = math.frexp(((m + s + 1) * above + s * inv_a * here) / (m - s + 1))
        above, e = math.ldexp(mant[s], -k), e + k
    if m >= 0:
        mant[0], expo[0] = here, e
    return np.array(mant), np.array(expo)


def _running_products(mants: np.ndarray, expos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1, f_0, f_0 f_1, ... for factors f_i = mants[i] * 2^expos[i], as
    mantissas and binary exponents."""
    mant = [1.0]
    expo = [0]
    here, e = 1.0, 0
    for f, fe in zip(mants.tolist(), expos.tolist()):
        here, k = math.frexp(here * f)
        e += k + fe
        mant.append(here)
        expo.append(e)
    return np.array(mant), np.array(expo)


def build_joint_law(params: ModelParams, n: int, *, cap: int = DEFAULT_N_CAP) -> JointLaw:
    """The exact law at size n, in O(n) time and memory.

    P(s), E[M|s] and E[M^2|s] come from the generating-function rows of
    orders n, n-1 and n-2 (see the module docstring).  The weight of s-1
    relative to s is (c_{s-1}/c_s) e^(-beta K (2s-1)/n), and P(s) is the
    running product of these ratios from s = n down, normalised; no weight
    passes through a logarithm.  Raises CapExceededError above ``cap``.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if n > cap:
        raise CapExceededError(f"n={n} exceeds the size cap {cap}")
    beta, K = params.beta, params.K
    if beta > _BETA_MAX:
        raise ValidationError(f"the exact law needs beta <= {_BETA_MAX}, got {beta}")
    inv_a = math.exp(beta)
    size = n + 3
    c0m, c0e = _coefficient_row(n, inv_a, size)
    s = np.arange(n + 1)

    def over_c(row, idx):
        # row[idx] / c_s; the powers of a in the n-1 and n-2 rows cancel
        # against the factors a and a^2 of the moment formulas
        return np.ldexp(row[0][idx], row[1][idx] - c0e[s]) / c0m[s]

    c1 = _coefficient_row(n - 1, inv_a, size)
    c2 = _coefficient_row(n - 2, inv_a, size)
    m_mean = n * (over_c(c1, np.abs(s - 1)) + over_c(c1, s + 1))
    m_fact2 = n * (n - 1.0) * (over_c(c2, np.abs(s - 2)) + 2.0 * over_c(c2, s)
                               + over_c(c2, s + 2))

    # w_{s-1} / w_s = (c_{s-1} / c_s) e^x with x = -beta K (2s-1) / n; e^x
    # alone underflows once beta K is large, so it is split as 2^k e^r
    x = -beta * K * (2.0 * s[1:] - 1.0) / n
    k = np.round(x / math.log(2.0))
    r = (x - k * _LN2_HI) - k * _LN2_LO
    ratio_m = c0m[:n] / c0m[1 : n + 1] * np.exp(r)
    ratio_e = c0e[:n] - c0e[1 : n + 1] + k.astype(np.int64)
    wm, we = _running_products(ratio_m[::-1], ratio_e[::-1])  # w_s / w_n, s = n..0
    top = int(we.max())
    w = np.ldexp(wm, we - top)[::-1]
    total = 2.0 * w.sum() - w[0]
    # w_n = c_n e^(beta K n) = e^(-beta n + beta K n)
    log_partition = beta * (K - 1.0) * n + math.log(total) + top * math.log(2.0) - n * math.log(3.0)

    def mirrored(x):
        return np.concatenate((x[:0:-1], x))

    return JointLaw(
        n=n,
        params=params,
        log_partition=log_partition,
        s_values=np.arange(-n, n + 1),
        s_probs=mirrored(w / total),
        m_mean=mirrored(m_mean),
        m_second=mirrored(m_fact2 + m_mean),
    )


# ---------------------------------------------------------------------------
# moments


def _fsum_largest_first(terms: np.ndarray) -> float:
    """``math.fsum`` of the terms, fed in order of decreasing magnitude.

    fsum is correctly rounded, so the order does not change the result, only
    the cost: fed in s order, terms spanning 1e-321..1 grow fsum's list of
    partial sums long.  At n = 8192 a sum takes ~1-2 ms largest first against
    7-17 ms in s order.
    """
    return math.fsum(terms[np.argsort(-np.abs(terms))].tolist())


def moment(law: JointLaw, gamma: float, k: int) -> float:
    """E[W^k] for W = S_n / n^(1-gamma), accumulated with exact summation.

    The terms P(s) w^k are summed by ``math.fsum``, correctly rounded, and
    fed largest first: in s order fsum is about ten times slower on these
    terms, which span hundreds of orders of magnitude.  The result is the
    same in any order.  The law is symmetric in s, so odd k is exactly zero.
    """
    _check_gamma(gamma)
    if not (0 <= k <= 12):
        raise ValidationError(f"moment order must lie in [0, 12], got {k}")
    if k % 2:
        return 0.0
    if k == 0:
        return 1.0
    w = law.w_values(gamma)
    return _fsum_largest_first(law.s_probs * w**k)


def _check_gamma(gamma: float) -> None:
    if not (0.0 < gamma <= 0.5):
        raise ValidationError(f"gamma must lie in (0, 1/2], got {gamma!r}")


# ---------------------------------------------------------------------------
# Kolmogorov distance


def kolmogorov_distance(
    law: JointLaw,
    gamma: float,
    cdf: Callable[[np.ndarray], np.ndarray],
    *,
    cdf_left: Callable[[np.ndarray], np.ndarray] | None = None,
) -> float:
    """sup_z |P(W <= z) - F(z)| against a distribution function F.

    Exact for the discrete law: the supremum is attained at an atom of W or
    at its left limit, so it suffices to compare F with the step CDF at the
    jump points.  ``cdf_left`` supplies left limits of F when F itself has
    jumps (it defaults to F, which is correct for continuous F).  Both are
    called once on the array of atoms and must return an array of its shape;
    otherwise ValidationError.
    """
    _check_gamma(gamma)
    w = law.w_values(gamma)
    fn = np.cumsum(law.s_probs)
    fn_prev = np.concatenate(([0.0], fn[:-1]))
    f_at = _eval_cdf(cdf, w)
    f_left = f_at if cdf_left is None else _eval_cdf(cdf_left, w)
    d = np.maximum(np.abs(fn - f_at), np.abs(f_left - fn_prev))
    return float(d.max())


def _eval_cdf(cdf: Callable, xs: np.ndarray) -> np.ndarray:
    """F at every point of ``xs`` in one vectorised call."""
    try:
        out = np.asarray(cdf(xs), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"the CDF must accept an array of points: {exc}") from exc
    if out.shape != xs.shape:
        raise ValidationError(
            f"the CDF returned shape {out.shape} for {xs.shape} points"
        )
    return out


def step_cdf_pair(law: JointLaw, gamma: float) -> tuple[Callable, Callable]:
    """Right-continuous CDF of W and its left-limit evaluator."""
    w = law.w_values(gamma)
    fn = np.cumsum(law.s_probs)

    def right(t):
        idx = np.searchsorted(w, np.atleast_1d(t), side="right")
        vals = np.concatenate(([0.0], fn))[idx]
        return vals if np.ndim(t) else float(vals[0])

    def left(t):
        idx = np.searchsorted(w, np.atleast_1d(t), side="left")
        vals = np.concatenate(([0.0], fn))[idx]
        return vals if np.ndim(t) else float(vals[0])

    return right, left


# ---------------------------------------------------------------------------
# Gaussian smoothing identity


def hs_check(
    params: ModelParams,
    n: int,
    gamma: float,
    *,
    law: JointLaw | None = None,
) -> float:
    """Sup CDF gap of the Gaussian-smoothing identity for W.

    Convolving the exact law of W with an independent centred Gaussian of
    variance 1/(2 beta K n^(1-2 gamma)) yields, exactly, the distribution with
    Lebesgue density proportional to exp(-n G(y / n^gamma)).  Both CDFs are
    computed independently (atom sum of normal CDFs versus 6-point
    Gauss-Legendre quadrature of the G-density over ~4097 cells) and compared
    on 2001 points within 8 standard widths of zero; the returned sup
    reflects quadrature and grid error only.
    """
    _check_gamma(gamma)
    if law is None:
        law = build_joint_law(params, n)
    w = law.w_values(gamma)
    noise_var = 1.0 / (params.two_beta_K * float(n) ** (1.0 - 2.0 * gamma))
    sigma = math.sqrt(noise_var)
    width = math.sqrt(moment(law, gamma, 2) + noise_var)
    ts = np.linspace(-8.0 * width, 8.0 * width, 2001)

    # smoothed atom law
    cdf1 = np.zeros_like(ts)
    chunk = max(1, 4_000_000 // max(1, ts.size))
    for i in range(0, w.size, chunk):
        z = (ts[None, :] - w[i : i + chunk, None]) / sigma
        cdf1 += law.s_probs[i : i + chunk] @ ndtr(z)

    # density proportional to exp(-n G(y / n^gamma))
    scale = float(n) ** gamma

    def neg_log_kernel(y):
        return n * G_eval(params, y / scale)

    lo, hi = float(ts[0]), float(ts[-1])
    # widen until the kernel is negligible relative to its minimum
    ref = float(neg_log_kernel(np.linspace(lo, hi, 513)).min())
    while neg_log_kernel(lo) - ref < 760.0:
        lo -= width
    while neg_log_kernel(hi) - ref < 760.0:
        hi += width
    xs = np.unique(np.concatenate((np.linspace(lo, hi, 4097), ts)))
    seg = _segment_integrals(xs[:-1], xs[1:], lambda y: np.exp(-(neg_log_kernel(y) - ref)))
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    cum /= cum[-1]
    cdf2 = cum[np.searchsorted(xs, ts)]

    return float(np.abs(cdf1 - cdf2).max())


# ---------------------------------------------------------------------------
# pair covariance


def pair_covariance(params: ModelParams, n: int, *, law: JointLaw | None = None) -> float:
    """Cov(w_i^2, w_j^2) for i != j, via exchangeability.

    Sum(w_i^2) = M and Sum_{i != j} w_i^2 w_j^2 = M^2 - M, so the covariance
    equals (E[M^2] - E[M]) / (n(n-1)) - (E[M]/n)^2.  The identity is exact,
    but the result is not: the two terms are O(1) and nearly equal while the
    covariance is O(1/n), so rounding in the count moments is magnified.
    Against a 40-digit evaluation in region A the relative error is 4e-9 at
    n = 1024, 2e-7 at n = 4096 and 1e-6 at n = 8192.
    """
    if n < 2:
        raise ValidationError("pair covariance needs n >= 2")
    if law is None:
        law = build_joint_law(params, n)
    em, em2 = law.count_moments()
    return (em2 - em) / (n * (n - 1.0)) - (em / n) ** 2


# ---------------------------------------------------------------------------
# brute-force oracle (exponential in n; used for cross-checks)


def brute_force_law(params: ModelParams, n: int) -> dict[tuple[int, int], float]:
    """Full 3^n enumeration, aggregated to (s, M).  Only sensible for n <= 12."""
    if n > 12:
        raise ValidationError(f"brute force limited to n <= 12, got {n}")
    beta, K = params.beta, params.K
    logs: dict[tuple[int, int], list[float]] = {}
    for cfg in product((-1, 0, 1), repeat=n):
        s = sum(cfg)
        M = sum(1 for v in cfg if v != 0)
        logs.setdefault((s, M), []).append(-beta * M + beta * K * s * s / n)
    best = max(v for vs in logs.values() for v in vs)
    raw = {k: math.fsum(math.exp(v - best) for v in vs) for k, vs in logs.items()}
    total = math.fsum(raw.values())
    return {k: v / total for k, v in raw.items()}


def tv_distance(
    a: Mapping[tuple[int, int], float], b: Mapping[tuple[int, int], float]
) -> float:
    keys = set(a) | set(b)
    return 0.5 * math.fsum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)

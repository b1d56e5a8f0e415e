"""Exact finite-n law of the total spin.

The Hamiltonian depends on a configuration only through the spin sum s and
the number M of nonzero spins.  Summing the multinomial weights
n! / (n+! n-! n0!) e^(-beta M) over M gives the s-marginal from a generating
function, with a = e^(-beta):

    P(s) ~ exp(beta K s^2 / n) c_s,    c_s = [x^s] (1 + a(x + 1/x))^n,

and fixing the first one or two spins gives the conditional moments of M,

    E[M | s]        = n (P+(s) + P-(s)),
    E[M(M-1) | s]   = n (n-1) (P+(s) q(s-1) + P-(s) q(s+1)),

where P+(s) = a c'_{s-1} / c_s and P-(s) = a c'_{s+1} / c_s are the chances
that the first spin is +1 or -1, c' is the coefficient row of the (n-1)-th
power, and q = P+ + P- one size down, from the (n-2)-th power.  The law
reads each row only through its ratios rho_s = c_{s-1} / c_s.  One
all-positive recurrence gives the row of order n-2 in plain floats, and
the exact identity c^(m+1)_s = c^(m)_s D_s, D_s = 1 + a rho_s + a / rho_{s+1},
raises a row by one order in numpy, so the law costs one sequential loop,
O(n) time and memory, and every quantity the bounds consume is a moment of
M given s.  P(s) reads the raised row of order n; E[M | s] and E[M^2 | s]
are built from the kept row of order n-2 on the first read of either, so
d_K, the moments of W and ``hs_check`` never build them.  Single (s, M)
slices are rebuilt on demand, in O(n) each, for atom listings and small-n
oracle checks.  ``hs_check`` puts its points and its quadrature cells on the
atom lattice or refinements of it, and reads its sup at the rounding floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .density import _SUPPORT_LOG, _exp_nonzero, _segment_integrals
from .errors import CapExceededError, ComputationError, ValidationError
from .model import G_eval, ModelParams, minimize_G

__all__ = [
    "DEFAULT_N_CAP",
    "JointLaw",
    "build_joint_law",
    "moment",
    "kolmogorov_distance",
    "hs_check",
    "pair_covariance",
]

DEFAULT_N_CAP = 20000
# e^beta times s must stay finite in the ratio recurrence
_BETA_MAX = 600.0
# ln 2 in two parts; k * _LN2_HI is exact for |k| < 2^21, so for every x >= -2^20
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
# hs_check: normal CDFs are read within this many noise widths of each point
_HS_CUTOFF = 8.5
# the law's running product is taken in blocks of this many factors
_PRODUCT_BLOCK = 512


@dataclass
class JointLaw:
    """Probability law of (s, M) under the finite-n Gibbs measure.

    Held as the s-marginal over s = -n..n, exactly symmetric in s.  The first
    two moments of M given s, ``m_mean`` and ``m_second``, are built together
    on the first read of either, from the ratio row of order n-2 that
    ``build_joint_law`` ran and the law keeps: d_K and the moments of W read
    only P(s).  E[W^k] is summed once per (gamma, k) and kept (``moment``).
    ``log_partition`` is the log normalising constant relative to the uniform
    product measure on {-1,0,1}^n.
    """

    n: int
    params: ModelParams
    log_partition: float
    s_probs: np.ndarray = field(repr=False)
    _rho: np.ndarray = field(repr=False, compare=False)  # ratio row of order n-2
    _moments: dict[tuple[float, int], float] = field(
        default_factory=dict, repr=False, compare=False)

    @cached_property
    def _m_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(E[M | s], E[M^2 | s]) over s = -n..n: q from the kept row of
        order n-2, and the first spin's chances from that row raised to
        order n-1 (see the module docstring).  No recurrence runs here."""
        n, beta = self.n, self.params.beta
        inv_a, a = math.exp(beta), math.exp(-beta)
        q = np.add(*_first_spin(self._rho, a, n + 2))
        plus, minus = _first_spin(_raised_row(self._rho, a, inv_a, n - 2), a, n + 1)
        m_mean = n * (plus + minus)
        # q(s-1) reads q(1) at s = 0, by symmetry
        q_prev = np.concatenate((q[1:2], q[:n]))
        m_second = n * (n - 1.0) * (plus * q_prev + minus * q[1:]) + m_mean
        del plus, minus, q, q_prev  # before the mirrored copies, to lower the peak
        return _mirrored(m_mean), _mirrored(m_second)

    @property
    def m_mean(self) -> np.ndarray:
        """E[M | s] over s = -n..n."""
        return self._m_rows[0]

    @property
    def m_second(self) -> np.ndarray:
        """E[M^2 | s] over s = -n..n."""
        return self._m_rows[1]

    @cached_property
    def _log_factorials(self) -> np.ndarray:
        """log k! for k = 0..n."""
        return np.array([math.lgamma(k + 1.0) for k in range(self.n + 1)])

    def slice_probs(self, s: int) -> np.ndarray:
        """P(s, M) over M = |s|, |s| + 2, ..., n: P(s) times the normalised
        multinomial weights n!/(n+! n-! n0!) e^(-beta M) of the slice."""
        t = abs(s)
        Ms = np.arange(t, self.n + 1, 2)
        lf = self._log_factorials
        lw = -(lf[(Ms + t) // 2] + lf[(Ms - t) // 2] + lf[self.n - Ms]) - self.params.beta * Ms
        w = np.exp(lw - lw.max())
        return self.s_probs[self.n + t] * w / w.sum()

    def atoms(self) -> dict[tuple[int, int], float]:
        """P(s, M) keyed by (s, M), in order of s = -n..n and then M."""
        out: dict[tuple[int, int], float] = {}
        for s in range(-self.n, self.n + 1):
            for M, p in enumerate(self.slice_probs(s).tolist()):
                out[(s, abs(s) + 2 * M)] = p
        return out

    def w_values(self, gamma: float) -> np.ndarray:
        """W = s / n^(1-gamma) over s = -n..n."""
        w = np.arange(-self.n, self.n + 1, dtype=float)
        w /= float(self.n) ** (1.0 - gamma)
        return w

    def expect(self, values: np.ndarray) -> float:
        """E[values(s)] for an array of per-s values over s = -n..n."""
        return float((self.s_probs * values).sum())


def _ratio_row(m: int, inv_a: float, size: int) -> np.ndarray:
    """rho_s = c_{s-1} / c_s for s = 0..size-1, c_s = [x^s](1 + a(x + 1/x))^m.

    The all-positive recurrence c_{s-1} = (a(m+s+1) c_{s+1} + s c_s) / (a(m-s+1))
    divided by c_s, run down from 1/rho_{m+1} = 0: each step damps the
    rounding of the last.  rho_0 = 1/rho_1 by symmetry, and entries above m
    are inf.  For beta <= 600 and m <= 2^20 every entry is below about 4e266,
    so no rescaling is needed.  The counters m + s + 1, m - s + 1 and s are
    floats, exact below 2^53, so each step rounds as it would with ints.
    """
    rho = [math.inf] * size
    inv = 0.0  # 1 / rho_{s+1}
    up, down, t = 2.0 * m + 1.0, 1.0, float(m)  # m + s + 1, m - s + 1, s
    for s in range(m, 0, -1):
        rho[s] = r = (up * inv + t * inv_a) / down
        inv = 1.0 / r
        up -= 1.0
        down += 1.0
        t -= 1.0
    if m >= 0:
        rho[0] = inv
    return np.array(rho)


def _raised_row(rho: np.ndarray, a: float, inv_a: float, m: int) -> np.ndarray:
    """The ratio row of order m+1 from the row ``rho`` of order m, with no
    sequential loop; both have rho's size, at least m + 2.

    c^(m+1)_s = c_s + a c_{s-1} + a c_{s+1} = c_s D_s, with
    D_s = 1 + a rho_s + a / rho_{s+1} the denominator of ``_first_spin``, so
    rho^(m+1)_s = rho_s D_{s-1} / D_s for 1 <= s <= m.  The top entry
    rho^(m+1)_{m+1} = (m+1) e^beta and rho^(m+1)_0 = 1 / rho^(m+1)_1 are set
    as ``_ratio_row`` sets them; entries above m + 1 stay inf.  Each D_s is
    within 3 roundings of the identity on the given row, and each raised
    entry within 8 (9 for rho_0).  For m = -1, the all-inf row that
    ``_ratio_row`` gives for the empty order -1, no D_s is formed and the
    result is the order-0 row, rho_0 = 0.
    """
    den = 1.0 + a * rho[: m + 1] + a / rho[1 : m + 2]  # D_s, s = 0..m
    out = rho.copy()  # inf above m + 1 already
    out[1 : m + 1] *= den[:-1] / den[1:]
    out[m + 1] = (m + 1) * inv_a
    out[0] = 1.0 / out[1]
    return out


def _first_spin(rho: np.ndarray, a: float, size: int) -> tuple[np.ndarray, np.ndarray]:
    """P(w_1 = +1 | s) and P(w_1 = -1 | s) for s = 0..size-1, given the
    ratio row of the other spins.  With u = a rho_s and v = a / rho_{s+1},
    the sum s splits as c_s = c'_s (1 + u + v), so the probabilities are
    u/(1+u+v) and v/(1+u+v).  Where the other spins cannot reach s
    (rho_s = inf) the first spin is +1."""
    u = a * rho[:size]
    v = a / rho[1 : size + 1]
    den = 1.0 + u + v
    return np.divide(u, den, out=np.ones_like(u), where=u < math.inf), v / den


def _mirrored(x: np.ndarray) -> np.ndarray:
    """Values over s = -n..n from those over s = 0..n."""
    return np.concatenate((x[:0:-1], x))


def _running_products(factors: np.ndarray, expos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1, f_0, f_0 f_1, ... for factors f_i = factors[i] * 2^expos[i], as
    mantissas and binary exponents (value = mantissa * 2^exponent).

    Each factor is split as m_i 2^k_i with m_i in [0.5, 1), and the m_i are
    multiplied by ``np.cumprod`` in blocks of at most 512, each started from
    the last mantissa of the one before.  A block's partial products stay
    above 2^-513, in the normal range, where scaling by a power of two
    commutes with rounding: each is the sequential product (mantissa times
    f_i, renormalised) times a power of two, rounded the same way.  So the
    result is bit for bit that of the sequential loop ``here, k =
    frexp(here * f_i)`` wherever that loop stays in the normal range, as it
    does for the law's factors, which lie in [0.7, 6e266].
    """
    mant, expo = np.frexp(factors)
    expo = np.cumsum(expo + expos)
    here, carry = 1.0, 0
    for lo in range(0, mant.size, _PRODUCT_BLOCK):
        block = mant[lo : lo + _PRODUCT_BLOCK]
        block[0] *= here
        np.cumprod(block, out=block)
        expo[lo : lo + _PRODUCT_BLOCK] += carry
        here, k = math.frexp(block[-1])
        carry += k
    mant, k = np.frexp(mant)
    expo += k
    return np.concatenate(([1.0], mant)), np.concatenate(([0], expo))


def _check_size(n: int, rows: int) -> None:
    """Refuse an n whose ``rows`` x (2n + 1) doubles numpy cannot size."""
    if 8 * rows * (2 * n + 1) > np.iinfo(np.intp).max:
        raise ComputationError(f"n={n}: {rows * (2 * n + 1)} doubles pass numpy's largest array")


def build_joint_law(params: ModelParams, n: int, *, cap: int = DEFAULT_N_CAP) -> JointLaw:
    """The exact law at size n, in O(n) time and memory.

    ``_ratio_row`` runs once, at order n-2 (all inf for n = 1, whose order
    -1 has no coefficients), and the law keeps that row for ``m_mean`` and
    ``m_second``.  P(s) reads it raised twice by ``_raised_row``, to order
    n; the order n-1 row between is dropped before the running product.
    The weight of s-1 relative to s is rho_s e^(-beta K (2s-1)/n),
    and P(s) is the running product of these factors from s = n down,
    normalised; no weight passes through a logarithm.  Raises
    CapExceededError above ``cap``.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if n > cap:
        raise CapExceededError(f"n={n} exceeds the size cap {cap}")
    _check_size(n, 1)
    beta, K = params.beta, params.K
    if beta > _BETA_MAX:
        raise ValidationError(f"the exact law needs beta <= {_BETA_MAX}, got {beta}")

    # w_{s-1} / w_s = rho_s e^x with x = -beta K (2s-1) / n, s = 1..n; e^x
    # alone underflows once beta K is large, so it is split as 2^k e^r.  x is
    # floored at -2^20, which keeps k an int64 and r small; the floor acts only
    # when beta K > 2^19, where rho_s < 4e266 leaves every P(s) with |s| < n
    # below e^(-5e5) P(n), so the law is P(+-n) = 1/2 with or without it
    with np.errstate(over="ignore"):  # an overflow to -inf is floored too
        x = np.maximum(-beta * K * (2.0 * np.arange(1, n + 1) - 1.0) / n, -(2.0**20))
    k = np.round(x / math.log(2.0))
    r = (x - k * _LN2_HI) - k * _LN2_LO
    inv_a, a = math.exp(beta), math.exp(-beta)
    held = _ratio_row(n - 2, inv_a, n + 3)
    rho = _raised_row(_raised_row(held, a, inv_a, n - 2), a, inv_a, n - 1)
    ratio = rho[1 : n + 1] * np.exp(r)
    del rho
    wm, we = _running_products(ratio[::-1], k[::-1].astype(np.int64))  # w_s / w_n, s = n..0
    top = int(we.max())
    w = np.ldexp(wm, we - top)[::-1]
    total = 2.0 * w.sum() - w[0]
    # w_n = c_n e^(beta K n) = e^(-beta n + beta K n)
    log_partition = beta * (K - 1.0) * n + math.log(total) + top * math.log(2.0) - n * math.log(3.0)
    if not math.isfinite(log_partition):
        raise ComputationError(f"log Z overflows at beta={beta}, K={K}, n={n}")

    return JointLaw(
        n=n,
        params=params,
        log_partition=log_partition,
        s_probs=_mirrored(w / total),
        _rho=held,
    )


# ---------------------------------------------------------------------------
# moments


def _fsum_largest_first(terms: np.ndarray) -> float:
    """``math.fsum`` of terms >= 0, fed in decreasing order.

    fsum is correctly rounded, so the order does not change the result, only
    the cost: fed in s order, terms spanning 1e-321..1 grow fsum's list of
    partial sums long.  At n = 8192 a sum takes ~1-2 ms largest first against
    7-17 ms in s order.
    """
    return math.fsum(np.sort(terms)[::-1].tolist())


def _moment_terms(probs: np.ndarray, w: np.ndarray, k: int) -> np.ndarray:
    """probs * w^k for even k >= 2: w^2 is formed once and each term is
    probs w^2 times w^2 k/2 - 1 more times.  fl(w w) is exactly even in w, so
    the terms at -s and s agree bit for bit."""
    w2 = w * w
    terms = probs * w2
    for _ in range(k // 2 - 1):
        terms *= w2
    return terms


def moment(law: JointLaw, gamma: float, k: int) -> float:
    """E[W^k] for W = S_n / n^(1-gamma), accumulated with exact summation.

    The law is symmetric in s and the terms P(s) w^k exactly even
    (``_moment_terms``), so odd k is exactly zero and even k is twice the
    correctly rounded ``math.fsum`` over s > 0: the same double as an fsum
    over all 2n + 1 terms.  The terms are fed largest first: in s order fsum
    is about ten times slower on terms that span hundreds of orders of
    magnitude.  Each even moment is summed once per law and (gamma, k), and
    a later call reads the kept double.
    """
    _check_gamma(gamma)
    if not (0 <= k <= 12):
        raise ValidationError(f"moment order must lie in [0, 12], got {k}")
    if k % 2:
        return 0.0
    if k == 0:
        return 1.0
    key = (gamma, k)
    if key not in law._moments:
        n = law.n
        law._moments[key] = 2.0 * _fsum_largest_first(
            _moment_terms(law.s_probs[n + 1 :], law.w_values(gamma)[n + 1 :], k))
    return law._moments[key]


def _check_gamma(gamma: float) -> None:
    if not (0.0 < gamma <= 0.5):
        raise ValidationError(f"gamma must lie in (0, 1/2], got {gamma!r}")


# ---------------------------------------------------------------------------
# Kolmogorov distance


def kolmogorov_distance(
    law: JointLaw, gamma: float, cdf: Callable[[np.ndarray], np.ndarray]
) -> float:
    """sup_z |P(W <= z) - F(z)| against a continuous distribution function F.

    Exact for the discrete law: the supremum is attained at an atom of W or
    at its left limit, so it suffices to compare F with the step CDF and its
    left limit at the jump points.  F is called once on the array of atoms
    and must return an array of its shape; otherwise ValidationError.
    """
    _check_gamma(gamma)
    w = law.w_values(gamma)
    fn = np.cumsum(law.s_probs)
    fn_prev = np.concatenate(([0.0], fn[:-1]))
    f = _eval_cdf(cdf, w)
    d = np.maximum(np.abs(fn - f), np.abs(f - fn_prev))
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


# ---------------------------------------------------------------------------
# Gaussian smoothing identity


def _smoothed_lattice_cdf(probs: np.ndarray, c: float, m: int, R: int, J: int) -> np.ndarray:
    """sum_s probs_s Phi((j m - s R) / c) at j = -J..J, for probs over s = -n..n.

    This is the smoothed CDF at t_j = j m / (R D) of atoms w_s = s / D under
    noise of width c / (R D).  Only the band |j m - s R| <= Q = floor(8.5 c)
    reads Phi, from one table of 2Q + 1 values by ``math.erfc``; atoms left
    of the band count with weight 1, from one prefix sum, and atoms right of
    it are dropped, so the sum is within 2 Phi(-8.5) ~ 1.9e-17 of the full
    one.  probs is spread to every R-th slot of a fine lattice, zero-padded
    so that end bands read zeros, and each point's band is a window of it,
    read at stride m as a view.  The cost is O(n R + J Q).  A fine lattice
    of more than max(2^22, 16 (2n + 1) R) entries raises ComputationError
    before anything is allocated.
    """
    n = probs.size // 2
    Q = int(_HS_CUTOFF * c)
    half = max(n * R, J * m + Q)
    limit = max(2**22, 16 * (2 * n + 1) * R)
    if 2 * half + 1 > limit:
        raise ComputationError(
            f"the smoothed CDF needs a lattice of {2 * half + 1:.3g} entries, past max(2^22, "
            f"16 (2n + 1) R) = {limit}: the noise is far wider than the {2 * n + 1} atoms")
    fine = np.zeros(2 * half + 1)
    fine[half - n * R : half + n * R + 1 : R] = probs
    starts = slice(half - J * m - Q, half + J * m - Q + 1, m)
    left = np.concatenate(([0.0], np.cumsum(fine)))[starts]
    phi = np.fromiter((0.5 * math.erfc((k - Q) / c * math.sqrt(0.5)) for k in range(2 * Q + 1)),
                      float, 2 * Q + 1)
    return left + sliding_window_view(fine, 2 * Q + 1)[starts] @ phi


def hs_check(params: ModelParams, n: int, gamma: float) -> float:
    """Sup CDF gap of the Gaussian-smoothing identity for W.

    Convolving the exact law of W with an independent centred Gaussian of
    variance sigma^2 = 1/(2 beta K n^(1-2 gamma)) yields, exactly, the
    distribution with Lebesgue density proportional to exp(-n G(y / n^gamma)).
    Both CDFs are computed independently on at most 2001 points within 8
    standard widths W of zero, on the atom lattice w_s = s / D with
    D = n^(1-gamma) or a refinement of it: t_j = j step, |j| <= J, with
    step = m / (R D), h = 16 W D / 2000 lattice steps per point, m = ceil(h),
    R = 1 when h >= 1 and m = 1, R = floor(1 / h) otherwise.  The atom side
    reads one table of normal CDFs (``_smoothed_lattice_cdf``, truncation
    at most 2 Phi(-8.5) ~ 1.9e-17).  6-point Gauss-Legendre integrates the
    G-density on cells step / r out to the hi where n G has risen by 760, r
    the least integer that keeps cells within 2 hi / 4096, so each point's
    CDF is every r-th entry of one cumulative sum.  Through n = 4096 the sup
    sits at the rounding floor, at most 5.4e-15 in regions A, B and C.  Past
    that, rounding in n G, not the grid, sets it: at 2^20 n G is off by
    1.6e-10 against a 50-digit G, and 2 or 4 times the cells move A's sup
    from 4.5e-13 to 2.0e-13 and back.

    A well of the G-density at a global minimizer x* of G that is narrower
    than a cell falls between the rule's nodes (the sup read 0.5 at beta = 1,
    K = 1e8, n = 64).  So where n G rises by more than 1/2 within a cell of
    some x*, on either side ((cell / width)^2 / 2 for a parabolic well), or
    the total on the grid is 0, the G-density raises ComputationError.

    The atom side's lattice has about 33 R D W entries, growing like
    sqrt(n / (2 beta K)) once the noise outgrows the atoms: at most
    5.2 (2n + 1) R in regions A, B and C for n = 16..2^20, near 8 (2n + 1) R
    in the ordered phase.  Past max(2^22, 16 (2n + 1) R) entries (noise wider
    than about n^gamma, the atoms' half-span), or for a noise variance that
    is not finite, it raises ComputationError before allocating.
    """
    _check_gamma(gamma)
    law = build_joint_law(params, n)
    D = float(n) ** (1.0 - gamma)
    precision = params.two_beta_K * float(n) ** (1.0 - 2.0 * gamma)
    noise_var = 1.0 / precision if precision > 0.0 else math.inf
    if not (noise_var < math.inf):
        raise ComputationError(
            f"the smoothing noise of hs_check has variance 1/{precision!r}, not finite, "
            f"at beta={params.beta}, K={params.K}, n={n}")
    width = math.sqrt(moment(law, gamma, 2) + noise_var)
    h = 16.0 * width * D / 2000.0
    m, R = (math.ceil(h), 1) if h >= 1.0 else (1, math.floor(1.0 / h))
    J = math.floor(8.0 * width * R * D / m)
    cdf1 = _smoothed_lattice_cdf(law.s_probs, R * D * math.sqrt(noise_var), m, R, J)

    # density proportional to exp(-n G(y / n^gamma)), relative to its maximum
    scale = float(n) ** gamma
    minimizers = minimize_G(params)
    ref = min(n * G_eval(params, x) for x in minimizers)

    def neg_log_kernel(y):
        return n * G_eval(params, y / scale)

    # widen until the kernel is negligible; it is even and the points symmetric
    step = m / (R * D)
    hi = J * step
    while neg_log_kernel(hi) - ref < _SUPPORT_LOG:
        hi += width
    r = math.ceil(2048.0 * step / hi)
    top = math.ceil(hi * r / step)
    cell = step / r
    xs = np.arange(-top, top + 1) * cell
    seg = _segment_integrals(xs[:-1], xs[1:], lambda y: _exp_nonzero(-(neg_log_kernel(y) - ref)))
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    if not (0.0 < cum[-1] < math.inf):
        raise ComputationError(
            f"the G-density of hs_check has total {cum[-1]:g} on its grid at "
            f"beta={params.beta}, K={params.K}, n={n}: its wells are narrower than a cell")
    # a nonzero total can still come from wells narrower than a cell
    for x in minimizers:
        rise = neg_log_kernel(x * scale + np.array([-cell, cell])).max() - ref
        if rise > 0.5:
            raise ComputationError(
                f"the G-density of hs_check has a well at x={x:.6g} narrower than its cell "
                f"width {cell:.3g}: n G rises by {rise:.3g} within one cell, "
                f"at beta={params.beta}, K={params.K}, n={n}")
    cdf2 = cum[top - J * r : top + J * r + 1 : r] / cum[-1]

    return float(np.abs(cdf1 - cdf2).max())


# ---------------------------------------------------------------------------
# pair covariance


def pair_covariance(params: ModelParams, n: int, *, law: JointLaw | None = None) -> float:
    """Cov(w_i^2, w_j^2) for i != j, via exchangeability.

    Sum(w_i^2) = M and Sum_{i != j} w_i^2 w_j^2 = M^2 - M, so the covariance
    equals (E[M^2] - E[M]) / (n(n-1)) - (E[M]/n)^2, that is
    (Var(M) - n q (1 - q)) / (n(n-1)) with q = E[M]/n.  The second form is
    the one taken: Var(M) is summed centred, as E[(E[M|s] - E[M])^2] plus
    the mean of the conditional variances, so its final subtraction cancels
    two O(n) terms to an O(1) one, where the first form cancels two O(1)
    terms to an O(1/n) one.  What cancellation is left sits in each
    conditional variance E[M^2|s] - E[M|s]^2, O(n) from two O(n^2) terms.
    Against a 40-digit evaluation in region A the relative error is 3.8e-11
    at n = 1024, 4.3e-10 at n = 4096 and 2.1e-10 at n = 8192.
    """
    if n < 2:
        raise ValidationError("pair covariance needs n >= 2")
    if law is None:
        law = build_joint_law(params, n)
    em = law.expect(law.m_mean)
    # per s, the conditional variance plus (E[M|s] - E[M])^2, summed in place
    spread = law.m_second - law.m_mean**2
    np.maximum(spread, 0.0, out=spread)
    spread += (law.m_mean - em) ** 2
    var = law.expect(spread)
    q = em / n
    return (var - n * q * (1.0 - q)) / (n * (n - 1.0))


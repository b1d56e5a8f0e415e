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
reads each row only through its ratios rho_s = c_{s-1} / c_s, which an
all-positive recurrence gives in plain floats, so it costs O(n) time and
memory, and every quantity the bounds consume is a moment of M given s.
P(s) needs only the order-n row; the rows of orders n-1 and n-2, and with
them E[M | s] and E[M^2 | s], are built on the first read of either, so
d_K, the moments of W and ``hs_check`` never build them.  Single (s, M)
slices are rebuilt on demand, in O(n) each, for atom listings and small-n
oracle checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Callable, Mapping

import numpy as np

from .density import _exp_nonzero, _segment_integrals
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
    "brute_force_law",
    "tv_distance",
]

DEFAULT_N_CAP = 20000
# e^beta times s must stay finite in the ratio recurrence
_BETA_MAX = 600.0
# ln 2 in two parts; k * _LN2_HI is exact for |k| < 2^21, so for every x >= -2^20
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
# hs_check: normal CDFs are evaluated within this many noise widths of each
# grid point, at most this many at a time
_HS_CUTOFF = 8.5
_HS_CHUNK = 2**18


def gammaln(x):
    """scipy.special.gammaln.  scipy.special is imported on the first call
    of this or of ``ndtr``: it costs more than the rest of the package's
    import, and only atom listings and ``hs_check`` need it."""
    from scipy import special

    return special.gammaln(x)


def ndtr(x):
    """scipy.special.ndtr, imported on first call like ``gammaln``."""
    from scipy import special

    return special.ndtr(x)


@dataclass
class JointLaw:
    """Probability law of (s, M) under the finite-n Gibbs measure.

    Held as the s-marginal over s = -n..n, exactly symmetric in s.  The first
    two moments of M given s, ``m_mean`` and ``m_second``, are built together
    on the first read of either: d_K and the moments of W read only P(s).
    ``log_partition`` is the log normalising constant relative to the uniform
    product measure on {-1,0,1}^n.
    """

    n: int
    params: ModelParams
    log_partition: float
    s_values: np.ndarray = field(repr=False)
    s_probs: np.ndarray = field(repr=False)

    @cached_property
    def _m_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(E[M | s], E[M^2 | s]) over s = -n..n, from the ratio rows of
        orders n-1 and n-2 (see the module docstring)."""
        n, beta = self.n, self.params.beta
        inv_a, a = math.exp(beta), math.exp(-beta)
        s = np.arange(n + 2)
        plus, minus = _first_spin(_ratio_row(n - 1, inv_a, n + 3), a, s[:-1])
        q = np.add(*_first_spin(_ratio_row(n - 2, inv_a, n + 3), a, s))
        m_mean = n * (plus + minus)
        m_fact2 = n * (n - 1.0) * (plus * q[np.abs(s[:-1] - 1)] + minus * q[1:])
        return _mirrored(m_mean), _mirrored(m_fact2 + m_mean)

    @property
    def m_mean(self) -> np.ndarray:
        """E[M | s] over s = -n..n."""
        return self._m_rows[0]

    @property
    def m_second(self) -> np.ndarray:
        """E[M^2 | s] over s = -n..n."""
        return self._m_rows[1]

    def slice_probs(self, s: int) -> np.ndarray:
        """P(s, M) over M = |s|, |s| + 2, ..., n: P(s) times the normalised
        multinomial weights n!/(n+! n-! n0!) e^(-beta M) of the slice."""
        t = abs(s)
        Ms = np.arange(t, self.n + 1, 2)
        lw = -(gammaln((Ms + t) // 2 + 1) + gammaln((Ms - t) // 2 + 1)
               + gammaln(self.n - Ms + 1)) - self.params.beta * Ms
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
        return self.s_values / float(self.n) ** (1.0 - gamma)

    def expect(self, values: np.ndarray) -> float:
        """E[values(s)] for an array of per-s values over s = -n..n."""
        return float((self.s_probs * values).sum())


def _ratio_row(m: int, inv_a: float, size: int) -> np.ndarray:
    """rho_s = c_{s-1} / c_s for s = 0..size-1, c_s = [x^s](1 + a(x + 1/x))^m.

    The all-positive recurrence c_{s-1} = (a(m+s+1) c_{s+1} + s c_s) / (a(m-s+1))
    divided by c_s, run down from 1/rho_{m+1} = 0: each step damps the
    rounding of the last.  rho_0 = 1/rho_1 by symmetry, and entries above m
    are inf.  For beta <= 600 and m <= 2^20 every entry is below about 4e266,
    so no rescaling is needed.
    """
    rho = [math.inf] * size
    inv = 0.0  # 1 / rho_{s+1}
    for s in range(m, 0, -1):
        rho[s] = ((m + s + 1) * inv + s * inv_a) / (m - s + 1)
        inv = 1.0 / rho[s]
    if m >= 0:
        rho[0] = inv
    return np.array(rho)


def _first_spin(rho: np.ndarray, a: float, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P(w_1 = +1 | s) and P(w_1 = -1 | s), given the ratio row of the other
    spins.  With u = a rho_s and v = a / rho_{s+1}, the sum s splits as
    c_s = c'_s (1 + u + v), so the probabilities are u/(1+u+v) and
    v/(1+u+v).  Where the other spins cannot reach s (rho_s = inf) the first
    spin is +1."""
    u = a * rho[s]
    v = a / rho[s + 1]
    den = 1.0 + u + v
    return np.divide(u, den, out=np.ones_like(u), where=u < math.inf), v / den


def _mirrored(x: np.ndarray) -> np.ndarray:
    """Values over s = -n..n from those over s = 0..n."""
    return np.concatenate((x[:0:-1], x))


def _running_products(factors: np.ndarray, expos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1, f_0, f_0 f_1, ... for factors f_i = factors[i] * 2^expos[i], as
    mantissas and binary exponents (value = mantissa * 2^exponent)."""
    mant = [1.0]
    expo = [0]
    here, e = 1.0, 0
    for f, fe in zip(factors.tolist(), expos.tolist()):
        here, k = math.frexp(here * f)
        e += k + fe
        mant.append(here)
        expo.append(e)
    return np.array(mant), np.array(expo)


def build_joint_law(params: ModelParams, n: int, *, cap: int = DEFAULT_N_CAP) -> JointLaw:
    """The exact law at size n, in O(n) time and memory.

    P(s) reads the ratio row of order n (see the module docstring); the rows
    of orders n-1 and n-2 wait for the first read of ``m_mean`` or
    ``m_second``.  The weight of s-1 relative to s is rho_s e^(-beta K (2s-1)/n),
    and P(s) is the running product of these factors from s = n down,
    normalised; no weight passes through a logarithm.  Raises
    CapExceededError above ``cap``.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if n > cap:
        raise CapExceededError(f"n={n} exceeds the size cap {cap}")
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
    ratio = _ratio_row(n, math.exp(beta), n + 1)[1:] * np.exp(r)
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
        s_values=np.arange(-n, n + 1),
        s_probs=_mirrored(w / total),
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


def _smoothed_atom_cdf(w: np.ndarray, probs: np.ndarray, sigma: float,
                       ts: np.ndarray) -> np.ndarray:
    """sum_i probs_i Phi((t - w_i) / sigma) at every point t of ``ts``, for
    atoms w in increasing order.

    Only atoms in the band |t - w_i| <= c sigma, c = 8.5, go through ``ndtr``.
    Atoms left of the band count with weight 1, read from one prefix sum of
    ``probs``, and atoms right of it are dropped; each side is off by at most
    Phi(-c) times its mass, so the sum is within 2 Phi(-c) ~ 1.9e-17 of the
    full one.  Each row evaluates the same number of atoms, the widest band,
    starting at its band's left end or earlier near the top of the lattice;
    rows are taken in chunks of at most 2^18 elements.  On a uniform lattice of
    spacing dw the band holds about 2 c sigma / dw atoms, so the cost is
    O(w.size + ts.size * c sigma / dw) rather than O(w.size * ts.size).
    """
    lo = np.searchsorted(w, ts - _HS_CUTOFF * sigma, side="left")
    width = int((np.searchsorted(w, ts + _HS_CUTOFF * sigma, side="right") - lo).max())
    lo = np.minimum(lo, w.size - width)
    cdf = np.concatenate(([0.0], np.cumsum(probs)))[lo]
    band = np.arange(width)
    rows = max(1, _HS_CHUNK // max(1, width))
    for j in range(0, ts.size, rows):
        idx = lo[j : j + rows, None] + band
        z = ndtr((ts[j : j + rows, None] - w[idx]) / sigma)
        cdf[j : j + rows] += np.einsum("ij,ij->i", probs[idx], z)
    return cdf


def _G_second(params: ModelParams, x: float) -> float:
    """G''(x) = 2 beta K (1 - 2 beta K c''(2 beta K x)).

    The spin variance c''(t) = (2a cosh t + 4a^2) / (1 + 2a cosh t)^2, with
    a = e^-beta, is evaluated as (r + sech^2 t) / (1 + r) / (1 + r) with
    r = e^beta / (2 cosh t); r and sech^2 t are formed from e^(beta - |t|)
    and e^(-2|t|), so nothing overflows for the beta <= 600 the law admits.
    """
    b2k = params.two_beta_K
    t = abs(b2k * x)
    e2 = math.exp(-2.0 * t)
    r = math.exp(params.beta - t) / (1.0 + e2)
    sech2 = 4.0 * e2 / (1.0 + e2) ** 2
    return b2k * (1.0 - b2k * (r + sech2) / (1.0 + r) / (1.0 + r))


def hs_check(params: ModelParams, n: int, gamma: float) -> float:
    """Sup CDF gap of the Gaussian-smoothing identity for W.

    Convolving the exact law of W with an independent centred Gaussian of
    variance sigma^2 = 1/(2 beta K n^(1-2 gamma)) yields, exactly, the
    distribution with Lebesgue density proportional to exp(-n G(y / n^gamma)).
    Both CDFs are computed independently on 2001 points within 8 standard
    widths of zero: the atom sum of normal CDFs over the band of atoms within
    8.5 sigma of each point (``_smoothed_atom_cdf``, truncation at most
    2 Phi(-8.5) ~ 1.9e-17), against 6-point Gauss-Legendre quadrature of the
    G-density over ~4097 cells.  Through n = 4096 the returned sup sits at
    the rounding floor of the two sums, at most 3.7e-15 in regions A, B and C;
    at larger n the quadrature side's error grows.

    Each global minimizer x* of G is a well of the G-density of width
    n^gamma / sqrt(n G''(x*)).  A well narrower than one cell falls between
    the rule's nodes, so its mass is caught at a node or two or missed, and
    the quadrature CDF is wrong by up to the whole mass of the well (the sup
    read 0.5 at beta = 1, K = 1e8, n = 64).  Such a G-density, like one whose
    total on the grid is 0, is refused with ComputationError.
    """
    _check_gamma(gamma)
    law = build_joint_law(params, n)
    w = law.w_values(gamma)
    noise_var = 1.0 / (params.two_beta_K * float(n) ** (1.0 - 2.0 * gamma))
    width = math.sqrt(moment(law, gamma, 2) + noise_var)
    ts = np.linspace(-8.0 * width, 8.0 * width, 2001)
    cdf1 = _smoothed_atom_cdf(w, law.s_probs, math.sqrt(noise_var), ts)

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
    seg = _segment_integrals(xs[:-1], xs[1:], lambda y: _exp_nonzero(-(neg_log_kernel(y) - ref)))
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    if not (0.0 < cum[-1] < math.inf):
        raise ComputationError(
            f"the G-density of hs_check has total {cum[-1]:g} on its grid at "
            f"beta={params.beta}, K={params.K}, n={n}: its wells are narrower than a cell")
    # a nonzero total can still come from wells narrower than a cell
    cell = (hi - lo) / 4096.0
    for x in minimize_G(params):
        g2 = _G_second(params, x)  # <= 0 only where the well is flat (B, C)
        if g2 > 0.0 and scale < cell * math.sqrt(n * g2):
            raise ComputationError(
                f"the G-density of hs_check has a well at x={x:.6g} of width "
                f"{scale / math.sqrt(n * g2):.3g}, narrower than its cell width {cell:.3g}, "
                f"at beta={params.beta}, K={params.K}, n={n}")
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
    Against a 40-digit evaluation in region A the relative error is 1.4e-10
    at n = 1024, 6.9e-9 at n = 4096 and 4.3e-9 at n = 8192.
    """
    if n < 2:
        raise ValidationError("pair covariance needs n >= 2")
    if law is None:
        law = build_joint_law(params, n)
    em, em2 = law.expect(law.m_mean), law.expect(law.m_second)
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

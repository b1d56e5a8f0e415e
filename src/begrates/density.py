"""Even-polynomial comparison densities p(x) = exp(-(b1 x^2 + b2 x^4 + b3 x^6)) / C.

These are the limit laws of the rescaled spin sum: Gaussian (only b1), pure
quartic or sextic, and the mixed shapes that show up on the boundary between
regimes (b1 or b2 may then be negative, giving double wells).  The class
carries a cached cumulative-quadrature grid so CDF, survival and moment
queries are cheap and thread-safe after construction.  Every integral runs
on one 6-point Gauss-Legendre rule over cells at most 2T/4096 wide, which
is exact to rounding there: the cumulative table, the partial cell of a CDF
query and the moments.  The table is the only source of the CDF, of the
survival function (p is even, so S(t) = F(-t)) and of the normalising
constant.

The Stein machinery lives here too: the solution f_z of

    f'(x) + psi(x) f(x) = 1{x <= z} - P(z),      psi = p'/p,

and envelopes for |f_z|, |f_z'|, the oscillation of f_z' and |(psi f_z)'|:
exact maxima over a declared (z, x) grid, in O(N) from prefix/suffix extrema.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from scipy.integrate import quad

from .errors import NonIntegrableDensityError, ValidationError

__all__ = [
    "PolyDensity",
    "SteinConstants",
    "normalize_density",
    "density_from_regression",
    "stein_solution",
    "estimate_stein_constants",
]

# Gauss-Legendre (nodes, weights) of every integral here and in
# exact.hs_check; each runs over cells narrow enough for 6 points
_GL6 = np.polynomial.legendre.leggauss(6)
# absolute tolerance of the adaptive quadrature that checks the table total
_QUADRATURE_TOL = 1e-12
_LOG_FLOOR = 600.0  # switch to tail asymptotics once exp(-(poly-min)) < e^-600


def _poly_of_square(y, b1, b2, b3):
    """The exponent b1 x^2 + b2 x^4 + b3 x^6 in Horner form in y = x^2."""
    return y * (b1 + y * (b2 + y * b3))


def _segment_integrals(a, b, integrand) -> np.ndarray:
    """Integral of ``integrand`` over each [a_i, b_i] by the 6-point rule.
    ``integrand`` maps the (segment, node) array of nodes to its values and
    may overwrite the nodes."""
    nodes, weights = _GL6
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    X = mid[:, None] + half[:, None] * nodes[None, :]
    return (integrand(X) * weights[None, :]).sum(axis=1) * half


def _poly_integrand(coeffs, shift: float, k: int = 0):
    """x^k exp(-(poly(x) - shift)), k even, as an ``integrand``."""

    def integrand(Y):
        Y *= Y  # square the nodes in place: no second node-sized array stays alive
        V = np.exp(-(_poly_of_square(Y, *coeffs) - shift))
        if k:
            V *= Y ** (k // 2)
        return V

    return integrand


@dataclass(frozen=True)
class PolyDensity:
    b1: float
    b2: float
    b3: float
    log_norm: float
    truncation: float = field(repr=False)
    poly_min: float = field(repr=False)
    _grid: np.ndarray = field(repr=False)
    _cdf: np.ndarray = field(repr=False)

    # -- pointwise quantities ------------------------------------------------

    def poly(self, x):
        x = np.asarray(x, dtype=float)
        return _poly_of_square(x * x, self.b1, self.b2, self.b3)

    def logpdf(self, x):
        return -(self.poly(x) + self.log_norm)

    def pdf(self, x):
        return np.exp(self.logpdf(x))

    def psi(self, x):
        """Logarithmic derivative p'/p = -(2 b1 x + 4 b2 x^3 + 6 b3 x^5)."""
        x = np.asarray(x, dtype=float)
        y = x * x
        return -(x * (2.0 * self.b1 + y * (4.0 * self.b2 + y * (6.0 * self.b3))))

    # -- cumulative quantities -----------------------------------------------

    def cdf(self, t):
        scalar = np.ndim(t) == 0
        T = self.truncation
        t = np.clip(np.atleast_1d(np.asarray(t, dtype=float)), -T, T)
        # anchor at the grid point at or below t
        idx = np.clip(np.searchsorted(self._grid, t, side="right") - 1, 0, self._grid.size - 1)
        out = np.clip(self._cdf[idx] + self._segment_mass(self._grid[idx], t), 0.0, 1.0)
        return float(out[0]) if scalar else out

    def sf(self, t):
        """Survival function 1 - CDF.  p is even, so S(t) = F(-t), and a
        small right tail is summed from small cells as a small left tail is."""
        return self.cdf(np.negative(t))

    def _segment_mass(self, a, b, k: int = 0) -> np.ndarray:
        """E[X^k; a_i < X < b_i] for each segment."""
        seg = _segment_integrals(a, b, _poly_integrand((self.b1, self.b2, self.b3),
                                                       self.poly_min, k))
        return seg * math.exp(-self.poly_min - self.log_norm)

    # the d_K call sites pass this name, and the benchmark's tracer wraps it
    # by name; it is the table CDF, not a second quadrature
    cdf_at_sorted = cdf

    def moment(self, k: int) -> float:
        """E[X^k] by quadrature on the cached grid; odd k is exactly zero."""
        if k < 0:
            raise ValidationError("moment order must be nonnegative")
        if k == 0:
            return 1.0
        if k % 2 == 1:
            return 0.0
        return float(self._segment_mass(self._grid[:-1], self._grid[1:], k).sum())

    def to_json_dict(self) -> dict:
        return {
            "b1": self.b1,
            "b2": self.b2,
            "b3": self.b3,
            "log_norm": self.log_norm,
            "quadrature_tol": _QUADRATURE_TOL,
        }


def _poly_minimum(b1: float, b2: float, b3: float) -> tuple[float, list[float]]:
    """Minimum value of the exponent polynomial and its interior critical points."""
    candidates = [0.0]
    # roots of 2 b1 + 4 b2 y + 6 b3 y^2 = 0 with y = x^2 > 0
    if b3 != 0.0:
        disc = 16.0 * b2 * b2 - 48.0 * b3 * b1
        if disc >= 0.0:
            for sign in (+1.0, -1.0):
                y = (-4.0 * b2 + sign * math.sqrt(disc)) / (12.0 * b3)
                if y > 0.0:
                    candidates.extend([math.sqrt(y), -math.sqrt(y)])
    elif b2 != 0.0:
        y = -b1 / (2.0 * b2)
        if y > 0.0:
            candidates.extend([math.sqrt(y), -math.sqrt(y)])
    vals = [_poly_of_square(x * x, b1, b2, b3) for x in candidates]
    return min(vals), candidates


def normalize_density(b1: float, b2: float, b3: float) -> PolyDensity:
    """Build a normalised PolyDensity.

    The leading nonzero coefficient among (b3, b2, b1) must be positive,
    otherwise exp(-poly) is not integrable.  The density lives on [-T, T]
    where T is chosen so that the integrand has dropped by a factor e^-760
    relative to its maximum; the shifted form keeps everything representable
    for double-well shapes.

    The cumulative table lives on a uniform grid of 4097..16385 points over
    [-T, T].  Its cells are at most 2T/4096 wide, so a 6-point Gauss-Legendre
    rule per cell already integrates them to rounding (within 1e-15 of a
    24-point rule on the comparison densities).  The normalising constant is
    the table total, so the CDF, the survival function and the density share
    one constant; adaptive quadrature of the norm must agree with it to 1e-9.
    """
    for name, v in (("b1", b1), ("b2", b2), ("b3", b3)):
        if not math.isfinite(v):
            raise ValidationError(f"{name} must be finite")
    leading = b3 if b3 != 0.0 else (b2 if b2 != 0.0 else b1)
    if leading <= 0.0:
        raise NonIntegrableDensityError(
            f"leading coefficient must be positive, got (b1={b1}, b2={b2}, b3={b3})"
        )

    pmin, crit = _poly_minimum(b1, b2, b3)

    T = max(1.0, 2.0 * max(abs(c) for c in crit) + 1.0)
    while _poly_of_square(T * T, b1, b2, b3) - pmin < 760.0:
        T *= 1.5

    points = sorted({c for c in crit if -T < c < T})
    shifted, _ = quad(lambda x: math.exp(-(_poly_of_square(x * x, b1, b2, b3) - pmin)), -T, T,
                      points=points or None, epsabs=_QUADRATURE_TOL * 0.1, epsrel=1e-13, limit=500)
    if not (shifted > 0.0 and math.isfinite(shifted)):
        raise NonIntegrableDensityError("normalisation quadrature failed")

    # cumulative cache: uniform grid refined enough for the narrowest feature
    width = min(T, max(0.05, 1.0 / math.sqrt(abs(b1) + abs(b2) + abs(b3))))
    npts = int(min(16385, max(4097, 8 * math.ceil(2 * T / (0.05 * width)))))
    grid = np.linspace(-T, T, npts)
    seg = _segment_integrals(grid[:-1], grid[1:], _poly_integrand((b1, b2, b3), pmin))
    total = float(seg.sum())
    if abs(total / shifted - 1.0) > 1e-9:
        raise NonIntegrableDensityError("cumulative grid disagrees with the adaptive norm")

    return PolyDensity(
        b1=b1,
        b2=b2,
        b3=b3,
        log_norm=math.log(total) + (-pmin),
        truncation=T,
        poly_min=pmin,
        _grid=grid,
        _cdf=np.concatenate(([0.0], np.cumsum(seg) / total)),
    )


def density_from_regression(
    psi_coeffs: tuple[float, float, float], moments: Mapping[int, float]
) -> PolyDensity:
    """Comparison density built from regression coefficients and moments.

    Given the exchangeable-pair drift psi(x) = -(q1 x + q3 x^3 + q5 x^5) and
    finite-n moments of W, the matching density has exponent coefficients

        b_j = q_{2j-1} / (2j * c),   c = q1 E[W^2] + q3 E[W^4] + q5 E[W^6],

    so that a lone active coefficient reduces to 1/(2j E[W^(2j)]).
    """
    q1, q3, q5 = psi_coeffs
    c = 0.0
    if q1 != 0.0:
        c += q1 * moments[2]
    if q3 != 0.0:
        c += q3 * moments[4]
    if q5 != 0.0:
        c += q5 * moments[6]
    if not (c > 0.0):
        raise NonIntegrableDensityError(
            f"E[W * drift] = {c!r} is not positive for psi coefficients {psi_coeffs}"
        )
    b1 = q1 / (2.0 * c)
    b2 = q3 / (4.0 * c)
    b3 = q5 / (6.0 * c)
    return normalize_density(b1, b2, b3)


# ---------------------------------------------------------------------------
# Stein equation


def stein_solution(d: PolyDensity, z: float, x) -> np.ndarray | float:
    """Solution f_z of f' + psi f = 1{. <= z} - P(z) for the density d.

    f_z(x) = [P(min(x,z)) - P(x) P(z)] / p(x), evaluated as CDF*SF products
    to avoid cancellation; far in the tails (where p underflows) the
    asymptotic ratio P/p ~ 1/|psi| is used instead of 0/0.
    """
    scalar = np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    Fz = d.cdf(z)
    Sz = d.sf(z)
    out = np.empty_like(xs)
    deep = d.poly(xs) - d.poly_min > _LOG_FLOOR
    safe = ~deep
    if np.any(safe):
        xv = xs[safe]
        F = d.cdf(xv)
        S = d.sf(xv)
        num = np.where(xv <= z, F * Sz, Fz * S)
        out[safe] = num / np.exp(d.logpdf(xv))
    if np.any(deep):
        xv = xs[deep]
        psi = d.psi(xv)
        out[deep] = np.where(xv <= z, Sz / psi, -Fz / psi)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class SteinConstants:
    """Grid-maximised envelopes for the Stein solution of one density.

    d1 bounds |f_z|, d2 bounds |f_z'|, d3 bounds the oscillation
    |f_z'(x) - f_z'(y)| and d4 bounds |(psi f_z)'|: exact maxima over the
    recorded (z, x) grid, in O(N) from prefix and suffix extrema.  Derivatives
    are one-sided chord slopes, so the kink of f_z' at x = z stays out.
    """

    d1: float
    d2: float
    d3: float
    d4: float
    grid_spec: dict

    def to_json_dict(self) -> dict:
        return {"d1": self.d1, "d2": self.d2, "d3": self.d3, "d4": self.d4,
                "grid_spec": self.grid_spec}


def _suffix(ufunc, a: np.ndarray) -> np.ndarray:
    """ufunc.accumulate from the right: out[i] = ufunc over a[i:]."""
    return ufunc.accumulate(a[::-1])[::-1]


def _chord_extremes(ufunc, fill: float, S, left, F, right) -> np.ndarray:
    """Per-row ufunc over S_j * left[i] for chords i < j and F_j * right[i] for i >= j."""
    out = np.full(S.size, fill)
    out[1:] = S[1:] * ufunc.accumulate(left)
    out[:-1] = ufunc(out[:-1], F[:-1] * _suffix(ufunc, right))
    return out


def estimate_stein_constants(d: PolyDensity, *, half_range: float = 10.0,
                             step: float = 0.005) -> SteinConstants:
    """Exact maxima of the Stein-solution envelopes over a declared (z, x) grid.

    At z = x_j, f_z(x_i) = S_j A_i for i <= j and F_j B_i for i > j, with
    A = F/p, B = S/p, and f_z is continuous at z.  So row j's chord slopes
    are S_j dA_i left of z and F_j dB_i from z on (d(psi A), d(psi B) for
    psi f_z), and as S, F >= 0 prefix and suffix extrema give every row's
    maximum and minimum in O(N) for N grid points.
    """
    reach = half_range
    # keep the grid inside the representable part of the density
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
    h = xs[1] - xs[0]
    F = d.cdf(xs)
    S = d.sf(xs)
    pdf = np.exp(d.logpdf(xs))
    psi = d.psi(xs)
    A, B = F / pdf, S / pdf

    d1 = max((S * np.maximum.accumulate(A)).max(), (F[:-1] * _suffix(np.maximum, B[1:])).max())
    dA, dB = np.diff(A) / h, np.diff(B) / h
    hi = _chord_extremes(np.maximum, -np.inf, S, dA, F, dB)
    lo = _chord_extremes(np.minimum, np.inf, S, dA, F, dB)
    dC, dD = np.abs(np.diff(psi * A) / h), np.abs(np.diff(psi * B) / h)
    d4 = _chord_extremes(np.maximum, 0.0, S, dC, F, dD).max()

    spec = {
        "z_min": -reach,
        "z_max": reach,
        "x_min": -reach,
        "x_max": reach,
        "step": float(h),
        "points": npts,
    }
    return SteinConstants(d1=float(d1), d2=float(max(hi.max(), -lo.min())),
                          d3=float((hi - lo).max()), d4=float(d4), grid_spec=spec)

"""Even-polynomial comparison densities p(x) = exp(-(b1 x^2 + b2 x^4 + b3 x^6)) / C.

These are the limit laws of the rescaled spin sum: Gaussian (only b1), pure
quartic or sextic, and the mixed shapes that show up on the boundary between
regimes (b1 or b2 may then be negative, giving double wells).  The class
carries a cached cumulative-quadrature grid so CDF, survival and moment
queries are cheap and thread-safe after construction.  Every integral runs
on one 6-point Gauss-Legendre rule over cells at most 2T/4096 wide, which
is exact to rounding there: the cumulative table, the partial cell of a CDF
query and the moments.  The rule lays its nodes out (node, cell), so each
step runs over whole rows, and exp is skipped where its result is exactly 0
(it rounds to 0 below -746, on a slow path), never where it is subnormal.
The table is the only source of the CDF, of the survival function (p is
even, so S(t) = F(-t)) and of the normalising constant.  Its total is
checked against an independent adaptive rule, a 10/21-point Gauss-Legendre
pair on intervals halved until the two agree.

The Stein envelopes live here too.  For the solution f_z of

    f'(x) + psi(x) f(x) = 1{x <= z} - P(z),      psi = p'/p,

they bound |f_z|, |f_z'|, the oscillation of f_z' and |(psi f_z)'|: exact
maxima over a declared, mirror-symmetric (z, x) grid.  They read one factor
A = F/p: f_z is S(z) A(x) left of z and F(z) A(-x) right of it, so the
envelopes take one CDF pass and prefix extrema, in O(N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import EnvelopeGridError, NonIntegrableDensityError, ValidationError

__all__ = [
    "PolyDensity",
    "SteinConstants",
    "normalize_density",
    "density_from_regression",
    "estimate_stein_constants",
]

# Gauss-Legendre (nodes, weights) of the table, the moments and
# exact.hs_check; each runs over cells narrow enough for 6 points
_GL6 = np.polynomial.legendre.leggauss(6)
# the adaptive check of the table total: a 10/21-point pair per interval,
# starting from uniform cells plus the critical points as break points
_GL10 = np.polynomial.legendre.leggauss(10)
_GL21 = np.polynomial.legendre.leggauss(21)
_NORM_START_CELLS = 32
# tolerance reported for the check; it stops once the summed |G21 - G10| is
# within max(_QUADRATURE_TOL / 10, _NORM_EPSREL * total)
_QUADRATURE_TOL = 1e-12
_NORM_EPSREL = 1e-13
_NORM_LIMIT = 500  # most intervals the check may use
_LOG_FLOOR = 600.0  # the envelope grid stops where poly - poly_min passes this
# exp(x) rounds to exactly 0.0 for every double x below log(2^-1075) ~ -745.13
_EXP_ZERO = -746.0


def _poly_of_square(y, b1, b2, b3):
    """The exponent b1 x^2 + b2 x^4 + b3 x^6 in Horner form in y = x^2."""
    return y * (b1 + y * (b2 + y * b3))


def _exp_nonzero(x: np.ndarray) -> np.ndarray:
    """np.exp(x), bit for bit, with exp evaluated only where the result is not
    exactly 0: below _EXP_ZERO every double rounds to 0, and np.exp takes its
    slow path there.  Subnormal results are still computed; nan stays nan."""
    return np.exp(x, out=np.zeros_like(x), where=~(x <= _EXP_ZERO))


def _segment_integrals(a, b, integrand, rule=None) -> np.ndarray:
    """Integral of ``integrand`` over each [a_i, b_i] by ``rule`` (nodes,
    weights), the 6-point rule by default.  ``integrand`` maps the (node,
    segment) array of nodes to its values and may overwrite the nodes.

    Node-major, every step runs over rows as long as the segment count.  The
    sum over axis 0 adds the weighted rows one after the other in node order,
    which for six nodes is the order numpy's row sum takes in a (segment,
    node) layout, so the 6-point results are those of that layout bit for
    bit (tests/oracles.py keeps it).
    """
    nodes, weights = _GL6 if rule is None else rule
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return (integrand(nodes[:, None] * half + mid) * weights[:, None]).sum(axis=0) * half


def _poly_integrand(coeffs, shift: float, k: int = 0):
    """x^k exp(-(poly(x) - shift)), k even, as an ``integrand``."""

    def integrand(Y):
        Y *= Y  # square the nodes in place: no second node-sized array stays alive
        V = _exp_nonzero(-(_poly_of_square(Y, *coeffs) - shift))
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

    def _segment_mass(self, a, b, k: int = 0) -> np.ndarray:
        """E[X^k; a_i < X < b_i] for each segment."""
        seg = _segment_integrals(a, b, _poly_integrand((self.b1, self.b2, self.b3),
                                                       self.poly_min, k))
        return seg * math.exp(-self.poly_min - self.log_norm)

    # the d_K call sites pass this name, and the benchmark's tracer wraps it
    # by name; it is the table CDF, not a second quadrature
    cdf_at_sorted = cdf

    def moment(self, k: int) -> float:
        """E[X^k] by quadrature on the cached grid; odd k is exactly zero.
        A value past the double range (x^k overflows on a very wide grid)
        raises NonIntegrableDensityError instead of returning inf or nan."""
        if k < 0:
            raise ValidationError("moment order must be nonnegative")
        if k == 0:
            return 1.0
        if k % 2 == 1:
            return 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            value = float(self._segment_mass(self._grid[:-1], self._grid[1:], k).sum())
        if not math.isfinite(value):
            raise NonIntegrableDensityError(
                f"E[X^{k}] is not finite in double precision for "
                f"(b1={self.b1}, b2={self.b2}, b3={self.b3})")
        return value

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


def _adaptive_total(integrand, T: float, breaks) -> float:
    """Integral of ``integrand`` over [-T, T], independent of the table.

    Starts from _NORM_START_CELLS uniform cells plus the ``breaks`` inside
    (-T, T) and takes the 21-point Gauss-Legendre value of each interval,
    with |G21 - G10| as its error.  While the summed error exceeds
    max(_QUADRATURE_TOL / 10, _NORM_EPSREL |total|), every interval above
    its even share of that tolerance is halved.  Needing more than
    _NORM_LIMIT intervals raises NonIntegrableDensityError; a non-finite
    total is returned for the caller to reject.
    """
    inner = [c for c in breaks if -T < c < T]
    edges = np.union1d(np.linspace(-T, T, _NORM_START_CELLS + 1), inner)
    a = b = fine = err = np.empty(0)
    new_a, new_b = edges[:-1], edges[1:]
    while True:
        g21 = _segment_integrals(new_a, new_b, integrand, _GL21)
        g10 = _segment_integrals(new_a, new_b, integrand, _GL10)
        a, b = np.concatenate((a, new_a)), np.concatenate((b, new_b))
        fine = np.concatenate((fine, g21))
        err = np.concatenate((err, np.abs(g21 - g10)))
        total = float(fine.sum())
        tol = max(0.1 * _QUADRATURE_TOL, _NORM_EPSREL * abs(total))
        if not err.sum() > tol:  # also stops on nan
            return total
        split = err * a.size > tol
        if a.size + np.count_nonzero(split) > _NORM_LIMIT:
            raise NonIntegrableDensityError(
                f"normalisation check does not converge on {_NORM_LIMIT} intervals")
        mid = 0.5 * (a[split] + b[split])
        new_a, new_b = np.concatenate((a[split], mid)), np.concatenate((mid, b[split]))
        a, b, fine, err = a[~split], b[~split], fine[~split], err[~split]


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
    one constant.  An independent adaptive rule on its own intervals
    (``_adaptive_total``) must agree with that total to 1e-9.
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

    shifted = _adaptive_total(_poly_integrand((b1, b2, b3), pmin), T, crit)
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


def _drift_scale(
    psi_coeffs: tuple[float, float, float], moment_of: Callable[[int], float]
) -> float:
    """c = E[W (-psi(W))] = q1 E[W^2] + q3 E[W^4] + q5 E[W^6], the scale of
    the Stein equation; ``moment_of(k)`` gives E[W^k] and is called only for
    the active terms."""
    return sum((q * moment_of(k) for q, k in zip(psi_coeffs, (2, 4, 6)) if q != 0.0), 0.0)


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
    c = _drift_scale(psi_coeffs, moments.__getitem__)
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


@dataclass(frozen=True)
class SteinConstants:
    """Grid-maximised envelopes for the Stein solution of one density.

    d1 bounds |f_z|, d2 bounds |f_z'|, d3 bounds the oscillation
    |f_z'(x) - f_z'(y)| and d4 bounds |(psi f_z)'|: exact maxima over the
    recorded (z, x) grid.  The grid is mirror-symmetric, so one CDF pass and
    prefix extrema of the factor F/p give them in O(N).  Derivatives are
    one-sided chord slopes, so the kink of f_z' at x = z stays out.
    """

    d1: float
    d2: float
    d3: float
    d4: float
    grid_spec: dict

    def to_json_dict(self) -> dict:
        return {"d1": self.d1, "d2": self.d2, "d3": self.d3, "d4": self.d4,
                "grid_spec": self.grid_spec}


def _envelope_grid(d: PolyDensity, step: float) -> np.ndarray:
    """The (z, x) grid over [-reach, reach], reach = 10 clipped to where the
    density is representable; mirror-symmetric bit for bit, so
    x[N-1-i] == -x[i] and the endpoints are exactly +-reach.  A density with
    a critical point in |x| <= 10 (at 0 or between wells) more than
    _LOG_FLOOR above poly_min raises EnvelopeGridError: the clipping assumes
    poly - poly_min grows from 0 outwards."""
    reach = 10.0
    _, crit = _poly_minimum(d.b1, d.b2, d.b3)
    barrier, at = max((float(d.poly(c)) - d.poly_min, abs(c)) for c in crit if abs(c) <= reach)
    if barrier > _LOG_FLOOR:
        where = "at 0" if at == 0.0 else f"at +-{at:.6g}"
        raise EnvelopeGridError(
            f"the barrier {where} of (b1={d.b1}, b2={d.b2}, b3={d.b3}) is {barrier:.6g} "
            f"above its wells, past {_LOG_FLOOR:g}: no envelope grid spans both wells")
    if d.poly(reach) - d.poly_min > _LOG_FLOOR:
        lo, hi = 0.0, reach
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if d.poly(mid) - d.poly_min > _LOG_FLOOR:
                hi = mid
            else:
                lo = mid
        reach = lo
    xs = np.linspace(-reach, reach, int(round(2 * reach / step)) + 1)
    return 0.5 * (xs - xs[::-1])


def _prefix_rows(ufunc, fill: float, S: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """Per-row ufunc over S_j * slopes[i] for the chords i < j left of z = x_j."""
    out = np.full(S.size, fill)
    out[1:] = S[1:] * ufunc.accumulate(slopes)
    return out


def estimate_stein_constants(d: PolyDensity, *, step: float = 0.005) -> SteinConstants:
    """Exact maxima of the Stein-solution envelopes over a declared (z, x) grid.

    At z = x_j, f_z(x_i) = S_j A_i for i <= j and F_j A_{N-1-i} for i > j,
    with A = F/p, and f_z is continuous at z.  The grid is mirrored, so S is
    F reversed and the part of row j right of z is the part of row N-1-j
    left of z read backwards: the same values, the chord slopes of f_z
    negated and those of psi f_z unchanged (psi is odd).  As S >= 0, prefix
    extrema of the left parts give every row's maximum and minimum in O(N).
    """
    xs = _envelope_grid(d, step)
    h = xs[1] - xs[0]
    F = d.cdf(xs)
    A = F / d.pdf(xs)  # every grid point is within _LOG_FLOOR of poly_min
    S = F[::-1]

    d1 = (S * np.maximum.accumulate(A)).max()
    dA = np.diff(A) / h
    hi = _prefix_rows(np.maximum, -np.inf, S, dA)
    lo = _prefix_rows(np.minimum, np.inf, S, dA)
    hi, lo = np.maximum(hi, -lo[::-1]), np.minimum(lo, -hi[::-1])
    d4 = _prefix_rows(np.maximum, 0.0, S, np.abs(np.diff(d.psi(xs) * A) / h)).max()

    reach = float(xs[-1])
    spec = {
        "z_min": -reach,
        "z_max": reach,
        "x_min": -reach,
        "x_max": reach,
        "step": float(h),
        "points": xs.size,
    }
    return SteinConstants(d1=float(d1), d2=float(max(hi.max(), -lo.min())),
                          d3=float((hi - lo).max()), d4=float(d4), grid_spec=spec)

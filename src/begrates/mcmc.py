"""Seeded single-site heat-bath sampler, an independent route to the law.

One sweep performs n single-site updates at uniformly random sites, each
drawing the new spin from its exact 3-point conditional given the rest.  The
running pair (s, M) makes every update O(1); it is re-derived from the spin
array periodically as a consistency check.  Runs are deterministic given the
64-bit seed (numpy PCG64); per-chain seeds for parallel sweeps should come
from ``chain_seeds``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ComputationError, ValidationError
from .model import ModelParams

__all__ = ["ChainResult", "run_chain", "chain_seeds"]

_CHECK_INTERVAL = 1024  # sweeps between (s, M) consistency checks
_BATCHES = 32


@dataclass(frozen=True)
class ChainResult:
    """Post burn-in estimates with batch-means standard errors.

    ``trace`` (optional) holds one (sweep index, s, M) row per measurement.
    """

    params: ModelParams
    n: int
    gamma: float
    sweeps: int
    burn_in: int
    seed: int
    moments: dict[int, tuple[float, float]]  # order -> (estimate, stderr)
    m_fraction: tuple[float, float]  # (E[M]/n estimate, stderr)
    batch_count: int
    s_histogram: dict[int, int] | None = None
    trace: list[tuple[int, int, int]] | None = None

    def to_json_dict(self) -> dict:
        return {
            "beta": self.params.beta,
            "K": self.params.K,
            "n": self.n,
            "gamma": self.gamma,
            "sweeps": self.sweeps,
            "burn_in": self.burn_in,
            "seed": self.seed,
            "moments": {str(k): list(v) for k, v in self.moments.items()},
            "m_fraction": list(self.m_fraction),
            "batch_count": self.batch_count,
        }


def chain_seeds(master_seed: int, count: int) -> list[int]:
    """Derive per-chain seeds from a master seed (SeedSequence spawning)."""
    seq = np.random.SeedSequence(master_seed)
    return [int(child.generate_state(1, dtype=np.uint64)[0]) for child in seq.spawn(count)]


def run_chain(
    params: ModelParams,
    n: int,
    sweeps: int,
    burn_in: int,
    seed: int,
    *,
    gamma: float = 0.5,
    orders: tuple[int, ...] = (1, 2, 4),
    keep_histogram: bool = False,
    keep_trace: bool = False,
) -> ChainResult:
    """Run one heat-bath chain and estimate moments of W = S_n / n^(1-gamma).

    Measurements are taken once per sweep after ``burn_in`` sweeps; standard
    errors come from 32 batch means.  ``sweeps`` counts total sweeps including
    burn-in.
    """
    if not (sweeps > burn_in >= 0):
        raise ValidationError("need sweeps > burn_in >= 0")
    if n < 1:
        raise ValidationError("n must be >= 1")
    measured = sweeps - burn_in
    if measured < _BATCHES:
        raise ValidationError(f"need at least {_BATCHES} post burn-in sweeps")

    beta, K = params.beta, params.K
    rng = np.random.default_rng(seed)
    spins = np.zeros(n, dtype=np.int8)
    s = 0
    M = 0

    u_tab = np.exp(2.0 * beta * K * np.arange(-n, n + 1) / n)
    base = math.exp(-beta + beta * K / n)

    s_series = np.empty(measured, dtype=np.int64)
    m_series = np.empty(measured, dtype=np.int64)
    hist: dict[int, int] = {}

    for sweep in range(sweeps):
        s, M = _sweep(spins, s, M, rng.integers(0, n, size=n), rng.random(n), u_tab, base)
        if (sweep + 1) % _CHECK_INTERVAL == 0:
            if s != int(spins.sum()) or M != int(np.count_nonzero(spins)):
                raise ComputationError("running (s, M) diverged from the spin array")
        if sweep >= burn_in:
            idx = sweep - burn_in
            s_series[idx] = s
            m_series[idx] = M
            if keep_histogram:
                hist[s] = hist.get(s, 0) + 1

    w = s_series / float(n) ** (1.0 - gamma)
    moments: dict[int, tuple[float, float]] = {}
    for k in orders:
        moments[k] = _batch_means(w**k)
    m_frac = _batch_means(m_series / n)
    trace = None
    if keep_trace:
        trace = [
            (burn_in + i, int(s_series[i]), int(m_series[i])) for i in range(measured)
        ]

    return ChainResult(
        params=params,
        n=n,
        gamma=gamma,
        sweeps=sweeps,
        burn_in=burn_in,
        seed=seed,
        moments=moments,
        m_fraction=m_frac,
        batch_count=_BATCHES,
        s_histogram=hist if keep_histogram else None,
        trace=trace,
    )


def _sweep(spins, s: int, M: int, sites, draws, u_tab, base: float) -> tuple[int, int]:
    """One heat-bath update at each of ``sites``; returns the running (s, M).

    Conditional weights depend on u = s - spins[i] only through
    exp(+-2 beta K u / n), tabulated in ``u_tab`` over all reachable u.
    """
    n = spins.size
    for j in range(n):
        i = sites[j]
        old = int(spins[i])  # keep s, M, u as plain ints (no int8 wraparound)
        u = s - old
        wp = base * u_tab[u + n]
        wm = base / u_tab[u + n]
        tot = 1.0 + wp + wm
        x = draws[j] * tot
        if x < wm:
            new = -1
        elif x < wm + 1.0:
            new = 0
        else:
            new = 1
        if new != old:
            spins[i] = new
            s += new - old
            M += abs(new) - abs(old)
    return s, M


def _batch_means(series: np.ndarray) -> tuple[float, float]:
    usable = (series.size // _BATCHES) * _BATCHES
    chunks = series[:usable].reshape(_BATCHES, -1)
    means = chunks.mean(axis=1)
    est = float(series.mean())
    stderr = float(means.std(ddof=1) / math.sqrt(_BATCHES))
    return est, stderr

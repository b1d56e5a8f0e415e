"""Seeded single-site heat-bath sampler, an independent route to the law.

One sweep performs n single-site updates at uniformly random sites, each
drawing the new spin from its exact 3-point conditional given the rest.  The
Hamiltonian sees a configuration only through (s, M), and the measure is
exchangeable, so the chain is run lumped on the counts (n+, n-) of +1 and -1
spins: site index i < n+ holds a +1, i < n+ + n- a -1, and the rest 0s.  This
is the law of the spin-array chain with no spin array; every update is O(1).
Runs are deterministic given the 64-bit seed (numpy PCG64); per-chain seeds
for parallel sweeps should come from ``chain_seeds``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ComputationError, ValidationError
from .exact import _check_gamma
from .model import ModelParams, resampling_law

__all__ = ["ChainResult", "run_chain", "chain_seeds"]

_BATCHES = 32
# site indices and uniforms are drawn for whole sweeps at a time, at most
# this many per array (one sweep's n if that is more)
_BLOCK_DRAWS = 16384


@dataclass(frozen=True)
class ChainResult:
    """Post burn-in estimates with batch-means standard errors.

    ``trace`` (optional) holds one (sweep index, s, M) row per measurement.
    """

    n: int
    sweeps: int
    moments: dict[int, tuple[float, float]]  # order -> (estimate, stderr)
    m_fraction: tuple[float, float]  # (E[M]/n estimate, stderr)
    batch_count: int
    trace: list[tuple[int, int, int]] | None = None


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed!r}")


def chain_seeds(master_seed: int, count: int) -> list[int]:
    """Derive per-chain seeds from a master seed (SeedSequence spawning)."""
    _check_seed(master_seed)
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
    keep_trace: bool = False,
) -> ChainResult:
    """Run one heat-bath chain and estimate E[W^k], k = 1, 2, 4, for
    W = S_n / n^(1-gamma).

    Measurements are taken once per sweep after ``burn_in`` sweeps; standard
    errors come from 32 batch means.  ``sweeps`` counts total sweeps including
    burn-in.  Raises ValidationError for gamma outside (0, 1/2] or a negative
    seed.  The random stream is drawn block by block: all site indices of a
    block of sweeps, then all its uniforms.
    """
    if not (sweeps > burn_in >= 0):
        raise ValidationError("need sweeps > burn_in >= 0")
    if n < 1:
        raise ValidationError("n must be >= 1")
    _check_gamma(gamma)
    _check_seed(seed)
    measured = sweeps - burn_in
    if measured < _BATCHES:
        raise ValidationError(f"need at least {_BATCHES} post burn-in sweeps")

    rng = np.random.default_rng(seed)
    n_plus = n_minus = 0

    # cumulative conditional law (P(-1), P(-1) + P(0)) of a site whose other
    # spins sum to u, for u = -n..n
    cum_minus, cum_zero = np.cumsum(resampling_law(params, n, np.arange(-n, n + 1))[:2],
                                    axis=0).tolist()

    s_series: list[int] = []
    m_series: list[int] = []
    block = max(1, _BLOCK_DRAWS // n)  # sweeps whose randoms are drawn at once

    for first in range(0, sweeps, block):
        count = min(block, sweeps - first)
        sites = rng.integers(0, n, size=count * n).tolist()
        draws = rng.random(count * n).tolist()
        for k in range(count):
            n_plus, n_minus = _sweep(n_plus, n_minus, sites[k * n:(k + 1) * n],
                                     draws[k * n:(k + 1) * n], cum_minus, cum_zero)
            if not (n_plus >= 0 and n_minus >= 0 and n_plus + n_minus <= n):
                raise ComputationError(
                    f"sampler counts left the simplex: n+={n_plus}, n-={n_minus}, n={n}"
                )
            if first + k >= burn_in:
                s_series.append(n_plus - n_minus)
                m_series.append(n_plus + n_minus)

    w = np.array(s_series) / float(n) ** (1.0 - gamma)
    moments = {k: _batch_means(w**k) for k in (1, 2, 4)}
    m_frac = _batch_means(np.array(m_series) / n)
    trace = None
    if keep_trace:
        trace = list(zip(range(burn_in, sweeps), s_series, m_series))

    return ChainResult(n=n, sweeps=sweeps, moments=moments, m_fraction=m_frac,
                       batch_count=_BATCHES, trace=trace)


def _sweep(n_plus: int, n_minus: int, sites: list, draws: list,
           cum_minus: list, cum_zero: list) -> tuple[int, int]:
    """One heat-bath update at each of ``sites``; returns the new (n+, n-).

    The site's spin is read off its index, and the new spin from the draw
    against the cumulative conditional law at u = s - spin (offset by n).
    """
    n = len(sites)
    for i, x in zip(sites, draws):
        old = 1 if i < n_plus else (-1 if i < n_plus + n_minus else 0)
        j = n_plus - n_minus - old + n
        new = -1 if x < cum_minus[j] else (0 if x < cum_zero[j] else 1)
        if new != old:
            n_plus += (new == 1) - (old == 1)
            n_minus += (new == -1) - (old == -1)
    return n_plus, n_minus


def _batch_means(series: np.ndarray) -> tuple[float, float]:
    usable = (series.size // _BATCHES) * _BATCHES
    chunks = series[:usable].reshape(_BATCHES, -1)
    means = chunks.mean(axis=1)
    est = float(series.mean())
    stderr = float(means.std(ddof=1) / math.sqrt(_BATCHES))
    return est, stderr

"""Acceptance suite: every exit criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py``; a per-criterion PASS/FAIL table
is printed in the terminal summary.  The heavy ladder sweep (laws, densities,
Stein envelopes and bounds for all 42 cases) runs once in a session fixture
and is shared by criteria 3, 4 and 5.
"""

import math
import time
from dataclasses import dataclass

import pytest

from begrates.cases import case_by_id, case_catalog
from begrates.exact import (
    brute_force_law,
    build_joint_law,
    hs_check,
    moment,
    pair_covariance,
    tv_distance,
)
from begrates.mcmc import run_chain
from begrates.model import (
    BETA_C,
    ModelParams,
    critical_K,
    f_single,
    G_prime,
    g_derivs_at_zero,
)
from begrates.rates import fit_loglog, run_case, run_rung
from begrates.stein import step_table, variance_term
from oracles import (
    brute_step_moments,
    brute_variance_term,
    conditional_mean_sandwich_gap,
    pair_conditional_funcs,
    pair_f1_expanded,
    series_g6_oracle,
    with_schedule,
)

SIX_POINTS = [
    ModelParams(1.0, 0.6),
    ModelParams(1.0, critical_K(1.0)),
    ModelParams(BETA_C, critical_K(BETA_C)),
    ModelParams(0.5, 0.3),
    ModelParams(1.0, 1.5),
    ModelParams(2.0, 1.2),
]

REGION_REPS = {
    "A": (ModelParams(1.0, 0.6), 0.5),
    "B": (ModelParams(1.0, critical_K(1.0)), 0.25),
    "C": (ModelParams(BETA_C, critical_K(BETA_C)), 1.0 / 6.0),
}


@dataclass
class SweepEntry:
    case_id: str
    gamma: float
    predicted: float
    ns: list
    d_ks: list
    totals: list
    dominance: list  # bool per ladder point


@pytest.fixture(scope="session")
def full_sweep():
    """One pass over all 42 cases: distances and itemised bounds per rung."""
    entries = {}
    for case in case_catalog():
        ns, dks, totals, dom = [], [], [], []
        for e in range(6, case.ladder_max_exp + 1):
            rung = run_rung(case, 2**e, bound=True)
            ns.append(rung.n)
            dks.append(rung.d_k)
            totals.append(rung.bound.total)
            dom.append(rung.bound.dominates())
        entries[case.case_id] = SweepEntry(
            case_id=case.case_id,
            gamma=case.gamma,
            predicted=case.predicted_exponent,
            ns=ns,
            d_ks=dks,
            totals=totals,
            dominance=dom,
        )
    return entries


# ---------------------------------------------------------------------------
# criterion 1: exhaustive-oracle equivalence


@pytest.mark.acceptance("1: exhaustive-oracle equivalence (n <= 8, six parameter points)")
def test_criterion_1_exhaustive_equivalence():
    start = time.monotonic()
    gamma = 0.5
    for params in SIX_POINTS:
        for n in range(1, 9):
            law = build_joint_law(params, n)
            assert tv_distance(law.atoms(), brute_force_law(params, n)) < 1e-12
        # conditional step moments and the variance term at a midsize n
        for n in (4, 6):
            law = build_joint_law(params, n)
            steps = step_table(law, gamma)
            (m0, m1), (v0, v1) = steps.mean, steps.second
            oracle, _ = brute_step_moments(params, n, gamma)
            for (s, M), (want1, want2) in oracle.items():
                assert abs(m0[s + n] + m1[s + n] * M - want1) < 1e-12
                assert abs(v0[s + n] + v1[s + n] * M - want2) < 1e-12
            assert abs(variance_term(steps) - brute_variance_term(params, n, gamma)) < 1e-12
    assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# criterion 2: closed-form identities


@pytest.mark.acceptance("2: closed-form identities (g2, g4, g6 = 162, kernels)")
def test_criterion_2_closed_forms():
    for beta in (0.8, 1.0, BETA_C):
        assert abs(g_derivs_at_zero(ModelParams(beta, critical_K(beta))).g2) < 1e-12
    for K in (0.4, 1.0, 2.0):
        assert abs(g_derivs_at_zero(ModelParams(BETA_C, K)).g4) < 1e-12
    tri = ModelParams(BETA_C, critical_K(BETA_C))
    g6 = g_derivs_at_zero(tri).g6
    assert abs(g6 - series_g6_oracle(tri.beta, tri.K)) < 1e-6 * 162.0
    assert abs(g6 - 162.0) < 1e-6 * 162.0
    # the limiting sixth-moment normaliser is the reciprocal: g6/6! = 9/40
    assert abs(g6 / math.factorial(6) - 9.0 / 40.0) < 1e-10
    grid = [i / 20.0 for i in range(-20, 21)]
    for params in (ModelParams(1.0, 0.6), ModelParams(0.5, 0.3),
                   ModelParams(2.0, 1.2), tri):
        for x in grid:
            assert abs(f_single(params, x) - (x - G_prime(params, x) / params.two_beta_K)) < 1e-12
            f1, f2 = pair_conditional_funcs(params, x)
            assert abs(f1 - pair_f1_expanded(params, x)) < 1e-12
            assert 0.0 <= f1 <= 1.0 and 0.0 <= f2 <= 1.0


# ---------------------------------------------------------------------------
# criterion 3: fixed-parameter rates


@pytest.mark.acceptance("3: fixed-parameter Kolmogorov rates (regions A, B, C)")
def test_criterion_3_fixed_rates(full_sweep):
    thresholds = {"fixed-A": -0.5 + 0.15, "fixed-B": -0.25 + 0.15,
                  "fixed-C": -1.0 / 6.0 + 0.10}
    for cid, cutoff in thresholds.items():
        entry = full_sweep[cid]
        slope, _, _ = fit_loglog(list(zip(entry.ns, entry.d_ks)))
        assert slope <= cutoff, (cid, slope)
        scaled = [d * n**entry.predicted for n, d in zip(entry.ns, entry.d_ks)]
        assert max(scaled) <= 10.0 * scaled[0], cid
    assert full_sweep["fixed-C"].ns[-1] == 2**13
    # at the tricritical point the n^(1/6)-scaled distances end no higher
    # than they start
    tri = full_sweep["fixed-C"]
    tri_scaled = [d * n ** (1.0 / 6.0) for n, d in zip(tri.ns, tri.d_ks)]
    assert tri_scaled[-1] <= tri_scaled[0]


# ---------------------------------------------------------------------------
# criterion 4: the 42-case sweep


@pytest.mark.acceptance("4: 42-case sequence sweep (slopes and boundedness)")
def test_criterion_4_sequence_sweep(full_sweep):
    assert len(full_sweep) == 42
    for entry in full_sweep.values():
        slope, _, _ = fit_loglog(list(zip(entry.ns, entry.d_ks)))
        assert slope <= -entry.predicted + 0.15, (entry.case_id, slope)
        scaled = [d * n**entry.predicted for n, d in zip(entry.ns, entry.d_ks)]
        assert max(scaled) <= 10.0 * scaled[0], entry.case_id


@pytest.mark.acceptance("4: 42-case sequence sweep (slopes and boundedness)")
def test_criterion_4_phase_transition_branch():
    # the slow branch of the quartic-limit family decays visibly slower
    ladder = [2**e for e in range(6, 13)]
    slow = run_case(with_schedule(case_by_id("B3.1"), delta2=0.6), ladder)
    fast = run_case(with_schedule(case_by_id("B3.1"), delta2=0.8), ladder)
    assert slow.fitted_slope - fast.fitted_slope >= 0.05


# ---------------------------------------------------------------------------
# criterion 5: bound dominance


@pytest.mark.acceptance("5: exchangeable-pair bound dominates exact distance everywhere")
def test_criterion_5_bound_dominance(full_sweep):
    for entry in full_sweep.values():
        assert all(entry.dominance), entry.case_id
        for total, dk in zip(entry.totals, entry.d_ks):
            assert total >= dk


# ---------------------------------------------------------------------------
# criterion 6: lemma-level numerics


@pytest.mark.acceptance("6: lemma-level numerics (sandwich, covariance, moments, smoothing)")
def test_criterion_6_sandwich():
    for params in SIX_POINTS:
        for e in range(4, 9):
            law = build_joint_law(params, 2**e)
            assert conditional_mean_sandwich_gap(law) <= 1e-14


@pytest.mark.acceptance("6: lemma-level numerics (sandwich, covariance, moments, smoothing)")
def test_criterion_6_pair_covariance_scaling():
    ladder = [2**e for e in range(6, 13)]
    for region, (params, gamma) in REGION_REPS.items():
        rate = min(4.0 * gamma, 1.0)
        scaled = [abs(pair_covariance(params, n)) * n**rate for n in ladder]
        assert max(scaled) <= 10.0 * scaled[0], region


@pytest.mark.acceptance("6: lemma-level numerics (sandwich, covariance, moments, smoothing)")
def test_criterion_6_moment_boundedness():
    ladder = [2**e for e in range(6, 14)]
    for region, (params, gamma) in REGION_REPS.items():
        series = {l: [] for l in range(1, 9)}
        for n in ladder:
            law = build_joint_law(params, n)
            for l in series:
                series[l].append(abs(moment(law, gamma, l)))
        for l, vals in series.items():
            assert max(vals) <= 10.0 * max(vals[0], 1e-6), (region, l)


@pytest.mark.acceptance("6: lemma-level numerics (sandwich, covariance, moments, smoothing)")
def test_criterion_6_gaussian_smoothing_identity():
    for region, (params, gamma) in REGION_REPS.items():
        assert hs_check(params, 1024, gamma) < 1e-3, region


# ---------------------------------------------------------------------------
# criterion 7: sampler validation


@pytest.mark.acceptance("7: heat-bath sampler matches exact law; seeded determinism")
def test_criterion_7_mcmc():
    params = ModelParams(1.0, 0.6)
    for n, seed in ((20, 11), (50, 22), (100, 33)):
        law = build_joint_law(params, n)
        res = run_chain(params, n, 12000, 1200, seed=seed)
        for k in (2, 4):
            est, se = res.moments[k]
            exact = moment(law, 0.5, k)
            assert se > 0.0
            assert abs(est - exact) < 4.0 * se, (n, k)
    again = run_chain(params, 20, 12000, 1200, seed=11)
    assert again.moments == run_chain(params, 20, 12000, 1200, seed=11).moments

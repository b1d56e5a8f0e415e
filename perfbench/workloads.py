"""The four benchmark workloads: their ops, warm-ups and output checks.

Every call into begrates goes through a module attribute (``exact.moment``,
``cli.main``, ...) looked up at call time, so a traced run sees it.  One op
is one bound rung, one rate-scan case row, one chain, one ``hs_check`` or
one covariance.  An op fails when it raises, when the CLI exits non-zero,
or when an output leaves the tolerance stored in ``reference.json``; a
change in an output that is not checked (the Stein envelopes d1..d4, the
bound total, the fitted slope, the ``hs_check`` value) is reported as a
fingerprint diff instead.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

from begrates import cases, cli, density, exact, mcmc, stein
from begrates.model import BETA_C, ModelParams, critical_K

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
OUT_DIR = os.path.join(HERE, "out")

# One case per density shape (Gaussian, quartic, sextic, x2+x4, x2+x4+x6,
# x4+x6, x2+x6), with both signs where the sign makes a double well.  The
# shape sets the envelope grid's reach, and at these sizes the envelopes are
# about 80% of a rung while the law and the Stein passes are small.
SMALL_N_CASES = ("fixed-A", "fixed-B", "fixed-C", "B1.k+", "B1.k-", "C1.k+b-", "C1.k-b-",
                 "C6.1.b+", "C6.1.b-", "C7.1.k+", "C7.1.k-")
SMALL_N = (64, 256)
# The top two rungs of the fixed-C ladder: the O(n^2) law and the per-slice
# Stein loops set time and memory, and the envelopes are about 3%.
LARGE_N_RUNGS = (("fixed-C", 4096), ("fixed-C", 8192))
RATE_SCAN_MAX_EXP = 10
REGIONS = {
    "A": (ModelParams(1.0, 0.6), 0.5),
    "B": (ModelParams(1.0, critical_K(1.0)), 0.25),
    "C": (ModelParams(BETA_C, critical_K(BETA_C)), 1.0 / 6.0),
}
COVARIANCE_EXPS = range(6, 13)
HS_N = 1024
CHAIN_PARAMS, CHAIN_GAMMA = ModelParams(1.0, 0.6), 0.5
CHAINS = ((20, 6000, 600), (50, 6000, 600), (100, 6000, 600))  # (n, sweeps, burn-in)


@dataclass
class Op:
    """``run`` returns the fields of every key the op covers, keyed as in
    ``keys``; ``check(ref, tolerances, fields)`` returns the failure reasons of
    one key against its reference entry.  ``reference`` gives the entries to
    store when they are not the op's own outputs (the chains store the exact
    moments, since their estimates depend on the seed)."""

    keys: list[str]
    run: Callable[[], dict[str, dict]]
    check: Callable[[dict, dict, dict], list[str]]
    reference: Callable[[], dict[str, dict]] | None = None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    diffs: dict[str, list] = field(default_factory=dict)  # field -> [changed, compared, max rel]
    outputs: dict[str, dict] = field(default_factory=dict)

    def add(self, reference: dict, results) -> None:
        for key, reasons, fields in results:
            self.attempted += 1
            if reasons:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(f"{key}: {'; '.join(reasons)}")
            self.outputs[key] = fields
            for name, got in fields.items():
                ref = reference["ops"].get(key, {}).get(name)
                if isinstance(ref, float) and isinstance(got, float):
                    entry = self.diffs.setdefault(name, [0, 0, 0.0])
                    entry[1] += 1
                    if got != ref:
                        entry[0] += 1
                        entry[2] = max(entry[2], abs(got - ref) / max(abs(ref), 1e-300))


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def run_op(op: Op, reference: dict, tally: Tally) -> None:
    """Run one op and check each key it covers; an exception fails them all."""
    try:
        outputs = op.run()
        results = []
        for key in op.keys:
            fields = outputs.get(key)
            reasons = (["no output"] if fields is None else
                       op.check(reference["ops"][key], reference["tolerances"], fields))
            results.append((key, reasons, fields or {}))
    except Exception as exc:  # the benchmark records the failure and goes on
        reason = f"{type(exc).__name__}: {exc}"
        results = [(key, [reason], {}) for key in op.keys]
    tally.add(reference, results)


def _close(got: float, ref: float, tol: dict) -> bool:
    return abs(got - ref) <= tol["atol"] + tol["rtol"] * abs(ref)


def _out_of_tolerance(fields: dict, ref: dict, tol: dict, names) -> list[str]:
    return [f"{name} {fields[name]!r} outside tolerance of {ref[name]!r}"
            for name in names if not _close(fields[name], ref[name], tol)]


# ---------------------------------------------------------------------------
# bound rungs


def bound_rung(case_id: str, n: int) -> dict:
    case = cases.case_by_id(case_id)
    law = exact.build_joint_law(cases.params_at(case, n), n)
    mm = {k: exact.moment(law, case.gamma, k) for k in (2, 4, 6)}
    dens = cases.comparison_density(case, n, mm)
    consts = density.estimate_stein_constants(dens)
    report = stein.evaluate_bound(law, case.gamma, case, dens, consts)
    return {"d_k": report.exact_dk, "m2": mm[2], "m4": mm[4], "m6": mm[6],
            "d1": consts.d1, "d2": consts.d2, "d3": consts.d3, "d4": consts.d4,
            "total": report.total}


def check_rung(ref: dict, tol: dict, fields: dict) -> list[str]:
    reasons = _out_of_tolerance(fields, ref, tol["d_k"], ("d_k",))
    reasons += _out_of_tolerance(fields, ref, tol["moment"], ("m2", "m4", "m6"))
    if not fields["total"] >= fields["d_k"]:
        reasons.append(f"bound total {fields['total']!r} below d_K {fields['d_k']!r}")
    return reasons


def _rung_op(case_id: str, n: int) -> Op:
    key = f"{case_id}@{n}"
    return Op([key], lambda: {key: bound_rung(case_id, n)}, check_rung)


# ---------------------------------------------------------------------------
# rate scan through the CLI

RATE_SCAN_FIELDS = ("fitted_slope", "d_k_at_n_max", "slope_ok", "bounded_ok")


def rate_scan(path: str) -> dict[str, dict]:
    """The checked fields of every row; a non-zero CLI exit raises."""
    if os.path.exists(path):
        os.remove(path)  # a stale file must not pass for this call's output
    code = cli.main(["rate-scan", "--all", "--max-exp", str(RATE_SCAN_MAX_EXP),
                     "--threads", "1", "--format", "json", "--output", path])
    if code != 0:
        raise RuntimeError(f"rate-scan CLI exit code {code}")
    with open(path) as fh:
        doc = json.load(fh)
    return {row["case_id"]: {name: row[name] for name in RATE_SCAN_FIELDS}
            for row in doc["rows"]}


def check_rate_row(ref: dict, tol: dict, fields: dict) -> list[str]:
    reasons = _out_of_tolerance(fields, ref, tol["d_k"], ("d_k_at_n_max",))
    return reasons + [f"{name} is false" for name in ("slope_ok", "bounded_ok")
                      if not fields[name]]


def _rate_scan_op() -> Op:
    keys = sorted(c.case_id for c in cases.case_catalog())
    path = os.path.join(OUT_DIR, "rate-scan.json")
    return Op(keys, lambda: rate_scan(path), check_rate_row)


# ---------------------------------------------------------------------------
# lemma checks


def chain_moments(res) -> dict:
    return {f"m{k}{suffix}": value
            for k in (2, 4) for suffix, value in zip(("", "_se"), res.moments[k])}


def check_chain(ref: dict, tol: dict, fields: dict) -> list[str]:
    """Criterion 7: each chain moment lies within 4 standard errors of the
    exact moment, so a new random stream does not read as a failure."""
    factor = tol["chain_stderr_factor"]
    reasons = []
    for k in (2, 4):
        est, se, exact_value = fields[f"m{k}"], fields[f"m{k}_se"], ref[f"exact_m{k}"]
        if not (se > 0.0 and abs(est - exact_value) < factor * se):
            reasons.append(f"E[W^{k}] estimate {est!r} +- {se!r} vs exact {exact_value!r}")
    return reasons


def _chain_op(n: int, sweeps: int, burn_in: int, seed: int) -> Op:
    key = f"chain@{n}"

    def exact_moments():
        law = exact.build_joint_law(CHAIN_PARAMS, n)
        return {key: {f"exact_m{k}": exact.moment(law, CHAIN_GAMMA, k) for k in (2, 4)}}

    return Op([key],
              lambda: {key: chain_moments(mcmc.run_chain(CHAIN_PARAMS, n, sweeps, burn_in,
                                                         seed=seed, gamma=CHAIN_GAMMA))},
              check_chain, exact_moments)


def check_hs(ref: dict, tol: dict, fields: dict) -> list[str]:
    limit = tol["hs_check_limit"]
    return [] if fields["hs_check"] < limit else [f"hs_check {fields['hs_check']!r} >= {limit!r}"]


def _hs_op(region: str) -> Op:
    key = f"hs@{region}"
    params, gamma = REGIONS[region]
    return Op([key], lambda: {key: {"hs_check": exact.hs_check(params, HS_N, gamma)}}, check_hs)


def check_covariance(ref: dict, tol: dict, fields: dict) -> list[str]:
    return _out_of_tolerance(fields, ref, tol["covariance"], ("covariance",))


def _covariance_op(region: str, n: int) -> Op:
    key = f"cov@{region}@{n}"
    params, _ = REGIONS[region]
    return Op([key], lambda: {key: {"covariance": exact.pair_covariance(params, n)}},
              check_covariance)


# ---------------------------------------------------------------------------


def build(workload: str, seed: int) -> list[Op]:
    """The ops of one pass.  Only lemma-checks uses the seed (chain seeds)."""
    if workload == "bound-small-n":
        return [_rung_op(c, n) for n in SMALL_N for c in SMALL_N_CASES]
    if workload == "bound-large-n":
        return [_rung_op(c, n) for c, n in LARGE_N_RUNGS]
    if workload == "rate-scan":
        return [_rate_scan_op()]
    if workload == "lemma-checks":
        seeds = mcmc.chain_seeds(seed, len(CHAINS))
        ops = [_chain_op(n, sw, b, s) for (n, sw, b), s in zip(CHAINS, seeds)]
        ops += [_covariance_op(r, 2**e) for r in REGIONS for e in COVARIANCE_EXPS]
        ops += [_hs_op(r) for r in REGIONS]
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def warm_up(workload: str) -> None:
    """One small call into each layer the workload touches."""
    if workload in ("bound-small-n", "bound-large-n"):
        bound_rung("fixed-C", 16)
    elif workload == "rate-scan":
        code = cli.main(["rate-scan", "--case", "fixed-C", "--min-exp", "3", "--max-exp", "6",
                         "--format", "json", "--output",
                         os.path.join(OUT_DIR, "warm-up.json")])
        if code != 0:
            raise RuntimeError(f"warm-up rate-scan exited with {code}")
    elif workload == "lemma-checks":
        params, gamma = REGIONS["A"]
        mcmc.run_chain(params, 10, 64, 16, seed=0)
        exact.hs_check(params, 16, gamma)
        exact.pair_covariance(params, 16)
    else:
        raise ValueError(f"unknown workload {workload!r}")

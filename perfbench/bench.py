"""One benchmark workload in one fresh process; ``run.py`` starts it.

    python3 perfbench/bench.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Set-up (imports, catalog, one warm-up call per layer) is timed from the first
line of this file.  Then whole passes over the workload's ops run until
``--seconds`` have elapsed.  With ``--trace 1`` untraced and traced passes
alternate, so the tracing overhead is measured in the same process.  Prints
one JSON object on stdout.
"""

import os
import sys
import time

_T0 = time.perf_counter()
# pin the BLAS and OpenMP pools before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import begrates  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# (metric, unit, span name, field): field is "s" or "self_s" (seconds per
# pass), "calls", or "info" (the count the span recorded; index for tuples)
_SPAN_METRICS = [
    ("exact.build_joint_law.s", "s", "exact.build_joint_law", "s"),
    ("exact.build_joint_law.calls", "count", "exact.build_joint_law", "calls"),
    ("exact.atoms", "count", "exact.build_joint_law", "info"),
    ("exact.moment.s", "s", "exact.moment", "s"),
    ("exact.kolmogorov_distance.self_s", "s", "exact.kolmogorov_distance", "self_s"),
    ("exact.hs_check.s", "s", "exact.hs_check", "s"),
    ("exact.hs_check.self_s", "s", "exact.hs_check", "self_s"),
    ("exact.pair_covariance.self_s", "s", "exact.pair_covariance", "self_s"),
    ("density.estimate_stein_constants.s", "s", "density.estimate_stein_constants", "s"),
    ("density.estimate_stein_constants.self_s", "s", "density.estimate_stein_constants",
     "self_s"),
    ("density.estimate_stein_constants.calls", "count", "density.estimate_stein_constants",
     "calls"),
    ("density.envelope_cells", "count", "density.estimate_stein_constants", "info"),
    ("density.normalize_density.s", "s", "density.normalize_density", "s"),
    ("density.normalize_density.calls", "count", "density.normalize_density", "calls"),
    ("density.cdf_at_sorted.s", "s", "density.cdf_at_sorted", "s"),
    ("cases.comparison_density.self_s", "s", "cases.comparison_density", "self_s"),
    ("stein.evaluate_bound.s", "s", "stein.evaluate_bound", "s"),
    ("stein.evaluate_bound.self_s", "s", "stein.evaluate_bound", "self_s"),
    ("stein.regression_decompose.s", "s", "stein.regression_decompose", "s"),
    ("stein.variance_term.s", "s", "stein.variance_term", "s"),
    ("rates.run_case.self_s", "s", "rates.run_case", "self_s"),
    ("rates.run_all.self_s", "s", "rates.run_all", "self_s"),
    ("rates.rungs_attempted", "count", "rates.run_case", ("info", 0)),
    ("rates.rungs_skipped", "count", "rates.run_case", ("info", 1)),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
    ("mcmc.run_chain.s", "s", "mcmc.run_chain", "s"),
    ("mcmc.updates", "count", "mcmc.run_chain", "info"),
    ("bench.op.self_s", "s", "bench.op", "self_s"),
]
# (metric, numerator seconds metric, denominator count metric)
_RATE_METRICS = [
    ("exact.ns_per_atom", "exact.build_joint_law.s", "exact.atoms"),
    ("density.ns_per_envelope_cell", "density.estimate_stein_constants.s",
     "density.envelope_cells"),
    ("mcmc.ns_per_update", "mcmc.run_chain.s", "mcmc.updates"),
]
PER_LAYER_UNITS = {name: unit for name, unit, _, _ in _SPAN_METRICS}
PER_LAYER_UNITS.update({name: "ns" for name, _, _ in _RATE_METRICS})
PER_LAYER_UNITS.update({"trace.wall_s": "s", "trace.self_total_s": "s", "trace.overhead_s": "s"})


def layer_metrics(all_spans: list, traced: list[float], untraced: list[float]) -> dict:
    """Per-pass means over the traced passes.  Every span name has its self
    time in a ``.self_s`` metric or, for spans without traced children, in
    ``.s``; their sum is ``trace.self_total_s``, which with the loop between
    ops makes up ``trace.wall_s``."""
    summary = spans.summarize(all_spans)
    passes = len(traced)
    out = {}
    for name, _, span, fld in _SPAN_METRICS:
        row = summary.get(span)
        if row is None:
            value = 0
        elif isinstance(fld, tuple):
            value = row["info"][fld[1]] if row["info"] else 0
        else:
            value = row[fld] or 0
        out[name] = value / passes
    for name, secs, count in _RATE_METRICS:
        out[name] = out[secs] / out[count] * 1e9 if out[count] else 0.0
    out["trace.wall_s"] = sum(traced) / passes
    out["trace.self_total_s"] = sum(row["self_s"] for row in summary.values()) / passes
    out["trace.overhead_s"] = out["trace.wall_s"] - sum(untraced) / len(untraced)
    return out


def machine() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run_pass(ops, reference, tally, op_times, tracer=None) -> float:
    """Run every op once; append each op's seconds to ``op_times[i]``."""
    start = time.perf_counter()
    for op, times in zip(ops, op_times):
        t = time.perf_counter()
        if tracer is None:
            workloads.run_op(op, reference, tally)
        else:
            tracer.span("bench.op", workloads.run_op, op, reference, tally)
        times.append(time.perf_counter() - t)
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    begrates.case_catalog()
    workloads.warm_up(args.workload)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    reference = workloads.load_reference()
    ops = workloads.build(args.workload, args.seed)
    tally = workloads.Tally()
    tracer = spans.Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    op_times = [[] for _ in ops]  # untraced passes only
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or (args.trace and not traced):
        if args.trace and len(traced) < len(untraced):
            restore = tracer.install()
            try:
                traced.append(run_pass(ops, reference, tally, [[] for _ in ops], tracer))
            finally:
                restore()
        else:
            untraced.append(run_pass(ops, reference, tally, op_times))

    result = {
        "setup_s": setup_s,
        "pass_s": untraced,
        "traced_pass_s": traced,
        "op_s": {op.keys[0]: times for op, times in zip(ops, op_times)},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "fingerprint": tally.diffs,
        "outputs": tally.outputs,
        "machine": machine(),
    }
    if args.trace:
        result["per_layer"] = {
            name: {"value": value, "unit": PER_LAYER_UNITS[name]}
            for name, value in layer_metrics(tracer.spans, traced, untraced).items()}
        path = os.path.join(workloads.OUT_DIR, f"{args.workload}-seed{args.seed}-spans.json")
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "info"],
                       "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point for begrates.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs in a fresh worker process
(``bench.py``) so that set-up time and peak memory belong to it alone.  With
``--trace 0`` two more set-up-only processes run first and the median of the
three set-up times is reported, together with the median pass wall time and
the worker's peak RSS.  With ``--trace 1`` the per-layer metrics of the traced
passes are reported instead.  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record (machine data, pass times, output fingerprint) goes to
``perfbench/out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bound-small-n", "bound-large-n", "rate-scan", "lemma-checks")
SETUP_SAMPLES = 3
# time limit of one run: each worker's set-up, plus --seconds of passes and the
# pass under way when they end (at most one pass more, which the workloads keep
# under --seconds; a traced run also finishes one traced pass), plus slack
SETUP_ALLOWANCE_S = 20.0
SLACK_S = 30.0


class WorkerError(RuntimeError):
    pass


def _worker(argv: list[str], deadline: float) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "bench.py"), *argv],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise WorkerError(f"worker exceeded the time limit: {exc}") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no result")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    for needed in (os.path.join(ROOT, "src", "begrates", "__init__.py"),
                   os.path.join(HERE, "reference.json")):
        if not os.path.isfile(needed):
            sys.stderr.write(f"error: {os.path.relpath(needed, ROOT)} not found; "
                             "run from a checkout of the repository\n")
            return 2

    deadline = (time.monotonic() + SETUP_ALLOWANCE_S * SETUP_SAMPLES + 2 * args.seconds
                + SLACK_S)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [] if args.trace else [
            _worker([*common, "--seconds", "0", "--setup-only"], deadline)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)]
        res = _worker([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
                      deadline)
    except WorkerError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    if args.trace:
        metrics = res["per_layer"]
    else:
        setups.append(res["setup_s"])
        metrics = {
            "wall_s": {"value": statistics.median(res["pass_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    record = dict(res, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_samples_s=setups, metrics=metrics)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    for line in res["failures"]:
        print(f"failed op: {line}")
    changed = {k: v for k, v in sorted(res["fingerprint"].items()) if v[0]}
    print("fingerprint: " + (", ".join(
        f"{k} differs on {c} of {t} ops (max rel {m:.3g})" for k, (c, t, m) in changed.items())
        or "unchanged"))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

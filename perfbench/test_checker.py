"""Self-test of the benchmark's checker and tracer.

    python3 -m pytest -q perfbench/test_checker.py

Each injected fault (a perturbed d_K, a bound total below d_K, a non-zero
CLI exit) must count in ``ops_failed``; a changed envelope must show as a
fingerprint diff and not as a failure.
"""

import dataclasses
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(HERE, os.pardir, "src")]

from begrates import cli, rates, stein  # noqa: E402

import bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402

REFERENCE = workloads.load_reference()


def _run(op) -> workloads.Tally:
    tally = workloads.Tally()
    workloads.run_op(op, REFERENCE, tally)
    return tally


def _rung_op():
    return next(op for op in workloads.build("bound-small-n", 0) if op.keys == ["fixed-C@64"])


def _patch_bound(monkeypatch, **change):
    real = stein.evaluate_bound

    def fake(*args, **kwargs):
        report = real(*args, **kwargs)
        return dataclasses.replace(report, **{k: f(report) for k, f in change.items()})

    monkeypatch.setattr(stein, "evaluate_bound", fake)


def test_clean_rung_passes_with_unchanged_fingerprint():
    tally = _run(_rung_op())
    assert (tally.attempted, tally.failed) == (1, 0)
    assert all(changed == 0 for changed, _, _ in tally.diffs.values())


def test_perturbed_dk_is_a_failed_op(monkeypatch):
    _patch_bound(monkeypatch, exact_dk=lambda r: r.exact_dk * (1.0 + 1e-6))
    tally = _run(_rung_op())
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "d_k" in tally.failures[0]


def test_total_below_dk_is_a_failed_op(monkeypatch):
    _patch_bound(monkeypatch, total=lambda r: 0.5 * r.exact_dk)
    tally = _run(_rung_op())
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "below d_K" in tally.failures[0]


def test_changed_total_is_a_diff_not_a_failure(monkeypatch):
    _patch_bound(monkeypatch, total=lambda r: 2.0 * r.total)
    tally = _run(_rung_op())
    assert tally.failed == 0
    assert tally.diffs["total"][0] == 1


def test_nonzero_cli_exit_fails_every_row(monkeypatch):
    monkeypatch.setattr(cli, "main", lambda argv: 3)
    (op,) = workloads.build("rate-scan", 0)
    tally = _run(op)
    assert tally.attempted == tally.failed == 42
    assert "exit code 3" in tally.failures[0]


def test_raising_op_is_a_failed_op(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(stein, "evaluate_bound", boom)
    tally = _run(_rung_op())
    assert (tally.attempted, tally.failed) == (1, 1)


def test_reference_covers_every_op():
    for name in WORKLOADS:
        for op in workloads.build(name, 0):
            assert all(key in REFERENCE["ops"] for key in op.keys), name


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER_UNITS
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}


def test_self_times_account_for_the_root_span_and_wrappers_are_removed(tmp_path):
    tracer = spans.Tracer()
    original = rates.build_joint_law
    restore = tracer.install()
    try:
        tracer.span("bench.op", cli.main, ["rate-scan", "--case", "fixed-C", "--min-exp", "3",
                                          "--max-exp", "6", "--output",
                                          str(tmp_path / "self-test.csv")])
    finally:
        restore()
    assert rates.build_joint_law is original
    summary = spans.summarize(tracer.spans)
    root = summary["bench.op"]
    assert sum(row["self_s"] for row in summary.values()) == pytest.approx(root["s"], rel=1e-9)
    assert summary["exact.build_joint_law"]["calls"] == 4
    assert summary["rates.run_case"]["info"] == (4, 0)
    assert summary["density.cdf_at_sorted"]["calls"] == 4

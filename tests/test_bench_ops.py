"""One pass of every benchmark op (perfbench/workloads.py) against the stored
reference outputs: an op that raises, exits non-zero or leaves its tolerance
must fail the suite rather than a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load()


@pytest.mark.parametrize("workload",
                         ["bound-small-n", "bound-large-n", "rate-scan", "lemma-checks"])
def test_every_op_passes_its_reference(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "OUT_DIR", str(tmp_path))
    reference = workloads.load_reference()
    tally = workloads.Tally()
    for op in workloads.build(workload, 0):
        workloads.run_op(op, reference, tally)
    assert tally.attempted > 0
    assert tally.failed == 0, tally.failures

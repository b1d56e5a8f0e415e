"""The benchmark's span tracer (perfbench/spans.py) wraps package functions
and methods by name; a rename or deletion here must fail the suite rather
than break a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [target[:3] for target in module.TARGETS]


TARGETS = _targets()


@pytest.mark.parametrize("span,module,attr", TARGETS, ids=[t[0] for t in TARGETS])
def test_traced_name_exists(span, module, attr):
    owner = importlib.import_module(module)
    cls_name, _, name = attr.rpartition(".")
    holder = getattr(owner, cls_name) if cls_name else owner
    assert callable(vars(holder).get(name)), f"{span}: {module}.{attr} is not defined"

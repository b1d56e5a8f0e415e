"""Every line of ``data/golden/manifest.txt`` reruns to its stored exit
code and bytes, and keeps ``golden.breaches``' rule (see ``golden.py``)."""

import pytest

import golden


@pytest.mark.parametrize("line", golden.read_manifest(), ids=lambda line: line.name)
def test_replay(line):
    code, out, err, warned = golden.replay(line.argv)
    assert golden.breaches(line.argv, code, out, err, warned) == []
    assert code == line.code, err
    for suffix, data in ((".out", out), (".err", err)):
        path = golden.GOLDEN / (line.name + suffix)
        assert data.encode() == (path.read_bytes() if path.exists() else b""), path.name

"""Golden outputs of the ``begrates`` command line, and the rule every run keeps.

``data/golden/manifest.txt`` lists one invocation a line as ``<exit code>
<argv>``, under a header naming the Python and numpy versions.  A line's
stdout and stderr are stored beside it as ``<name>.out`` and ``<name>.err``
(see ``Line.name``), with no file for an empty stream.  Lines run in process
through ``cli.main`` in the golden directory, so ``--config law.cfg`` is a
fixed path.  ``test_golden.py`` replays every line; rewrite the files, the
exit codes and the versions from the current code with

    PYTHONPATH=src python tests/golden.py
"""

import contextlib
import io
import os
import platform
import re
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from begrates import cli

GOLDEN = Path(__file__).parent / "data" / "golden"
MANIFEST = GOLDEN / "manifest.txt"
_NONFINITE = re.compile(r"\b(nan|inf|infinity)\b|traceback", re.IGNORECASE)
_ERROR_KIND = {2: "validation", 3: "computation"}


@contextlib.contextmanager
def address_space_cap(limit=64 << 30):
    """Cap this process's address space, so an oversized request fails at
    once even where the kernel would grant it and let the pages fill."""
    try:
        import resource
    except ImportError:  # no rlimits on this platform
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = limit if hard == resource.RLIM_INFINITY else min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@dataclass(frozen=True)
class Line:
    code: int
    argv: tuple[str, ...]

    @classmethod
    def parse(cls, text: str) -> "Line":
        code, *argv = text.split()
        return cls(int(code), tuple(argv))

    @property
    def name(self) -> str:
        """The argv joined by ``_``, flags without their ``--``, ``/`` as ``~``."""
        return "_".join(a.removeprefix("--").replace("/", "~") for a in self.argv)


def read_manifest() -> list[Line]:
    lines = [Line.parse(text) for text in MANIFEST.read_text().splitlines()
             if text and not text.startswith("#")]
    if len({line.name for line in lines}) != len(lines):
        raise ValueError("two manifest lines share a file name")
    return lines


def replay(argv) -> tuple[int, str, str, list[str]]:
    """Exit code, stdout, stderr and warnings of one ``cli.main`` run in the
    golden directory, under the address-space cap."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with (warnings.catch_warnings(record=True) as caught, address_space_cap(),
              contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
            warnings.simplefilter("always")
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


def breaches(argv, code: int, out: str, err: str, warned: list[str]) -> list[str]:
    """Where a run breaks the rule: no warning, and no nan, inf or traceback
    that its argv does not spell; exit 0 with nothing on stderr; exit 2 or 3
    with nothing on stdout and one stderr line ``error kind=validation`` or
    ``error kind=computation``."""
    found = [f"warning: {w}" for w in warned]
    spelt = {a.lower() for a in argv}
    found += [f"prints {m}" for m in _NONFINITE.findall(out + err) if m.lower() not in spelt]
    if code not in (0, *_ERROR_KIND):
        found.append(f"exit code {code}")
    elif code == 0 and err:
        found.append("exit 0 with stderr")
    elif code and (out or not err.startswith(f"error kind={_ERROR_KIND[code]} ")
                   or err.count("\n") != 1 or not err.endswith("\n")):
        found.append(f"exit {code} without stdout empty and one 'error kind=' line")
    return found


def regenerate() -> None:
    """Rerun every line; rewrite its files and exit code and the versions
    line, keep the comments, and delete files no line names."""
    read_manifest()  # the names are unique
    text, keep = [], set()
    for entry in MANIFEST.read_text().splitlines():
        if entry.startswith("# python "):
            entry = f"# python {platform.python_version()}, numpy {np.__version__}"
        elif entry and not entry.startswith("#"):
            line = Line.parse(entry)
            code, out, err, warned = replay(line.argv)
            for problem in breaches(line.argv, code, out, err, warned):
                print(f"{entry}: {problem}", file=sys.stderr)
            for suffix, data in ((".out", out), (".err", err)):
                if data:
                    (GOLDEN / (line.name + suffix)).write_text(data)
                    keep.add(line.name + suffix)
            entry = f"{code} {' '.join(line.argv)}"
        text.append(entry)
    for path in [*GOLDEN.glob("*.out"), *GOLDEN.glob("*.err")]:
        if path.name not in keep:
            path.unlink()
    MANIFEST.write_text("\n".join(text) + "\n")


if __name__ == "__main__":
    regenerate()

"""README's examples stay in step with the code: every ``begrates`` command
line in its ``sh`` blocks parses (it is not run), and the library example
runs as written."""

import re
import shlex
from pathlib import Path

import pytest

from begrates import cli

README = (Path(__file__).parents[1] / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.MULTILINE | re.DOTALL)


COMMAND_LINES = [line.split("#")[0].strip() for block in _blocks("sh")
                 for line in block.splitlines() if line.startswith("begrates ")]


def test_command_lines_are_found():
    assert COMMAND_LINES, "no begrates line in README's sh blocks"


@pytest.mark.parametrize("line", COMMAND_LINES)
def test_command_line_parses(line):
    args = cli.build_parser().parse_args(shlex.split(line)[1:])
    assert callable(args.func)


def test_library_example_runs(capsys):
    (block,) = [b for b in _blocks("python") if "from begrates import" in b]
    exec(compile(block, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2

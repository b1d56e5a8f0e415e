"""README's examples stay in step with the code: every ``begrates`` command
line in its ``sh`` blocks parses (it is not run), its list of ``--config``
switches is the parser's, and the library example runs as written."""

import argparse
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


def test_config_switch_list_is_the_parsers():
    # README: "a line without `=` sets a switch (`trace`, ...)"
    (listed,) = re.findall(r"a line without `=` sets a switch \((.*?)\)", README, re.DOTALL)
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    switches = {opt.removeprefix("--") for parser in subparsers.choices.values()
                for action in parser._actions if isinstance(action, argparse._StoreTrueAction)
                for opt in action.option_strings}
    assert set(re.findall(r"`([^`]+)`", listed)) == switches


def test_library_example_runs(capsys):
    (block,) = [b for b in _blocks("python") if "from begrates import" in b]
    exec(compile(block, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2

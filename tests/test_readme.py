"""README.md's examples run: the library quick tour as written, and every
`apnkit ...` line of the CLI block through `cli.main`, exiting 0."""

import re
import shlex
from pathlib import Path

import pytest

from apnkit.cli import build_parser, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading, lang):
    """The first ``lang`` code block after the line ``heading``."""
    match = re.search(rf"^{re.escape(heading)}\n.*?^```{lang}\n(.*?)^```", README,
                      re.MULTILINE | re.DOTALL)
    assert match, f"no code block under {heading!r}"
    return match.group(1)


CLI_LINES = [line.split("#", 1)[0].strip()
             for line in _block("## CLI", "").splitlines() if line.startswith("apnkit ")]


def test_readme_quick_tour_runs():
    exec(compile(_block("## Library quick tour", "python"), "README.md", "exec"), {})


def test_readme_cli_block_shows_every_command():
    commands = build_parser()._subparsers._group_actions[0].choices
    assert sorted(line.split()[1] for line in CLI_LINES) == sorted(commands)


@pytest.mark.parametrize("line", CLI_LINES)
def test_readme_cli_line_exits_0(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(line)
    assert main(argv[1:]) == 0, capsys.readouterr().err

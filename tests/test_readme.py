"""README's library quick start runs as written, and its command lines parse."""

import re
import shlex
from pathlib import Path

from propdp import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def blocks(heading: str, language: str) -> list[str]:
    """The ``language`` code blocks of README's ``heading`` section."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{language}\n(.*?)```", section, flags=re.S)


def test_library_quick_start_runs(capsys):
    quick_start = blocks("Library quick start", "python")
    assert len(quick_start) == 2
    for block in quick_start:
        exec(compile(block, str(README), "exec"), {})
    # the solution, its predictions and the zCDP, then one line per grid point
    assert len(capsys.readouterr().out.splitlines()) == 3 + 9


def test_command_lines_parse():
    # every `propdp ...` line of the "Command line" block, continuations joined,
    # parses with the CLI's own parser: a renamed or dropped flag fails here
    (block,) = blocks("Command line", "sh")
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines if line.startswith("propdp ")]
    assert len(commands) == 5
    parser = cli.build_parser()
    for words in commands:
        assert parser.parse_args(words[1:]).command == words[1]

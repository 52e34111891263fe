"""README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_blocks() -> list[str]:
    """The Python blocks of README's "Library quick start" section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def test_library_quick_start_runs(capsys):
    blocks = quick_start_blocks()
    assert len(blocks) == 2
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    # the solution, its predictions and the zCDP, then one line per grid point
    assert len(capsys.readouterr().out.splitlines()) == 3 + 9

"""The README's library example runs and prints the values its comments state,
and its flag table matches the parser."""

import contextlib
import io
import re
from pathlib import Path

import pytest

from continual_replay.cli_harness import _COMMANDS, _FLAGS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    plain, replayed = (float(line) for line in out.getvalue().split())
    a_sq, T = 6.0 / 7.0, 10
    assert plain == pytest.approx(3.0 * a_sq / (28.0 * (T - 1)), abs=1e-12)
    assert replayed == pytest.approx(3.0 * a_sq / 14.0, abs=1e-12)


def test_readme_flag_table_lists_each_commands_flags():
    # every command's row names exactly the options its parser takes
    text = README.read_text()
    table = text[text.index("| command | flags (defaults) |") :].split("\n\n")[0]
    rows = dict(re.findall(r"^\| `([\w-]+)` \| (.*) \|$", table, flags=re.M))
    assert sorted(rows) == sorted(_COMMANDS)
    for command, cell in rows.items():
        expected = {_FLAGS[key][0] for key in _COMMANDS[command].flags}
        assert set(re.findall(r"`(--[\w-]+)`", cell)) == expected, command

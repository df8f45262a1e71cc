"""The README's library example runs and prints the values its comments state,
its flag table matches the parser, and the exact values it quotes are what
the library computes."""

import contextlib
import io
import math
import re
from pathlib import Path

import pytest

from continual_replay.cli_harness import _COMMANDS, _FLAGS
from continual_replay.metrics import expected_replay_forgetting_rank_one
from continual_replay.task_gen import EPSILON_3D

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


def test_readme_quoted_exact_values():
    # each figure, at the decimals the README quotes it to
    text = " ".join(README.read_text().split())
    (claim_c2,) = re.findall(r"sqrt\(63\)/2 = (\d+\.\d+)", text)
    ((exact_3d, exact_152),) = re.findall(
        r"expected_replay_forgetting_rank_one\(d - 1, m, epsilon\)`: (\d+\.\d+) at the 3D "
        r"defaults and (\d+\.\d+) at d = 152, m = 10, eps = 0\.4",
        text,
    )
    for quoted, value in (
        (claim_c2, math.sqrt(63.0) / 2.0),
        (exact_3d, expected_replay_forgetting_rank_one(2, 1, EPSILON_3D)),
        (exact_152, expected_replay_forgetting_rank_one(151, 10, 0.4)),
    ):
        assert f"{value:.{len(quoted.split('.')[1])}f}" == quoted

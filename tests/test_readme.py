"""The README's library example runs and prints the values its comments state,
its flag table matches the parser and its defaults, and the exact values and
default-run counts it quotes are what the library computes."""

import contextlib
import io
import json
import math
import re
from pathlib import Path

import pytest

from continual_replay.cli_harness import _COMMANDS, _FLAGS, cmd_benign_check, main
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


def _flag_table():
    text = README.read_text()
    table = text[text.index("| command | flags (defaults) |") :].split("\n\n")[0]
    return dict(re.findall(r"^\| `([\w-]+)` \| (.*) \|$", table, flags=re.M))


# A flag's first stated default: a number, sqrt(1/63) or a quoted list, and
# for a default that --d selects, the value at d = 3 and the one elsewhere.
DEFAULT = r"`(--[\w-]+)` \((`[^`]*`|sqrt\(1/63\)|[\d.]+)(?: at d = 3, else ([\d.]+))?"


def _value(text):
    if text == "sqrt(1/63)":
        return EPSILON_3D
    if text.startswith("`"):
        return text.strip("`")
    return float(text) if "." in text else int(text)


def test_readme_flag_table_lists_each_commands_flags():
    # every command's row names exactly the options its parser takes, and
    # each default the parser holds
    rows = _flag_table()
    assert sorted(rows) == sorted(_COMMANDS)
    for command, cell in rows.items():
        flags = _COMMANDS[command].flags
        expected = {_FLAGS[key][0] for key in flags}
        assert set(re.findall(r"`(--[\w-]+)`", cell)) == expected, command
        stated = re.findall(DEFAULT, cell)
        assert {option for option, _, _ in stated} == expected, command
        for option, first, elsewhere in stated:
            (key,) = (key for key in flags if _FLAGS[key][0] == option)
            if flags[key] is None:  # resolved from --d; see the next test
                assert elsewhere, (command, option)
            else:
                assert (_value(first), elsewhere) == (flags[key], ""), (command, option)


def test_readme_replay_sweep_defaults_that_d_selects(tmp_path):
    # the sidecar echoes the epsilon and trials a run resolved from --d
    stated = [s for s in re.findall(DEFAULT, _flag_table()["replay-sweep"]) if s[2]]
    assert [option for option, _, _ in stated] == ["--epsilon", "--trials"]
    for d, pick in ((3, 1), (4, 2)):
        out = tmp_path / f"sweep{d}.csv"
        assert main(["replay-sweep", "--d", str(d), "--m", "0", "--out", str(out)]) == 0
        params = json.loads(out.with_name(f"sweep{d}.config.json").read_text())["params"]
        for default in stated:
            assert params[default[0][2:]] == _value(default[pick]), (d, default)


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


def test_readme_default_benign_check_counts():
    text = " ".join(README.read_text().split())
    ((vacuous, subsets, all_vacuous, certified),) = re.findall(
        r"The default run \(seed 42\) has (\d+) vacuous subsets of (\d+), "
        r"and (\d+) of its (\d+) certified pairs are vacuous throughout",
        text,
    )
    assert int(subsets) == 50 * int(certified)
    result = cmd_benign_check(**_COMMANDS["benign-check"].flags, seed=42)
    assert result.analytic_predictions["certified_pairs"] == int(certified)
    assert result.diagnostics == {
        "vacuous_subsets": int(vacuous),
        "pairs_all_vacuous": int(all_vacuous),
    }

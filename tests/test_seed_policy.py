"""One seed policy: only ``cli_harness._stream`` turns a run's ``--seed`` into
random numbers. Every other sampler takes the Generator its caller passes, so
the package builds one only there and in ``task_gen.make_worst_case``, whose
filler rows are part of its fixed construction."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "continual_replay"
ALLOWED = {("cli_harness", "_stream"), ("task_gen", "make_worst_case")}


def _default_rng_sites(path: Path) -> set[tuple[str, str]]:
    # (module, enclosing top-level definition) of every default_rng reference
    sites = set()
    for top in ast.parse(path.read_text(), str(path)).body:
        for node in ast.walk(top):
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            if name == "default_rng":
                sites.add((path.stem, getattr(top, "name", "<module>")))
    return sites


def test_only_the_stream_helper_and_the_worst_case_build_generators():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    sites = set().union(*(_default_rng_sites(path) for path in modules))
    assert sites == ALLOWED

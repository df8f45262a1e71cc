"""One seed policy: only ``cli_harness._stream`` turns a run's ``--seed`` into
random numbers. Every other sampler takes the Generator its caller passes, so
the package builds one only there. The guard records every ``numpy.random``
attribute, every import from ``numpy.random`` and every use of the standard
``random`` module; ``Generator`` (the annotation) is allowed anywhere."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "continual_replay"
ALLOWED = {("cli_harness", "_stream")}


def _is_numpy_random(node: ast.AST, numpy_names: set[str]) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "random"
        and isinstance(node.value, ast.Name)
        and node.value.id in numpy_names
    )


def _random_names(top: ast.AST, numpy_names: set[str]):
    # every numpy.random or random-module name used inside one top-level node
    attribute_bases = set()
    for node in ast.walk(top):
        if isinstance(node, ast.Attribute) and _is_numpy_random(node.value, numpy_names):
            attribute_bases.add(id(node.value))
            yield node.attr
    for node in ast.walk(top):
        if _is_numpy_random(node, numpy_names) and id(node) not in attribute_bases:
            yield "random"  # numpy.random itself, e.g. bound to another name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("numpy.random"):
                    yield "random"
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "numpy.random":
                yield from (alias.name for alias in node.names)
            elif node.module == "random" or (
                node.module == "numpy" and any(a.name == "random" for a in node.names)
            ):
                yield "random"


def _random_uses(path: Path) -> set[tuple[str, str, str]]:
    # (module, enclosing top-level definition, name) of every random-number name
    tree = ast.parse(path.read_text(), str(path))
    numpy_names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "numpy"
    }
    return {
        (path.stem, getattr(top, "name", "<module>"), name)
        for top in tree.body
        for name in _random_names(top, numpy_names)
    }


def test_only_the_stream_helper_builds_generators():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    uses = {
        use for path in modules for use in _random_uses(path) if use[2] != "Generator"
    }
    assert {(module, top) for module, top, _ in uses} == ALLOWED
    assert {name for *_, name in uses} == {"default_rng"}

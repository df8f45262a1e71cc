"""The package depends on numpy alone: every module imports only the standard
library, numpy and the package itself (the tests may use scipy, src may not)."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "continual_replay"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "continual_replay"}


def _imported_roots(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_package_imports_numpy_and_no_scipy():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        roots = _imported_roots(path)
        assert "scipy" not in roots, path.name
        assert roots <= ALLOWED, (path.name, roots - ALLOWED)

"""Every public name of the package has a caller outside the tests.

An AST scan lists each public module-level function and class under
``src/srptrack``, and each public method and property of those classes. A
name counts as called when it appears as a name, an attribute or an import
in package code (the re-exports of an ``__init__.py`` do not count), in
``perfbench/*.py`` (a string such as the tracer's "srpfeat.frame_signal"
counts too), or as the target of a ``pyproject.toml`` entry point. A helper
that only the tests call belongs in the tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "srptrack"

# name: why it stays without a caller
ALLOWED = {
    "load_features": "reads the dump that `srptrack features` writes; its FormatError checks guard that format",
}


def _public_definitions() -> dict[str, str]:
    """{qualified name: file} of the public functions, classes, methods and properties."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        where = str(path.relative_to(PACKAGE))
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            found[node.name] = where
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        found[f"{node.name}.{member.name}"] = where
    return found


def _used_names(tree: ast.AST, strings: bool = False) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return used


def _callers() -> set[str]:
    used = set()
    for path in PACKAGE.rglob("*.py"):
        tree = ast.parse(path.read_text())
        if path.name == "__init__.py":  # a re-export is not a caller
            tree.body = [n for n in tree.body if not isinstance(n, (ast.Import, ast.ImportFrom))]
        used |= _used_names(tree)
    for path in (ROOT / "perfbench").glob("*.py"):
        used |= _used_names(ast.parse(path.read_text()), strings=True)
    # entry points such as srptrack = "srptrack.cli:run"
    used.update(re.findall(r'"[\w.]+:(\w+)"', (ROOT / "pyproject.toml").read_text()))
    return used


def test_every_public_name_has_a_caller():
    used = _callers()
    orphans = sorted(f"{where}: {name}" for name, where in _public_definitions().items()
                     if name.rpartition(".")[2] not in used and name not in ALLOWED)
    assert not orphans, f"public names that no package code, perfbench file or entry point uses: {orphans}"


def test_allowed_names_are_still_defined():
    assert set(ALLOWED) <= set(_public_definitions())


def test_the_scan_sees_the_package():
    names = _public_definitions()
    assert {"run", "Cross3D", "Cross3D.forward", "SphericalGrid.shape", "load_features"} <= set(names)
    used = _callers()
    assert {"run", "frame_signal", "layers"} <= used  # entry point, tracer string, tracer attribute

"""The package holds only code that the simulator runs: every public
module-level function and class is used by some module of the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tdsofdm"


def _referenced_names(node):
    """The names a syntax tree reads, as a bare name, an attribute or an
    imported name."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def unreferenced_public_definitions(src=SRC):
    """module.name of each public module-level def or class that no module
    but the package's __init__ refers to outside the definition itself."""
    defs = []
    used = set()
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                defs.append((path.stem, stmt.name))
                # a recursive call is no use from outside
                used.update(_referenced_names(stmt) - {stmt.name})
            else:
                used.update(_referenced_names(stmt))
    return defs, [f"{mod}.{name}" for mod, name in defs if name not in used]


def test_every_public_definition_is_used_by_the_package():
    defs, dead = unreferenced_public_definitions()
    assert len(defs) > 20
    assert dead == []


def test_the_check_sees_a_definition_that_nothing_uses(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used(n):\n    return used(n - 1) if n else spare\n\n"
        "def spare():\n    return 0\n\n"
        "def orphan(n):\n    return orphan(n - 1)\n\n"
        "class Shape:\n    pass\n"
    )
    (tmp_path / "b.py").write_text("from .a import used\nimport a\nx = a.Shape\n")
    (tmp_path / "__init__.py").write_text("from .a import orphan\n")
    _, dead = unreferenced_public_definitions(tmp_path)
    assert dead == ["a.orphan"]

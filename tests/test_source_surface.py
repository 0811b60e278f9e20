"""The package holds only code that the simulator runs: every module-level
function, class and constant, public or private, is read by some module of
the package."""

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


def _defined_names(stmt):
    """The module-level names a statement defines: a def or class, or the
    names an assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def unreferenced_definitions(src=SRC):
    """module.name of each module-level def, class or constant that no
    module but the package's __init__ reads outside the definition itself."""
    defs = []
    used = set()
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            names = _defined_names(stmt)
            defs.extend((path.stem, name) for name in names)
            # a recursive call or an assignment's own target is no use
            # from outside
            used.update(_referenced_names(stmt) - set(names))
    return defs, [f"{mod}.{name}" for mod, name in defs if name not in used]


def test_every_module_level_definition_is_used_by_the_package():
    defs, dead = unreferenced_definitions()
    assert len(defs) > 20
    assert dead == []


def test_the_check_sees_a_definition_that_nothing_uses(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used(n):\n    return used(n - 1) if n else spare\n\n"
        "def spare():\n    return 0\n\n"
        "def orphan(n):\n    return orphan(n - 1)\n\n"
        "class Shape:\n    pass\n"
    )
    (tmp_path / "b.py").write_text("from .a import used\nimport a\nprint(a.Shape)\n")
    (tmp_path / "__init__.py").write_text("from .a import orphan\n")
    _, dead = unreferenced_definitions(tmp_path)
    assert dead == ["a.orphan"]


def test_the_check_sees_a_constant_and_a_private_function_that_nothing_reads(tmp_path):
    # a leftover clamp bound, and a helper that only calls itself
    (tmp_path / "a.py").write_text(
        "LLR_MAX = 30.0\n_TINY_VAR = 1e-30\n_FAR = 1e13\n\n"
        "def _floor(x):\n    return max(x, _TINY_VAR)\n\n"
        "def _spare(n):\n    return _spare(n - 1)\n\n"
        "def demap(x):\n    return min(_floor(x), LLR_MAX)\n"
    )
    (tmp_path / "b.py").write_text("from .a import demap\n\nHALF, STEP = demap(1.0), 2\nprint(HALF * STEP)\n")
    (tmp_path / "__init__.py").write_text("from .a import _FAR\n")
    _, dead = unreferenced_definitions(tmp_path)
    assert dead == ["a._FAR", "a._spare"]

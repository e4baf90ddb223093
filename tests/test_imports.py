"""No module imports a name it never uses.

No linter is configured for this project, so this scan stands in for one:
every name an `import` binds must appear as an `ast.Name` somewhere in the
same module. `planwright/__init__.py` is skipped because its imports are
re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _modules() -> list[Path]:
    src = sorted((ROOT / "src" / "planwright").glob("*.py"))
    tests = sorted((ROOT / "tests").glob("*.py"))
    return [p for p in src if p.name != "__init__.py"] + tests


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def test_unused_imports_detected():
    source = ("from __future__ import annotations\n"
              "import os, json as j\nfrom x import a, b as c\n"
              "import p.q\nprint(j, c.d, p)\n")
    assert unused_imports(source) == ["line 2: os", "line 3: a"]


def test_no_unused_imports():
    found = {str(p.relative_to(ROOT)): unused_imports(p.read_text())
             for p in _modules()}
    assert {k: v for k, v in found.items() if v} == {}

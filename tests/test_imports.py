"""Every name a module in src/ or tests/ imports must be used in that module.

The check reads source with the standard library's `ast` only: an imported
name counts as used when it appears as a name anywhere in the module (an
attribute chain counts through its first name) or is listed in `__all__`.
`from __future__` imports are exempt.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_finds_an_unused_import():
    source = "import os\nimport sys as system\nfrom a.b import c, d\nprint(d, system.argv)\n"
    assert unused_imports(source) == [(1, "os"), (3, "c")]
    assert unused_imports('from x import y\n__all__ = ["y"]\n') == []
    assert unused_imports("from __future__ import annotations\nimport os.path\nos.sep\n") == []


def test_no_unused_imports():
    assert len(SOURCES) > 10
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in SOURCES
        for line, name in unused_imports(path.read_text())
    ]
    assert not found, "unused imports:\n" + "\n".join(found)

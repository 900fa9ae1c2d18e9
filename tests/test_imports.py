"""Every name a module in src/ or tests/ imports must be used in that module,
every private module-level name in src/rpca must be read somewhere in src/, and
every top-level function in tests/helpers.py must be read by a test module, by
perfbench/ or by another helper, and the messages of a count check ("must be an
integer", "must be >=") must appear in src/rpca only inside `ca.as_count`.

The checks read source with the standard library's `ast` only: an imported
name counts as used when it appears as a name anywhere in the module (an
attribute chain counts through its first name) or is listed in `__all__`.
`from __future__` imports are exempt. A private name (`_x`, not a dunder)
counts as read when it is loaded as a name or as an attribute.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src").rglob("*.py"))
SOURCES = sorted([*PACKAGE, *(ROOT / "tests").rglob("*.py")])
HELPERS = ROOT / "tests" / "helpers.py"


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


def private_definitions(source: str) -> list[tuple[int, str]]:
    """Module-level private functions, classes and assigned names, with their lines."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return [(line, name) for line, name in found
            if name.startswith("_") and not name.startswith("__")]


def names_read(source: str) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


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


def test_finds_a_dead_private_helper():
    source = "_A = 1\n_B: int = 2\n__all__ = []\ndef _f(): return _A\nclass _C: pass\nx = m._C\n"
    defined = private_definitions(source)
    assert defined == [(1, "_A"), (2, "_B"), (4, "_f"), (5, "_C")]
    read = names_read(source)
    assert [name for _, name in defined if name not in read] == ["_B", "_f"]


def test_no_dead_private_helpers():
    assert len(PACKAGE) > 5
    read = set().union(*(names_read(path.read_text()) for path in PACKAGE))
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in PACKAGE
        for line, name in private_definitions(path.read_text())
        if name not in read
    ]
    assert not found, "private names nothing in src/ reads:\n" + "\n".join(found)


COUNT_PHRASES = ("must be an integer", "must be >=")


def phrase_sites(source: str, phrases: tuple[str, ...]) -> list[tuple[int, str]]:
    """Line and innermost enclosing function ("" at module level) of each string
    constant, f-string parts included, that holds one of `phrases`."""
    tree = ast.parse(source)
    owner = {}
    for fn in ast.walk(tree):  # breadth first, so a nested function overwrites its parent
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update(dict.fromkeys(ast.walk(fn), fn.name))
    return sorted(
        (node.lineno, owner.get(node, ""))
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and any(phrase in node.value for phrase in phrases)
    )


def test_finds_a_hand_written_count_check():
    source = (
        'def as_count(v):\n    raise ValueError(f"{v} must be an integer")\n'
        "class P:\n    def check(self, n):\n        if n < 0:\n"
        '            raise ValueError(f"n must be >= 0, got {n}")\n'
        'LIMIT = "steps must be >= 1"\n'
        'def f():\n    def g():\n        return "x must be an integer"\n    return "ok"\n'
    )
    assert phrase_sites(source, COUNT_PHRASES) == [(2, "as_count"), (6, "check"), (7, ""),
                                                   (10, "g")]


def test_count_checks_live_only_in_as_count():
    # every count argument goes through ca.as_count; a second check would grow its own message
    sites = [(path, line, fn) for path in PACKAGE
             for line, fn in phrase_sites(path.read_text(), COUNT_PHRASES)]
    home = ROOT / "src" / "rpca" / "ca.py", "as_count"
    assert len([site for site in sites if site[::2] == home]) == len(COUNT_PHRASES)
    found = [f"{path.relative_to(ROOT)}:{line}: in {fn or 'module'}"
             for path, line, fn in sites if (path, fn) != home]
    assert not found, "count checks outside ca.as_count:\n" + "\n".join(found)


def unread_functions(source: str, read_elsewhere: set[str]) -> list[tuple[int, str]]:
    """Top-level functions that neither `read_elsewhere` nor another top-level function reads."""
    functions = [node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)]
    return [
        (f.lineno, f.name)
        for f in functions
        if f.name not in read_elsewhere.union(
            *(names_read(ast.unparse(g)) for g in functions if g is not f)
        )
    ]


def test_finds_an_unread_oracle():
    source = "def a(): return b()\ndef b(): return 1\ndef c(): return c()\ndef d(): pass\n"
    assert unread_functions(source, {"d"}) == [(1, "a"), (3, "c")]


def test_every_oracle_is_read():
    readers = [*(ROOT / "tests").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    read = set().union(*(names_read(path.read_text()) for path in readers if path != HELPERS))
    found = [f"tests/helpers.py:{line}: {name}"
             for line, name in unread_functions(HELPERS.read_text(), read)]
    assert not found, "oracles nothing compares against:\n" + "\n".join(found)

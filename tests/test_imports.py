"""Every name a module in src/ or tests/ imports must be used in that module,
every private module-level name in src/rpca must be read somewhere in src/, and
every top-level function in tests/helpers.py must be read by a test module, by
perfbench/ or by another helper, the messages of a count check ("must be an
integer", "must be >=") must appear in src/rpca only inside `ca.as_count`, and no
loop in src/rpca may call a one-shot step API, and importing rpca.cli must not load
the process pool that only `avalanche` and `bench` use.

The source checks read source with the standard library's `ast` only: an imported
name counts as used when it appears as a name anywhere in the module (an
attribute chain counts through its first name) or is listed in `__all__`.
`from __future__` imports are exempt. A private name (`_x`, not a dunder)
counts as read when it is loaded as a name or as an attribute.
"""
import ast
import os
import subprocess
import sys
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


ONE_SHOT_STEPS = {"ca.step", "ca.step_many", "pca.pca_step", "second_order.so_step"}


def repeated_parts(loop: ast.AST) -> list[ast.AST]:
    """What a loop evaluates on every pass: a `for` or `while` body, a `while` test,
    a comprehension's element and conditions; [] for any other node."""
    if isinstance(loop, (ast.For, ast.AsyncFor)):
        return loop.body
    if isinstance(loop, ast.While):
        return [loop.test, *loop.body]
    if isinstance(loop, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
        parts = [loop.key, loop.value] if isinstance(loop, ast.DictComp) else [loop.elt]
        return parts + [cond for gen in loop.generators for cond in gen.ifs]
    return []


def one_shot_steps_in_loops(source: str, module: str) -> list[tuple[int, str]]:
    """Line and qualified name of each call to one of ONE_SHOT_STEPS that a loop repeats.

    A called name resolves through the module's `from` imports (`from . import ca`,
    `from .ca import step`) and its own top-level functions, so a walk names the
    step it built after none of them (`step_once`, `step_block`).
    """
    tree = ast.parse(source)
    names = {node.name: f"{module}.{node.name}" for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names[alias.asname or alias.name] = ".".join(filter(None, [node.module,
                                                                           alias.name]))
    found = set()
    for loop in ast.walk(tree):
        for call in (node for part in repeated_parts(loop) for node in ast.walk(part)):
            if not isinstance(call, ast.Call):
                continue
            func, attr = call.func, None
            if isinstance(func, ast.Attribute):
                func, attr = func.value, func.attr
            if isinstance(func, ast.Name) and func.id in names:
                name = ".".join(filter(None, [names[func.id], attr]))
                if name in ONE_SHOT_STEPS:
                    found.add((call.lineno, name))
    return sorted(found)


def test_finds_a_one_shot_step_in_a_loop():
    source = (
        "from . import ca\nfrom .second_order import so_step as so\n"
        "def pca_step(c): return ca.step(c)\n"
        "def run(c, n):\n"
        "    for _ in range(ca.step(c)):\n"
        "        c = pca_step(c)\n"
        "    while so(c):\n"
        "        step = ca._stepper(c)\n"
        "        c = [step(x) for x in c if ca.step_many(x)]\n"
        "    return {x: ca.step(x) for x in c}\n"
    )
    assert one_shot_steps_in_loops(source, "pca") == [
        (6, "pca.pca_step"), (7, "second_order.so_step"), (9, "ca.step_many"), (10, "ca.step")]


def test_no_one_shot_step_in_a_loop():
    # a walk builds its step once (ca._stepper) and applies it; a one-shot step
    # called in a loop redoes the checks and the set-up on every pass
    found = [f"{path.relative_to(ROOT)}:{line}: {name}" for path in PACKAGE
             for line, name in one_shot_steps_in_loops(path.read_text(), path.stem)]
    assert not found, "one-shot steps called in a loop:\n" + "\n".join(found)


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


def test_cli_import_leaves_out_the_process_pool():
    # every command imports rpca.cli; only avalanche and bench need analysis and its pool
    pool = ["concurrent.futures.process", "multiprocessing", "rpca.analysis"]
    script = f"import sys, rpca.cli\nprint(sorted(set({pool!r}) & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.strip() == "[]"

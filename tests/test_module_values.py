"""Every public module-level value in src/rpca is immutable, so no caller can
change it under the others (a value is public when its name has no leading
underscore, and module-level when the module assigns it at the top level)."""
import ast
import dataclasses
import importlib
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rpca"


def public_values():
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module("rpca" if path.stem == "__init__" else f"rpca.{path.stem}")
        for node in ast.parse(path.read_text()).body:
            # a top-level Assign or AnnAssign; other statements have no target
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    yield f"{module.__name__}.{target.id}", getattr(module, target.id)


def immutable(value) -> bool:
    if isinstance(value, (bool, int, float, str, bytes, type(None))):
        return True
    if isinstance(value, (tuple, frozenset)):
        return all(map(immutable, value))
    if isinstance(value, MappingProxyType):
        return all(immutable(k) and immutable(v) for k, v in value.items())
    if isinstance(value, np.ndarray):
        return not value.flags.writeable
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return value.__dataclass_params__.frozen and all(
            immutable(getattr(value, f.name)) for f in dataclasses.fields(value)
        )
    return False


def test_finds_a_mutable_value():
    @dataclasses.dataclass(frozen=True)
    class Table:
        rules: dict

    assert not immutable(Table({(0, 0): 51}))
    assert not immutable((1, [2]))
    assert not immutable(np.zeros(2))
    assert immutable((1, "a", MappingProxyType({(0, 1): 2})))


VALUES = list(public_values())


def test_the_selection_tables_are_checked():
    assert {"rpca.pca.TABLE_51_195_153", "rpca.pca.TABLE_204_240_170"} <= dict(VALUES).keys()


@pytest.mark.parametrize("name,value", VALUES, ids=[name for name, _ in VALUES])
def test_public_module_value_is_immutable(name, value):
    assert immutable(value), f"{name} = {value!r} can be changed by any caller"

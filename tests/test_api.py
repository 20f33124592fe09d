import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import angiosim

MODULES = ["angiosim"] + [
    f"angiosim.{info.name}" for info in pkgutil.iter_modules(angiosim.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_public_names_resolve(module):
    # A stale __all__ entry would silently drop a layer from tools that
    # wrap the public names, so every entry must exist.
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_every_error_class_is_raised_or_subclassed():
    # an error class that nothing builds or derives from is dead API
    package = Path(angiosim.__file__).parent
    tree = ast.parse((package / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    used = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                used.update(base.id for base in node.bases if isinstance(base, ast.Name))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                used.add(node.func.id)
    assert sorted(classes - used) == []

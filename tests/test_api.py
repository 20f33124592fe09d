import importlib
import pkgutil

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

"""Package surface: every module's `__all__` names what the module defines."""
import importlib
import pkgutil

import pytest

import stoldroyd

MODULES = [importlib.import_module(f"stoldroyd.{info.name}")
           for info in pkgutil.iter_modules(stoldroyd.__path__)]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_all_names_are_defined_in_their_module(module):
    for name in module.__all__:
        assert name in vars(module), f"{module.__name__}.__all__ lists missing {name!r}"
        owner = getattr(vars(module)[name], "__module__", module.__name__)
        assert owner == module.__name__, f"{module.__name__}.{name} is imported from {owner}"

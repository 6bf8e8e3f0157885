"""Package surface: every module's `__all__` names what the module defines,
and the package's structure rules."""
import ast
import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import stoldroyd
from stoldroyd import spectral

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


def _sites(match):
    """(module, innermost enclosing function) of every AST node in the package
    that `match` accepts."""
    sites = []
    for module in MODULES:
        tree = ast.parse(inspect.getsource(module))
        functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        for node in ast.walk(tree):
            if match(node):
                enclosing = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                owner = min(enclosing, key=lambda f: f.end_lineno - f.lineno, default=None)
                sites.append((module.__name__, owner and owner.name))
    return sites


def test_one_step_call_site_inside_trajectory():
    """Every path is stepped by `stepping.trajectory`: it holds the only call
    of `step(` in the package."""
    def is_step_call(node):
        callee = getattr(node, "func", None)
        return isinstance(node, ast.Call) and "step" in (getattr(callee, "id", None),
                                                         getattr(callee, "attr", None))

    assert _sites(is_step_call) == [("stoldroyd.stepping", "trajectory")]


def test_fft_calls_only_inside_the_grid_transform_pair():
    """Every `np.fft` use in the package sits in `SpectralGrid.inverse` or
    `SpectralGrid.forward`."""
    def imports_fft(node):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            return False
        names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
        return any("fft" in n for n in names)

    assert _sites(imports_fft) == []
    sites = _sites(lambda node: isinstance(node, ast.Attribute) and node.attr == "fft"
                   and getattr(node.value, "id", None) in ("np", "numpy"))
    assert sorted(set(sites)) == [("stoldroyd.spectral", "forward"), ("stoldroyd.spectral", "inverse")]
    assert len(sites) == 4


def test_every_grid_stores_the_dealias_box_with_no_layout_switch():
    """One coefficient layout: `make_grid` takes no layout parameter,
    `SpectralGrid` has no `box` or `dealias_mask` field, and no package
    module reads an attribute by either name."""
    assert list(inspect.signature(spectral.make_grid).parameters) == [
        "dim", "modes_per_axis", "box_length", "truncation_radius"]
    fields = {f.name for f in dataclasses.fields(spectral.SpectralGrid)}
    assert not fields & {"box", "dealias_mask"}
    assert _sites(lambda node: isinstance(node, ast.Attribute)
                  and node.attr in ("box", "dealias_mask")) == []

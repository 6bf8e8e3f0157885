"""Package surface: every module's `__all__` names what the module defines,
and the package's structure rules."""
import ast
import importlib
import inspect
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
    `SpectralGrid.forward`, where the layout picks the transform."""
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


def test_dealias_mask_read_only_by_the_grid_and_the_layout_rule():
    """`SpectralGrid.forward` keeps the dealias box, so no product re-masks
    its output: outside `spectral`, only `on_alias_free_grid`'s choice of
    layout reads the mask."""
    sites = _sites(lambda node: isinstance(node, ast.Attribute) and node.attr == "dealias_mask")
    assert sorted({site for site in sites if site[0] != "stoldroyd.spectral"}) == [
        ("stoldroyd.stepping", "on_alias_free_grid")]

"""Package surface: every module's `__all__` names what the module defines,
and the package's structure rules."""
import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import stoldroyd
from stoldroyd import config, spectral, stepping

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


def test_no_fft_in_the_package_and_dft_factors_only_in_the_grid():
    """No module imports or calls `np.fft`: the one transform pair,
    `SpectralGrid.inverse`/`forward`, runs dense DFT factors, which only the
    spectral module's cached `_dft` builds and only the pair calls; every
    `np.matmul` sits in the pair and its leading-axis helper."""
    def imports_fft(node):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            return False
        names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
        return any("fft" in n for n in names)

    assert _sites(imports_fft) == []
    assert _sites(lambda node: isinstance(node, ast.Attribute) and node.attr == "fft") == []
    assert callable(spectral._dft.cache_info)  # built once per grid size
    calls = _sites(lambda node: isinstance(node, ast.Name) and node.id == "_dft")
    assert sorted(calls) == [("stoldroyd.spectral", "forward"), ("stoldroyd.spectral", "inverse")]
    products = _sites(lambda node: isinstance(node, ast.Attribute) and node.attr == "matmul")
    pair = ("inverse", "forward", "_lead_axis")
    assert set(products) == {("stoldroyd.spectral", name) for name in pair}


def test_only_spectral_squares_a_coefficient_array():
    """One squared mode sum: every energy and norm reads `spectral.sq_mode_sum`, so
    no other package module squares a coefficient array (`.real` or `.imag` raised
    to a power, `np.square`, `abs(...)` raised to a power)."""
    def squares(node):
        if isinstance(node, ast.Attribute) and node.attr == "square":
            return True
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)):
            return False
        base = node.left
        if isinstance(base, ast.Call):
            return "abs" in (getattr(base.func, "id", None), getattr(base.func, "attr", None))
        return isinstance(base, ast.Attribute) and base.attr in ("real", "imag")

    assert [site for site in _sites(squares) if site[0] != "stoldroyd.spectral"] == []


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


def test_a_field_is_its_grid_and_coefficients():
    """Fields carry no property flags: divergence-free velocity and symmetric
    stress are kept by the scheme, not claimed by a field.  The stress noise
    is its number c_h, and no package module reads an attribute, or passes a
    keyword, named `symmetric` or `div_free`."""
    for cls in (spectral.ScalarField, spectral.VectorField, spectral.TensorField):
        assert [f.name for f in dataclasses.fields(cls)] == ["grid", "coeffs"]
    assert [f.name for f in dataclasses.fields(stepping.NoiseModel)] == [
        "wiener", "c0", "c1", "c_h", "jump"]
    flags = ("symmetric", "div_free")
    assert _sites(lambda node: isinstance(node, ast.Attribute) and node.attr in flags) == []
    assert _sites(lambda node: isinstance(node, ast.keyword) and node.arg in flags) == []


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_imported_name_is_read(module):
    """No stale imports: every name a package module imports (other than
    `__future__` features) is read by some `ast.Name` in that module.
    `MODULES` holds the submodules only, not `__init__`, whose imports are
    the package's re-exports."""
    tree = ast.parse(inspect.getsource(module))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(imported - read) == [], f"{module.__name__} imports names it never reads"


# config.py's generic code, which reads every field by name (`getattr`), not as a knob
CONFIG_GENERIC = {"_field_of", "_coerce", "parse_config", "load_config", "_format",
                  "serialize_config", "config_hash"}
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_every_config_key_is_read():
    """No dead knobs: every `RunConfig` field is read as `cfg.<field>` (the
    program's one name for a run's config) in the package, outside config.py's
    generic parse/serialize code, or in scripts/."""
    sources = [(inspect.getsource(m), CONFIG_GENERIC if m is config else set()) for m in MODULES]
    sources += [(path.read_text(encoding="utf-8"), set()) for path in sorted(SCRIPTS.glob("*.py"))]
    read = set()
    for source, skip in sources:
        tree = ast.parse(source)
        skipped = {id(node) for f in ast.walk(tree)
                   if isinstance(f, ast.FunctionDef) and f.name in skip for node in ast.walk(f)}
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                 and isinstance(node.value, ast.Name) and node.value.id == "cfg"
                 and id(node) not in skipped}
    fields = [f.name for f in dataclasses.fields(config.RunConfig)]
    assert [name for name in fields if name not in read] == []


# public names with no reader in src/ or scripts/, each with the reader it has
OUTSIDE_READERS = {
    "advect_vector": "tests/test_acceptance.py, criterion 1's off-diagonal skew-symmetry",
    "hermitian_defect": "bench/workloads.py, the reference check",
    "load_noise_path": "tests, which reload a recorded noise path",
}


def _public_definitions(tree):
    """(name, node) of every public top-level function and class, and of every
    public method of a top-level class; dunder methods are not public."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((m.name, m) for m in node.body
                        if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))


def test_every_public_definition_has_a_reader():
    """No API that only tests call: every public function, class and method in
    src/ is read, as a name or an attribute, in src/ or scripts/ outside its own
    definition, or is listed in `OUTSIDE_READERS` with the reader it has.  A
    listed name that gains a reader in src/ or scripts/ leaves the list."""
    trees = {m.__name__: ast.parse(inspect.getsource(m)) for m in MODULES}
    scripts = {path.name: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(SCRIPTS.glob("*.py"))}
    reads = {}
    for source, tree in {**trees, **scripts}.items():
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(getattr(node, "ctx", None), ast.Load) and name:
                reads.setdefault(name, []).append((source, node.lineno))
    unread = set()
    for module, tree in trees.items():
        for name, node in _public_definitions(tree):
            if not any(source != module or not node.lineno <= line <= node.end_lineno
                       for source, line in reads.get(name, [])):
                unread.add(name)
    assert sorted(unread - set(OUTSIDE_READERS)) == []
    assert sorted(set(OUTSIDE_READERS) - unread) == []

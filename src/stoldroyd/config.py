"""INI run configuration: parsing, validation, canonical serialization, hashing.

The format is flat ``key = value`` sections, chosen to stay hand-editable and
diff-friendly across experiment sweeps.  ``_SCHEMA`` declares each key once
(type tag, default) and ``RunConfig`` is built from it.  Parsing is
schema-driven: unknown sections or keys are rejected by name, every value is
coerced to its declared type with an error naming the offending field, and
defaults are materialized so that parse -> serialize -> parse is the identity.

Every float must be finite; other numeric bounds are NOT checked here: they
live with the objects that own them (grid, parameters, noise, stepper,
monitor), and ``materialize`` builds all of those up front so a bad value
fails before any run starts, with the owning module's message (which names
the field and its bound).  The noise model holds configs only, on no grid.
``draw_initial`` is the one rule for random initial data: the config's
(``build_initial``) and each randomized ensemble member's.
"""
from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, make_dataclass, replace

import numpy as np

from .dynamics import FlowState, PhysicalParams
from .monitor import MonitorConfig
from .noise import JumpConfig, WienerQConfig, noise_catalogue, rng_for_run
from .spectral import SpectralGrid, hs_norm, make_grid, random_field, truncate
from .stepping import NoiseModel, StepperConfig

# Stream index reserved for drawing initial data, disjoint from ensemble run
# indices (which are small nonnegative integers).
INITIAL_DATA_STREAM = 2**62

_REQUIRED = object()

# section -> key -> (type tag, default).  Type tags: int, float, bool, str,
# floats (comma-separated list).  _REQUIRED marks keys without defaults.
_SCHEMA = {
    "grid": {
        "dim": ("int", _REQUIRED),
        "modes_per_axis": ("int", _REQUIRED),
        "box_length": ("float", 2.0 * math.pi),
        "truncation_radius": ("float", 0.0),  # 0 means "use the dealias limit"
    },
    "params": {
        "nu": ("float", _REQUIRED),
        "a": ("float", _REQUIRED),
        "b": ("float", _REQUIRED),
        "mu1": ("float", _REQUIRED),
        "mu2": ("float", _REQUIRED),
        "s": ("float", 2.0),  # H^s index of the initial-data scaling; the monitor's is s_monitor
        "nonlinear": ("bool", True),
    },
    "noise": {
        "lambda0": ("float", 0.0),
        "j_modes": ("int", 0),
        "decay": ("float", 2.0),
        "c0": ("float", 0.0),
        "c1": ("float", 0.0),
        "c_h": ("float", 0.0),
        "jump_rate": ("float", 0.0),
        "gamma_kind": ("str", "constant"),
        "gamma0": ("float", 0.0),
        "z_min": ("float", 0.0),
        "z_max": ("float", 1.0),
    },
    "initial": {
        "alpha": ("float", 5.0),
        "v_scale": ("float", 1.0),
        "tau_scale": ("float", 1.0),
    },
    "stepper": {
        "dt": ("float", _REQUIRED),
        "horizon": ("float", _REQUIRED),
        "record_noise": ("bool", False),
    },
    "monitor": {
        "threshold": ("float", _REQUIRED),
        "s_monitor": ("float", 2.0),
    },
    "seeds": {
        "master_seed": ("int", _REQUIRED),
    },
    "ensemble": {
        "n_runs": ("int", 100),
        "deltas": ("floats", (0.01,)),
        "randomize_initial": ("bool", False),
    },
    "refine": {
        "cutoffs": ("floats", (8.0, 16.0)),
        "n_paths": ("int", 20),
    },
}

_BOOL_WORDS = {"true": True, "yes": True, "on": True, "1": True,
               "false": False, "no": False, "off": False, "0": False}


# Each key's RunConfig field is the key, prefixed in these sections.
_FIELD_PREFIX = {"grid": "grid_", "initial": "init_", "ensemble": "ensemble_", "refine": "refine_"}

_TYPES = {"int": int, "float": float, "bool": bool, "str": str, "floats": tuple[float, ...]}


def _field_of(section: str, key: str) -> str:
    return _FIELD_PREFIX.get(section, "") + key


# One frozen field per schema key, in schema order, typed by its tag; the module
# is named so that instances pickle.
RunConfig = make_dataclass(
    "RunConfig",
    [(_field_of(section, key), _TYPES[tag]) for section, keys in _SCHEMA.items()
     for key, (tag, _) in keys.items()],
    namespace={"__module__": __name__,
               "__doc__": "Fully typed, fully defaulted contents of one configuration file."},
    frozen=True,
)


def _coerce(section: str, key: str, tag: str, raw: str):
    where = f"[{section}] {key}"
    text = raw.strip()
    try:
        if tag == "int":
            return int(text)
        if tag == "bool":
            word = text.lower()
            if word not in _BOOL_WORDS:
                raise ValueError
            return _BOOL_WORDS[word]
        if tag == "str":
            return text
        parts = [p.strip() for p in text.split(",") if p.strip()] if tag == "floats" else [text]
        if not parts:
            raise ValueError
        values = tuple(float(p) for p in parts)
    except ValueError:
        raise ValueError(f"{where}: expected {tag}, got {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{key} must be finite, got {text!r} in [{section}]")
    return values if tag == "floats" else values[0]


def parse_config(text: str) -> RunConfig:
    """Parse INI text into a RunConfig, rejecting anything off-schema."""
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"malformed config: {exc}") from None

    values = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ValueError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ValueError(f"unknown key {key!r} in section [{section}]")
            tag, _ = _SCHEMA[section][key]
            values[_field_of(section, key)] = _coerce(section, key, tag, raw)

    missing = []
    for section, keys in _SCHEMA.items():
        for key, (tag, default) in keys.items():
            field = _field_of(section, key)
            if field in values:
                continue
            if default is _REQUIRED:
                missing.append(f"[{section}] {key}")
            else:
                values[field] = default
    if missing:
        raise ValueError("missing required config keys: " + ", ".join(missing))
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())


def _format(tag: str, value) -> str:
    if tag == "bool":
        return "true" if value else "false"
    if tag == "float":
        return repr(float(value))
    if tag == "floats":
        return ", ".join(repr(float(v)) for v in value)
    return str(value)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical INI text with every key explicit; stable across round trips."""
    out = io.StringIO()
    for section, keys in _SCHEMA.items():
        out.write(f"[{section}]\n")
        for key, (tag, _) in keys.items():
            value = getattr(cfg, _field_of(section, key))
            out.write(f"{key} = {_format(tag, value)}\n")
        out.write("\n")
    return out.getvalue()


def config_hash(cfg: RunConfig) -> str:
    """Short content hash of the canonical serialization, for provenance."""
    digest = hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()
    return digest[:16]


# ---------------------------------------------------------------------------
# Builders: RunConfig -> live objects
# ---------------------------------------------------------------------------

def build_grid(cfg: RunConfig) -> SpectralGrid:
    radius = None if cfg.grid_truncation_radius == 0.0 else cfg.grid_truncation_radius
    return make_grid(cfg.grid_dim, cfg.grid_modes_per_axis, cfg.grid_box_length, radius)


def build_noise(cfg: RunConfig, grid: SpectralGrid) -> NoiseModel:
    """Channels switch off at zero, and only there: j_modes for the velocity noise, c_h for
    the stress noise, jump_rate for the jumps; other values meet the channel's checks, and
    the noise basis must fit `grid`'s dealias box."""
    wiener = jump = None
    try:
        if cfg.j_modes != 0:
            wiener = WienerQConfig(lambda0=cfg.lambda0, J=cfg.j_modes, decay=cfg.decay)
            noise_catalogue(grid.dim, wiener.J).check_grid(grid)
    except ValueError as exc:
        raise ValueError(f"j_modes = {cfg.j_modes}: {exc}") from None
    try:
        if cfg.jump_rate != 0.0:
            jump = JumpConfig(rate=cfg.jump_rate, z_min=cfg.z_min, z_max=cfg.z_max,
                              gamma_kind=cfg.gamma_kind, gamma0=cfg.gamma0)
    except ValueError as exc:
        raise ValueError(f"jump_rate = {cfg.jump_rate!r}: {exc}") from None
    return NoiseModel(wiener=wiener, c0=cfg.c0, c1=cfg.c1, c_h=cfg.c_h, jump=jump)


def draw_initial(grid: SpectralGrid, alpha: float, rng: np.random.Generator, v_norm: float,
                 tau_norm: float, s: float, t: float = 0.0) -> FlowState:
    """Initial data at time ``t`` drawn from ``rng``, v first, then tau.

    Fields are drawn with spectral decay ``alpha``, ball-truncated, and
    scaled so their H^s norms equal ``v_norm`` and ``tau_norm``; a zero
    target, or a drawn field of zero norm, gives the zero field.
    """
    fields = []
    for kind, target in (("vector", v_norm), ("tensor", tau_norm)):
        field = truncate(random_field(grid, alpha, kind, rng=rng), grid.truncation_radius)
        norm = hs_norm(field, s)
        scale = target / norm if target != 0.0 and norm > 0.0 else 0.0
        fields.append(replace(field, coeffs=scale * field.coeffs))
    return FlowState(t, *fields)


def build_initial(cfg: RunConfig, grid: SpectralGrid, master_seed: int) -> FlowState:
    """Deterministic initial data from the master seed's reserved stream,
    with decay ``init_alpha`` and H^s norms (s from [params]) v_scale and tau_scale."""
    return draw_initial(grid, cfg.init_alpha, rng_for_run(master_seed, INITIAL_DATA_STREAM),
                        cfg.init_v_scale, cfg.init_tau_scale, cfg.s)


@dataclass(frozen=True)
class MaterializedRun:
    """Everything a command needs, validated before any stepping happens."""

    grid: SpectralGrid
    params: PhysicalParams
    noise: NoiseModel
    stepper: StepperConfig
    monitor: MonitorConfig
    initial: FlowState
    master_seed: int


def materialize(cfg: RunConfig, master_seed: int | None = None) -> MaterializedRun:
    """Build every object a run needs; any invalid field raises here.

    ``master_seed`` overrides the config's seed (the --seed flag).
    """
    seed = cfg.master_seed if master_seed is None else master_seed
    grid = build_grid(cfg)
    return MaterializedRun(
        grid=grid,
        params=PhysicalParams(nu=cfg.nu, a=cfg.a, b=cfg.b, mu1=cfg.mu1, mu2=cfg.mu2,
                              nonlinear=cfg.nonlinear),
        noise=build_noise(cfg, grid),
        stepper=StepperConfig(dt=cfg.dt, horizon=cfg.horizon, record_noise=cfg.record_noise),
        monitor=MonitorConfig(threshold=cfg.threshold, s=cfg.s_monitor),
        initial=build_initial(cfg, grid, seed),
        master_seed=seed,
    )

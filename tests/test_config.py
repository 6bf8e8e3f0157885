"""Configuration parsing, round-trip identity, hashing, and builders."""
import dataclasses
import math
import pickle

import numpy as np
import pytest

from stoldroyd.config import (
    _SCHEMA,
    RunConfig,
    build_grid,
    build_initial,
    build_noise,
    config_hash,
    draw_initial,
    load_config,
    materialize,
    parse_config,
    serialize_config,
)
from stoldroyd.noise import rng_for_run
from stoldroyd.spectral import _dealias_limit, divergence_defect, hs_norm

MINIMAL = """
[grid]
dim = 2
modes_per_axis = 32

[params]
nu = 0.5
a = 0.2
b = 0.3
mu1 = 1.0
mu2 = 1.0

[stepper]
dt = 0.001
horizon = 0.005

[monitor]
threshold = 1000000.0

[seeds]
master_seed = 42
"""

FULL = MINIMAL + """
[noise]
lambda0 = 0.05
j_modes = 4
c0 = 0.2
c1 = 0.1
c_h = 0.15
jump_rate = 1.5
gamma_kind = linear
gamma0 = 0.1

[initial]
alpha = 5.0
v_scale = 0.5
tau_scale = 0.25

[ensemble]
n_runs = 30
deltas = 0.001, 0.002

[refine]
cutoffs = 4, 8
n_paths = 2
"""


class TestParsing:
    def test_minimal_config_gets_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.grid_box_length == 2.0 * math.pi
        assert cfg.s == 2.0
        assert cfg.nonlinear is True
        assert cfg.j_modes == 0
        assert cfg.ensemble_deltas == (0.01,)
        assert cfg.refine_cutoffs == (8.0, 16.0)
        assert cfg.master_seed == 42

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match=r"unknown config section \[turbulence\]"):
            parse_config(MINIMAL + "\n[turbulence]\nstrength = 11\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match=r"unknown key 'span' in section \[grid\]"):
            parse_config(MINIMAL.replace("modes_per_axis = 32",
                                         "modes_per_axis = 32\nspan = 3"))

    def test_missing_required_keys_are_named(self):
        broken = MINIMAL.replace("nu = 0.5\n", "")
        with pytest.raises(ValueError, match=r"missing required config keys.*\[params\] nu"):
            parse_config(broken)

    def test_type_errors_name_the_field(self):
        with pytest.raises(ValueError, match=r"\[stepper\] dt: expected float, got 'fast'"):
            parse_config(MINIMAL.replace("dt = 0.001", "dt = fast"))
        with pytest.raises(ValueError, match=r"\[ensemble\] deltas: expected floats"):
            parse_config(FULL.replace("deltas = 0.001, 0.002", "deltas = soon"))

    def test_bool_words(self):
        cfg = parse_config(MINIMAL.replace(
            "[stepper]\ndt = 0.001", "[stepper]\nrecord_noise = Yes\ndt = 0.001"
        ) + "\n[ensemble]\nrandomize_initial = off\n")
        assert cfg.record_noise is True
        assert cfg.ensemble_randomize_initial is False

    def test_float_list_with_ragged_spacing(self):
        cfg = parse_config(FULL.replace("deltas = 0.001, 0.002",
                                        "deltas = 0.001,0.002 , 0.005"))
        assert cfg.ensemble_deltas == (0.001, 0.002, 0.005)

    @pytest.mark.parametrize("key", ["h_kind = bump", "bump_width = 0.5"])
    def test_deleted_stress_profile_keys_are_unknown(self, key):
        name = key.split()[0]
        with pytest.raises(ValueError, match=rf"unknown key '{name}' in section \[noise\]"):
            parse_config(FULL.replace("c_h = 0.15", f"c_h = 0.15\n{key}"))

    def test_duplicate_key_is_malformed(self):
        with pytest.raises(ValueError, match="malformed config"):
            parse_config(MINIMAL.replace("dt = 0.001", "dt = 0.001\ndt = 0.002"))


# RunConfig's fields as the hand-written class declared them, less the stress
# profile's `h_kind` and `bump_width`: name, type
RUNCONFIG_FIELDS = [
    *(("grid_" + k, int) for k in ("dim", "modes_per_axis")),
    *(("grid_" + k, float) for k in ("box_length", "truncation_radius")),
    *((k, float) for k in ("nu", "a", "b", "mu1", "mu2", "s")), ("nonlinear", bool),
    ("lambda0", float), ("j_modes", int), ("decay", float), ("c0", float), ("c1", float),
    ("c_h", float), ("jump_rate", float),
    ("gamma_kind", str), ("gamma0", float), ("z_min", float), ("z_max", float),
    *(("init_" + k, float) for k in ("alpha", "v_scale", "tau_scale")),
    ("dt", float), ("horizon", float), ("record_noise", bool),
    ("threshold", float), ("s_monitor", float), ("master_seed", int),
    ("ensemble_n_runs", int), ("ensemble_deltas", tuple[float, ...]),
    ("ensemble_randomize_initial", bool),
    ("refine_cutoffs", tuple[float, ...]), ("refine_n_paths", int),
]


class TestRunConfigClass:
    def test_fields_follow_the_schema(self):
        """One field per schema key, in schema order, typed by its tag: the
        names, order and types of the hand-written class, less two keys."""
        fields = dataclasses.fields(RunConfig)
        assert [(f.name, f.type) for f in fields] == RUNCONFIG_FIELDS
        keys = [key for keys in _SCHEMA.values() for key in keys]
        assert len(fields) == len(keys) == 36
        assert all(f.name.endswith(key) for f, key in zip(fields, keys))

    def test_frozen_and_pickles(self):
        cfg = parse_config(FULL)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.dt = 0.5
        again = pickle.loads(pickle.dumps(cfg))
        assert again == cfg and type(again) is RunConfig
        assert config_hash(again) == config_hash(cfg)

    def test_pinned_config_hash(self):
        """The canonical text, and so every output's provenance hash, is that
        of the hand-written class without the `h_kind` and `bump_width` lines."""
        assert config_hash(parse_config(FULL)) == "73679fda440cdfbf"
        assert config_hash(parse_config(MINIMAL)) == "bc341c531ab4a48b"


class TestRoundTrip:
    def test_parse_serialize_parse_identity(self):
        first = parse_config(FULL)
        second = parse_config(serialize_config(first))
        assert first == second

    def test_hash_stability_and_sensitivity(self):
        cfg = parse_config(FULL)
        again = parse_config(serialize_config(cfg))
        assert config_hash(cfg) == config_hash(again)
        assert len(config_hash(cfg)) == 16
        bumped = parse_config(FULL.replace("nu = 0.5", "nu = 0.51"))
        assert config_hash(bumped) != config_hash(cfg)

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(FULL, encoding="utf-8")
        assert load_config(path) == parse_config(FULL)


class TestBuilders:
    def test_out_of_range_parameter_names_field_and_bound(self):
        cfg = parse_config(MINIMAL.replace("b = 0.3", "b = 1.5"))
        with pytest.raises(ValueError, match=r"b must lie in \[-1, 1\], got 1.5"):
            materialize(cfg)

    def test_zero_radius_means_dealias_limit(self):
        cfg = parse_config(MINIMAL)
        grid = build_grid(cfg)
        assert grid.truncation_radius == _dealias_limit(grid.modes_per_axis, grid.box_length)

    def test_noise_channels_switch_off_at_zero(self):
        off = build_noise(parse_config(MINIMAL), build_grid(parse_config(MINIMAL)))
        assert off.wiener is None and (off.c0, off.c1) == (0.0, 0.0)
        assert off.c_h == 0.0 and off.jump is None
        cfg = parse_config(FULL)
        on = build_noise(cfg, build_grid(cfg))
        assert on.wiener is not None and (on.c0, on.c1) == (cfg.c0, cfg.c1)
        assert on.c_h == 0.15 and on.jump is not None
        assert on.jump.gamma_kind == "linear"

    def test_initial_data_norms_match_scales(self):
        cfg = parse_config(FULL)
        grid = build_grid(cfg)
        state = build_initial(cfg, grid, cfg.master_seed)
        assert hs_norm(state.v, cfg.s) == pytest.approx(0.5, rel=1e-12)
        assert hs_norm(state.tau, cfg.s) == pytest.approx(0.25, rel=1e-12)
        assert divergence_defect(state.v) <= 1e-12
        assert np.array_equal(state.tau.coeffs, np.swapaxes(state.tau.coeffs, 0, 1))

    def test_initial_data_deterministic_and_seed_sensitive(self):
        cfg = parse_config(FULL)
        grid = build_grid(cfg)
        one = build_initial(cfg, grid, 42)
        two = build_initial(cfg, grid, 42)
        other = build_initial(cfg, grid, 43)
        assert np.array_equal(one.v.coeffs, two.v.coeffs)
        assert not np.array_equal(one.v.coeffs, other.v.coeffs)

    def test_zero_scale_gives_zero_field(self):
        cfg = parse_config(FULL.replace("v_scale = 0.5", "v_scale = 0.0"))
        state = build_initial(cfg, build_grid(cfg), 42)
        assert np.all(state.v.coeffs == 0)

    def test_drawn_field_of_zero_norm_gives_the_zero_field(self):
        """Decay so steep that every drawn mode underflows: a nonzero target
        still gives the zero field, not NaN."""
        grid = build_grid(parse_config(MINIMAL))
        state = draw_initial(grid, 5000.0, rng_for_run(1, 0), 0.5, 0.25, 2.0)
        assert np.all(state.v.coeffs == 0) and np.all(state.tau.coeffs == 0)

    def test_materialize_seed_override(self):
        cfg = parse_config(FULL)
        assert materialize(cfg).master_seed == 42
        assert materialize(cfg, 777).master_seed == 777

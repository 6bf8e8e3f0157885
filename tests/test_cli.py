"""Command-line behavior: outputs, provenance headers, exit codes."""
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

import stoldroyd
from stoldroyd import experiments
from stoldroyd.cli import main
from stoldroyd.config import _SCHEMA, build_grid, load_config, materialize, parse_config
from stoldroyd.monitor import CSV_COLUMNS
from stoldroyd.noise import load_noise_path, rng_for_run
from stoldroyd.spectral import _dealias_limit, hs_norm
from stoldroyd.stepping import simulate
from test_stepping import README_DESK

BASE_CONFIG = """
[grid]
dim = 2
modes_per_axis = 32
truncation_radius = 8

[params]
nu = 0.5
a = 0.2
b = 0.3
mu1 = 1.0
mu2 = 1.0

[noise]
lambda0 = 0.05
j_modes = 4
c0 = 0.2
c1 = 0.1
c_h = 0.1
jump_rate = 1.0
gamma0 = 0.05

[initial]
v_scale = 0.5
tau_scale = 0.5

[stepper]
dt = 0.001
horizon = 0.005

[monitor]
threshold = 1000000.0

[seeds]
master_seed = 42

[ensemble]
n_runs = 30
deltas = 0.001, 0.002

[refine]
cutoffs = 4, 8
n_paths = 2
"""


DIVERGENT_EVENT = """{
  "schema": "event/1",
  "config_hash": "08515bbf09c17eca",
  "master_seed": 42,
  "kind": "divergence",
  "t_stop": 0.007,
  "e_n": 11749971929250.346,
  "n_records": 8
}
"""


def divergent_config(scale="1000.0"):
    """BASE_CONFIG's data at `scale` (2000x the base scale by default), past the
    divergence cap before t = 0.05."""
    return (BASE_CONFIG.replace("v_scale = 0.5", f"v_scale = {scale}")
            .replace("tau_scale = 0.5", f"tau_scale = {scale}")
            .replace("horizon = 0.005", "horizon = 0.05")
            .replace("threshold = 1000000.0", "threshold = 1e300"))


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(BASE_CONFIG, encoding="utf-8")
    return str(path)


class TestSimulate:
    def test_writes_csv_and_event(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--config", config_file, "--out", str(out)]) == 0
        csv_text = (out / "energy.csv").read_text()
        lines = csv_text.splitlines()
        assert lines[0].startswith("# config_hash = ")
        assert lines[1] == "# master_seed = 42"
        header_at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        assert lines[header_at] == ",".join(CSV_COLUMNS)
        assert len(lines) == header_at + 1 + 6  # initial record + 5 steps

        event = json.loads((out / "event.json").read_text())
        assert event["schema"] == "event/1"
        assert event["kind"] == "horizon"
        assert event["master_seed"] == 42
        assert "config_hash" in event
        assert "event=horizon" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, config_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", config_file, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", config_file, "--out", str(out2)]) == 0
        assert (out1 / "energy.csv").read_bytes() == (out2 / "energy.csv").read_bytes()
        assert (out1 / "event.json").read_bytes() == (out2 / "event.json").read_bytes()

    def test_divergent_run_writes_its_pinned_last_row_and_event(self, tmp_path):
        """Data 2000x the base scale crosses the divergence cap at t = 0.007.
        The last energy row and the event are pinned byte for byte: the
        monitor's reductions keep the bits of the per-term sums."""
        cfg = tmp_path / "divergent.ini"
        cfg.write_text(divergent_config(), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "energy.csv").read_text().splitlines()[-1] == (
            "0.007,11222960622.182934,11738697497661.707,468207502990.4265,"
            "51470966.455606714,11749971929250.346,0.0")
        assert (out / "event.json").read_text() == DIVERGENT_EVENT

    @pytest.mark.parametrize("scale", ["1000.0", "1e200"])
    def test_divergent_data_raise_no_runtime_warning(self, scale):
        """`simulate`'s record loop and refine's row loop own the error state of
        the steps and records they run, so diverging data raise no RuntimeWarning
        even where warnings are errors; at 1e200 the first record overflows."""
        run = materialize(parse_config(divergent_config(scale)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = simulate(run.initial, run.params, run.noise,
                              replace(run.stepper, record_noise=True), run.monitor,
                              rng=rng_for_run(run.master_seed, 0))
            _, window = experiments.refinement_single_path(
                run.initial.v, run.initial.tau, run.params, run.stepper, [4.0, 8.0],
                result.noise_path, run.noise, threshold=run.monitor.threshold)
        assert result.event.kind == "divergence"
        assert window == result.event.t_stop

    def test_blas_threads_do_not_change_outputs(self, tmp_path):
        """The README desk run, in a subprocess with OPENBLAS_NUM_THREADS=1 and
        in one with 2, writes byte-identical output directories: the
        transforms' matrix products do not depend on the BLAS thread count."""
        config = tmp_path / "desk.ini"
        config.write_text(README_DESK, encoding="utf-8")
        outs = []
        for threads in ("1", "2"):
            outs.append(tmp_path / f"blas_{threads}")
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=str(Path(stoldroyd.__file__).resolve().parents[1]))
            code = "import sys; from stoldroyd.cli import main; sys.exit(main(sys.argv[1:]))"
            subprocess.run([sys.executable, "-c", code, "simulate", "--config", str(config),
                            "--out", str(outs[-1])], env=env, check=True, timeout=300,
                           stdout=subprocess.DEVNULL)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir()) and "energy.csv" in names
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_seed_flag_overrides_config(self, config_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", config_file, "--out", str(out1), "--seed", "7"])
        main(["simulate", "--config", config_file, "--out", str(out2)])
        event = json.loads((out1 / "event.json").read_text())
        assert event["master_seed"] == 7
        assert (out1 / "energy.csv").read_bytes() != (out2 / "energy.csv").read_bytes()

    def test_out_of_range_parameter_exits_2_naming_bound(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(BASE_CONFIG.replace("b = 0.3", "b = 1.5"), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "b must lie in [-1, 1], got 1.5" in err

    def test_retired_dealias_fraction_key_exits_2_naming_it(self, tmp_path, capsys):
        """The 2/3 rule is fixed in the grid; the old knob is an unknown key."""
        bad = tmp_path / "bad.ini"
        bad.write_text(BASE_CONFIG.replace("truncation_radius = 8",
                                           "truncation_radius = 8\ndealias_fraction = 0.6"),
                       encoding="utf-8")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
        assert "unknown key 'dealias_fraction' in section [grid]" in capsys.readouterr().err

    def test_missing_config_exits_3(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert "cannot read config" in capsys.readouterr().err

    def test_unwritable_out_exits_3(self, config_file, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("occupied", encoding="utf-8")
        assert main(["simulate", "--config", config_file, "--out", str(blocker)]) == 3
        assert "cannot create output directory" in capsys.readouterr().err

    def test_recorded_noise_round_trips(self, tmp_path):
        recording = BASE_CONFIG.replace("dt = 0.001", "record_noise = true\ndt = 0.001")
        cfg = tmp_path / "rec.ini"
        cfg.write_text(recording, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        path = load_noise_path(out / "noise.npz")
        assert path.n_steps == 5
        meta = json.loads((out / "noise.meta.json").read_text())
        assert meta["schema"] == "noisemeta/1"
        assert meta["n_steps"] == 5


class TestEnsemble:
    def test_too_few_runs_exits_2(self, config_file, tmp_path, capsys):
        code = main(["ensemble", "--config", config_file,
                     "--out", str(tmp_path / "out"), "--runs", "10"])
        assert code == 2
        assert "n_runs must be >= 30" in capsys.readouterr().err

    def test_writes_summary_and_per_run_csvs(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["ensemble", "--config", config_file, "--out", str(out)]) == 0
        summary = json.loads((out / "ensemble.json").read_text())
        assert summary["schema"] == "ensemble/1"
        assert summary["n_runs"] == 30
        assert summary["master_seed"] == 42
        assert "config_hash" in summary
        assert all(a >= b for a, b in zip(summary["survival"], summary["survival"][1:]))
        run_files = sorted((out / "runs").glob("run_*.csv"))
        assert len(run_files) == 30
        first = run_files[0].read_text().splitlines()
        assert first[0].startswith("# config_hash = ")
        assert "# run_index = 0" in first
        assert "survival=" in capsys.readouterr().out

    def test_threads_do_not_change_results(self, config_file, tmp_path):
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert main(["ensemble", "--config", config_file, "--out", str(serial)]) == 0
        assert main(["ensemble", "--config", config_file, "--out", str(parallel),
                     "--threads", "3"]) == 0
        assert (serial / "ensemble.json").read_bytes() == \
            (parallel / "ensemble.json").read_bytes()
        assert (serial / "runs" / "run_0007.csv").read_bytes() == \
            (parallel / "runs" / "run_0007.csv").read_bytes()

    def test_randomized_members_scale_at_the_params_index(self, tmp_path, monkeypatch):
        """With randomize_initial, a member's data take the config's H^s norms
        at `[params] s`, not at the monitor's `s_monitor`."""
        config = tmp_path / "run.ini"
        config.write_text(BASE_CONFIG.replace("= 32", "= 16").replace("radius = 8", "radius = 5")
                          .replace("mu2 = 1.0", "mu2 = 1.0\ns = 1.0")
                          .replace("scale = 0.5", "scale = 0.8")
                          .replace("threshold = 1000000.0", "threshold = 1000000.0\ns_monitor = 2.0")
                          .replace("horizon = 0.005", "horizon = 0.002")
                          .replace("[refine]", "randomize_initial = true\n\n[refine]"),
                          encoding="utf-8")
        starts = []
        monkeypatch.setattr(experiments, "simulate",
                            lambda state, *a, **kw: starts.append(state) or simulate(state, *a, **kw))
        assert main(["ensemble", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert len(starts) == 30
        assert abs(hs_norm(starts[0].v, 1.0) - 0.8) <= 1e-12
        assert abs(hs_norm(starts[0].tau, 1.0) - 0.8) <= 1e-12
        assert abs(hs_norm(starts[0].v, 2.0) - 0.8) > 1e-3  # the two indices differ here

    def test_bad_thread_count_exits_2(self, config_file, tmp_path, capsys):
        code = main(["ensemble", "--config", config_file,
                     "--out", str(tmp_path / "out"), "--threads", "0"])
        assert code == 2
        assert "threads must be >= 1" in capsys.readouterr().err


class TestRefine:
    def test_unsorted_cutoffs_reordered_with_warning(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(BASE_CONFIG.replace("cutoffs = 4, 8", "cutoffs = 8, 4"),
                       encoding="utf-8")
        out = tmp_path / "out"
        assert main(["refine", "--config", str(cfg), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "reordered ascending" in captured.err
        summary = json.loads((out / "refine.json").read_text())
        assert summary["schema"] == "refine/1"
        assert summary["pairs"] == [[4.0, 8.0]]
        assert summary["n_paths"] == 2

    def test_cutoff_beyond_dealias_limit_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(BASE_CONFIG.replace("cutoffs = 4, 8", "cutoffs = 4, 40"),
                       encoding="utf-8")
        code = main(["refine", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "truncation_radius" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "refine", "verify"])
@pytest.mark.parametrize("threads", ["0", "-5"])
def test_bad_thread_count_exits_2_for_every_command(command, threads, config_file, tmp_path,
                                                    capsys):
    code = main([command, "--config", config_file, "--out", str(tmp_path / "out"),
                 "--threads", threads])
    assert code == 2
    assert f"threads must be >= 1, got {threads}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "refine"])
def test_runs_flag_exits_2_where_it_is_not_read(command, config_file, tmp_path, capsys):
    """Only `ensemble` and `verify` read --runs; elsewhere the flag is refused, not
    silently ignored, and nothing is run."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as stop:
        main([command, "--config", config_file, "--out", str(out), "--runs", "5"])
    assert stop.value.code == 2
    assert "unrecognized arguments: --runs 5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "ensemble", "refine"])
@pytest.mark.parametrize("field, value", [("dt", "inf"), ("dt", "nan"),
                                          ("horizon", "inf"), ("horizon", "nan")])
def test_non_finite_step_or_horizon_exits_2_naming_it(command, field, value, tmp_path, capsys):
    """A non-finite dt or horizon is a config error, caught before any run."""
    bad = tmp_path / "bad.ini"
    bad.write_text(BASE_CONFIG.replace("dt = 0.001", "dt = " + value) if field == "dt"
                   else BASE_CONFIG.replace("horizon = 0.005", "horizon = " + value),
                   encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(bad), "--out", str(out)]) == 2
    assert f"config error: {field} must be finite" in capsys.readouterr().err
    assert not out.exists()


_FLOAT_KEYS = [(section, key) for section, keys in _SCHEMA.items()
               for key, (tag, _) in keys.items() if tag in ("float", "floats")]


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("section, key", _FLOAT_KEYS, ids=[key for _, key in _FLOAT_KEYS])
def test_non_finite_float_value_exits_2_naming_its_key(section, key, value, tmp_path, capsys):
    """Every float and float-list key of the schema, a key added later included,
    refuses inf and nan at parse time rather than running on them."""
    text = re.sub(rf"^{key} = .*\n", "", BASE_CONFIG, flags=re.MULTILINE)
    if f"[{section}]\n" not in text:
        text += f"\n[{section}]\n"
    bad = tmp_path / "bad.ini"
    bad.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n"),
                   encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 2
    assert f"config error: {key} must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_only_a_zero_truncation_radius_means_the_dealias_limit(tmp_path, capsys):
    """A negative radius is refused by name; 0 runs at the dealias limit."""
    for radius, code in (("-5", 2), ("0", 0)):
        cfg = tmp_path / f"radius_{radius}.ini"
        cfg.write_text(BASE_CONFIG.replace("truncation_radius = 8",
                                           f"truncation_radius = {radius}"), encoding="utf-8")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / radius)]) == code
    assert "truncation_radius must be positive, got -5" in capsys.readouterr().err
    grid = build_grid(load_config(cfg))
    assert grid.truncation_radius == _dealias_limit(grid.modes_per_axis, grid.box_length)


@pytest.mark.parametrize("key, negative, owner_error", [
    ("j_modes", "-3", "J must be >= 1, got -3"),
    ("jump_rate", "-1.0", "rate must be >= 0, got -1.0"),
])
def test_only_zero_switches_a_noise_channel_off(key, negative, owner_error, tmp_path, capsys):
    """A negative switch goes to its channel's own check and is refused by
    its key, not run with the channel off; 0 still switches the channel off."""
    for value, code in ((negative, 2), ("0", 0)):
        cfg = tmp_path / f"{key}_{value}.ini"
        cfg.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}", BASE_CONFIG, flags=re.M),
                       encoding="utf-8")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / value)]) == code
    assert f"config error: {key} = {negative}: {owner_error}" in capsys.readouterr().err
    off = materialize(load_config(cfg)).noise
    channel = (off.wiener,) if key == "j_modes" else (off.jump,)
    assert channel == (None,) * len(channel)


@pytest.mark.parametrize("command", ["simulate", "refine"])
def test_refused_flag_prints_the_subcommand_usage(command, config_file, tmp_path, capsys):
    """A flag a command does not take is reported with that command's usage line."""
    with pytest.raises(SystemExit) as stop:
        main([command, "--config", config_file, "--out", str(tmp_path / "out"), "--runs", "5"])
    assert stop.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: stoldroyd {command} ")


class TestVerify:
    def test_default_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "report"
        assert main(["verify", "--seed", "3", "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "suite PASSED" in captured
        assert "FAIL" not in captured.splitlines()[0]
        assert "fitted constant" not in captured
        report = json.loads((out / "verify.json").read_text())
        assert set(report) == {"schema", "master_seed", "trials", "tolerance", "passed",
                               "max_violation"}
        assert report["schema"] == "verify/3"
        assert report["passed"] is True

    def test_too_few_trials_exits_2(self, capsys):
        assert main(["verify", "--seed", "3", "--runs", "50"]) == 2
        assert "trials must be >= 100" in capsys.readouterr().err

    def test_seed_from_config_when_not_overridden(self, config_file, capsys):
        assert main(["verify", "--config", config_file]) == 0
        assert "suite PASSED" in capsys.readouterr().out

"""Command-line behavior: outputs, provenance headers, exit codes."""
import json

import pytest

from stoldroyd.cli import main
from stoldroyd.monitor import CSV_COLUMNS
from stoldroyd.noise import load_noise_path

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


class TestVerify:
    def test_default_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "report"
        assert main(["verify", "--seed", "3", "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "suite PASSED" in captured
        assert "FAIL" not in captured.splitlines()[0]
        report = json.loads((out / "verify.json").read_text())
        assert report["schema"] == "verify/1"
        assert report["passed"] is True

    def test_too_few_trials_exits_2(self, capsys):
        assert main(["verify", "--seed", "3", "--runs", "50"]) == 2
        assert "trials must be >= 100" in capsys.readouterr().err

    def test_seed_from_config_when_not_overridden(self, config_file, capsys):
        assert main(["verify", "--config", config_file]) == 0
        assert "suite PASSED" in capsys.readouterr().out

"""The runnable study in scripts/ builds its run from a config like the CLI."""
import importlib.util
import json
from pathlib import Path


from stoldroyd.cli import main as cli_main

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "survival_study.py"

CONFIG = """
[grid]
dim = 2
modes_per_axis = 16
truncation_radius = 5

[params]
nu = 0.5
a = 0.2
b = 0.5
mu1 = 1.0
mu2 = 1.0

[noise]
lambda0 = 0.1
j_modes = 8
c0 = 0.5
c1 = 0.2
c_h = 0.3
jump_rate = 2.0
gamma0 = 0.1

[initial]
v_scale = 0.8
tau_scale = 0.8

[stepper]
dt = 0.001
horizon = 0.02

[monitor]
threshold = 1.3

[seeds]
master_seed = 424242

[ensemble]
n_runs = 30
deltas = 0.01, 0.02
"""


def load_script():
    spec = importlib.util.spec_from_file_location("survival_study", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_survival_study_full_curve_matches_ensemble_command(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(CONFIG)
    report = tmp_path / "curves.json"
    load_script().main(["--config", str(config), "--out", str(report)])
    curves = json.loads(report.read_text())
    assert cli_main(["ensemble", "--config", str(config), "--out", str(tmp_path / "ens")]) == 0
    ensemble = json.loads((tmp_path / "ens" / "ensemble.json").read_text())
    full, half = curves["full amplitude"], curves["half amplitude"]
    assert full["n_runs"] == half["n_runs"] == 30
    assert full["deltas"] == [0.01, 0.02]
    assert full["survival"] == ensemble["survival"]
    assert all(h >= f for h, f in zip(half["survival"], full["survival"]))


def test_survival_study_runs_members_in_process(tmp_path, monkeypatch):
    """Both ensembles map their members in-process, with the serial `map`."""
    config = tmp_path / "run.ini"
    config.write_text(CONFIG)
    script = load_script()
    maps, ensemble = [], script.run_ensemble
    monkeypatch.setattr(script, "run_ensemble", lambda *args, **kwargs: maps.append(
        kwargs.get("map_over_runs", map)) or ensemble(*args, **kwargs))
    script.main(["--config", str(config)])
    assert maps == [map, map]


def load_pairs():
    path = SCRIPT.parent / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_verdict_applies_the_claim_rule():
    """Nine wins of ten and a median gain beyond the parent's quartile
    distance make a claim; a tie counts for neither side."""
    pairs = load_pairs()
    parent = [100.0, 104.0, 98.0, 101.0, 103.0, 99.0, 102.0, 100.0, 97.0, 105.0]
    change = [p + 10.0 for p in parent[:9]] + [parent[9]]  # nine wins and a tie
    held = pairs.verdict(parent, change, "higher", 0.25)
    assert held["wins"] == 9 and held["pairs"] == 10
    assert held["parent_iqr"] == 3.5  # inclusive quartiles 99.25 and 102.75
    assert held["claim_holds"] and held["within_bound"]
    # the same wins by less than the quartile distance make no claim
    small = pairs.verdict(parent, [p + 1.0 for p in parent[:9]] + [parent[9]], "higher", 0.25)
    assert small["wins"] == 9 and not small["claim_holds"]
    # eight wins of ten make no claim, however large the gain
    eight = pairs.verdict(parent, change[:8] + parent[8:], "higher", 0.25)
    assert eight["wins"] == 8 and not eight["claim_holds"]
    # where lower is better the same readings are losses: about 10 % worse
    lower = pairs.verdict(parent, change, "lower", 0.25)
    assert lower["wins"] == 0 and not lower["claim_holds"] and lower["within_bound"]
    assert not pairs.verdict(parent, change, "lower", 0.05)["within_bound"]
    assert pairs.verdict(change, parent, "lower", 0.05)["claim_holds"]


def test_step_budget_prints_positive_warm_minima(tmp_path, capsys):
    """The step budget runs on a config's stepping grid and prints one JSON
    object with a positive warm minimum per part, in microseconds."""
    config = tmp_path / "run.ini"
    config.write_text(CONFIG)
    path = SCRIPT.parent / "step_budget.py"
    spec = importlib.util.spec_from_file_location("step_budget", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main(["--config", str(config), "--calls", "20", "--repeats", "2"])
    report = json.loads(capsys.readouterr().out)
    parts = ("step_us", "energy_us", "sample_step_us", "transform_pair_us")
    assert set(report) == set(parts) | {"modes_per_axis", "shape"}
    assert all(report[name] > 0 for name in parts)
    assert report["modes_per_axis"] == 16 and report["shape"] == [11, 6]

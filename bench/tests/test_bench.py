"""Tests of the benchmark itself (not collected by the package's suite).

    python3 -m pytest bench/tests -q
"""
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import textwrap

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Capture, check_repeat, config_facts  # noqa: E402


def _bench(*args, cwd=ROOT, script=os.path.join(BENCH_DIR, "run.py")):
    proc = subprocess.run([sys.executable, script, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)
    return proc


def _result(*args):
    proc = _bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_passes_its_checks(workload):
    result = _result("--workload", workload, "--seed", "7", "--seconds", "0.5",
                     "--trace", "0", "--scale", "tiny")
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {"setup_s", "steps_per_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_exact_counts_repeat_across_traced_runs():
    runs = [_result("--workload", "desk_simulate", "--seed", "11", "--seconds", "0.5",
                    "--trace", "1", "--scale", "tiny") for _ in range(2)]
    counts = [{k: r["metrics"][k]["value"] for k in
               ("spectral.fft_calls_per_step", "spectral.fft_mb_per_step",
                "spectral.calls_per_step")} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["spectral.fft_calls_per_step"] == 15
    assert all(r["correct"] for r in runs)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "desk_simulate", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path, script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _tiny_outputs(workload, tmp_path):
    from stoldroyd import cli, config, spectral

    config_path = tmp_path / "run.ini"
    config_path.write_text(WORKLOADS[workload].config_text(3, "tiny"))
    out = tmp_path / "out"
    modules = [m for n, m in sys.modules.items() if n.startswith("stoldroyd")]
    with Capture(modules) as capture, contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(WORKLOADS[workload].argv(str(config_path), str(out)))
    facts = config_facts(config.load_config(str(config_path)), workload)

    def check(with_states=True):
        return check_repeat(workload, str(out), code, capture if with_states else None,
                            spectral, facts, None)

    return out, check


def _replace_in_row(path, row, column, value):
    lines = path.read_text().splitlines(keepends=True)
    data = [i for i, line in enumerate(lines) if not line.startswith("#")][1:]
    fields = lines[data[row]].rstrip("\n").split(",")
    fields[column] = value
    lines[data[row]] = ",".join(fields) + "\n"
    path.write_text("".join(lines))


def test_corrupted_energy_csv_counts_as_failed(tmp_path):
    out, check = _tiny_outputs("desk_simulate", tmp_path)
    clean = check()
    assert (clean.attempted, clean.failed) == (1, 0), clean.problems
    _replace_in_row(out / "energy.csv", 2, -1, "0.001")  # an asymmetric stress sample
    corrupted = check()
    assert corrupted.failed == 1
    assert corrupted.digest != clean.digest


def test_corrupted_member_csv_counts_only_that_member(tmp_path):
    out, check = _tiny_outputs("survival_ensemble", tmp_path)
    assert check().failed == 0
    _replace_in_row(out / "runs" / "run_0004.csv", 1, -2, "nan")  # E_N breaks mid-series
    corrupted = check()
    assert (corrupted.attempted, corrupted.failed) == (30, 1), corrupted.problems


def test_truncated_summary_fails_every_path(tmp_path):
    out, check = _tiny_outputs("refine_96", tmp_path)
    assert check().failed == 0
    text = (out / "refine.json").read_text()
    (out / "refine.json").write_text(text[: len(text) // 2])
    corrupted = check()
    assert corrupted.failed == corrupted.attempted == 1


def test_tracer_rebinds_imported_names_and_skips_missing_ones(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text(textwrap.dedent("""
        __all__ = ["f", "Thing", "deleted_function"]
        def f(x):
            return x + 1
        class Thing:
            def method(self):
                return f(1)
            @classmethod
            def make(cls):
                return cls()
    """))
    (pkg / "b.py").write_text("from .a import f\n\ndef g():\n    return f(2)\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    import fakepkg.a
    import fakepkg.b

    tracer = Tracer("fakepkg")
    original = fakepkg.b.f
    with tracer:
        assert fakepkg.b.g() == 3
        assert fakepkg.a.Thing.make().method() == 2
    assert fakepkg.b.f is original
    labels = [tracer.labels[i] for i in tracer.name]
    assert labels == ["b.g", "a.f", "a.Thing.make", "a.Thing.method", "a.f"]
    assert list(tracer.parent) == [-1, 0, -1, -1, 3]

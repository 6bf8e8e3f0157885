"""The benchmark's workload process; ``run.py`` starts one per measurement.

    worker.py setup --root DIR --config FILE
        prints the seconds taken by ``import stoldroyd`` + ``load_config`` +
        ``materialize`` in this fresh process, and the speed probe's rate.
    worker.py run --root DIR --workload NAME --config FILE --work DIR
                  --seconds S --trace 0|1 [--reference FILE] [--spans FILE]
        repeats the workload's command in-process through ``stoldroyd.cli.main``
        for about S seconds, checks every repeat's outputs, and prints one
        JSON line.  With --trace 1, untraced and traced repeats alternate.

Only the standard library is imported at module level, so the setup probe
times the package's imports and nothing of the benchmark's.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback


def _import_package(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import stoldroyd

    if not os.path.abspath(stoldroyd.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"stoldroyd imported from {stoldroyd.__file__}, not from {src}")
    return stoldroyd


def cmd_setup(args) -> int:
    t0 = time.perf_counter()
    _import_package(args.root)
    from stoldroyd.config import load_config, materialize

    cfg = load_config(args.config)
    materialize(cfg)
    seconds = time.perf_counter() - t0
    modes = cfg.grid_modes_per_axis
    iterations, probe_seconds = speed_probe(SETUP_PROBE_SECONDS, modes)
    print(json.dumps({"seconds": seconds,
                      "speed": iterations / probe_seconds / PROBE_REFERENCE_RATE[modes]}))
    return 0


# The host's speed drifts by tens of percent over tens of seconds, for every
# process alike.  After each untraced command a fixed probe runs for a tenth
# of the command's time: FFTs on the workload's grid size, an elementwise
# product and interpreted Python, the workloads' own mix.  Its rate over the
# run, relative to a fixed reference rate, is the run's speed; steps/s is
# divided by it, which cancels most of the drift.  Each set-up probe process
# runs the probe too, right after timing its set-up.
PROBE_SHARE = 0.1
SETUP_PROBE_SECONDS = 0.1
# Probe iterations per second, by grid size, typical of the 2-core Xeon host
# on which the benchmark was defined; constants, so they fix only the scale.
PROBE_REFERENCE_RATE = {16: 18000.0, 64: 8000.0, 96: 4000.0}


def speed_probe(seconds: float, modes: int) -> tuple[int, float]:
    """Run the probe for at least ``seconds``; return (iterations, seconds)."""
    import numpy as np

    field = np.exp(1j * np.arange(modes * modes).reshape(modes, modes) / modes)
    done, t0 = 0, time.perf_counter()
    while True:
        for _ in range(10):
            out = np.fft.ifftn(np.fft.fftn(field))
            out *= 0.5
            sum(i * i for i in range(300))
        done += 10
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return done, elapsed


def machine_facts() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    fft_backend = "pocketfft" if hasattr(np.fft, "_pocketfft_umath") else np.fft.fftn.__module__
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft_backend": fft_backend,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def cmd_run(args) -> int:
    _import_package(args.root)
    from stoldroyd import cli, config, spectral

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, bench_dir)
    from layers import layer_metrics, repeat_stats
    from tracer import Tracer
    from workloads import WORKLOADS, Capture, check_repeat, config_facts

    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "stoldroyd" or name.startswith("stoldroyd."))]
    cfg_obj = config.load_config(args.config)
    facts = config_facts(cfg_obj, args.workload)
    reference = None
    if args.reference:
        with open(args.reference, encoding="utf-8") as handle:
            reference = json.load(handle)

    walls = {False: [], True: []}
    stats, problems = [], []
    attempted = failed = traced_steps = untraced_steps = probe_iterations = 0
    probe_seconds = 0.0
    first_digest = None
    deadline = time.perf_counter() + args.seconds
    repeat = 0
    while True:
        traced = bool(args.trace) and repeat % 2 == 1
        out_dir = os.path.join(args.work, f"repeat-{repeat}")
        capture = Capture(modules)
        if traced:
            tracer.reset()
            tracer.install()
        try:
            with capture, contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                try:
                    code = cli.main(workload.argv(args.config, out_dir))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # a crash is a failed operation, not a benchmark error
                    traceback.print_exc()
                    code = 1
                wall = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        check = check_repeat(args.workload, out_dir, code, capture, spectral, facts, reference)
        if first_digest is None:
            first_digest = check.digest
        elif check.digest != first_digest:
            check.fail_all("outputs are not byte-identical to the first repeat"
                           + (" (this repeat was traced)" if traced else ""))
        attempted += check.attempted
        failed += check.failed
        problems.extend(f"repeat {repeat}: {p}" for p in check.problems[:5])
        walls[traced].append(wall)
        if traced:
            stats.append(repeat_stats(tracer))
            traced_steps += check.steps
        elif not args.trace:
            untraced_steps += check.steps
            iterations, seconds = speed_probe(PROBE_SHARE * wall, cfg_obj.grid_modes_per_axis)
            probe_iterations += iterations
            probe_seconds += seconds
        shutil.rmtree(out_dir, ignore_errors=True)
        del capture, check
        repeat += 1
        enough = len(walls[False]) >= 2 if not args.trace else len(walls[True]) >= 1
        typical = statistics.median(walls[False] + walls[True])
        if enough and time.perf_counter() + typical > deadline:
            break

    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "repeats": {"untraced": len(walls[False]), "traced": len(walls[True])},
        "untraced_walls_s": walls[False],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "config_hash": config.config_hash(cfg_obj),
        "machine": machine_facts(),
    }
    if not args.trace:
        speed = probe_iterations / probe_seconds / PROBE_REFERENCE_RATE[cfg_obj.grid_modes_per_axis]
        result["speed"] = speed
        result["raw_steps_per_s"] = untraced_steps / sum(walls[False])
        result["steps_per_s"] = result["raw_steps_per_s"] / speed
    else:
        result["layers"] = layer_metrics(stats, traced_steps, walls[True], walls[False])
        result["spans"] = len(tracer)
        if args.spans:
            tracer.save(args.spans)
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("--root", required=True)
    p_setup.add_argument("--config", required=True)
    p_setup.set_defaults(handler=cmd_setup)
    p_run = sub.add_parser("run")
    p_run.add_argument("--root", required=True)
    p_run.add_argument("--workload", required=True)
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--work", required=True)
    p_run.add_argument("--seconds", type=float, required=True)
    p_run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_run.add_argument("--reference")
    p_run.add_argument("--spans")
    p_run.set_defaults(handler=cmd_run)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())

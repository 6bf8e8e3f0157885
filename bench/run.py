"""Benchmark entry point: one workload, one seed, one measurement.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/stoldroyd`` next to ``bench``).
The workload's INI config is generated from the seed, the set-up cost is
timed in fresh processes, and the workload's command is repeated for about S
seconds in one fresh worker process, through ``stoldroyd.cli.main``, with
every repeat's outputs checked.  The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The lines before it record the machine, the source and the config.

Workloads: desk_simulate, survival_ensemble, refine_96 (see README.md).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_PROBES = 11
DEADLINE_S = 170.0
# Single-threaded numerics: the workloads are single-process batch jobs.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def source_facts(root: str) -> dict:
    """Git commit when the checkout has one, and a digest of the sources."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "stoldroyd")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(handle.read())
    commit = "unknown (not a git checkout)"
    head = os.path.join(root, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = os.path.join(root, ".git", ref[5:])
            if os.path.isfile(ref_file):
                with open(ref_file, encoding="utf-8") as handle:
                    commit = handle.read().strip()
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def _child(argv: list[str], env: dict, timeout: float) -> str:
    proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "worker.py"), *argv],
                          stdout=subprocess.PIPE, env=env, timeout=timeout, text=True,
                          cwd=ROOT, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {argv[0]} exited {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs the same commands at a few steps (for tests)")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "stoldroyd", "__init__.py")):
        print(f"error: no stoldroyd sources under {ROOT}/src", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    out_root = os.path.join(ROOT, ".bench_out")
    work = os.path.join(out_root, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    env = dict(os.environ, **THREAD_ENV, PYTHONHASHSEED="0")
    try:
        config_text = workload.config_text(args.seed, args.scale)
        config_path = os.path.join(work, f"{args.workload}.ini")
        with open(config_path, "w", encoding="utf-8") as handle:
            handle.write(config_text)

        setup = [json.loads(_child(["setup", "--root", ROOT, "--config", config_path], env, 60.0))
                 for _ in range(SETUP_PROBES)]

        run_argv = ["run", "--root", ROOT, "--workload", args.workload, "--config", config_path,
                    "--work", work, "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        reference = os.path.join(BENCH_DIR, "reference", f"{args.workload}.json")
        if args.seed == DEFAULT_SEED and args.scale == "full":
            run_argv += ["--reference", reference]
        if args.trace:
            spans = os.path.join(out_root, f"spans-{args.workload}-{args.seed}.npz")
            run_argv += ["--spans", spans]
        remaining = DEADLINE_S - (time.perf_counter() - started)
        run = json.loads(_child(run_argv, env, remaining))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "config_hash": run["config_hash"],
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        "reference_checked": args.seed == DEFAULT_SEED and args.scale == "full",
        "repeats": run["repeats"],
        "untraced_walls_s": run["untraced_walls_s"],
        "raw_steps_per_s": run.get("raw_steps_per_s"),
        "speed": run.get("speed"),
        "setup_probes_s": [p["seconds"] for p in setup],
        "setup_speeds": [p["speed"] for p in setup],
        **source_facts(ROOT),
        "machine": run["machine"],
    }
    print("record " + json.dumps(record))
    for problem in run["problems"]:
        print(f"problem {problem}")
    attempted, failed = run["attempted"], run["failed"]
    print(f"failed_frac {failed / attempted!r} ratio ({failed} of {attempted} paths)")
    if args.trace:
        print(f"spans {run['spans']} in the last traced repeat")
        metrics = run["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(p["seconds"] * p["speed"] for p in setup),
                        "unit": "s"},
            "steps_per_s": {"value": run["steps_per_s"], "unit": "steps/s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MiB"},
        }
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

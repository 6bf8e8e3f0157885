#!/usr/bin/env python3
"""Which output files differ, byte for byte, between two source trees.

    python3 scripts/output_digests.py --parent TREE --change TREE --work DIR \
        [--workloads desk_simulate ...] [--seeds 424242 11] [--scale full]

Each TREE is a source checkout holding ``src/``.  Each tree runs in a process of
its own, importing ``stoldroyd`` from its own ``src/`` at ``OPENBLAS_NUM_THREADS=1``,
and writes under ``DIR/parent`` or ``DIR/change``, each emptied first: per workload
and seed, the benchmark's command (``simulate``, ``ensemble`` or ``refine``, with the
argv of ``bench/workloads.py``) on the config that ``WORKLOADS[name].config_text(seed,
scale)`` generates, read from this checkout's ``bench/``; then ``verify --seed 3
--out``.  Prints each output file whose SHA-256 differs between the trees, or that
only one tree wrote, and a summary line; exits 1 if any file differs.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
VERIFY_SEED = 3


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(ROOT, "bench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def digests(out_root: str) -> dict[str, str]:
    """SHA-256 of every file under `out_root`, keyed by its relative path."""
    found = {}
    for root, _, files in os.walk(out_root):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                found[os.path.relpath(path, out_root)] = hashlib.sha256(handle.read()).hexdigest()
    return found


def run_tree(tree: str, out_root: str, catalogue: dict, workloads: list[str],
             seeds: list[int], scale: str) -> dict[str, str]:
    """In this process: every command on `tree`'s package, then the outputs' digests."""
    src = os.path.join(os.path.abspath(tree), "src")
    sys.path.insert(0, src)
    from stoldroyd import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"stoldroyd imported from {cli.__file__}, not from {src}")
    shutil.rmtree(out_root, ignore_errors=True)
    configs, outputs = (os.path.join(out_root, part) for part in ("configs", "outputs"))
    os.makedirs(configs)
    for name in workloads:
        for seed in seeds:
            config = os.path.join(configs, f"{name}-{seed}.ini")
            with open(config, "w", encoding="utf-8") as handle:
                handle.write(catalogue[name].config_text(seed, scale))
            out_dir = os.path.join(outputs, name, str(seed))
            if cli.main(catalogue[name].argv(config, out_dir)) != 0:
                raise SystemExit(f"{name} at seed {seed} failed on {tree}")
    if cli.main(["verify", "--seed", str(VERIFY_SEED), "--out",
                 os.path.join(outputs, "verify")]) != 0:
        raise SystemExit(f"verify failed on {tree}")
    return digests(outputs)


def tree_digests(tree: str, out_root: str, args) -> dict[str, str]:
    """`run_tree` in a fresh interpreter, so each tree imports only its own package."""
    argv = [sys.executable, os.path.abspath(__file__), "--tree", tree, "--work", out_root,
            "--scale", args.scale, "--workloads", *args.workloads,
            "--seeds", *map(str, args.seeds)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def compare(parent: dict[str, str], change: dict[str, str]) -> list[str]:
    """One line per file that differs or that only one side wrote, in path order."""
    lines = []
    for path in sorted(parent.keys() | change.keys()):
        if path not in change:
            lines.append(f"only in parent: {path}")
        elif path not in parent:
            lines.append(f"only in change: {path}")
        elif parent[path] != change[path]:
            lines.append(f"differs: {path}")
    return lines


def main(argv=None) -> int:
    catalogue = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="the first source tree")
    parser.add_argument("--change", help="the second source tree")
    parser.add_argument("--tree", help="run one tree in this process and print its digests")
    parser.add_argument("--work", required=True, help="directory for both trees' outputs")
    parser.add_argument("--workloads", nargs="+", default=list(catalogue),
                        help="benchmark workloads to run (default: all)")
    parser.add_argument("--seeds", nargs="+", type=int, default=[424242, 11],
                        help="workload seeds (default: 424242 11)")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="the workloads' sizes (default: full)")
    args = parser.parse_args(argv)

    if args.tree is not None:
        print(json.dumps(run_tree(args.tree, args.work, catalogue, args.workloads, args.seeds,
                                  args.scale)))
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")
    sides = {side: tree_digests(tree, os.path.join(args.work, side), args)
             for side, tree in (("parent", args.parent), ("change", args.change))}
    lines = compare(sides["parent"], sides["change"])
    print("\n".join(lines + [f"{len(sides['parent'])} parent and {len(sides['change'])} "
                             f"change files, {len(lines)} not identical"]))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())

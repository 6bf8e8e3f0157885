#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, with the claim rule applied.

    python3 scripts/bench_pairs.py --parent TREE --change TREE --work DIR \
        --workload survival_ensemble --pairs 10 --seed 9001 --seconds 8 [--out FILE]

Each TREE is a source checkout holding ``src/`` and ``bench/``.  Before every
pair both trees' ``src/`` and ``bench/`` are copied afresh into ``DIR/tree-a``
and ``DIR/tree-b``, names of one length; the sides swap directories every
other pair, and the side that runs first alternates every pair.  Pair k runs
``python3 <dir>/bench/run.py --workload W --seed SEED+k --seconds T`` on both
sides.  Per end-to-end metric it prints each side's median and quartiles,
overall and per directory, the pairs the change won (ties count for
neither), and the claim verdict: the change wins at least nine tenths of the
pairs and its median beats the parent's by more than the parent's quartile
distance; and whether the change's median is worse than the parent's by more
than the metric's bound.  Runs that are not correct, or fail operations, are
flagged.  Metric directions and bounds come from the change tree's
``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

DIRS = ("tree-a", "tree-b")


def spread(values: list[float]) -> dict:
    """Median and inclusive quartiles (one reading is its own quartiles)."""
    q1, median, q3 = statistics.quantiles(values * (2 if len(values) == 1 else 1), n=4,
                                          method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The claim rule on paired readings, `better` being "higher" or "lower", and whether
    the change's median is worse than the parent's by at most the fraction `bound`."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    base, new = spread(parent), spread(change)
    gain = sign * (new["median"] - base["median"])
    iqr = base["q3"] - base["q1"]
    return {"wins": wins, "pairs": len(parent), "median_gain": gain, "parent_iqr": iqr,
            "claim_holds": wins >= 0.9 * len(parent) and gain > iqr,
            "within_bound": -gain <= bound * abs(base["median"])}


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, os.path.join(tree, "bench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds)]
    proc = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "failed": None, "metrics": {}, "exit": proc.returncode}
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def place(source: str, target: str) -> None:
    shutil.rmtree(target, ignore_errors=True)
    for part in ("src", "bench"):
        shutil.copytree(os.path.join(source, part), os.path.join(target, part),
                        ignore=shutil.ignore_patterns("__pycache__", ".bench_out"))


def run_pairs(trees: dict, work: str, workload: str, pairs: int, seed: int,
              seconds: float) -> list[dict]:
    records = []
    for k in range(pairs):
        swap = (k // 2) % 2
        dirs = {side: os.path.join(work, DIRS[(i + swap) % 2])
                for i, side in enumerate(("parent", "change"))}
        for side, tree in trees.items():
            place(tree, dirs[side])
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        record = {"seed": seed + k, "first": order[0],
                  "dirs": {s: os.path.basename(d) for s, d in dirs.items()}}
        for side in order:
            record[side] = run_once(dirs[side], workload, seed + k, seconds)
            if not record[side]["correct"] or record[side]["failed"]:
                print(f"FLAG {workload} pair {k} {side}: correct={record[side]['correct']} "
                      f"failed={record[side]['failed']}", flush=True)
        records.append(record)
    return records


def summarize(records: list[dict], metrics: dict) -> dict:
    summary = {}
    for name, (better, bound) in metrics.items():
        done = [r for r in records if name in r["parent"]["metrics"]
                and name in r["change"]["metrics"]]
        if not done:
            continue
        values = {s: [r[s]["metrics"][name] for r in done] for s in ("parent", "change")}
        by_dir = {s: {d: spread([r[s]["metrics"][name] for r in done if r["dirs"][s] == d])
                      for d in DIRS if any(r["dirs"][s] == d for r in done)}
                  for s in values}
        summary[name] = {"better": better, **{s: {**spread(v), "by_dir": by_dir[s]}
                                              for s, v in values.items()},
                         "verdict": verdict(values["parent"], values["change"], better, bound)}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--work", required=True, help="scratch directory for the copies")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="first pair's seed")
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--out", help="write the readings and the summary as JSON")
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as handle:
        metrics = {m["name"]: (m["better"], m["bound"]) for m in json.load(handle)["end_to_end"]}
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    report = {}
    for n, workload in enumerate(args.workload):
        records = run_pairs(trees, args.work, workload, args.pairs,
                            args.seed + 100 * n, args.seconds)
        summary = summarize(records, metrics)
        report[workload] = {"seconds": args.seconds, "pairs": records, "summary": summary}
        for name, s in summary.items():
            v = s["verdict"]
            print(f"{workload} {name} ({s['better']} is better): wins {v['wins']}/{v['pairs']}, "
                  f"claim {'holds' if v['claim_holds'] else 'fails'}, "
                  f"{'within' if v['within_bound'] else 'OUT OF'} bound")
            for side in ("parent", "change"):
                dirs = ", ".join(f"{d} {x['median']:.4g} [{x['q1']:.4g}-{x['q3']:.4g}]"
                                 for d, x in s[side]["by_dir"].items())
                print(f"  {side:6} median {s[side]['median']:.4g} "
                      f"[{s[side]['q1']:.4g}-{s[side]['q3']:.4g}]; {dirs}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

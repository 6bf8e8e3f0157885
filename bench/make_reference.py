"""Regenerate the reference results compared on the default seed.

    python3 bench/make_reference.py [WORKLOAD ...]

Runs each workload's command once at full size and the default seed and
writes the pinned parts of its outputs to ``bench/reference/<name>.json``.
Regenerate only for a change that is meant to alter results, and say so.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

from stoldroyd import cli  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, reference_of  # noqa: E402


def main(names: list[str]) -> int:
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        work = tempfile.mkdtemp(prefix=f"reference-{name}-", dir=os.path.join(ROOT, ".bench_out"))
        try:
            config = os.path.join(work, f"{name}.ini")
            with open(config, "w", encoding="utf-8") as handle:
                handle.write(workload.config_text(DEFAULT_SEED))
            out = os.path.join(work, "out")
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(workload.argv(config, out))
            if code != 0:
                print(f"{name}: command exited {code}", file=sys.stderr)
                return 1
            target = os.path.join(BENCH_DIR, "reference", f"{name}.json")
            os.makedirs(os.path.dirname(target), exist_ok=True)
            with open(target, "w", encoding="utf-8") as handle:
                json.dump({"workload": name, "seed": DEFAULT_SEED, **reference_of(name, out)},
                          handle, indent=1)
                handle.write("\n")
            print(f"wrote {os.path.relpath(target, ROOT)}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Warm in-process costs of one step and its parts on a config's stepping grid.

    python3 scripts/step_budget.py --config run.ini [--calls 2000] [--repeats 5]

Builds the run from an INI config as `stoldroyd simulate` does
(`config.materialize`) and moves it to the grid `simulate` steps on
(`stepping.on_alias_free_grid`).  Each figure is the minimum over
``--repeats`` of the mean over ``--calls`` calls, after one warm-up call:

* ``step_us``: `stepping.step` from the initial state with one `StepPlan`,
  as `stepping.trajectory` steps a path;
* ``energy_us``: `monitor.energy` of the initial state;
* ``sample_step_us``: `NoiseSampler.sample_step`;
* ``transform_pair_us``: the time one step spends in the grid's inverse and
  forward transforms, the drift pass's pair.

Prints one JSON object: those figures in microseconds, and the grid's modes
per axis and shape.  Steps run under the error state `simulate` sets.
"""
from __future__ import annotations

import argparse
import json
import math
import time

import numpy as np

from stoldroyd.config import load_config, materialize
from stoldroyd.monitor import energy
from stoldroyd.noise import rng_for_run
from stoldroyd.spectral import SpectralGrid
from stoldroyd.stepping import StepPlan, on_alias_free_grid, step


def warm_min(call, calls: int, repeats: int, clock=time.perf_counter) -> float:
    """Minimum over `repeats` of `clock`'s advance per call over `calls` calls."""
    call()
    best = math.inf
    for _ in range(repeats):
        start = clock()
        for _ in range(calls):
            call()
        best = min(best, (clock() - start) / calls)
    return best


def transform_seconds(call, calls: int, repeats: int) -> float:
    """`warm_min` of the time `call` spends inside `SpectralGrid.inverse` and `forward`."""
    spent = [0.0]
    originals = {name: getattr(SpectralGrid, name) for name in ("inverse", "forward")}

    def timed(inner):
        def transform(*args, **kwargs):
            start = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                spent[0] += time.perf_counter() - start
        return transform

    for name, inner in originals.items():
        setattr(SpectralGrid, name, timed(inner))
    try:
        return warm_min(call, calls, repeats, clock=lambda: spent[0])
    finally:
        for name, inner in originals.items():
            setattr(SpectralGrid, name, inner)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, help="INI run configuration")
    parser.add_argument("--calls", type=int, default=2000, help="calls per repeat")
    parser.add_argument("--repeats", type=int, default=5, help="repeats; the minimum is kept")
    args = parser.parse_args(argv)
    if args.calls < 1 or args.repeats < 1:
        parser.error("calls and repeats must be >= 1")

    run = materialize(load_config(args.config))
    state = on_alias_free_grid(run.initial, run.noise)
    grid, dt = state.v.grid, run.stepper.dt
    sampler = run.noise.sampler(rng_for_run(run.master_seed, 0))
    sn = sampler.sample_step(dt)
    plan = StepPlan(grid, run.params, dt, run.noise)

    def take_step():
        step(state, sn, plan)

    with np.errstate(over="ignore", invalid="ignore"):
        seconds = {
            "step_us": warm_min(take_step, args.calls, args.repeats),
            "energy_us": warm_min(lambda: energy(state, run.monitor.s, run.params),
                                  args.calls, args.repeats),
            "sample_step_us": warm_min(lambda: sampler.sample_step(dt), args.calls, args.repeats),
            "transform_pair_us": transform_seconds(take_step, args.calls, args.repeats),
        }
    report = {name: value * 1e6 for name, value in seconds.items()}
    report.update(modes_per_axis=grid.modes_per_axis, shape=list(grid.shape))
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()

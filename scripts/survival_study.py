#!/usr/bin/env python3
"""Survival-curve study: how the stopping probability moves with delta and
with the size of the initial data.

Builds the run from an INI config, the file `stoldroyd ensemble` takes
(`config.materialize`, which builds the grid, parameters, noise model,
stepper, monitor and initial data), and runs paired ensembles from its initial
data at full and at half amplitude, each member in-process, as `stoldroyd
ensemble` runs them.  Both use the same master seed, so run k sees the same
noise in both.  Prints the survival estimates with Wilson intervals at each of
the config's `[ensemble]` deltas.  The half-amplitude curve should sit at or
above the full one everywhere.
"""
from __future__ import annotations

import argparse
import json
from dataclasses import replace

from stoldroyd.config import load_config, materialize
from stoldroyd.dynamics import FlowState
from stoldroyd.experiments import run_ensemble


def halved(state: FlowState) -> FlowState:
    return FlowState(state.t, replace(state.v, coeffs=0.5 * state.v.coeffs),
                     replace(state.tau, coeffs=0.5 * state.tau.coeffs))


def print_curve(label, result):
    print(f"\n{label}  (n={result.n_runs}, N={result.threshold:g}, "
          f"divergences={result.n_divergences})")
    for delta, p_hat, low, high in zip(result.deltas, result.survival,
                                       result.wilson_low, result.wilson_high):
        print(f"  delta={delta:<6g} survival={p_hat:6.4f}  "
              f"wilson=[{low:6.4f}, {high:6.4f}]")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True,
                        help="INI run configuration; [ensemble] gives runs and deltas")
    parser.add_argument("--runs", type=int, help="ensemble members per curve "
                                                 "(default: the config's n_runs)")
    parser.add_argument("--seed", type=int, help="master seed (default: the config's)")
    parser.add_argument("--out", help="optional JSON file for both curves")
    args = parser.parse_args(argv)

    cfg = load_config(args.config)
    run = materialize(cfg, args.seed)
    kwargs = dict(
        threshold=run.monitor.threshold,
        deltas=cfg.ensemble_deltas,
        n_runs=args.runs if args.runs is not None else cfg.ensemble_n_runs,
        master_seed=run.master_seed,
        s=run.monitor.s,
        randomize_initial=cfg.ensemble_randomize_initial,
        init_alpha=cfg.init_alpha,
        init_s=cfg.s,
    )

    curves = {}
    for label, initial in [("full amplitude", run.initial),
                           ("half amplitude", halved(run.initial))]:
        result = run_ensemble(initial, run.params, run.noise, run.stepper, **kwargs)
        print_curve(label, result)
        curves[label] = result.to_dict()

    full = curves["full amplitude"]["survival"]
    half = curves["half amplitude"]["survival"]
    worst = min(h - f for h, f in zip(half, full))
    print(f"\nsmallest (half - full) survival gap across deltas: {worst:+.4f}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(curves, handle, indent=2)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()

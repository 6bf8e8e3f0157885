"""Command-line front end.

Four commands: ``simulate`` (one path, energy CSV + stopping event JSON),
``ensemble`` (survival study, JSON summary + per-run CSVs), ``refine``
(common-noise cutoff comparison, JSON summary), and ``verify`` (the exact-fact
suite).  Exit codes: 0 success — a run that stops by divergence is still data —
2 for configuration problems, 3 for I/O problems; ``verify`` exits 1 when an
asserted invariant fails.

Every output file carries the config hash and master seed, as header comments
in CSVs and as top-level keys in JSON, so results can always be traced back to
the exact configuration that produced them.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import sys

from .config import (
    RunConfig,
    config_hash,
    load_config,
    materialize,
)
from .experiments import inequality_suite, refinement_study, run_ensemble
from .monitor import write_energy_csv
from .noise import rng_for_run, save_noise_path
from .stepping import simulate


class _CommandError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_run(args):
    if args.config is None:
        raise _CommandError(2, "a config file is required (--config)")
    try:
        cfg = load_config(args.config)
    except OSError as exc:
        raise _CommandError(3, f"cannot read config {args.config}: {exc}") from None
    except ValueError as exc:
        raise _CommandError(2, f"config error: {exc}") from None
    try:
        run = materialize(cfg, args.seed)
    except ValueError as exc:
        raise _CommandError(2, f"config error: {exc}") from None
    return cfg, run


def _ensure_outdir(path: str) -> None:
    if path is None:
        raise _CommandError(2, "an output directory is required (--out)")
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise _CommandError(3, f"cannot create output directory {path}: {exc}") from None


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise _CommandError(3, f"cannot write {path}: {exc}") from None


def _write_json(path: str, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2) + "\n")


def _provenance(cfg: RunConfig, master_seed: int) -> dict:
    """The keys every output file leads with: JSON keys, or CSV header comments."""
    return {"config_hash": config_hash(cfg), "master_seed": master_seed}


def _write_csv(path: str, records, comments: dict) -> None:
    buffer = io.StringIO()
    write_energy_csv(records, buffer, [f"{key} = {value}" for key, value in comments.items()])
    _write_text(path, buffer.getvalue())


def cmd_simulate(args) -> int:
    cfg, run = _load_run(args)
    _ensure_outdir(args.out)
    result = simulate(run.initial, run.params, run.noise, run.stepper, run.monitor,
                      rng=rng_for_run(run.master_seed, 0))
    provenance = _provenance(cfg, run.master_seed)
    _write_csv(os.path.join(args.out, "energy.csv"), result.records,
               {**provenance, "command": "simulate"})
    _write_json(os.path.join(args.out, "event.json"), {
        "schema": "event/1", **provenance, **vars(result.event),
        "n_records": len(result.records)})
    if result.noise_path is not None:
        noise_file = os.path.join(args.out, "noise.npz")
        try:
            save_noise_path(result.noise_path, noise_file)
        except OSError as exc:
            raise _CommandError(3, f"cannot write {noise_file}: {exc}") from None
        _write_json(os.path.join(args.out, "noise.meta.json"), {
            "schema": "noisemeta/1", **provenance, "n_steps": result.noise_path.n_steps})
    print(f"event={result.event.kind} t_stop={result.event.t_stop!r} "
          f"e_n={result.event.e_n!r} records={len(result.records)}")
    print(f"wrote {os.path.join(args.out, 'energy.csv')}")
    return 0


def cmd_ensemble(args) -> int:
    cfg, run = _load_run(args)
    _ensure_outdir(args.out)
    n_runs = args.runs if args.runs is not None else cfg.ensemble_n_runs
    runs_dir = os.path.join(args.out, "runs")
    _ensure_outdir(runs_dir)
    provenance = _provenance(cfg, run.master_seed)

    def sink(index, records):
        _write_csv(os.path.join(runs_dir, f"run_{index:04d}.csv"), records,
                   {**provenance, "run_index": index})

    try:
        result = run_ensemble(
            run.initial, run.params, run.noise, run.stepper,
            threshold=run.monitor.threshold,
            deltas=cfg.ensemble_deltas,
            n_runs=n_runs,
            master_seed=run.master_seed,
            s=run.monitor.s,
            member_data=(cfg.init_alpha, cfg.s) if cfg.ensemble_randomize_initial else None,
            csv_sink=sink,
        )
    except ValueError as exc:
        raise _CommandError(2, f"config error: {exc}") from None

    _write_json(os.path.join(args.out, "ensemble.json"), provenance | result.to_dict())
    for delta, p_hat, low, high in zip(result.deltas, result.survival,
                                       result.wilson_low, result.wilson_high):
        print(f"delta={delta:g} survival={p_hat:.4f} wilson=[{low:.4f}, {high:.4f}]")
    print(f"divergences={result.n_divergences}/{result.n_runs}")
    print(f"wrote {os.path.join(args.out, 'ensemble.json')}")
    return 0


def cmd_refine(args) -> int:
    cfg, run = _load_run(args)
    _ensure_outdir(args.out)
    cutoffs = list(cfg.refine_cutoffs)
    ordered = sorted(cutoffs)
    if ordered != cutoffs:
        print(f"warning: cutoffs {cutoffs} reordered ascending to {ordered}",
              file=sys.stderr)
    try:
        result = refinement_study(
            run.initial.v, run.initial.tau, run.params, run.stepper, ordered, run.noise,
            threshold=run.monitor.threshold,
            n_paths=cfg.refine_n_paths,
            master_seed=run.master_seed,
            s=run.monitor.s,
        )
    except ValueError as exc:
        raise _CommandError(2, f"config error: {exc}") from None
    _write_json(os.path.join(args.out, "refine.json"),
                _provenance(cfg, run.master_seed) | result.to_dict())
    for (low, high), sup_v, sup_tau in zip(result.pairs, result.sup_v, result.sup_tau):
        print(f"pair ({low:g}, {high:g}): sup|dv|={sup_v:.6e} sup|dtau|={sup_tau:.6e}")
    for i in range(1, len(result.pairs)):
        (a, b), (c, d) = result.pairs[i - 1], result.pairs[i]
        ratio = result.sup_v[i] / result.sup_v[i - 1] if result.sup_v[i - 1] else float("nan")
        print(f"ratio ({a:g}, {b:g}) -> ({c:g}, {d:g}): sup|dv| {ratio:.4f}")
    rate = "n/a" if result.decay_rate is None else f"{result.decay_rate:.3f}"
    print(f"fitted decay rate: {rate}")
    print(f"wrote {os.path.join(args.out, 'refine.json')}")
    return 0


def cmd_verify(args) -> int:
    seed = args.seed
    if seed is None and args.config is not None:
        try:
            seed = load_config(args.config).master_seed
        except OSError as exc:
            raise _CommandError(3, f"cannot read config {args.config}: {exc}") from None
        except ValueError as exc:
            raise _CommandError(2, f"config error: {exc}") from None
    if seed is None:
        seed = 0
    trials = args.runs if args.runs is not None else 100
    try:
        report = inequality_suite(seed, trials)
    except ValueError as exc:
        raise _CommandError(2, f"config error: {exc}") from None
    for name, violation in report.max_violation.items():
        verdict = "PASS" if violation <= report.tolerance else "FAIL"
        print(f"{verdict}  {name:28s} max violation {violation:.3e}")
    print(f"suite {'PASSED' if report.passed else 'FAILED'} "
          f"({report.trials} trials, tolerance {report.tolerance:g})")
    if args.out is not None:
        _ensure_outdir(args.out)
        _write_json(os.path.join(args.out, "verify.json"), report.to_dict())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stoldroyd",
        description="Pseudo-spectral simulator for a stochastic viscoelastic "
                    "fluid system with Wiener and jump forcing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out=True, runs=None):
        p.add_argument("--config", help="INI configuration file")
        p.add_argument("--out", help="output directory" if needs_out else
                       "optional output directory for the JSON report")
        if runs is not None:  # only the commands that read it offer --runs
            p.add_argument("--runs", type=int, default=None, help=f"override the number of {runs}")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and ignored (must be >= 1): every command runs "
                            "in-process")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed, overriding the config")
        p.set_defaults(parser=p)  # the parser that reports this command's stray arguments

    p_sim = sub.add_parser("simulate", help="run one path and write its diagnostics")
    common(p_sim)
    p_sim.set_defaults(handler=cmd_simulate)

    p_ens = sub.add_parser("ensemble", help="estimate the stopping-time survival curve")
    common(p_ens, runs="runs")
    p_ens.set_defaults(handler=cmd_ensemble)

    p_ref = sub.add_parser("refine", help="compare truncation cutoffs under common noise")
    common(p_ref)
    p_ref.set_defaults(handler=cmd_refine)

    p_ver = sub.add_parser("verify", help="run the exact-identity verification suite")
    common(p_ver, needs_out=False, runs="trials")
    p_ver.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        if args.threads < 1:
            raise _CommandError(2, f"threads must be >= 1, got {args.threads}")
        return args.handler(args)
    except _CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())

"""Workload definitions, generated configs, and output checks.

Each workload is one ``stoldroyd`` subcommand driven by an INI file that is
generated from the workload seed (written as ``master_seed``); the program
sees nothing else.  ``check_repeat`` inspects one command's outputs plus the
final states captured from ``simulate``/``step`` return values and reports,
per operation (a path: 1 for desk, one per ensemble member, one per refine
path), whether it passed.  Operations that fail a check count in
``failed_frac``.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

DEFAULT_SEED = 424242

# Output invariants on final states.
DEFECT_TOLERANCE = 1e-10
# Reference comparison on the default seed.  Wide enough to admit a rewrite
# whose trajectories drift by <= 1e-12 relative (reordered floating-point
# sums), narrow enough to catch any change in the dynamics.
REFERENCE_RTOL = 1e-8
# Refine results are norms of differences between cutoffs, about 1e-6 of the
# fields themselves, so a state drift of 1e-12 relative reaches them as about
# 1e-6 relative (2e-6 for the squared-gradient integral).
REFERENCE_RTOL_REFINE = 1e-4

_COMMON_PARAMS = """\
[params]
nu = 0.5
a = 0.2
b = 0.5
mu1 = 1.0
mu2 = 1.0
nonlinear = true
"""

_README_NOISE = """\
[noise]
lambda0 = 0.1
j_modes = 8
c0 = 0.5
c1 = 0.2
c_h = 0.3
jump_rate = 2.0
gamma0 = 0.1
"""

# (full, tiny) sizes.  Full sizes are what the benchmark measures; tiny sizes
# keep the same structure and only exist for the benchmark's own tests.
SIZES = {
    "desk_simulate": {"full": {"horizon": 0.12}, "tiny": {"horizon": 0.005}},
    "survival_ensemble": {
        "full": {"horizon": 0.2, "n_runs": 30, "deltas": "0.02, 0.05, 0.1, 0.15, 0.2"},
        "tiny": {"horizon": 0.005, "n_runs": 30, "deltas": "0.002, 0.005"},
    },
    "refine_96": {"full": {"horizon": 0.02, "n_paths": 2},
                  "tiny": {"horizon": 0.002, "n_paths": 1}},
}


def _desk(seed: int, horizon: float) -> str:
    return f"""\
[grid]
dim = 2
modes_per_axis = 64
truncation_radius = 16

{_COMMON_PARAMS}
{_README_NOISE}
[initial]
v_scale = 0.6
tau_scale = 0.6

[stepper]
dt = 0.001
horizon = {horizon!r}
record_noise = true

[monitor]
threshold = 1000.0

[seeds]
master_seed = {seed}
"""


def _ensemble(seed: int, horizon: float, n_runs: int, deltas: str) -> str:
    return f"""\
[grid]
dim = 2
modes_per_axis = 16
truncation_radius = 5

{_COMMON_PARAMS}
{_README_NOISE}
[initial]
v_scale = 0.8
tau_scale = 0.8

[stepper]
dt = 0.001
horizon = {horizon!r}

[monitor]
threshold = 1.5

[seeds]
master_seed = {seed}

[ensemble]
n_runs = {n_runs}
deltas = {deltas}
"""


def _refine(seed: int, horizon: float, n_paths: int) -> str:
    # Noise as in acceptance criterion 6; smooth data (alpha = 6) so the
    # truncated tails are small.
    return f"""\
[grid]
dim = 2
modes_per_axis = 96
truncation_radius = 32

{_COMMON_PARAMS}
[noise]
lambda0 = 0.05
j_modes = 8
c0 = 0.3
c1 = 0.1
c_h = 0.2
jump_rate = 1.0
gamma0 = 0.05

[initial]
alpha = 6.0
v_scale = 0.6
tau_scale = 0.6

[stepper]
dt = 0.001
horizon = {horizon!r}

[monitor]
threshold = 1000.0

[seeds]
master_seed = {seed}

[refine]
cutoffs = 8, 16, 32
n_paths = {n_paths}
"""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    builder: object

    def config_text(self, seed: int, scale: str = "full") -> str:
        return self.builder(seed, **SIZES[self.name][scale])

    def argv(self, config_path: str, out_dir: str) -> list[str]:
        return [self.command, "--config", config_path, "--out", out_dir, "--threads", "1"]


WORKLOADS = {
    "desk_simulate": Workload("desk_simulate", "simulate", _desk),
    "survival_ensemble": Workload("survival_ensemble", "ensemble", _ensemble),
    "refine_96": Workload("refine_96", "refine", _refine),
}


# ---------------------------------------------------------------------------
# final-state capture
# ---------------------------------------------------------------------------

class Capture:
    """Rebinds ``simulate`` and ``step`` in every package module that imported
    them, keeping what they return: one final state per ``simulate`` call,
    and the last state per grid for ``step`` calls made from elsewhere (the
    refine lockstep loop).  Each wrapper calls whatever was bound when it was
    installed, so it stacks over the tracer."""

    def __init__(self, package_modules: list):
        self.modules = package_modules
        self.simulated: list = []  # (final_state, event kind)
        self.last_step: dict = {}  # id(grid) -> state; the state keeps its grid alive
        self._saved: list = []
        self._in_simulate = 0

    def _simulate_hook(self, inner):
        def hook(*args, **kwargs):
            self._in_simulate += 1
            try:
                result = inner(*args, **kwargs)
            finally:
                self._in_simulate -= 1
            final = getattr(result, "final_state", None)
            if final is not None:
                self.simulated.append((final, result.event.kind))
            return result
        return hook

    def _step_hook(self, inner):
        def hook(*args, **kwargs):
            state = inner(*args, **kwargs)
            grid = getattr(getattr(state, "v", None), "grid", None)
            if not self._in_simulate and grid is not None:
                self.last_step[id(grid)] = state
            return state
        return hook

    def __enter__(self):
        for name, make in (("simulate", self._simulate_hook), ("step", self._step_hook)):
            current = {}
            for mod in self.modules:
                obj = vars(mod).get(name)
                if obj is not None and callable(obj):
                    current.setdefault(id(obj), (obj, []))[1].append(mod)
            for obj, mods in current.values():
                hook = make(obj)
                for mod in mods:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, hook)
        return self

    def __exit__(self, *exc):
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()
        return False

    def final_states(self) -> list:
        """Final states of every path, with the event kind when known."""
        states = list(self.simulated)
        states.extend((s, None) for s in self.last_step.values())
        return states


def state_problems(state, kind, spectral) -> list[str]:
    """Invariant violations of one final state (empty when healthy).

    A non-finite state is healthy only when the run recorded it as a
    divergence; defects are then meaningless and not checked."""
    import numpy as np

    v, tau = state.v.coeffs, state.tau.coeffs
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(tau))):
        return [] if kind == "divergence" else [f"non-finite final state (event {kind})"]
    problems = []
    div = spectral.divergence_defect(state.v)
    if not div <= DEFECT_TOLERANCE:
        problems.append(f"divergence defect {div:.3e}")
    outside = float(np.max(np.abs(v[..., ~state.v.grid.ball_mask]), initial=0.0))
    if outside != 0.0:
        problems.append(f"velocity mass outside the ball {outside:.3e}")
    for label, f in (("v", state.v), ("tau", state.tau)):
        herm = spectral.hermitian_defect(f)
        if not herm <= DEFECT_TOLERANCE:
            problems.append(f"hermitian defect of {label} {herm:.3e}")
    sym = spectral.symmetry_defect(state.tau)
    if sym != 0.0:
        problems.append(f"stress symmetry defect {sym:.3e}")
    return problems


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def read_energy_csv(path: str) -> list[list[float]]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = [r for r in csv.reader(line for line in handle if not line.startswith("#"))]
    header, body = rows[0], rows[1:]
    if header[-2:] != ["E_N", "sym_defect"] or header[0] != "t":
        raise ValueError(f"unexpected columns {header}")
    return [[float(x) for x in row] for row in body]


def output_digest(out_dir: str) -> str:
    """SHA-256 over every output file's relative path and bytes."""
    digest = hashlib.sha256()
    for root, dirs, files in os.walk(out_dir):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            digest.update(os.path.relpath(path, out_dir).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _energy_problems(rows: list[list[float]], threshold: float) -> list[str]:
    """Checks on one energy series: symmetric stress at every sample, and a
    series that ends exactly where its stopping rule says."""
    problems = []
    if not rows:
        return ["empty energy series"]
    if any(r[-1] != 0.0 for r in rows):
        problems.append("nonzero sym_defect in energy series")
    e_n = [r[-2] for r in rows]
    if any(not math.isfinite(e) or e > threshold for e in e_n[:-1]):
        problems.append("energy series continues past a stop")
    return problems


@dataclass
class RepeatCheck:
    """Outcome of one command: operations attempted, which of them failed
    (or all, when a check on the whole command failed), member-steps
    completed, a digest of its outputs, and what went wrong."""

    attempted: int
    steps: int = 0
    digest: str = ""
    bad: set = field(default_factory=set)
    whole: bool = False
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.attempted if self.whole else len(self.bad)

    def fail_all(self, problem: str) -> None:
        self.whole = True
        self.problems.append(problem)


def expected_ops(workload: str, cfg: dict) -> int:
    return {"desk_simulate": 1, "survival_ensemble": cfg.get("n_runs", 1),
            "refine_96": cfg.get("n_paths", 1)}[workload]


def check_repeat(workload: str, out_dir: str, exit_code: int, capture: Capture | None,
                 spectral, cfg: dict, reference: dict | None) -> RepeatCheck:
    """Check one command's outputs; ``cfg`` comes from ``config_facts``;
    ``reference`` is compared when given."""
    if exit_code != 0:
        check = RepeatCheck(attempted=expected_ops(workload, cfg))
        check.fail_all(f"command exited {exit_code}")
        return check
    try:
        check = _CHECKS[workload](out_dir, cfg)
        if reference is not None:
            for op, why in compare_reference(workload, reference_of(workload, out_dir),
                                             reference).items():
                check.bad.add(op)
                check.problems.append(f"path {op} differs from the reference: {why}")
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        check = RepeatCheck(attempted=expected_ops(workload, cfg))
        check.fail_all(f"unreadable outputs: {type(exc).__name__}: {exc}")
        return check
    check.digest = output_digest(out_dir)
    if capture is not None:
        _check_states(check, capture, spectral, workload, cfg)
    return check


def _check_states(check: RepeatCheck, capture: Capture, spectral, workload: str, cfg: dict) -> None:
    states = capture.final_states()
    per_op = len(cfg["cutoffs"]) if workload == "refine_96" else 1
    if len(states) != check.attempted * per_op:
        check.fail_all(f"captured {len(states)} final states, expected {check.attempted * per_op}")
        return
    for i, (state, kind) in enumerate(states):
        for problem in state_problems(state, kind, spectral):
            check.bad.add(i // per_op)
            check.problems.append(f"path {i // per_op}: {problem}")


def _close(a, b, rtol: float, atol: float = 0.0) -> bool:
    if a is None or b is None:
        return a is b
    if not (math.isfinite(a) and math.isfinite(b)):
        return repr(a) == repr(b)
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def _read_json(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name), encoding="utf-8") as handle:
        return json.load(handle)


def _check_desk(out_dir: str, cfg: dict) -> RepeatCheck:
    rows = read_energy_csv(os.path.join(out_dir, "energy.csv"))
    event = _read_json(out_dir, "event.json")
    check = RepeatCheck(attempted=1, steps=len(rows) - 1)
    problems = _energy_problems(rows, cfg["threshold"])
    if event["n_records"] != len(rows):
        problems.append(f"event n_records {event['n_records']} != {len(rows)} rows")
    if event["kind"] == "horizon" and abs(rows[-1][0] - event["t_stop"]) > 1e-9:
        problems.append("horizon event does not end the series")
    if not os.path.isfile(os.path.join(out_dir, "noise.npz")):
        problems.append("recorded noise path missing")
    if problems:
        check.bad.add(0)
        check.problems.extend(problems)
    return check


def _ensemble_runs(out_dir: str) -> tuple[dict, list[dict]]:
    """ensemble.json plus each member's energy series, stopping time and kind
    (the kind follows from the last energy sample of a stopped run)."""
    payload = _read_json(out_dir, "ensemble.json")
    runs = []
    for i in range(payload["n_runs"]):
        rows = read_energy_csv(os.path.join(out_dir, "runs", f"run_{i:04d}.csv"))
        rho, last = payload["rho"][i], rows[-1][-2]
        if rho is None:
            kind = "horizon"
        elif math.isfinite(last) and last <= 1e12:
            kind = "threshold_N"
        else:
            kind = "divergence"
        runs.append({"rho": rho, "kind": kind, "final_e_n": last, "rows": rows})
    return payload, runs


def _check_ensemble(out_dir: str, cfg: dict) -> RepeatCheck:
    payload, runs = _ensemble_runs(out_dir)
    n = payload["n_runs"]
    check = RepeatCheck(attempted=n, steps=sum(len(r["rows"]) - 1 for r in runs))
    survival = payload["survival"]
    if any(a < b for a, b in zip(survival, survival[1:])):
        check.fail_all(f"survival curve increases: {survival}")
    rho = [math.inf if r["rho"] is None else r["rho"] for r in runs]
    if [sum(1 for r in rho if r > d) / n for d in payload["deltas"]] != survival:
        check.fail_all("survival does not match per-run stopping times")
    if n != cfg["n_runs"]:
        check.fail_all(f"ensemble ran {n} members, config asks {cfg['n_runs']}")
    for i, run in enumerate(runs):
        rows = run["rows"]
        problems = _energy_problems(rows, cfg["threshold"])
        if run["rho"] is None and abs(rows[-1][0] - cfg["horizon"]) > 1e-9:
            problems.append("survivor does not reach the horizon")
        if run["rho"] is not None and rows[-1][0] != run["rho"]:
            problems.append("stopping time does not end the series")
        if problems:
            check.bad.add(i)
            check.problems.extend(f"run {i}: {p}" for p in problems)
    return check


def _refine_values(payload: dict, p: int) -> list[float]:
    pairs = len(payload["cutoffs"]) - 1
    return [payload[key][pair][p]
            for key in ("sup_v_paths", "sup_tau_paths", "grad_integral_paths")
            for pair in range(pairs)]


def _check_refine(out_dir: str, cfg: dict) -> RepeatCheck:
    payload = _read_json(out_dir, "refine.json")
    n_paths, k = payload["n_paths"], len(payload["cutoffs"])
    check = RepeatCheck(attempted=n_paths)
    if n_paths != cfg["n_paths"] or payload["cutoffs"] != cfg["cutoffs"]:
        check.fail_all("refine.json does not describe the configured study")
    for p, end in enumerate(payload["window_ends"]):
        check.steps += k * round(end / cfg["dt"])
        problems = []
        if abs(end - cfg["horizon"]) > 1e-9:
            problems.append(f"window closed at {end}, before the horizon {cfg['horizon']}")
        if not all(math.isfinite(x) for x in _refine_values(payload, p)):
            problems.append("non-finite sup-difference")
        if problems:
            check.bad.add(p)
            check.problems.extend(f"path {p}: {x}" for x in problems)
    return check


_CHECKS = {"desk_simulate": _check_desk, "survival_ensemble": _check_ensemble,
           "refine_96": _check_refine}


# ---------------------------------------------------------------------------
# reference (default seed only)
# ---------------------------------------------------------------------------

def reference_of(workload: str, out_dir: str) -> dict:
    """The parts of one command's outputs that the reference pins."""
    if workload == "desk_simulate":
        return {"rows": read_energy_csv(os.path.join(out_dir, "energy.csv")),
                "kind": _read_json(out_dir, "event.json")["kind"]}
    if workload == "survival_ensemble":
        _, runs = _ensemble_runs(out_dir)
        return {"runs": [{k: r[k] for k in ("rho", "kind", "final_e_n")} for r in runs]}
    payload = _read_json(out_dir, "refine.json")
    return {"paths": [_refine_values(payload, p) for p in range(payload["n_paths"])],
            "window_ends": payload["window_ends"]}


def compare_reference(workload: str, got: dict, ref: dict) -> dict[int, str]:
    """Operations whose results leave the reference tolerance -> why."""
    if workload == "desk_simulate":
        rows, ref_rows = got["rows"], ref["rows"]
        if got["kind"] != ref["kind"] or len(rows) != len(ref_rows):
            return {0: f"event {got['kind']} with {len(rows)} records, reference "
                       f"{ref['kind']} with {len(ref_rows)}"}
        for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
            if not all(_close(a, b, REFERENCE_RTOL) for a, b in zip(row, ref_row)):
                return {0: f"energy row {i} {row} vs reference {ref_row}"}
        return {}
    if workload == "survival_ensemble":
        out = {}
        for i, (run, ref_run) in enumerate(zip(got["runs"], ref["runs"])):
            if (run["kind"] != ref_run["kind"] or run["rho"] != ref_run["rho"]
                    or not _close(run["final_e_n"], ref_run["final_e_n"], REFERENCE_RTOL)):
                out[i] = f"{run} vs reference {ref_run}"
        if len(got["runs"]) != len(ref["runs"]):
            out.update({i: "member count differs from reference" for i in range(len(got["runs"]))})
        return out
    out = {}
    for p, (values, ref_values) in enumerate(zip(got["paths"], ref["paths"])):
        if (got["window_ends"][p] != ref["window_ends"][p] or len(values) != len(ref_values)
                or not all(_close(a, b, REFERENCE_RTOL_REFINE)
                           for a, b in zip(values, ref_values))):
            out[p] = f"sup-differences {values} vs reference {ref_values}"
    return out


def config_facts(cfg_obj, workload: str) -> dict:
    """Check parameters read from the loaded RunConfig."""
    facts = {"threshold": cfg_obj.threshold, "dt": cfg_obj.dt,
             "horizon": math.ceil(cfg_obj.horizon / cfg_obj.dt - 1e-9) * cfg_obj.dt}
    if workload == "survival_ensemble":
        facts["n_runs"] = cfg_obj.ensemble_n_runs
    if workload == "refine_96":
        facts["n_paths"] = cfg_obj.refine_n_paths
        facts["cutoffs"] = [float(c) for c in cfg_obj.refine_cutoffs]
    return facts

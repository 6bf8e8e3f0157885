"""Per-layer metrics computed from the spans of traced commands.

Layers are the package's modules; a span's layer is the module that defines
the function (``numpy.fft`` calls form their own layer below ``spectral``).
Self time is a span's duration minus the time its child spans cover.
Groups of functions are timed inclusively over their outermost spans, so a
group member that calls another is not counted twice.  "Per step" means per
accepted member-step (ensemble members and refine cutoffs each count).
"""
from __future__ import annotations

import statistics

import numpy as np

# name -> unit, in the order they are reported.
PER_LAYER = {
    "spectral.fft_calls_per_step": "count",
    "spectral.fft_mb_per_step": "MB",
    "spectral.fft_ms_per_step": "ms",
    "spectral.calls_per_step": "count",
    "spectral.self_ms_per_step": "ms",
    "dynamics.drift_ms_per_step": "ms",
    "dynamics.self_ms_per_step": "ms",
    "noise.sample_ms_per_step": "ms",
    "noise.replay_ms_per_step": "ms",
    "noise.apply_ms_per_step": "ms",
    "stepping.step_ms_p50": "ms",
    "stepping.step_ms_p99": "ms",
    "stepping.self_ms_per_step": "ms",
    "monitor.energy_ms_per_step": "ms",
    "monitor.csv_ms_per_run": "ms",
    "experiments.self_ms_per_step": "ms",
    "experiments.first_csv_s": "s",
    "config.setup_ms": "ms",
    "cli.self_ms": "ms",
    "bench.trace_overhead_frac": "ratio",
}

_GROUPS = {
    "fft": lambda label: label.startswith("numpy.fft."),
    "drift": lambda label: label in ("dynamics.velocity_drift", "dynamics.stress_drift"),
    "sample": lambda label: label == "noise.NoiseSampler.sample_step",
    "replay": lambda label: label in ("noise.NoisePath.step_noise", "noise.NoisePath.record"),
    "apply": lambda label: label.startswith(("noise.SigmaInstance.", "noise.StressNoiseInstance.",
                                             "noise.JumpOperator.")),
    "step": lambda label: label == "stepping.step",
    "energy": lambda label: label in ("monitor.energy", "monitor.gradient_energy",
                                      "monitor.detect_stop"),
    "csv": lambda label: label == "monitor.write_energy_csv",
    "setup": lambda label: label in ("config.load_config", "config.materialize"),
    "main": lambda label: label == "cli.main",
}
_SELF_LAYERS = ("spectral", "dynamics", "stepping", "experiments", "cli")


def _outermost(member: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Spans in the group that have no ancestor in the group."""
    has_parent = parent >= 0
    up = np.where(has_parent, parent, 0)
    nested = np.zeros(member.shape, dtype=bool)
    while True:  # parents precede children, so depth bounds the iterations
        new = has_parent & (member[up] | nested[up])
        if np.array_equal(new, nested):
            return member & ~nested
        nested = new


def repeat_stats(tracer) -> dict:
    """Raw sums over the spans of one traced command."""
    name = np.asarray(tracer.name)
    parent = np.asarray(tracer.parent)
    start = np.asarray(tracer.start)
    dur = np.asarray(tracer.end) - start
    child = np.zeros_like(dur)
    np.add.at(child, parent[parent >= 0], dur[parent >= 0])
    self_time = dur - child
    layer_of_label = np.array([label.split(".")[0] for label in tracer.labels])
    layer = layer_of_label[name] if len(name) else np.array([], dtype=str)

    out = {"fft_bytes": tracer.fft_bytes}
    for key, test in _GROUPS.items():
        member = np.array([test(label) for label in tracer.labels], dtype=bool)[name] \
            if len(name) else np.zeros(0, dtype=bool)
        top = _outermost(member, parent)
        out[f"{key}_calls"] = int(np.count_nonzero(member))
        out[f"{key}_ms"] = float(dur[top].sum()) * 1e3
        if key == "step":
            out["step_ms_each"] = (dur[top] * 1e3).tolist()
        if key == "main":
            main = (float(start[member][0]), float(start[member][0] + dur[member][0]))
        if key == "csv":
            csv_start = float(start[member][0]) if member.any() else None
    # Start of the command to its first CSV; the whole command when it writes none.
    out["first_csv_s"] = (csv_start if csv_start is not None else main[1]) - main[0]
    for lay in _SELF_LAYERS:
        out[f"{lay}_self_ms"] = float(self_time[layer == lay].sum()) * 1e3
    out["spectral_calls"] = int(np.count_nonzero(layer == "spectral"))
    return out


def layer_metrics(stats: list[dict], steps: int, traced_walls: list[float],
                  untraced_walls: list[float]) -> dict:
    """Per-layer metrics over all traced commands of one run."""
    def total(key):
        return sum(s[key] for s in stats)

    def per_step(key):
        return total(key) / steps

    step_ms = sorted(x for s in stats for x in s["step_ms_each"])
    csv_calls = total("csv_calls")

    values = {
        "spectral.fft_calls_per_step": per_step("fft_calls"),
        # bytes / steps first: a ratio of integers, so it repeats exactly however
        # many traced commands the run made.
        "spectral.fft_mb_per_step": total("fft_bytes") / steps / 1e6,
        "spectral.fft_ms_per_step": per_step("fft_ms"),
        "spectral.calls_per_step": per_step("spectral_calls"),
        "spectral.self_ms_per_step": per_step("spectral_self_ms"),
        "dynamics.drift_ms_per_step": per_step("drift_ms"),
        "dynamics.self_ms_per_step": per_step("dynamics_self_ms"),
        "noise.sample_ms_per_step": per_step("sample_ms"),
        "noise.replay_ms_per_step": per_step("replay_ms"),
        "noise.apply_ms_per_step": per_step("apply_ms"),
        "stepping.step_ms_p50": _quantile(step_ms, 0.50),
        "stepping.step_ms_p99": _quantile(step_ms, 0.99),
        "stepping.self_ms_per_step": per_step("stepping_self_ms"),
        "monitor.energy_ms_per_step": per_step("energy_ms"),
        "monitor.csv_ms_per_run": total("csv_ms") / csv_calls if csv_calls else 0.0,
        "experiments.self_ms_per_step": per_step("experiments_self_ms"),
        "experiments.first_csv_s": statistics.median(s["first_csv_s"] for s in stats),
        "config.setup_ms": statistics.median(s["setup_ms"] for s in stats),
        "cli.self_ms": statistics.median(s["cli_self_ms"] for s in stats),
        "bench.trace_overhead_frac": (statistics.median(traced_walls)
                                      / statistics.median(untraced_walls) - 1.0),
    }
    return {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER.items()}


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile (0 when there are no samples)."""
    if not sorted_values:
        return 0.0
    rank = max(1, int(np.ceil(q * len(sorted_values))))
    return sorted_values[rank - 1]

"""Energy functional, stopping-time detection, and time-series output.

The monitored quantity is

    E_N(t) = mu2 ||v||_{H^s}^2 + mu1 ||tau||_{H^s}^2
             + 2 mu2 nu * integral_0^t ||grad v||_{H^s}^2 dr,

with the dissipation integral accumulated by the left-endpoint rule (matching
the explicit placement of the gradient term in the stepping loop).  The first
sample time with E_N strictly above the threshold N is the stopping time; it
is resolved to one step.  NaN/Inf or E_N beyond a hard cap is recorded as a
separate `divergence` event so blow-up statistics never conflate numerical
overflow with a genuine threshold crossing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .dynamics import FlowState, PhysicalParams
from .spectral import _sq_amplitude, symmetry_defect

__all__ = [
    "MonitorConfig",
    "EnergyRecord",
    "StoppingEvent",
    "energy",
    "energy_records",
    "detect_stop",
    "CSV_COLUMNS",
    "write_energy_csv",
]

CSV_COLUMNS = ("t", "v_hs2", "tau_hs2", "gradv_hs2", "cum_diss", "E_N", "sym_defect")

DIVERGENCE_CAP = 1e12


@dataclass(frozen=True)
class MonitorConfig:
    """Threshold N for the stopping time and the Sobolev index it monitors."""

    threshold: float
    s: float = 2.0

    def __post_init__(self):
        if not self.threshold > 0:
            raise ValueError(f"threshold must be positive, got {self.threshold}")


@dataclass(frozen=True)
class EnergyRecord:
    t: float
    v_hs2: float
    tau_hs2: float
    gradv_hs2: float
    cum_diss: float
    e_n: float
    sym_defect: float

    @property
    def finite(self) -> bool:
        return all(
            math.isfinite(x)
            for x in (self.v_hs2, self.tau_hs2, self.gradv_hs2, self.cum_diss, self.e_n)
        )


@dataclass(frozen=True)
class StoppingEvent:
    kind: str  # "threshold_N" | "divergence" | "horizon"
    t_stop: float
    e_n: float


def energy(state: FlowState, s: float, params: PhysicalParams, cum_diss: float = 0.0,
           w: np.ndarray | None = None) -> EnergyRecord:
    """One energy sample; `cum_diss` is the dissipation integral accumulated
    so far by the caller's quadrature, `w` the grid's (1+|xi|^2)^s if known.
    Each field's squared amplitude is formed once and read by both its sums;
    gradv_hs2 = ||grad v||_{H^s}^2 via the exact multiplier |xi|^2 (1+|xi|^2)^s."""
    grid = state.v.grid
    w = (1.0 + grid.xi_sq) ** s if w is None else w
    wv = w * _sq_amplitude(grid, state.v.coeffs)
    tau_amp = _sq_amplitude(grid, state.tau.coeffs)
    v_hs2 = float(wv.sum())
    tau_hs2 = float((w * tau_amp).sum())
    gradv_hs2 = float((grid.xi_sq * wv).sum())
    e_n = params.mu2 * v_hs2 + params.mu1 * tau_hs2 + 2.0 * params.mu2 * params.nu * cum_diss
    return EnergyRecord(
        t=state.t,
        v_hs2=v_hs2,
        tau_hs2=tau_hs2,
        gradv_hs2=gradv_hs2,
        cum_diss=cum_diss,
        e_n=e_n,
        sym_defect=symmetry_defect(state.tau, float(tau_amp.sum())),
    )


def energy_records(
    states: Iterable[FlowState], s: float, params: PhysicalParams, dt: float
) -> Iterator[tuple[FlowState, EnergyRecord]]:
    """Pair each state of a trajectory, pulled lazily, with its energy
    record; the dissipation integral accumulates by the left-endpoint rule."""
    cum_diss = gradv_hs2 = 0.0
    grid = w = None
    for state in states:
        if state.v.grid is not grid:  # the weight (1+|xi|^2)^s, once per grid
            grid, w = state.v.grid, (1.0 + state.v.grid.xi_sq) ** s
        rec = energy(state, s, params, cum_diss + dt * gradv_hs2, w)
        cum_diss, gradv_hs2 = rec.cum_diss, rec.gradv_hs2
        yield state, rec


def detect_stop(records: Sequence[EnergyRecord], threshold: float) -> StoppingEvent | None:
    """First record breaking the run: divergence dominates at a sample where
    both fire; None means survival through the whole series."""
    if not threshold > 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    for rec in records:
        if not rec.finite or rec.e_n > DIVERGENCE_CAP:
            return StoppingEvent(kind="divergence", t_stop=rec.t, e_n=rec.e_n)
        if rec.e_n > threshold:  # strict: equality survives
            return StoppingEvent(kind="threshold_N", t_stop=rec.t, e_n=rec.e_n)
    return None


def write_energy_csv(
    records: Iterable[EnergyRecord],
    stream: TextIO,
    header_comments: Sequence[str] = (),
) -> None:
    """Write the series with the fixed column order; floats use repr so a
    rerun with the same seed is byte-identical."""
    for line in header_comments:
        stream.write(f"# {line}\n")
    stream.write(",".join(CSV_COLUMNS) + "\n")
    for rec in records:
        row = (rec.t, rec.v_hs2, rec.tau_hs2, rec.gradv_hs2, rec.cum_diss, rec.e_n, rec.sym_defect)
        stream.write(",".join(repr(x) for x in row) + "\n")

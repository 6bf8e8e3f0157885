"""Energy functional, stopping-time detection, and time-series output.

The monitored quantity is

    E_N(t) = mu2 ||v||_{H^s}^2 + mu1 ||tau||_{H^s}^2
             + 2 mu2 nu * integral_0^t ||grad v||_{H^s}^2 dr,

with the dissipation integral accumulated by the left-endpoint rule (matching
the explicit placement of the gradient term in the stepping loop).  The first
sample time with E_N strictly above the threshold N is the stopping time; it
is resolved to one step.  NaN/Inf or E_N beyond a hard cap is recorded as a
separate `divergence` event so blow-up statistics never conflate numerical
overflow with a genuine threshold crossing.  A record is one `spectral.sq_mode_sum`
per field, the package's one squared mode sum, on weights built once per grid
(`spectral.hs_weights`), so a column has the bits of the same sum taken by
`hs_norm`, refine or verify; its symmetry column skips the formula where it reads
exactly 0.0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, TextIO

from .dynamics import FlowState, PhysicalParams
from .spectral import hs_weights, sq_mode_sum, symmetry_defect

__all__ = [
    "MonitorConfig",
    "EnergyRecord",
    "StoppingEvent",
    "energy",
    "energy_records",
    "stop_event",
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
        isfinite = math.isfinite
        return (isfinite(self.v_hs2) and isfinite(self.tau_hs2) and isfinite(self.gradv_hs2)
                and isfinite(self.cum_diss) and isfinite(self.e_n))


@dataclass(frozen=True)
class StoppingEvent:
    kind: str  # "threshold_N" | "divergence" | "horizon"
    t_stop: float
    e_n: float


def energy(state: FlowState, s: float, params: PhysicalParams, cum_diss: float = 0.0,
           w: tuple | None = None) -> EnergyRecord:
    """One energy sample; `cum_diss` is the dissipation integral accumulated so far
    by the caller's quadrature, `w` the grid's `hs_weights` if known.  One
    `sq_mode_sum` of v gives v_hs2 and gradv_hs2 = ||grad v||_{H^s}^2, one of tau
    gives tau_hs2."""
    tau = state.tau.coeffs
    w = hs_weights(state.v.grid, s) if w is None else w
    v_hs2, gradv_hs2 = sq_mode_sum(state.v.coeffs, w, grad=True)
    tau_hs2 = sq_mode_sum(tau, w)
    e_n = params.mu2 * v_hs2 + params.mu1 * tau_hs2 + 2.0 * params.mu2 * params.nu * cum_diss
    # equal finite bits make every difference +0.0, so the formula would read 0.0
    symmetric = math.isfinite(tau_hs2) and tau.tobytes() == tau.swapaxes(0, 1).tobytes()
    return EnergyRecord(state.t, v_hs2, tau_hs2, gradv_hs2, cum_diss, e_n,
                        0.0 if symmetric else symmetry_defect(state.tau))


def energy_records(
    states: Iterable[FlowState], s: float, params: PhysicalParams, dt: float
) -> Iterator[tuple[FlowState, EnergyRecord]]:
    """Pair each state of a trajectory, pulled lazily, with its energy
    record; the dissipation integral accumulates by the left-endpoint rule."""
    cum_diss = gradv_hs2 = 0.0
    grid = w = None
    for state in states:
        if state.v.grid is not grid:  # the weights, once per grid
            grid, w = state.v.grid, hs_weights(state.v.grid, s)
        rec = energy(state, s, params, cum_diss + dt * gradv_hs2, w)
        cum_diss, gradv_hs2 = rec.cum_diss, rec.gradv_hs2
        yield state, rec


def stop_event(rec: EnergyRecord, threshold: float) -> StoppingEvent | None:
    """The stop rule, record by record: the event `rec` breaks the run with, divergence
    dominating where both fire; None if the run goes on.  `simulate` stops at the first
    record that breaks it, and refine closes its window at the first row that holds one."""
    if not rec.finite or rec.e_n > DIVERGENCE_CAP:
        return StoppingEvent(kind="divergence", t_stop=rec.t, e_n=rec.e_n)
    if rec.e_n > threshold:  # strict: equality survives
        return StoppingEvent(kind="threshold_N", t_stop=rec.t, e_n=rec.e_n)
    return None


def write_energy_csv(records: Iterable[EnergyRecord], stream: TextIO,
                     header_comments: Sequence[str] = ()) -> None:
    """Write the series with the fixed column order; floats use repr so a
    rerun with the same seed is byte-identical."""
    for line in header_comments:
        stream.write(f"# {line}\n")
    stream.write(",".join(CSV_COLUMNS) + "\n")
    for rec in records:
        row = (rec.t, rec.v_hs2, rec.tau_hs2, rec.gradv_hs2, rec.cum_diss, rec.e_n, rec.sym_defect)
        stream.write(",".join(map(repr, row)) + "\n")

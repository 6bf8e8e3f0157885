"""Energy functional, stopping-time detection, and time-series output.

The monitored quantity is

    E_N(t) = mu2 ||v||_{H^s}^2 + mu1 ||tau||_{H^s}^2
             + 2 mu2 nu * integral_0^t ||grad v||_{H^s}^2 dr,

with the dissipation integral accumulated by the left-endpoint rule (matching
the explicit placement of the gradient term in the stepping loop).  The first
sample time with E_N strictly above the threshold N is the stopping time; it
is resolved to one step.  NaN/Inf or E_N beyond a hard cap is recorded as a
separate `divergence` event so blow-up statistics never conflate numerical
overflow with a genuine threshold crossing.  A record is one weighted reduction
per field, and its symmetry column skips the formula where it reads exactly 0.0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .dynamics import FlowState, PhysicalParams
from .spectral import SpectralGrid, symmetry_defect

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


def _weights(grid: SpectralGrid, s: float) -> tuple[np.ndarray, np.ndarray]:
    """(1+|xi|^2)^s times the plane weight, a power of two, so folding it in moves
    no bit of a product; and the rows 1 and |xi|^2."""
    w = ((1.0 + grid.xi_sq) ** s * grid.weight).ravel()
    return w, np.stack((np.ones_like(w), grid.xi_sq.ravel()))


def _amplitude(coeffs: np.ndarray, rows: int) -> np.ndarray:
    """re^2 + im^2 per mode, summed over `rows` component rows as `_sq_amplitude` sums."""
    a = coeffs.real ** 2
    a += coeffs.imag ** 2
    return np.add.reduce(a.reshape(rows, -1), 0)


def energy(state: FlowState, s: float, params: PhysicalParams, cum_diss: float = 0.0,
           w: tuple | None = None) -> EnergyRecord:
    """One energy sample; `cum_diss` is the dissipation integral accumulated so far
    by the caller's quadrature, `w` the grid's `_weights` if known.  One reduction
    of v's weighted amplitude against the rows 1 and |xi|^2 gives v_hs2 and
    gradv_hs2 = ||grad v||_{H^s}^2, each with the bits of its own `.sum()`."""
    grid, v, tau = state.v.grid, state.v.coeffs, state.tau.coeffs
    w, rows = _weights(grid, s) if w is None else w
    v_hs2, gradv_hs2 = np.add.reduce(rows * (w * _amplitude(v, grid.dim)), 1).tolist()
    tau_hs2 = float(np.add.reduce(w * _amplitude(tau, grid.dim ** 2)))
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
            grid, w = state.v.grid, _weights(state.v.grid, s)
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

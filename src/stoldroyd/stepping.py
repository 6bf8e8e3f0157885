"""Semi-implicit Euler–Maruyama time stepping with noise recording and replay.

One step, in order:

1. explicit velocity update: v* = v + dt * (nonstiff drift - jump
   compensator) + Wiener increment sigma(v) dW1, with the multiplicative
   product c1 Phi v formed in the drift's physical-space pass;
2. per-mode implicit viscous solve v* <- v* / (1 + nu dt |xi|^2), which is
   unconditionally contractive (and the identity when nu = 0);
3. jumps from (t, t+dt] applied sequentially in time order to the
   post-diffusion state — each uses the pre-jump (left-limit) velocity;
4. one spectral-ball cutoff and one Leray projection of the whole update;
   both act mode by mode and commute with every per-mode factor above, so
   applying them once here equals applying them to each term;
5. explicit stress update tau <- cutoff[ tau + dt * stress drift
   (Ito correction included) + S(tau) dW2 ].

Everything stochastic comes through a `StepNoise`, so a recorded `NoisePath`
re-fed to the same configuration reproduces the trajectory bitwise, and one
path can drive runs at different spectral cutoffs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import FlowState, PhysicalParams, explicit_terms
from .monitor import EnergyRecord, MonitorConfig, StoppingEvent, detect_stop, energy
from .noise import (
    JumpConfig,
    JumpOperator,
    NoisePath,
    NoiseSampler,
    SigmaInstance,
    StepNoise,
    StressNoiseInstance,
    WienerQConfig,
)
from .spectral import (
    SpectralGrid,
    TensorField,
    VectorField,
    alias_free_modes,
    leray_project,
    make_grid,
    relayout,
)

__all__ = [
    "StepperConfig",
    "NoiseModel",
    "on_alias_free_grid",
    "SimulationResult",
    "step",
    "simulate",
]


@dataclass(frozen=True)
class StepperConfig:
    """Fixed-step scheme parameters; the horizon is rounded up to whole steps."""

    dt: float
    horizon: float
    record_noise: bool = False

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {self.horizon}")

    @property
    def n_steps(self) -> int:
        return int(math.ceil(self.horizon / self.dt - 1e-9))

    @property
    def actual_horizon(self) -> float:
        """n_steps * dt — reported because the horizon rounds up."""
        return self.n_steps * self.dt


@dataclass
class NoiseModel:
    """The channels actually driving a run; None switches a channel off."""

    wiener: WienerQConfig | None = None
    sigma: SigmaInstance | None = None
    stress: StressNoiseInstance | None = None
    jump: JumpOperator | None = None

    @property
    def J(self) -> int:
        return self.wiener.J if self.wiener is not None else 0

    def sampler(self, rng: np.random.Generator) -> NoiseSampler:
        jump_config = self.jump.config if self.jump is not None else JumpConfig(rate=0.0)
        return NoiseSampler(self.J, jump_config, rng)

    def signature(self, grid: SpectralGrid) -> tuple:
        return (grid.dim, float(grid.box_length), self.J)

    def on(self, grid: SpectralGrid) -> "NoiseModel":
        """The same channels rebuilt on `grid`."""
        return NoiseModel(self.wiener, *(None if ch is None else ch.on(grid)
                                         for ch in (self.sigma, self.stress, self.jump)))


def on_alias_free_grid(
    state: FlowState, noise: NoiseModel, n: float | None = None
) -> tuple[FlowState, NoiseModel]:
    """`state` and `noise` on the smallest grid on which the cutoff-n system
    (n defaults to the state grid's radius) is the Galerkin system of the
    state's grid: `alias_free_modes` sized for the noise basis.

    The state's grid size is kept for a bump stress profile, which is
    sampled per grid, and for a state with mass outside the ball |xi| <= n,
    whose products a smaller grid would alias.  Without `n`, a grid that
    cannot shrink returns the inputs themselves; with it, the cutoff always
    gets a grid object of its own.
    """
    host = state.v.grid
    radius = host.truncation_radius if n is None else n
    modes = host.modes_per_axis
    if noise.stress is None or noise.stress.h_kind != "bump":
        kmax = noise.sigma.basis.kmax if noise.sigma is not None else 0
        modes = alias_free_modes(host, radius, kmax)
    if modes < host.modes_per_axis:
        outside = host.xi_sq > radius * radius
        if np.any(state.v.coeffs[..., outside]) or np.any(state.tau.coeffs[..., outside]):
            modes = host.modes_per_axis
    if n is None and modes == host.modes_per_axis:
        return state, noise
    grid = make_grid(host.dim, modes, host.box_length, radius, host.dealias_fraction)
    return FlowState(state.t, relayout(state.v, grid), relayout(state.tau, grid)), noise.on(grid)


def step(
    state: FlowState,
    params: PhysicalParams,
    noise: NoiseModel,
    sn: StepNoise,
    dt: float,
) -> FlowState:
    """Advance one step; see the module docstring for the update order."""
    grid, sigma = state.v.grid, noise.sigma
    with np.errstate(over="ignore", invalid="ignore"):
        additive, profile = sigma.parts(sn.dw1) if sigma is not None else (None, None)
        vel, sd, prod = explicit_terms(state, params, noise.stress, profile)
        v_star = state.v.coeffs + dt * vel
        if noise.jump is not None:
            v_star -= dt * noise.jump.compensator(state.v).coeffs
        for part in (additive, prod):
            if part is not None:
                v_star += part
        v_star /= 1.0 + params.nu * dt * grid.xi_sq
        if noise.jump is not None:
            for _, z in sn.jumps:
                v_star += noise.jump.jump_increment(VectorField(grid, v_star), z).coeffs
        v_star *= grid.ball_mask
        v_new = leray_project(VectorField(grid, v_star))

        tau_c = state.tau.coeffs + dt * sd.coeffs
        symmetric = state.tau.symmetric and sd.symmetric
        if noise.stress is not None:
            tau_c += sn.dw2 * noise.stress.s_apply(state.tau).coeffs
            symmetric = symmetric and noise.stress.preserves_symmetry
        tau_c *= grid.ball_mask
    return FlowState(state.t + dt, v_new, TensorField(grid, tau_c, symmetric=symmetric))


@dataclass
class SimulationResult:
    records: list[EnergyRecord]
    event: StoppingEvent
    final_state: FlowState
    noise_path: NoisePath | None = None

    @property
    def stopped(self) -> bool:
        return self.event.kind != "horizon"


def _check_replay_compatible(path: NoisePath, stepper: StepperConfig, signature: tuple) -> None:
    if path.dt != stepper.dt:
        raise ValueError(f"noise path dt {path.dt} does not match stepper dt {stepper.dt}")
    if tuple(path.signature) != tuple(signature):
        raise ValueError(
            f"noise path basis {tuple(path.signature)} does not match run basis {tuple(signature)}"
        )
    if path.n_steps < stepper.n_steps:
        raise ValueError(
            f"noise path holds {path.n_steps} steps, run needs {stepper.n_steps}"
        )


def simulate(
    initial: FlowState,
    params: PhysicalParams,
    noise: NoiseModel,
    stepper: StepperConfig,
    monitor: MonitorConfig,
    rng: np.random.Generator | None = None,
    noise_path: NoisePath | None = None,
) -> SimulationResult:
    """Run until the horizon, a threshold crossing, or divergence.

    Noise comes from `rng` (fresh sampling) or from `noise_path` (replay of a
    recorded run; dt, basis, and length are validated; the path may come from
    a run at another spectral cutoff, since the basis is cutoff-independent).
    Deterministic: (initial, configs, seed) fixes the trajectory bitwise.

    The run steps on the smallest alias-free grid for the initial grid's
    cutoff and the noise basis (`on_alias_free_grid`), which computes the
    initial grid's Galerkin system up to rounding; the energy records are
    taken there.  The final state is returned on the initial grid object,
    zero outside the ball.
    """
    host = initial.v.grid
    initial, noise = on_alias_free_grid(initial, noise)
    signature = noise.signature(host)
    if noise_path is not None:
        _check_replay_compatible(noise_path, stepper, signature)
        sampler = None
    else:
        if rng is None:
            raise ValueError("simulate needs an rng unless a noise_path is replayed")
        sampler = noise.sampler(rng)

    records = [energy(initial, monitor.s, params, 0.0)]
    recorded_steps: list[StepNoise] | None = [] if stepper.record_noise else None
    state = initial
    event = detect_stop(records[-1:], monitor.threshold)
    if event is None:
        cum_diss = 0.0
        for i in range(stepper.n_steps):
            sn = noise_path.step_noise(i) if noise_path is not None else sampler.sample_step(stepper.dt)
            if recorded_steps is not None:
                recorded_steps.append(sn)
            cum_diss += stepper.dt * records[-1].gradv_hs2
            state = step(state, params, noise, sn, stepper.dt)
            rec = energy(state, monitor.s, params, cum_diss)
            records.append(rec)
            event = detect_stop(records[-1:], monitor.threshold)
            if event is not None:
                break
    if event is None:
        event = StoppingEvent(kind="horizon", t_stop=stepper.actual_horizon, e_n=records[-1].e_n)

    if state.v.grid is not host:
        state = FlowState(state.t, relayout(state.v, host), relayout(state.tau, host))
    path = None
    if recorded_steps is not None:
        path = NoisePath.record(stepper.dt, signature, recorded_steps)
    return SimulationResult(records=records, event=event, final_state=state, noise_path=path)

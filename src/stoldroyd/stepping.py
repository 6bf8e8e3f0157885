"""Semi-implicit Euler–Maruyama time stepping with noise recording and replay.

One step, in order:

1. explicit velocity update: v* = dt * nonstiff drift + (1 - dt * compensator
   multiplier) v + Wiener increment sigma(v) dW1, the product c1 Phi v formed
   in the drift's physical-space pass;
2. per-mode implicit viscous solve and spectral-ball cutoff as one factor,
   v* <- v* * ball / (1 + nu dt |xi|^2), unconditionally contractive; the cutoff
   commutes with every per-mode factor, so cutting once equals cutting each term;
3. jumps from (t, t+dt] applied sequentially in time order to the cut
   post-diffusion state — each uses the pre-jump (left-limit) velocity;
   per-mode multipliers, they keep it in the ball;
4. one Leray projection of the whole update, which commutes likewise;
5. explicit stress update tau <- cutoff[ dt * gradient drift + theta tau ]:
   relaxation -a tau, the Ito correction (c_h^2 / 2) tau and the increment
   c_h dW2 tau are multiples of tau, so theta = 1 + c_h dW2 + dt (c_h^2 / 2 - a)
   is one number per step.

Everything stochastic comes through a `StepNoise`, so a recorded `NoisePath`
re-fed to the same configuration reproduces the trajectory bitwise, and one
path can drive runs at different spectral cutoffs.  The `NoiseModel` holds
the channels' configs on no grid.  Everything else a step reads is its path's
`StepPlan`, `step(state, sn, plan)`: the parameters, dt and noise model, the
noise placed on the grid the path steps on (sigma's kept columns from the
noise catalogue, and kappa), and the drift pass that owns its buffers.

`trajectory`, a lazy generator of states, is the one loop that steps a path:
`simulate` stops one at the first of its `energy_records` that `monitor.stop_event`
breaks, and refine zips several in lockstep over the same draws and closes its
window by the same rule.  States hold the dealias
box |k_a| <= K with k_d >= 0.  Each trajectory builds one `StepPlan` for all its
steps and shares it with no other path, so paths on one grid may run on
threads; its states own their arrays.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .dynamics import DriftPass, FlowState, PhysicalParams, explicit_terms
from .monitor import EnergyRecord, MonitorConfig, StoppingEvent, energy_records, stop_event
from .noise import (
    JumpConfig,
    NoisePath,
    NoiseSampler,
    StepNoise,
    WienerQConfig,
    noise_catalogue,
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
    "StepPlan",
    "step",
    "trajectory",
    "simulate",
]


@dataclass(frozen=True)
class StepperConfig:
    """Fixed-step scheme parameters; the horizon is rounded up to whole steps."""

    dt: float
    horizon: float
    record_noise: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if not (math.isfinite(self.horizon) and self.horizon >= 0):
            raise ValueError(f"horizon must be finite and >= 0, got {self.horizon}")

    @property
    def n_steps(self) -> int:
        return int(math.ceil(self.horizon / self.dt - 1e-9))

    @property
    def actual_horizon(self) -> float:
        """n_steps * dt — reported because the horizon rounds up."""
        return self.n_steps * self.dt


@dataclass(frozen=True)
class NoiseModel:
    """The channels actually driving a run, on no grid: the Q-Wiener ladder with
    sigma's amplitudes c0 and c1, the stress noise S(tau) = c_h tau and the jumps.
    None switches a channel off, and so does c_h = 0 for the stress noise."""

    wiener: WienerQConfig | None = None
    c0: float = 0.0
    c1: float = 0.0
    c_h: float = 0.0
    jump: JumpConfig | None = None

    @property
    def J(self) -> int:
        return self.wiener.J if self.wiener is not None else 0

    def sampler(self, rng: np.random.Generator) -> NoiseSampler:
        return NoiseSampler(self.J, self.jump or JumpConfig(rate=0.0), rng)

    def signature(self, grid: SpectralGrid) -> tuple:
        return (grid.dim, float(grid.box_length), self.J)


def on_alias_free_grid(state: FlowState, noise: NoiseModel, n: float | None = None) -> FlowState:
    """`state` on the smallest grid on which the cutoff-n system (n defaults to
    the state grid's radius) is the Galerkin system of the state's grid:
    `alias_free_modes` sized for the noise basis.

    The state's grid size is kept for a state with mass outside the ball
    |xi| <= n, whose products a smaller grid would alias.  Without `n`, a
    grid whose size does not change returns the state itself; with it, the
    cutoff always gets a grid object of its own.
    """
    host = state.v.grid
    radius = host.truncation_radius if n is None else n
    outside = host.xi_sq > radius * radius
    outside_ball = any(np.any(f.coeffs[..., outside]) for f in (state.v, state.tau))
    modes = host.modes_per_axis
    if not outside_ball:
        kmax = noise_catalogue(host.dim, noise.J).kmax if noise.wiener is not None else 0
        modes = alias_free_modes(host, radius, kmax)
    if n is None and modes == host.modes_per_axis:
        return state
    grid = make_grid(host.dim, modes, host.box_length, radius)
    return FlowState(state.t, relayout(state.v, grid), relayout(state.tau, grid))


class StepPlan:
    """Everything one path's steps read, built once (plan once, run every step): the
    path's `params`, `dt` and `noise`, and what those place on its grid: `damping`,
    ball_mask / (1 + nu dt |xi|^2); the jumps' `kappa`, 1 / (1 + |xi|^2), and `keep`,
    v's factor 1 - dt rate gamma_bar kappa; sigma's `rows`, zeroed once, and the
    `columns` put at their flat `index`; `scratch`, rows for keep v and theta tau; and
    `drift`, the path's `DriftPass`, whose buffers and kept transform calls every step
    reuses.  A plan serves one path: two paths stepping one plan would overwrite each
    other's pass.

    sigma(v) e_j = c0 e_j + c1 phi_j v is affine in v, so sum_j w_j sigma(v) e_j, with
    w_j = sqrt(lambda_j) dW_j, is c0 sum_j w_j e_j + c1 Phi v, Phi = sum_j w_j phi_j.
    The columns are c0 sqrt(lambda_j) e_j over c1 sqrt(lambda_j) phi_j, at the modes
    where one is nonzero, placed from the noise catalogue's held coefficients."""

    def __init__(self, grid: SpectralGrid, params: PhysicalParams, dt: float, noise: NoiseModel):
        self.params, self.dt, self.noise = params, dt, noise
        self.damping = grid.ball_mask / (1.0 + params.nu * dt * grid.xi_sq)
        self.kappa = self.keep = None
        if noise.jump is not None:
            self.kappa = 1.0 / (1.0 + grid.xi_sq)
            self.keep = 1.0 - dt * (noise.jump.rate * noise.jump.gamma_bar * self.kappa)
        self.rows = self.index = self.columns = self.additive = self.profile = None
        if noise.wiener is not None:
            catalogue = noise_catalogue(grid.dim, noise.J)
            catalogue.check_grid(grid)
            # a unit weight's entries at each held coefficient, flat in the (d + 1) box rows
            # (e_j's d components, then phi_j), added into zeros in index order
            size = math.prod(grid.shape)
            held = np.ravel_multi_index(tuple((catalogue.held % grid.shape).T), grid.shape)
            flat = (np.arange(grid.dim + 1)[:, np.newaxis] * size + held).ravel()
            index, column = np.unique(flat, return_inverse=True)
            table = np.zeros((noise.J, index.size), dtype=np.complex128)
            np.add.at(table, (np.tile(catalogue.j, grid.dim + 1), column), catalogue.entries)
            amplitude = np.where(index < grid.dim * size, noise.c0, noise.c1)
            columns = np.sqrt(noise.wiener.eigenvalues)[:, np.newaxis] * amplitude * table
            kept = np.any(columns, axis=0)
            self.index, self.columns = index[kept], columns[:, kept]
            self.rows = np.zeros((grid.dim + 1, *grid.shape), dtype=np.complex128)
            self.additive = None if noise.c0 == 0.0 else self.rows[:-1]
            self.profile = None if noise.c1 == 0.0 else self.rows[-1]
        self.scratch = np.empty((grid.dim,) * 2 + grid.shape, dtype=np.complex128)
        self.drift = DriftPass(grid, params.nonlinear, self.profile is not None)

    def sigma_parts(self, dw1: np.ndarray) -> tuple[np.ndarray | None, np.ndarray | None]:
        """c0 * sum_j w_j e_j and c1 * Phi, in `rows` (None at amplitude 0): one product
        of dW1 with the columns, summed in j order without BLAS (whose bits could depend
        on its thread count), put at `index`; the next call overwrites them."""
        self.rows.put(self.index, np.add.reduce(dw1[:, np.newaxis] * self.columns, axis=0))
        return self.additive, self.profile


def step(state: FlowState, sn: StepNoise, plan: StepPlan) -> FlowState:
    """Advance one step of `plan`'s path by the draws `sn` (update order: module
    docstring).  Every per-mode factor of v and tau is applied here.  `simulate` and refine
    step under `np.errstate(over="ignore", invalid="ignore")`; a bare caller owns its error
    state."""
    grid, params, dt, noise = state.v.grid, plan.params, plan.dt, plan.noise
    additive, profile = plan.sigma_parts(sn.dw1) if plan.rows is not None else (None, None)
    # both drifts are this step's own fresh arrays, so each product is formed in place
    v_star, sd, prod = explicit_terms(state, params, profile, plan.drift)
    v_star *= dt
    v_star += state.v.coeffs if plan.keep is None else np.multiply(
        state.v.coeffs, plan.keep, out=plan.scratch[0])
    for part in (additive, prod):
        if part is not None:
            v_star += part
    v_star *= plan.damping
    if noise.jump is not None:
        for _, z in sn.jumps:
            v_star += (noise.jump.gamma(z) * plan.kappa) * v_star
    v_new = leray_project(VectorField(grid, v_star))

    # entries (i, j) and (j, i) get the same arithmetic: tau stays symmetric bit for bit
    c_h = noise.c_h
    theta = 1.0 + c_h * sn.dw2 + dt * (0.5 * c_h * c_h - params.a)
    tau_c = np.multiply(sd, dt, out=sd)
    tau_c += np.multiply(state.tau.coeffs, theta, out=plan.scratch)
    tau_c *= grid.ball_mask
    return FlowState(state.t + dt, v_new, TensorField(grid, tau_c))


def trajectory(
    state: FlowState,
    params: PhysicalParams,
    noise: NoiseModel,
    noise_steps: Iterable[StepNoise],
    dt: float,
) -> Iterator[FlowState]:
    """Yield the state at the start and after each step, one step per draw
    pulled from `noise_steps`, lazily: a consumer that stops pulling draws no
    more noise.  One `StepPlan` serves every step of the path.

    The drift pass sends only tau's distinct components, so the first pull
    raises ValueError for a tau that is not bitwise equal to its transpose;
    a step writes symmetric bits from symmetric ones, so later states are
    not checked."""
    c = state.tau.coeffs
    if c.tobytes() != np.swapaxes(c, 0, 1).tobytes():
        raise ValueError("the initial stress tau is not symmetric: tau must equal its "
                         "transpose bit for bit")
    yield state
    plan = StepPlan(state.v.grid, params, dt, noise)
    for sn in noise_steps:
        state = step(state, sn, plan)
        yield state


@dataclass
class SimulationResult:
    records: list[EnergyRecord]
    event: StoppingEvent
    final_state: FlowState
    noise_path: NoisePath | None = None


def _replayed_draws(
    path: NoisePath, stepper: StepperConfig, signature: tuple
) -> Iterator[StepNoise]:
    """`path`'s draws for `stepper`'s steps, its dt and basis checked now.  Its length is
    checked only when the run pulls a step the path lacks, so a recorded run that
    stopped early replays from its own shorter path."""
    if path.dt != stepper.dt:
        raise ValueError(f"noise path dt {path.dt} does not match stepper dt {stepper.dt}")
    if tuple(path.signature) != tuple(signature):
        raise ValueError(
            f"noise path basis {tuple(path.signature)} does not match run basis {tuple(signature)}"
        )

    def draws():
        for i in range(stepper.n_steps):
            if i == path.n_steps:
                raise ValueError(
                    f"noise path holds {path.n_steps} steps, run needs {stepper.n_steps}")
            yield path.step_noise(i)

    return draws()


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
    recorded run; dt and basis are validated, and the length once the run
    pulls a step; the path may come from a run at another spectral cutoff,
    since the basis is cutoff-independent).
    Deterministic: (initial, configs, seed) fixes the trajectory bitwise.

    The run steps on the smallest alias-free grid for the initial grid's
    cutoff and the noise basis (`on_alias_free_grid`), which computes the
    initial grid's Galerkin system up to rounding; the energy records are
    taken there.  The final state is returned on the initial grid object,
    zero outside the ball.
    """
    host = initial.v.grid
    initial = on_alias_free_grid(initial, noise)
    signature = noise.signature(host)
    if noise_path is not None:
        draws = _replayed_draws(noise_path, stepper, signature)
    else:
        if rng is None:
            raise ValueError("simulate needs an rng unless a noise_path is replayed")
        sampler = noise.sampler(rng)
        draws = (sampler.sample_step(stepper.dt) for _ in range(stepper.n_steps))
    recorded: list[StepNoise] = []
    if stepper.record_noise:  # keep each draw as the trajectory pulls it
        draws = (recorded.append(sn) or sn for sn in draws)

    records, event = [], None
    states = trajectory(initial, params, noise, draws, stepper.dt)
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging run stops on its records
        for state, rec in energy_records(states, monitor.s, params, stepper.dt):
            records.append(rec)
            event = stop_event(rec, monitor.threshold)
            if event is not None:
                break
    if event is None:
        event = StoppingEvent(kind="horizon", t_stop=stepper.actual_horizon, e_n=records[-1].e_n)

    if state.v.grid is not host:
        state = FlowState(state.t, relayout(state.v, host), relayout(state.tau, host))
    path = NoisePath.record(stepper.dt, signature, recorded) if stepper.record_noise else None
    return SimulationResult(records=records, event=event, final_state=state, noise_path=path)

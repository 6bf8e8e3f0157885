"""Integrator: closed forms, determinism, jump ordering, replay, transform and
memory budgets."""
import math
import pickle
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from stoldroyd.config import materialize, parse_config
from stoldroyd.dynamics import DriftPass, FlowState, PhysicalParams, explicit_terms
from stoldroyd.experiments import refinement_study
from stoldroyd.monitor import MonitorConfig, StoppingEvent, energy, stop_event
from stoldroyd.noise import (
    JumpConfig,
    NoisePath,
    StepNoise,
    WienerQConfig,
    rng_for_run,
)
from stoldroyd.spectral import (
    SpectralGrid,
    TensorField,
    VectorField,
    divergence_defect,
    hs_norm,
    leray_project,
    make_grid,
    random_field,
    relayout,
    truncate,
)
from stoldroyd.stepping import (
    NoiseModel,
    StepPlan,
    StepperConfig,
    on_alias_free_grid,
    simulate,
    step,
    trajectory,
)

import oracles

GRID = make_grid(2, 64, 2 * math.pi, 16)
MON = MonitorConfig(threshold=1e9, s=2.0)


def zero_fields(grid=GRID):
    v = VectorField(grid, np.zeros((grid.dim,) + grid.shape, dtype=complex))
    tau = TensorField(grid, np.zeros((grid.dim, grid.dim) + grid.shape, dtype=complex))
    return v, tau


def perpendicular_mode(grid, k, amp=1.0):
    """Real single-mode divergence-free velocity: amp * perp at k (k_d >= 0)
    and its conjugate at -k, which the grid stores only on the zero plane."""
    c = np.zeros((grid.dim,) + grid.shape, dtype=complex)
    perp = np.array([-k[1], k[0]], dtype=float)
    perp /= np.linalg.norm(perp)
    c[:, k[0], k[1]] = amp * perp
    if k[1] == 0:
        c[:, -k[0], 0] = np.conj(amp * perp)
    return VectorField(grid, c)


def full_noise_model():
    return NoiseModel(
        wiener=WienerQConfig(lambda0=0.05, J=6),
        c0=0.3,
        c1=0.2,
        c_h=0.25,
        jump=JumpConfig(rate=3.0, gamma_kind="constant", gamma0=0.1),
    )


class TestStepperConfig:
    def test_steps_round_up_and_actual_horizon(self):
        cfg = StepperConfig(dt=1e-3, horizon=1.0)
        assert cfg.n_steps == 1000
        assert cfg.actual_horizon == pytest.approx(1.0)
        ragged = StepperConfig(dt=0.3, horizon=1.0)
        assert ragged.n_steps == 4
        assert ragged.actual_horizon == pytest.approx(1.2)

    def test_zero_horizon(self):
        assert StepperConfig(dt=0.1, horizon=0.0).n_steps == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="dt"):
            StepperConfig(dt=0.0, horizon=1.0)


class TestClosedForms:
    def test_stokes_single_mode_decay(self):
        """Noise-free single mode matches v0 / (1 + nu dt |xi|^2)^steps to 1e-12."""
        k = (3, 4)
        v0 = perpendicular_mode(GRID, k, amp=2.0)
        _, tau0 = zero_fields()
        params = PhysicalParams(nu=0.7, a=0.0, b=0.0, mu1=0.0, mu2=0.0)
        stepper = StepperConfig(dt=1e-3, horizon=0.25)
        res = simulate(FlowState(0.0, v0, tau0), params, NoiseModel(), stepper, MON,
                       rng=rng_for_run(0, 0))
        factor = oracles.stokes_discrete_factor(0.7, 1e-3, 25.0, stepper.n_steps)
        got = res.final_state.v.coeffs[:, k[0], k[1]]
        want = factor * v0.coeffs[:, k[0], k[1]]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_zero_everything_stays_zero(self):
        v0, tau0 = zero_fields()
        wiener = WienerQConfig(lambda0=1.0, J=4)
        noise = NoiseModel(
            wiener=wiener,
            c0=0.0, c1=0.5,  # multiplicative only
            c_h=0.4,
        )
        params = PhysicalParams(nu=0.1, a=0.3, b=0.2, mu1=1.0, mu2=1.0)
        res = simulate(FlowState(0.0, v0, tau0), params, noise,
                       StepperConfig(dt=1e-2, horizon=0.1), MON, rng=rng_for_run(1, 0))
        assert hs_norm(res.final_state.v, 0.0) == 0.0
        assert hs_norm(res.final_state.tau, 0.0) == 0.0

    def test_stress_relaxation_exponential(self):
        """v = 0, noise off: tau follows the discrete factor (1 - a dt)^steps."""
        v0, _ = zero_fields()
        tau0 = truncate(random_field(GRID, 4.0, "tensor", seed=2), 16)
        params = PhysicalParams(nu=0.1, a=0.9, b=0.0, mu1=0.0, mu2=0.0)
        stepper = StepperConfig(dt=1e-3, horizon=0.2)
        res = simulate(FlowState(0.0, v0, tau0), params, NoiseModel(), stepper, MON,
                       rng=rng_for_run(3, 0))
        factor = (1.0 - 0.9e-3) ** stepper.n_steps
        assert np.allclose(res.final_state.tau.coeffs, factor * tau0.coeffs,
                           rtol=1e-12, atol=1e-18)

    def test_geometric_stress_path_tracks_exact_solution(self):
        """One path of the linear Stratonovich stress test stays near
        tau0 * exp(c W(t)); the order fit lives in the acceptance suite."""
        grid = make_grid(2, 16, 2 * math.pi, 4)
        c_h = 0.5
        v0 = VectorField(grid, np.zeros((2,) + grid.shape, dtype=complex))
        tau_c = np.zeros((2, 2) + grid.shape, dtype=complex)
        tau_c[0, 0, 1, 0] = 1.0
        tau_c[0, 0, -1, 0] = 1.0
        tau_c[1, 1, 1, 0] = 1.0
        tau_c[1, 1, -1, 0] = 1.0
        tau0 = TensorField(grid, tau_c)
        params = PhysicalParams(nu=0.0, a=0.0, b=0.0, mu1=0.0, mu2=0.0, nonlinear=False)
        noise = NoiseModel(c_h=c_h)
        stepper = StepperConfig(dt=1e-4, horizon=0.25, record_noise=True)
        res = simulate(FlowState(0.0, v0, tau0), params, noise, stepper, MON,
                       rng=rng_for_run(4, 0))
        w_total = float(res.noise_path.dw2.sum())
        want = oracles.geometric_bm_exact(1.0, c_h, w_total)
        got = res.final_state.tau.coeffs[0, 0, 1, 0]
        assert abs(got - want) <= 0.05 * abs(want)


class TestJumpHandling:
    def test_jumps_apply_in_order_to_post_diffusion_state(self):
        """Two jumps in one step compose sequentially on the left limit."""
        cfg = JumpConfig(rate=1.0, z_min=-1.0, z_max=1.0, gamma_kind="linear", gamma0=2.0)
        noise = NoiseModel(jump=cfg)
        params = PhysicalParams(nu=0.0, a=0.0, b=0.0, mu1=0.0, mu2=0.0, nonlinear=False)
        v0 = truncate(random_field(GRID, 4.0, "vector", seed=5), 16)
        _, tau0 = zero_fields()
        dt = 0.01
        sn = StepNoise(dw1=np.zeros(0), dw2=0.0, jumps=((0.002, 0.5), (0.007, -0.25)))
        plan = StepPlan(GRID, params, dt, noise)
        out = step(FlowState(0.0, v0, tau0), sn, plan)

        v1 = v0.coeffs * plan.keep  # v's own factor, 1 here: gamma_bar = 0
        vf = VectorField(GRID, v1)
        for z in (0.5, -0.25):
            inc = truncate(VectorField(GRID, (cfg.gamma(z) * plan.kappa) * vf.coeffs), 16)
            vf = VectorField(GRID, vf.coeffs + inc.coeffs)
        want = leray_project(truncate(vf, 16.0)).coeffs
        assert np.array_equal(out.v.coeffs, want)

    def test_compensator_enters_as_the_velocitys_own_factor(self):
        """With gamma_bar != 0 the compensator is v's per-mode factor
        1 - dt rate gamma_bar kappa, added to dt times the drift before the
        viscous cutoff; bitwise."""
        cfg = JumpConfig(rate=3.0, gamma_kind="constant", gamma0=0.4)
        params = PhysicalParams(nu=0.1, a=0.5, b=0.3, mu1=0.7, mu2=0.9)
        state = FlowState(0.0, truncate(random_field(GRID, 4.0, "vector", seed=8), 16),
                          truncate(random_field(GRID, 4.0, "tensor", seed=9), 16))
        dt = 0.01
        out = step(state, StepNoise(dw1=np.zeros(0), dw2=0.0, jumps=()),
                   StepPlan(GRID, params, dt, NoiseModel(jump=cfg)))
        vel, _, _ = explicit_terms(state, params, None, DriftPass(GRID, True, False))
        keep = 1.0 - dt * (cfg.rate * cfg.gamma_bar * (1.0 / (1.0 + GRID.xi_sq)))
        v_star = (vel * dt + state.v.coeffs * keep) * (
            GRID.ball_mask / (1.0 + params.nu * dt * GRID.xi_sq))
        assert np.array_equal(out.v.coeffs, leray_project(VectorField(GRID, v_star)).coeffs)

    def test_pure_jump_run_stays_divergence_free_and_truncated(self):
        cfg = JumpConfig(rate=50.0, gamma_kind="constant", gamma0=0.2)
        noise = NoiseModel(jump=cfg)
        params = PhysicalParams(nu=0.0, a=0.0, b=0.0, mu1=0.0, mu2=0.0, nonlinear=False)
        v0 = truncate(random_field(GRID, 4.0, "vector", seed=6), 16)
        _, tau0 = zero_fields()
        res = simulate(FlowState(0.0, v0, tau0), params, noise,
                       StepperConfig(dt=1e-2, horizon=0.2), MON, rng=rng_for_run(7, 0))
        v = res.final_state.v
        assert divergence_defect(v) <= 1e-12
        outside = ~np.broadcast_to(GRID.ball_mask, v.coeffs.shape)
        assert np.all(v.coeffs[outside] == 0)


class TestDeterminismAndReplay:
    def test_same_seed_bitwise_identical(self):
        v0 = truncate(random_field(GRID, 4.0, "vector", seed=8), 16)
        tau0 = truncate(random_field(GRID, 4.0, "tensor", seed=9), 16)
        params = PhysicalParams(nu=0.2, a=0.1, b=0.4, mu1=0.6, mu2=0.8)
        stepper = StepperConfig(dt=1e-3, horizon=0.05)

        def run():
            return simulate(FlowState(0.0, v0, tau0), params, full_noise_model(),
                            stepper, MON, rng=rng_for_run(42, 3))

        a, b = run(), run()
        assert np.array_equal(a.final_state.v.coeffs, b.final_state.v.coeffs)
        assert np.array_equal(a.final_state.tau.coeffs, b.final_state.tau.coeffs)
        assert a.records == b.records

    def test_replay_at_recording_cutoff_is_bitwise(self):
        v0 = truncate(random_field(GRID, 4.0, "vector", seed=10), 16)
        tau0 = truncate(random_field(GRID, 4.0, "tensor", seed=11), 16)
        params = PhysicalParams(nu=0.2, a=0.1, b=0.4, mu1=0.6, mu2=0.8)
        stepper = StepperConfig(dt=1e-3, horizon=0.05, record_noise=True)
        noise = full_noise_model()
        first = simulate(FlowState(0.0, v0, tau0), params, noise, stepper, MON,
                         rng=rng_for_run(43, 0))
        assert first.noise_path is not None
        second = simulate(FlowState(0.0, v0, tau0), params, noise,
                          StepperConfig(dt=1e-3, horizon=0.05), MON,
                          noise_path=first.noise_path)
        assert np.array_equal(first.final_state.v.coeffs, second.final_state.v.coeffs)
        assert np.array_equal(first.final_state.tau.coeffs, second.final_state.tau.coeffs)
        assert first.records == second.records

    def test_threshold_stopped_run_replays_from_its_own_path(self):
        """A recorded run that stopped early holds fewer steps than its stepper
        asks for; replayed with that stepper, it stops at the same step with
        equal records, event and final state, bitwise."""
        v0, tau0 = zero_fields()
        params = PhysicalParams(nu=0.2, a=0.1, b=0.4, mu1=0.6, mu2=0.8)
        stepper = StepperConfig(dt=1e-3, horizon=0.05, record_noise=True)
        mon = MonitorConfig(threshold=3e-4, s=2.0)
        noise = full_noise_model()
        first = simulate(FlowState(0.0, v0, tau0), params, noise, stepper, mon,
                         rng=rng_for_run(43, 0))
        assert first.event.kind == "threshold_N"
        assert first.noise_path.n_steps < stepper.n_steps
        second = simulate(FlowState(0.0, v0, tau0), params, noise, stepper, mon,
                          noise_path=first.noise_path)
        assert second.records == first.records
        assert second.event == first.event
        for got, want in ((second.final_state.v, first.final_state.v),
                          (second.final_state.tau, first.final_state.tau)):
            assert got.coeffs.tobytes() == want.coeffs.tobytes()

    def test_replay_mismatches_rejected(self):
        v0, tau0 = zero_fields()
        params = PhysicalParams(nu=0.1, a=0.0, b=0.0, mu1=0.0, mu2=0.0)
        noise = full_noise_model()
        rec = simulate(FlowState(0.0, v0, tau0), params, noise,
                       StepperConfig(dt=1e-3, horizon=0.01, record_noise=True),
                       MON, rng=rng_for_run(44, 0))
        path = rec.noise_path
        with pytest.raises(ValueError, match="dt"):
            simulate(FlowState(0.0, v0, tau0), params, noise,
                     StepperConfig(dt=2e-3, horizon=0.01), MON, noise_path=path)
        with pytest.raises(ValueError, match="holds 10 steps"):
            simulate(FlowState(0.0, v0, tau0), params, noise,
                     StepperConfig(dt=1e-3, horizon=0.05), MON, noise_path=path)
        other = NoiseModel(wiener=WienerQConfig(lambda0=0.05, J=3), c0=0.1)
        with pytest.raises(ValueError, match="basis"):
            simulate(FlowState(0.0, v0, tau0), params, other,
                     StepperConfig(dt=1e-3, horizon=0.01), MON, noise_path=path)

    def test_zero_horizon_returns_initial_diagnostics(self):
        v0 = truncate(random_field(GRID, 4.0, "vector", seed=12), 16)
        tau0 = truncate(random_field(GRID, 4.0, "tensor", seed=13), 16)
        params = PhysicalParams(nu=0.1, a=0.0, b=0.0, mu1=1.0, mu2=1.0)
        res = simulate(FlowState(0.0, v0, tau0), params, NoiseModel(),
                       StepperConfig(dt=1e-3, horizon=0.0), MON, rng=rng_for_run(45, 0))
        assert len(res.records) == 1
        assert res.event.kind == "horizon"
        assert res.event.t_stop == 0.0
        assert res.records[0].v_hs2 == pytest.approx(hs_norm(v0, MON.s) ** 2, rel=1e-14)

    def test_left_endpoint_dissipation_quadrature(self):
        v0 = truncate(random_field(GRID, 4.0, "vector", seed=14), 16)
        _, tau0 = zero_fields()
        params = PhysicalParams(nu=0.5, a=0.0, b=0.0, mu1=0.0, mu2=1.0)
        dt = 1e-3
        res = simulate(FlowState(0.0, v0, tau0), params, NoiseModel(),
                       StepperConfig(dt=dt, horizon=2 * dt), MON, rng=rng_for_run(46, 0))
        g0 = res.records[0].gradv_hs2
        g1 = res.records[1].gradv_hs2
        assert res.records[1].cum_diss == dt * g0
        assert res.records[2].cum_diss == dt * g0 + dt * g1


class TestStoppingIntegration:
    def test_threshold_crossing_stops_run(self):
        """Additive noise pumps energy from zero until E_N crosses a small N."""
        v0, tau0 = zero_fields()
        wiener = WienerQConfig(lambda0=5.0, J=4)
        noise = NoiseModel(wiener=wiener, c0=1.0)
        params = PhysicalParams(nu=0.0, a=0.0, b=0.0, mu1=1.0, mu2=1.0, nonlinear=False)
        mon = MonitorConfig(threshold=1e-4, s=2.0)
        res = simulate(FlowState(0.0, v0, tau0), params, noise,
                       StepperConfig(dt=1e-3, horizon=1.0), mon, rng=rng_for_run(47, 0))
        assert res.event.kind == "threshold_N"
        assert res.event.e_n > 1e-4
        assert res.event.t_stop < 1.0
        assert len(res.records) < 1002

    def test_divergence_recorded_not_raised(self):
        """A deliberately unstable run ends as a divergence event, not a crash."""
        v0 = VectorField(GRID, 1e6 * truncate(random_field(GRID, 2.0, "vector", seed=15), 16).coeffs)
        tau0 = truncate(random_field(GRID, 2.0, "tensor", seed=16), 16)
        params = PhysicalParams(nu=0.0, a=0.0, b=0.9, mu1=5.0, mu2=5.0)
        res = simulate(FlowState(0.0, v0, tau0), params, NoiseModel(),
                       StepperConfig(dt=1.0, horizon=30.0),
                       MonitorConfig(threshold=1e30, s=2.0), rng=rng_for_run(48, 0))
        assert res.event.kind == "divergence"


# the minimal configuration printed in README.md: 2D, 64 modes, cutoff 16,
# all three noise channels on
README_DESK = """
[grid]
dim = 2
modes_per_axis = 64
truncation_radius = 16

[params]
nu = 0.5
a = 0.2
b = 0.5
mu1 = 1.0
mu2 = 1.0

[noise]
lambda0 = 0.1
j_modes = 8
c0 = 0.5
c1 = 0.2
c_h = 0.3
jump_rate = 2.0
gamma0 = 0.1

[initial]
v_scale = 0.6
tau_scale = 0.6

[stepper]
dt = 0.001
horizon = 0.12

[monitor]
threshold = 1.6

[seeds]
master_seed = 424242
"""


# traced allocation peak of one desk step on a fresh plan plus its energy record
# (README config): 1,981,688 B measured, bound 3 % above it
DESK_STEP_PEAK_BYTES = 2_041_000


# traced allocation peak, beyond the new state, of a warm plan-driven step on
# refine's finest box (2D, 96 modes, cutoff 32, README noise): 484,728 B
# measured once `leray_project` formed its result in its first temporary
# (520,464 B before; 656,808 B before the step formed its dt and dW2 products
# in its own fresh arrays), bound 3 % above it; the peak falls inside
# `leray_project`, whose one box-sized temporary is the largest part of it
STEP_96_TRANSIENT_BYTES = 488 * 1024


def desk_step_inputs():
    run = materialize(parse_config(README_DESK))
    assert run.noise.wiener is not None and run.noise.c_h != 0.0 and run.noise.jump is not None
    sn = StepNoise(dw1=np.full(run.noise.J, 0.03), dw2=0.02, jumps=((0.0004, 0.5),))
    return run, sn


def test_the_desk_noise_model_holds_configs_only():
    """The desk config's noise model holds no grid and no array, so it pickles
    small: under 4 KB, where the grid-bound channels pickled to 94 KB."""
    noise = materialize(parse_config(README_DESK)).noise
    assert not any(isinstance(value, (SpectralGrid, np.ndarray)) for value in vars(noise).values())
    assert len(pickle.dumps(noise)) < 4096


class TestTransformBudget:
    def test_half_layout_desk_step_makes_exactly_two_transforms(self, monkeypatch):
        """On its alias-free grid a desk step stores the dealias box of the
        half spectrum, and its one pass is one `inverse` and one `forward`,
        of 6 and 7 rows: v, the symmetric stress's 3 distinct components and
        the noise profile go in, and `inverse` returns the gradients of the
        first 5 too.
        The step projects its velocity update once."""
        run, sn = desk_step_inputs()
        state = on_alias_free_grid(run.initial, run.noise)
        plan = StepPlan(state.v.grid, run.params, run.stepper.dt, run.noise)
        assert state.v.coeffs.shape == (2, 33, 17)
        assert state.tau.coeffs.shape == (2, 2, 33, 17)
        assert oracles.equals_its_transpose(state.tau.coeffs)
        calls = []
        for name in ("inverse", "forward"):
            def counted(grid, rows, *args, _original=getattr(SpectralGrid, name), _name=name, **kw):
                calls.append((_name, rows.shape))
                return _original(grid, rows, *args, **kw)

            monkeypatch.setattr(SpectralGrid, name, counted)
        projections = []

        def counted_projection(v, _original=leray_project):
            projections.append(v)
            return _original(v)

        for module in list(sys.modules.values()):
            if module is not None and module.__name__.startswith("stoldroyd") \
                    and getattr(module, "leray_project", None) is leray_project:
                monkeypatch.setattr(module, "leray_project", counted_projection)
        out = step(state, sn, plan)
        assert out.v.grid is state.v.grid and np.all(np.isfinite(out.v.coeffs))
        assert calls == [("inverse", (6, 33, 17)), ("forward", (7, 50, 50))]
        assert len(projections) == 1

    def test_desk_step_and_energy_stay_within_memory_budget(self):
        """Allocation sizes are deterministic, so the traced peak is too."""
        run, sn = desk_step_inputs()

        def fresh_plan_step():
            return step(run.initial, sn, StepPlan(run.grid, run.params, run.stepper.dt, run.noise))

        out = fresh_plan_step()  # first-call allocations
        energy(out, run.monitor.s, run.params, 0.0)
        tracemalloc.start()
        try:
            out = fresh_plan_step()
            energy(out, run.monitor.s, run.params, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= DESK_STEP_PEAK_BYTES

    def test_warm_plan_step_at_96_modes_allocates_little_beyond_its_state(self):
        """A warm plan-driven step on a 96-mode box allocates its new state and
        at most STEP_96_TRANSIENT_BYTES more at its peak: no sample-sized row
        (72 KiB here) is allocated, since the pass forms its products in rows
        it has spent."""
        run = materialize(parse_config(README_DESK.replace("= 64", "= 96").replace("= 16", "= 32")))
        assert run.initial.v.coeffs.shape == (2, 65, 33)
        _, sn = desk_step_inputs()
        plan = StepPlan(run.grid, run.params, run.stepper.dt, run.noise)
        for _ in range(2):
            out = step(run.initial, sn, plan)
        del out
        tracemalloc.start()
        try:
            out = step(run.initial, sn, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.v.coeffs.nbytes + out.tau.coeffs.nbytes + STEP_96_TRANSIENT_BYTES

    @pytest.mark.parametrize("c0, c1", [(0.0, 0.2), (0.5, 0.0), (0.5, 0.2)])
    def test_sigma_increment_matches_separate_operations(self, c0, c1):
        """What the velocity noise adds to a full nonlinear desk step equals
        P(trunc(c0 Sigma + c1 dealias(Phi v))) computed operation by operation."""
        run, _ = desk_step_inputs()
        grid, wiener = run.grid, run.noise.wiener
        noise = NoiseModel(wiener=wiener, c0=c0, c1=c1, c_h=run.noise.c_h)
        params = replace(run.params, nu=0.0)  # the viscous solve would rescale the increment
        dw = rng_for_run(50, 0).standard_normal(wiener.J)

        def velocity_after(dw1):
            sn = StepNoise(dw1=dw1, dw2=0.02, jumps=())
            return step(run.initial, sn, StepPlan(grid, params, run.stepper.dt, noise)).v.coeffs

        got = velocity_after(dw) - velocity_after(np.zeros(wiener.J))
        additive, profile = StepPlan(grid, params, run.stepper.dt, noise).sigma_parts(dw)
        xi, dealias, ball = oracles.full_geometry(2, 64, grid.truncation_radius)
        want = oracles.box_from_full(oracles.sigma_increment(
            xi, dealias, ball,
            0.0 if additive is None else oracles.full_from_box(additive, 2, 64),
            np.zeros((64, 64)) if profile is None else oracles.full_from_box(profile, 2, 64),
            oracles.full_from_box(run.initial.v.coeffs, 2, 64),
        ), 2)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def host_loop(initial, params, noise, stepper, monitor, rng):
    """`simulate`'s loop stepped on the caller's grid: the reference for the
    reduced-grid runs.  Returns records, event, final state, drawn noise."""
    sampler = noise.sampler(rng)
    records = [energy(initial, monitor.s, params, 0.0)]
    state, steps, cum_diss = initial, [], 0.0
    plan = StepPlan(initial.v.grid, params, stepper.dt, noise)
    event = stop_event(records[-1], monitor.threshold)
    while event is None and len(steps) < stepper.n_steps:
        steps.append(sampler.sample_step(stepper.dt))
        cum_diss += stepper.dt * records[-1].gradv_hs2
        state = step(state, steps[-1], plan)
        records.append(energy(state, monitor.s, params, cum_diss))
        event = stop_event(records[-1], monitor.threshold)
    if event is None:
        event = StoppingEvent("horizon", stepper.actual_horizon, records[-1].e_n)
    return records, event, state, steps


def small_grid_inputs():
    """16 modes, cutoff 5: the alias-free size of the cutoff is the grid's own."""
    grid = make_grid(2, 16, 2 * math.pi, 5)
    wiener = WienerQConfig(lambda0=0.1, J=8)
    noise = NoiseModel(
        wiener=wiener,
        c0=0.5,
        c1=0.2,
        c_h=0.3,
        jump=JumpConfig(rate=2.0, gamma_kind="constant", gamma0=0.1),
    )
    v0 = truncate(random_field(grid, 4.0, "vector", seed=60), 5)
    tau0 = truncate(random_field(grid, 4.0, "tensor", seed=61), 5)
    return FlowState(0.0, v0, tau0), noise


def full_spectrum_step(state, params, noise, sn, dt):
    """One step operation by operation on the full spectra (`oracles.full_from_box`),
    with numpy transforms and the oracles' quadratic terms: the reference for
    the box-layout step.  Every channel must be on."""
    grid = state.v.grid
    d, M = grid.dim, grid.modes_per_axis
    xi, dealias, ball = oracles.full_geometry(d, M, grid.truncation_radius, grid.box_length)
    xi_sq = np.sum(xi * xi, axis=0)
    v, tau = (oracles.full_from_box(c, d, M) for c in (state.v.coeffs, state.tau.coeffs))
    grad_v = 1j * xi[np.newaxis] * v[:, np.newaxis]
    if params.nonlinear:
        adv_v, adv_tau, q = oracles.oldroyd_quadratic_terms(xi, v, tau, params.b, dealias & ball)
    else:
        adv_v, adv_tau, q = 0.0, 0.0, 0.0
    additive, profile = (oracles.full_from_box(c, d, M)
                         for c in StepPlan(grid, params, dt, noise).sigma_parts(sn.dw1))
    kappa = 1.0 / (1.0 + xi_sq)
    jump = noise.jump
    v_star = (v + dt * (params.mu1 * np.sum(1j * xi[np.newaxis] * tau, axis=1) - adv_v)
              - dt * jump.rate * jump.gamma_bar * kappa * v + additive
              + oracles.dealiased_scalar_product(profile, v, dealias) * ball)
    v_star = v_star / (1.0 + params.nu * dt * xi_sq)
    for _, z in sn.jumps:
        v_star = v_star + jump.gamma(z) * kappa * v_star
    c_h = noise.c_h
    s_tau = c_h * tau  # S(tau)
    tau_new = (tau + dt * (-adv_tau - q - params.a * tau
                           + params.mu2 * 0.5 * (grad_v + np.swapaxes(grad_v, 0, 1))
                           + 0.5 * c_h * s_tau * ball)
               + sn.dw2 * s_tau) * ball
    return (oracles.box_from_full(oracles.leray_project_modes(xi, v_star * ball), d),
            oracles.box_from_full(tau_new, d))


class TestHalfLayoutStep:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("nonlinear", [True, False])
    def test_step_on_half_spectra_matches_the_full_layout(self, dim, nonlinear):
        """Every channel on: each of 3 steps on the box layout (the half
        spectrum cut to the dealias box) is the full spectrum's step from the
        previous state to rounding, so a fault that shows only once the
        first step has moved tau is caught too."""
        M, n = (24, 6.0) if dim == 2 else (14, 3.0)
        box = make_grid(dim, M, 2 * math.pi, n)
        wiener = WienerQConfig(lambda0=0.1, J=4)
        noise = NoiseModel(
            wiener=wiener,
            c0=0.5,
            c1=0.2,
            c_h=0.3,
            jump=JumpConfig(rate=2.0, gamma_kind="constant", gamma0=0.1),
        )
        v = truncate(random_field(box, 4.0, "vector", seed=92), n)
        tau = truncate(random_field(box, 4.0, "tensor", seed=93), n)
        state = FlowState(0.0, v, tau)
        params = PhysicalParams(nu=0.5, a=0.2, b=0.5, mu1=1.0, mu2=1.0, nonlinear=nonlinear)
        K = box.dealias_kmax
        for k in range(3):
            sn = StepNoise(dw1=np.full(4, 0.03 * (k + 1)), dw2=0.02 * (-1) ** k,
                           jumps=((0.0004, 0.5),) if k != 1 else ())
            got = step(state, sn, StepPlan(box, params, 1e-3, noise))
            assert got.v.coeffs.shape[1:] == (2 * K + 1,) * (dim - 1) + (K + 1,)
            for g, w in zip((got.v, got.tau), full_spectrum_step(state, params, noise, sn, 1e-3)):
                assert np.max(np.abs(g.coeffs - w)) <= 1e-13 * np.max(np.abs(w))
            assert oracles.equals_its_transpose(got.tau.coeffs)
            state = got


def plan_inputs(case):
    """small_grid_inputs with every channel on, as the survival ensemble steps,
    or the linear system (its pass sends only v and the noise profile), also
    in 3D on 14 modes."""
    state, noise = small_grid_inputs()
    if case == "linear_3d":
        grid = make_grid(3, 14, 2 * math.pi, 3.0)
        state = FlowState(0.0, truncate(random_field(grid, 4.0, "vector", seed=62), 3.0),
                          truncate(random_field(grid, 4.0, "tensor", seed=63), 3.0))
    params = PhysicalParams(nu=0.5, a=0.2, b=0.5, mu1=1.0, mu2=1.0,
                            nonlinear=not case.startswith("linear"))
    return state, noise, params


def sampled(noise, seed, n=20):
    sampler = noise.sampler(rng_for_run(seed, 0))
    return [sampler.sample_step(1e-3) for _ in range(n)]


def assert_same_states(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.t == b.t
        assert np.all(np.isfinite(a.v.coeffs)) and np.all(np.isfinite(a.tau.coeffs))
        assert a.v.coeffs.tobytes() == b.v.coeffs.tobytes()
        assert a.tau.coeffs.tobytes() == b.tau.coeffs.tobytes()


class TestStepPlan:
    """`trajectory` builds one `StepPlan` per path and reuses its buffers on
    every step; none of that may change a bit or leak between paths."""

    @pytest.mark.parametrize("case", ["identity", "linear", "linear_3d"])
    def test_trajectory_equals_steps_on_fresh_plans(self, case):
        """Each state equals repeated `step` calls, each on a fresh plan,
        bitwise, and owns its arrays: no two states share memory."""
        state, noise, params = plan_inputs(case)
        draws = sampled(noise, 80)
        want = [state]
        for sn in draws:
            want.append(step(want[-1], sn, StepPlan(state.v.grid, params, 1e-3, noise)))
        got = list(trajectory(state, params, noise, draws, 1e-3))
        assert_same_states(got, want)
        assert oracles.equals_its_transpose(got[-1].tau.coeffs)
        arrays = [a for s in got for a in (s.v.coeffs, s.tau.coeffs)]
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])

    def test_interleaved_trajectories_on_one_grid_equal_runs_alone(self):
        """Two paths on one grid object, stepped alternately, each equal their
        own run: no step reads what the other path's step left behind."""
        state, noise, params = plan_inputs("identity")
        grid = state.v.grid
        other = FlowState(0.0, VectorField(grid, -0.5 * state.v.coeffs),
                          TensorField(grid, 1.5 * state.tau.coeffs))
        runs = [(state, sampled(noise, 81)), (other, sampled(noise, 82))]
        alone = [list(trajectory(s, params, noise, d, 1e-3)) for s, d in runs]
        rows = list(zip(*(trajectory(s, params, noise, d, 1e-3) for s, d in runs)))
        for k, want in enumerate(alone):
            assert_same_states([row[k] for row in rows], want)

    def test_threads_on_one_grid_equal_serial_runs(self):
        """More threads than cores, each running a path on one shared grid and
        noise model with a short switch interval, equal the serial runs."""
        state, noise, params = plan_inputs("identity")
        grid = state.v.grid
        inputs = [(FlowState(0.0, VectorField(grid, a * state.v.coeffs), state.tau),
                   sampled(noise, 83 + i, 40)) for i, a in enumerate((1.0, 0.5, -0.7, 1.3))]
        serial = [list(trajectory(s, params, noise, d, 1e-3)) for s, d in inputs]
        results = [None] * len(inputs)

        def run(i):
            s, d = inputs[i]
            results[i] = list(trajectory(s, params, noise, d, 1e-3))

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(inputs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got, want in zip(results, serial):
            assert_same_states(got, want)


class TestSymmetricStress:
    @pytest.mark.parametrize("caller", ["trajectory", "simulate", "refinement_study"])
    def test_an_initial_tau_with_an_antisymmetric_part_is_rejected(self, caller):
        """The drift pass reads only tau's distinct components, so every path
        refuses, on its first state, a tau that is not bitwise equal to its
        transpose; the same tau made symmetric runs."""
        state, noise, params = plan_inputs("identity")
        grid, c = state.v.grid, state.tau.coeffs.copy()
        part = 1e-3 * c[0, 0]  # a real field's coefficients: tau stays real
        c[0, 1] += part
        c[1, 0] -= part
        stepper = StepperConfig(dt=1e-3, horizon=3e-3)

        def run(tau_coeffs):
            tau = TensorField(grid, tau_coeffs)
            if caller == "trajectory":
                return list(trajectory(FlowState(0.0, state.v, tau), params, noise,
                                       sampled(noise, 90, 3), 1e-3))
            if caller == "simulate":
                return simulate(FlowState(0.0, state.v, tau), params, noise, stepper, MON,
                                rng=rng_for_run(90, 0))
            return refinement_study(state.v, tau, params, stepper, [3.0, 5.0], noise,
                                    threshold=1e6, n_paths=1, master_seed=90)

        with pytest.raises(ValueError, match="stress tau is not symmetric"):
            run(c)
        assert run(0.5 * (c + np.swapaxes(c, 0, 1))) is not None


class TestAliasFreeSimulate:
    def test_desk_run_steps_on_50_modes_and_matches_host_grid(self):
        run, _ = desk_step_inputs()
        reduced = on_alias_free_grid(run.initial, run.noise)
        assert reduced.v.grid.modes_per_axis == 50
        stepper = replace(run.stepper, record_noise=True)
        res = simulate(run.initial, run.params, run.noise, stepper, run.monitor,
                       rng=rng_for_run(run.master_seed, 0))
        records, event, state, steps = host_loop(run.initial, run.params, run.noise, stepper,
                                                 run.monitor, rng_for_run(run.master_seed, 0))
        assert (res.event.kind, res.event.t_stop) == (event.kind, event.t_stop)
        assert len(res.records) == len(records) > 2
        for got, want in zip(res.records, records):
            assert got.t == want.t
            for name in ("v_hs2", "tau_hs2", "gradv_hs2", "cum_diss", "e_n", "sym_defect"):
                assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=0)
        final = res.final_state
        assert final.v.grid is run.grid and final.tau.grid is run.grid
        for got, want in ((final.v, state.v), (final.tau, state.tau)):
            assert np.all(got.coeffs[..., ~run.grid.ball_mask] == 0)
            assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-12 * np.max(np.abs(want.coeffs))
        host_path = NoisePath.record(stepper.dt, res.noise_path.signature, steps)
        for name in ("dw1", "dw2", "jump_step", "jump_offset", "jump_mark"):
            assert np.array_equal(getattr(res.noise_path, name), getattr(host_path, name))

        replayed = simulate(run.initial, run.params, run.noise, run.stepper, run.monitor,
                            noise_path=res.noise_path)
        assert replayed.records == res.records
        assert np.array_equal(replayed.final_state.v.coeffs, final.v.coeffs)
        assert np.array_equal(replayed.final_state.tau.coeffs, final.tau.coeffs)

    def test_ball_boundary_products_do_not_fold_into_the_ball(self):
        """Flat-spectrum data is as strong on the ball's edge |k| = 16 as
        inside it, so a grid of 3k = 48 modes, which folds the products of
        the edge modes onto the edge, would move the run at O(1)."""
        run, _ = desk_step_inputs()
        v0 = truncate(random_field(run.grid, 0.0, "vector", seed=68), 16)
        tau0 = truncate(random_field(run.grid, 0.0, "tensor", seed=69), 16)
        initial = FlowState(0.0, VectorField(run.grid, 0.05 * v0.coeffs),
                            TensorField(run.grid, 0.05 * tau0.coeffs))
        stepper = StepperConfig(dt=1e-3, horizon=3e-3)
        mon = MonitorConfig(threshold=1e9, s=2.0)
        res = simulate(initial, run.params, run.noise, stepper, mon, rng=rng_for_run(70, 0))
        records, _, state, _ = host_loop(initial, run.params, run.noise, stepper, mon,
                                         rng_for_run(70, 0))
        for got, want in zip(res.records, records):
            assert got.e_n == pytest.approx(want.e_n, rel=1e-12, abs=0)
        for got, want in ((res.final_state.v, state.v), (res.final_state.tau, state.tau)):
            assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-12 * np.max(np.abs(want.coeffs))

    @pytest.mark.parametrize("case", ["alias_free_host", "mass_outside_ball"])
    def test_unreduced_runs_equal_host_loop_bitwise(self, case):
        """A grid the rule cannot shrink and data outside the ball (whose
        products would alias) both keep the caller's grid: the rule hands
        back its inputs, and the run equals the host loop on them bitwise."""
        if case == "alias_free_host":
            initial, noise = small_grid_inputs()
        else:
            run, _ = desk_step_inputs()
            initial, noise = run.initial, run.noise
        host = initial.v.grid
        if case == "mass_outside_ball":  # the field lies in the dealias box
            shell = random_field(run.grid, 4.0, "vector", seed=62).coeffs * ~run.grid.ball_mask
            initial = FlowState(0.0, VectorField(run.grid, initial.v.coeffs + 1e-3 * shell),
                                initial.tau)
        state = on_alias_free_grid(initial, noise)
        assert state is initial
        if case == "alias_free_host":  # the survival_ensemble member grid: 11 x 6 of 16 x 16
            assert state.v.coeffs.shape == (2, 11, 6)
        params = PhysicalParams(nu=0.5, a=0.2, b=0.5, mu1=1.0, mu2=1.0)
        stepper = StepperConfig(dt=1e-3, horizon=0.03)
        mon = MonitorConfig(threshold=1e6, s=2.0)
        res = simulate(initial, params, noise, stepper, mon, rng=rng_for_run(63, 0))
        records, event, final, _ = host_loop(initial, params, noise, stepper, mon, rng_for_run(63, 0))
        assert res.records == records and res.event == event
        assert res.final_state.v.grid is host
        assert np.array_equal(res.final_state.v.coeffs, final.v.coeffs)
        assert np.array_equal(res.final_state.tau.coeffs, final.tau.coeffs)

    def test_plans_on_the_host_and_reduced_grids_agree_at_shared_modes(self):
        """One grid-free model, placed by a plan on the 64-mode host grid and by
        one on the 50-mode grid the run steps on: sigma's parts, v's factor
        `keep` and a jump's increment agree bitwise at the modes both hold."""
        run, _ = desk_step_inputs()
        host, noise = run.grid, run.noise
        reduced = make_grid(2, 50, 2 * math.pi, 16)
        assert noise.signature(reduced) == noise.signature(host)
        small, big = (StepPlan(g, run.params, run.stepper.dt, noise) for g in (reduced, host))
        v = truncate(random_field(host, 4.0, "vector", seed=64), 16)
        v_small = relayout(v, reduced)
        dw1 = rng_for_run(66, 0).standard_normal(noise.J)
        for got, want in zip(small.sigma_parts(dw1), big.sigma_parts(dw1)):
            assert np.array_equal(got, relayout(VectorField(host, want), reduced).coeffs)
        gamma = noise.jump.gamma(0.4)
        pairs = [
            (VectorField(reduced, small.keep * v_small.coeffs),
             VectorField(host, big.keep * v.coeffs)),
            (VectorField(reduced, (gamma * small.kappa) * v_small.coeffs),
             VectorField(host, (gamma * big.kappa) * v.coeffs)),
        ]
        for got, want in pairs:
            assert np.array_equal(got.coeffs, relayout(want, reduced).coeffs)

"""Integrator: closed forms, determinism, jump ordering, replay, FFT and
memory budgets."""
import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from stoldroyd.config import materialize, parse_config
from stoldroyd.dynamics import FlowState, PhysicalParams
from stoldroyd.monitor import MonitorConfig, StoppingEvent, detect_stop, energy
from stoldroyd.noise import (
    JumpConfig,
    JumpOperator,
    NoisePath,
    SigmaInstance,
    StepNoise,
    StressNoiseInstance,
    WienerQConfig,
    rng_for_run,
)
from stoldroyd.spectral import (
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
    StepperConfig,
    on_alias_free_grid,
    simulate,
    step,
)

import oracles

GRID = make_grid(2, 64, 2 * math.pi, 16)
MON = MonitorConfig(threshold=1e9, s=2.0)


def zero_fields(grid=GRID):
    v = VectorField(grid, np.zeros((grid.dim,) + grid.shape, dtype=complex), div_free=True)
    tau = TensorField(grid, np.zeros((grid.dim, grid.dim) + grid.shape, dtype=complex),
                      symmetric=True)
    return v, tau


def perpendicular_mode(grid, k, amp=1.0):
    """Hermitian single-mode divergence-free velocity."""
    c = np.zeros((grid.dim,) + grid.shape, dtype=complex)
    perp = np.array([-k[1], k[0]], dtype=float)
    perp /= np.linalg.norm(perp)
    c[:, k[0], k[1]] = amp * perp
    c[:, -k[0], -k[1]] = np.conj(amp * perp)
    return VectorField(grid, c, div_free=True)


def full_noise_model(grid=GRID):
    wiener = WienerQConfig(lambda0=0.05, J=6)
    return NoiseModel(
        wiener=wiener,
        sigma=SigmaInstance(grid, wiener, c0=0.3, c1=0.2),
        stress=StressNoiseInstance(grid, "identity", c_h=0.25),
        jump=JumpOperator(grid, JumpConfig(rate=3.0, gamma_kind="constant", gamma0=0.1)),
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
            sigma=SigmaInstance(GRID, wiener, c0=0.0, c1=0.5),  # multiplicative only
            stress=StressNoiseInstance(GRID, "identity", c_h=0.4),
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
        v0 = VectorField(grid, np.zeros((2,) + grid.shape, dtype=complex), div_free=True)
        tau_c = np.zeros((2, 2) + grid.shape, dtype=complex)
        tau_c[0, 0, 1, 0] = 1.0
        tau_c[0, 0, -1, 0] = 1.0
        tau_c[1, 1, 1, 0] = 1.0
        tau_c[1, 1, -1, 0] = 1.0
        tau0 = TensorField(grid, tau_c, symmetric=True)
        params = PhysicalParams(nu=0.0, a=0.0, b=0.0, mu1=0.0, mu2=0.0, nonlinear=False)
        noise = NoiseModel(stress=StressNoiseInstance(grid, "identity", c_h=c_h))
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
        op = JumpOperator(GRID, cfg)
        noise = NoiseModel(jump=op)
        params = PhysicalParams(nu=0.0, a=0.0, b=0.0, mu1=0.0, mu2=0.0, nonlinear=False)
        v0 = truncate(random_field(GRID, 4.0, "vector", seed=5), 16)
        _, tau0 = zero_fields()
        dt = 0.01
        sn = StepNoise(dw1=np.zeros(0), dw2=0.0, jumps=((0.002, 0.5), (0.007, -0.25)))
        out = step(FlowState(0.0, v0, tau0), params, noise, sn, dt)

        v1 = v0.coeffs - dt * op.compensator(v0).coeffs
        v1 = v1 / 1.0
        vf = VectorField(GRID, v1)
        for z in (0.5, -0.25):
            inc = truncate(op.jump_increment(vf, z), 16)
            vf = VectorField(GRID, vf.coeffs + inc.coeffs)
        want = leray_project(truncate(vf, 16.0)).coeffs
        assert np.array_equal(out.v.coeffs, want)

    def test_pure_jump_run_stays_divergence_free_and_truncated(self):
        cfg = JumpConfig(rate=50.0, gamma_kind="constant", gamma0=0.2)
        noise = NoiseModel(jump=JumpOperator(GRID, cfg))
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
        other = NoiseModel(wiener=WienerQConfig(lambda0=0.05, J=3),
                           sigma=SigmaInstance(GRID, WienerQConfig(lambda0=0.05, J=3), 0.1, 0.0))
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
        noise = NoiseModel(wiener=wiener, sigma=SigmaInstance(GRID, wiener, c0=1.0, c1=0.0))
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
        v0 = VectorField(GRID, 1e6 * truncate(random_field(GRID, 2.0, "vector", seed=15), 16).coeffs,
                         div_free=True)
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


# traced allocation peak of one desk step plus its energy record (README
# config) when the noise product still had its own transforms and the
# velocity was projected three times per step
DESK_STEP_PEAK_BYTES = 3_117_160


def desk_step_inputs():
    run = materialize(parse_config(README_DESK))
    assert all(ch is not None for ch in (run.noise.sigma, run.noise.stress, run.noise.jump))
    sn = StepNoise(dw1=np.full(run.noise.J, 0.03), dw2=0.02, jumps=((0.0004, 0.5),))
    return run, sn


class TestTransformBudget:
    def test_desk_step_makes_at_most_three_transforms(self, monkeypatch):
        """One physical-space pass per step, noise product included: at most
        3 n-d FFT calls and exactly one Leray projection."""
        run, sn = desk_step_inputs()
        calls = []
        for name in ("fftn", "ifftn"):
            def counted(*args, _original=getattr(np.fft, name), _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        projections = []

        def counted_projection(v, _original=leray_project):
            projections.append(v)
            return _original(v)

        for module in list(sys.modules.values()):
            if module is not None and module.__name__.startswith("stoldroyd") \
                    and getattr(module, "leray_project", None) is leray_project:
                monkeypatch.setattr(module, "leray_project", counted_projection)
        out = step(run.initial, run.params, run.noise, sn, run.stepper.dt)
        assert np.all(np.isfinite(out.v.coeffs))
        assert len(calls) <= 3
        assert len(projections) == 1

    def test_desk_step_and_energy_stay_within_memory_budget(self):
        """Allocation sizes are deterministic, so the traced peak is too."""
        run, sn = desk_step_inputs()
        out = step(run.initial, run.params, run.noise, sn, run.stepper.dt)  # first-call allocations
        energy(out, run.monitor.s, run.params, 0.0)
        tracemalloc.start()
        try:
            out = step(run.initial, run.params, run.noise, sn, run.stepper.dt)
            energy(out, run.monitor.s, run.params, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= DESK_STEP_PEAK_BYTES

    @pytest.mark.parametrize("c0, c1", [(0.0, 0.2), (0.5, 0.0), (0.5, 0.2)])
    def test_sigma_increment_matches_separate_operations(self, c0, c1):
        """What the velocity noise adds to a full nonlinear desk step equals
        P(trunc(c0 Sigma + c1 dealias(Phi v))) computed operation by operation."""
        run, _ = desk_step_inputs()
        grid, wiener = run.grid, run.noise.wiener
        sigma = SigmaInstance(grid, wiener, c0=c0, c1=c1)
        noise = NoiseModel(wiener=wiener, sigma=sigma, stress=run.noise.stress)
        params = replace(run.params, nu=0.0)  # the viscous solve would rescale the increment
        dw = rng_for_run(50, 0).standard_normal(wiener.J)

        def velocity_after(dw1):
            sn = StepNoise(dw1=dw1, dw2=0.02, jumps=())
            return step(run.initial, params, noise, sn, run.stepper.dt).v.coeffs

        got = velocity_after(dw) - velocity_after(np.zeros(wiener.J))
        additive, profile = sigma.parts(dw)
        want = oracles.sigma_increment(
            grid.xi, grid.dealias_mask, grid.ball_mask,
            0.0 if additive is None else additive,
            np.zeros(grid.shape) if profile is None else profile,
            run.initial.v.coeffs,
        )
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def host_loop(initial, params, noise, stepper, monitor, rng):
    """`simulate`'s loop stepped on the caller's grid: the reference for the
    reduced-grid runs.  Returns records, event, final state, drawn noise."""
    sampler = noise.sampler(rng)
    records = [energy(initial, monitor.s, params, 0.0)]
    state, steps, cum_diss = initial, [], 0.0
    event = detect_stop(records, monitor.threshold)
    while event is None and len(steps) < stepper.n_steps:
        steps.append(sampler.sample_step(stepper.dt))
        cum_diss += stepper.dt * records[-1].gradv_hs2
        state = step(state, params, noise, steps[-1], stepper.dt)
        records.append(energy(state, monitor.s, params, cum_diss))
        event = detect_stop(records[-1:], monitor.threshold)
    if event is None:
        event = StoppingEvent("horizon", stepper.actual_horizon, records[-1].e_n)
    return records, event, state, steps


def small_grid_inputs():
    """16 modes, cutoff 5: the alias-free size of the cutoff is the grid's own."""
    grid = make_grid(2, 16, 2 * math.pi, 5)
    wiener = WienerQConfig(lambda0=0.1, J=8)
    noise = NoiseModel(
        wiener=wiener,
        sigma=SigmaInstance(grid, wiener, c0=0.5, c1=0.2),
        stress=StressNoiseInstance(grid, "identity", c_h=0.3),
        jump=JumpOperator(grid, JumpConfig(rate=2.0, gamma_kind="constant", gamma0=0.1)),
    )
    v0 = truncate(random_field(grid, 4.0, "vector", seed=60), 5)
    tau0 = truncate(random_field(grid, 4.0, "tensor", seed=61), 5)
    return FlowState(0.0, v0, tau0), noise


class TestAliasFreeSimulate:
    def test_desk_run_steps_on_50_modes_and_matches_host_grid(self):
        run, _ = desk_step_inputs()
        reduced, _ = on_alias_free_grid(run.initial, run.noise)
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
        initial = FlowState(0.0, VectorField(run.grid, 0.05 * v0.coeffs, div_free=True),
                            TensorField(run.grid, 0.05 * tau0.coeffs, symmetric=True))
        stepper = StepperConfig(dt=1e-3, horizon=3e-3)
        mon = MonitorConfig(threshold=1e9, s=2.0)
        res = simulate(initial, run.params, run.noise, stepper, mon, rng=rng_for_run(70, 0))
        records, _, state, _ = host_loop(initial, run.params, run.noise, stepper, mon,
                                         rng_for_run(70, 0))
        for got, want in zip(res.records, records):
            assert got.e_n == pytest.approx(want.e_n, rel=1e-12, abs=0)
        for got, want in ((res.final_state.v, state.v), (res.final_state.tau, state.tau)):
            assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-12 * np.max(np.abs(want.coeffs))

    @pytest.mark.parametrize("case", ["alias_free_host", "bump", "mass_outside_ball"])
    def test_unreduced_runs_equal_host_loop_bitwise(self, case):
        """A grid the rule cannot shrink, a bump profile (sampled per grid),
        and data outside the ball (whose products would alias) all step on
        the caller's grid, bitwise as the host loop."""
        if case == "alias_free_host":
            initial, noise = small_grid_inputs()
        else:
            run, _ = desk_step_inputs()
            initial, noise = run.initial, run.noise
        if case == "bump":
            noise = replace(noise, stress=StressNoiseInstance(run.grid, "bump", c_h=0.3))
        if case == "mass_outside_ball":
            shell = random_field(run.grid, 4.0, "vector", seed=62).coeffs * ~run.grid.ball_mask
            initial = FlowState(0.0, VectorField(run.grid, initial.v.coeffs + 1e-3 * shell),
                                initial.tau)
        state, model = on_alias_free_grid(initial, noise)
        assert state is initial and model is noise
        params = PhysicalParams(nu=0.5, a=0.2, b=0.5, mu1=1.0, mu2=1.0)
        stepper = StepperConfig(dt=1e-3, horizon=0.03)
        mon = MonitorConfig(threshold=1e6, s=2.0)
        res = simulate(initial, params, noise, stepper, mon, rng=rng_for_run(63, 0))
        records, event, state, _ = host_loop(initial, params, noise, stepper, mon,
                                             rng_for_run(63, 0))
        assert res.records == records and res.event == event
        assert np.array_equal(res.final_state.v.coeffs, state.v.coeffs)
        assert np.array_equal(res.final_state.tau.coeffs, state.tau.coeffs)

    def test_rebuilt_channels_act_as_host_channels_after_relayout(self):
        run, _ = desk_step_inputs()
        host, noise = run.grid, run.noise
        reduced = make_grid(2, 50, 2 * math.pi, 16)
        moved = noise.on(reduced)
        assert moved.wiener is noise.wiener and moved.signature(reduced) == noise.signature(host)
        v = truncate(random_field(host, 4.0, "vector", seed=64), 16)
        tau = truncate(random_field(host, 4.0, "tensor", seed=65), 16)
        v_small, tau_small = relayout(v, reduced), relayout(tau, reduced)
        dw1 = rng_for_run(66, 0).standard_normal(noise.J)
        for got, want in zip(moved.sigma.parts(dw1), noise.sigma.parts(dw1)):
            assert np.array_equal(got, relayout(VectorField(host, want), reduced).coeffs)
        pairs = [
            (moved.stress.s_apply(tau_small), noise.stress.s_apply(tau)),
            (moved.stress.s_squared(tau_small), noise.stress.s_squared(tau)),
            (moved.jump.compensator(v_small), noise.jump.compensator(v)),
            (moved.jump.jump_increment(v_small, 0.4), noise.jump.jump_increment(v, 0.4)),
        ]
        for got, want in pairs:
            assert got.grid is reduced
            assert np.array_equal(got.coeffs, relayout(want, reduced).coeffs)
        a = moved.sampler(rng_for_run(67, 0)).sample_step(1e-3)
        b = noise.sampler(rng_for_run(67, 0)).sample_step(1e-3)
        assert np.array_equal(a.dw1, b.dw1) and (a.dw2, a.jumps) == (b.dw2, b.jumps)
        # a bump profile keeps its width: rebuilt on a grid of the same size it is the same
        bump = StressNoiseInstance(host, "bump", c_h=0.3, bump_width=0.7)
        again = bump.on(make_grid(2, 64, 2 * math.pi, 8))
        assert np.array_equal(again.h.coeffs, bump.h.coeffs)

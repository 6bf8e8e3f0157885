"""Studies layer: ensembles, refinement, twins, and the verification suite."""
import json
import math

import numpy as np
import pytest

from stoldroyd import experiments
from stoldroyd.dynamics import FlowState, PhysicalParams
from stoldroyd.experiments import (
    EXACT_TOLERANCE,
    inequality_suite,
    refinement_single_path,
    refinement_study,
    run_ensemble,
    twin_uniqueness,
    wilson_interval,
)
from stoldroyd.noise import (
    JumpConfig,
    JumpOperator,
    NoisePath,
    SigmaInstance,
    StressNoiseInstance,
    WienerQConfig,
    rng_for_run,
)
from stoldroyd.spectral import (
    TensorField,
    VectorField,
    hs_norm,
    make_grid,
    random_field,
    relayout,
    truncate,
)
from stoldroyd.stepping import NoiseModel, StepperConfig, step

import oracles

GRID = make_grid(2, 32, 2 * math.pi, 8)
PARAMS = PhysicalParams(nu=0.5, a=0.2, b=0.3, mu1=1.0, mu2=1.0)


def ball_state(seed_v, seed_tau, scale=1.0, grid=GRID):
    v = truncate(random_field(grid, 5.0, "vector", seed=seed_v), grid.truncation_radius)
    tau = truncate(random_field(grid, 5.0, "tensor", seed=seed_tau), grid.truncation_radius)
    return FlowState(
        0.0,
        VectorField(grid, scale * v.coeffs, div_free=True),
        TensorField(grid, scale * tau.coeffs, symmetric=True),
    )


def light_noise(grid=GRID):
    wiener = WienerQConfig(lambda0=0.02, J=4)
    return NoiseModel(
        wiener=wiener,
        sigma=SigmaInstance(grid, wiener, c0=0.2, c1=0.1),
        stress=StressNoiseInstance(grid, "identity", c_h=0.1),
        jump=JumpOperator(grid, JumpConfig(rate=2.0, gamma_kind="constant", gamma0=0.05)),
    )


class TestWilsonInterval:
    def test_matches_oracle(self):
        for successes, n in [(0, 30), (15, 30), (30, 30), (197, 200), (1, 100)]:
            got = wilson_interval(successes, n)
            want = oracles.wilson_interval(successes, n, oracles.Z_95)
            assert got == pytest.approx(want, rel=1e-13)

    def test_clamped_into_unit_interval(self):
        low, high = wilson_interval(0, 30)
        assert low == 0.0 and 0.0 < high < 1.0
        low, high = wilson_interval(30, 30)
        assert 0.0 < low < 1.0
        assert high == pytest.approx(1.0, abs=1e-12) and high <= 1.0

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="positive sample count"):
            wilson_interval(0, 0)


class TestRunEnsemble:
    def test_zero_data_zero_noise_survives_everywhere(self):
        zero = FlowState(
            0.0,
            VectorField(GRID, np.zeros((2,) + GRID.shape, dtype=complex), div_free=True),
            TensorField(GRID, np.zeros((2, 2) + GRID.shape, dtype=complex), symmetric=True),
        )
        res = run_ensemble(zero, PARAMS, NoiseModel(), StepperConfig(dt=1e-3, horizon=5e-3),
                           threshold=1.0, deltas=[1e-3, 3e-3], n_runs=30, master_seed=1)
        assert res.survival == (1.0, 1.0)
        assert all(r == math.inf for r in res.rho)
        assert res.n_divergences == 0

    def test_validation(self):
        state = ball_state(1, 2)
        stepper = StepperConfig(dt=1e-3, horizon=0.01)
        with pytest.raises(ValueError, match="n_runs must be >= 30"):
            run_ensemble(state, PARAMS, NoiseModel(), stepper,
                         threshold=1.0, deltas=[1e-3], n_runs=10, master_seed=0)
        with pytest.raises(ValueError, match="exceeds the simulated horizon"):
            run_ensemble(state, PARAMS, NoiseModel(), stepper,
                         threshold=1.0, deltas=[0.5], n_runs=30, master_seed=0)
        with pytest.raises(ValueError, match="must be positive"):
            run_ensemble(state, PARAMS, NoiseModel(), stepper,
                         threshold=1.0, deltas=[0.0, 1e-3], n_runs=30, master_seed=0)

    def test_execution_order_invariance(self):
        def scrambled(fn, xs):
            xs = list(xs)
            cache = {x: fn(x) for x in reversed(xs)}
            return [cache[x] for x in xs]

        state = ball_state(3, 4)
        noise = light_noise()
        kwargs = dict(threshold=1e3, deltas=[2e-3, 4e-3], n_runs=30, master_seed=5)
        stepper = StepperConfig(dt=1e-3, horizon=5e-3)
        forward = run_ensemble(state, PARAMS, noise, stepper, **kwargs)
        backward = run_ensemble(state, PARAMS, noise, stepper, map_over_runs=scrambled, **kwargs)
        assert forward == backward

    def test_csv_sink_sees_each_run_before_the_next_starts(self):
        events = []

        def serial_map(fn, xs):
            for x in xs:
                events.append(("start", x))
                yield fn(x)

        run_ensemble(ball_state(3, 4), PARAMS, light_noise(), StepperConfig(dt=1e-3, horizon=2e-3),
                     threshold=1e3, deltas=[1e-3], n_runs=30, master_seed=5,
                     map_over_runs=serial_map, csv_sink=lambda i, records: events.append(("sink", i)))
        assert events == [e for i in range(30) for e in (("start", i), ("sink", i))]

    def test_amplitude_pairing_with_deterministic_threshold(self):
        """Data above the threshold stops at t = 0; half of it survives."""
        big = ball_state(6, 7, scale=1.0)
        e_big = hs_norm(big.v, 2.0) ** 2 + hs_norm(big.tau, 2.0) ** 2
        half = ball_state(6, 7, scale=0.5)
        stepper = StepperConfig(dt=1e-3, horizon=4e-3)
        kwargs = dict(threshold=0.5 * e_big, deltas=[1e-3, 2e-3], n_runs=30, master_seed=8)
        full_res = run_ensemble(big, PARAMS, NoiseModel(), stepper, **kwargs)
        half_res = run_ensemble(half, PARAMS, NoiseModel(), stepper, **kwargs)
        assert full_res.survival == (0.0, 0.0)
        assert half_res.survival == (1.0, 1.0)
        assert all(r == 0.0 for r in full_res.rho)

    def test_randomized_initial_data_matches_template_norms(self):
        """Redrawn data reproduces the template's H^s energy, observable
        through a threshold bracketing E_N(0)."""
        template = ball_state(9, 10)
        e0 = hs_norm(template.v, 2.0) ** 2 + hs_norm(template.tau, 2.0) ** 2
        stepper = StepperConfig(dt=1e-3, horizon=2e-3)
        below = run_ensemble(template, PARAMS, NoiseModel(), stepper,
                             threshold=0.999 * e0, deltas=[1e-3], n_runs=30,
                             master_seed=11, randomize_initial=True)
        above = run_ensemble(template, PARAMS, NoiseModel(), stepper,
                             threshold=1.5 * e0, deltas=[1e-3], n_runs=30,
                             master_seed=11, randomize_initial=True)
        assert below.survival == (0.0,)
        assert all(r == 0.0 for r in below.rho)
        assert above.survival == (1.0,)

    def test_survival_consistent_with_rho_and_intervals_bounded(self):
        state = ball_state(12, 13)
        noise = light_noise()
        e0 = hs_norm(state.v, 2.0) ** 2 + hs_norm(state.tau, 2.0) ** 2
        res = run_ensemble(state, PARAMS, noise, StepperConfig(dt=1e-3, horizon=8e-3),
                           threshold=1.02 * e0, deltas=[1e-3, 2e-3, 4e-3],
                           n_runs=30, master_seed=14)
        for i, delta in enumerate(res.deltas):
            manual = sum(1 for r in res.rho if r > delta) / res.n_runs
            assert res.survival[i] == manual
        assert all(a >= b for a, b in zip(res.survival, res.survival[1:]))
        assert all(0.0 <= lo <= hi <= 1.0
                   for lo, hi in zip(res.wilson_low, res.wilson_high))


def refine_noise(grid):
    wiener = WienerQConfig(lambda0=0.02, J=4)
    return NoiseModel(
        wiener=wiener,
        sigma=SigmaInstance(grid, wiener, c0=0.2, c1=0.1),
        stress=StressNoiseInstance(grid, "identity", c_h=0.1),
        jump=JumpOperator(grid, JumpConfig(rate=2.0, gamma_kind="constant", gamma0=0.05)),
    )


def recorded_path(model, grid, dt, n_steps, seed=21, signature=None):
    sampler = model.sampler(rng_for_run(seed, 0))
    steps = [sampler.sample_step(dt) for _ in range(n_steps)]
    return NoisePath.record(dt, signature or model.signature(grid), steps)


def record_steps(monkeypatch):
    """Collect every state the refinement loop steps to, by cutoff."""
    trajectories = {}
    inner = experiments.step

    def recording(state, *args):
        new = inner(state, *args)
        trajectories.setdefault(new.v.grid.truncation_radius, []).append(new)
        return new

    monkeypatch.setattr(experiments, "step", recording)
    return trajectories


class TestRefinement:
    def test_validation(self):
        base = make_grid(2, 48, 2 * math.pi, 16)
        iv = truncate(random_field(base, 6.0, "vector", seed=1), 16)
        it = truncate(random_field(base, 6.0, "tensor", seed=2), 16)
        stepper = StepperConfig(dt=1e-3, horizon=1e-2)
        with pytest.raises(ValueError, match="strictly increasing"):
            refinement_study(iv, it, PARAMS, stepper, [16.0, 8.0], refine_noise(base),
                             threshold=1e6, n_paths=1, master_seed=0)
        with pytest.raises(ValueError, match="at least two"):
            refinement_study(iv, it, PARAMS, stepper, [8.0], refine_noise(base),
                             threshold=1e6, n_paths=1, master_seed=0)
        with pytest.raises(ValueError, match="n_paths"):
            refinement_study(iv, it, PARAMS, stepper, [8.0, 16.0], refine_noise(base),
                             threshold=1e6, n_paths=0, master_seed=0)

    def test_matching_cutoffs_give_exactly_zero(self):
        base = make_grid(2, 32, 2 * math.pi, 8)
        iv = truncate(random_field(base, 5.0, "vector", seed=3), 8)
        it = truncate(random_field(base, 5.0, "tensor", seed=4), 8)
        stepper = StepperConfig(dt=1e-3, horizon=5e-3)
        path = recorded_path(refine_noise(base), base, stepper.dt, stepper.n_steps)
        stats, window = refinement_single_path(
            iv, it, PARAMS, stepper, [8.0, 8.0], path, refine_noise(base),
            threshold=1e6)
        (sup_v, sup_tau, grad_int), = stats
        assert sup_v == 0.0 and sup_tau == 0.0 and grad_int == 0.0
        assert window == stepper.actual_horizon

    def test_reduced_grids_match_host_grid_runs(self, monkeypatch):
        """Each cutoff steps on its smallest alias-free grid; embedded back
        into the host layout, every state matches a run on the host grid.
        The path is longer than the run, which takes the stepper's steps."""
        base = make_grid(2, 48, 2 * math.pi, 16)
        iv = truncate(random_field(base, 6.0, "vector", seed=11), 16)
        it = truncate(random_field(base, 6.0, "tensor", seed=12), 16)
        stepper = StepperConfig(dt=1e-3, horizon=6e-3)
        path = recorded_path(refine_noise(base), base, stepper.dt, 10)
        trajectories = record_steps(monkeypatch)
        _, window = refinement_single_path(iv, it, PARAMS, stepper, [4.0, 8.0, 16.0], path,
                                           refine_noise(base), threshold=1e6)
        assert window == stepper.actual_horizon
        sizes = {c: traj[0].v.grid.modes_per_axis for c, traj in trajectories.items()}
        assert sizes == {4.0: 14, 8.0: 26, 16.0: 48}
        for c, traj in trajectories.items():
            assert len(traj) == stepper.n_steps
            host = make_grid(2, 48, 2 * math.pi, c)
            state = FlowState(0.0, VectorField(host, truncate(iv, c).coeffs, div_free=True),
                              TensorField(host, truncate(it, c).coeffs, symmetric=True))
            noise = refine_noise(host)
            for i, reduced in enumerate(traj):
                state = step(state, PARAMS, noise, path.step_noise(i), stepper.dt)
                for got, want in ((reduced.v, state.v), (reduced.tau, state.tau)):
                    embedded = relayout(got, host).coeffs
                    assert np.max(np.abs(embedded - want.coeffs)) <= 1e-12 * np.max(np.abs(want.coeffs))

    def test_bump_stress_noise_keeps_host_grid(self, monkeypatch):
        base = make_grid(2, 48, 2 * math.pi, 16)
        iv = truncate(random_field(base, 6.0, "vector", seed=13), 16)
        it = truncate(random_field(base, 6.0, "tensor", seed=14), 16)
        stepper = StepperConfig(dt=1e-3, horizon=2e-3)
        for h_kind, sizes in (("bump", {4.0: 48, 8.0: 48}), ("identity", {4.0: 14, 8.0: 26})):
            model = refine_noise(base)
            model.stress = StressNoiseInstance(base, h_kind, c_h=0.1)
            path = recorded_path(model, base, stepper.dt, stepper.n_steps)
            trajectories = record_steps(monkeypatch)
            refinement_single_path(iv, it, PARAMS, stepper, [4.0, 8.0], path, model,
                                   threshold=1e6)
            assert {c: traj[0].v.grid.modes_per_axis for c, traj in trajectories.items()} == sizes

    def test_wide_noise_basis_widens_small_cutoff_grid(self, monkeypatch):
        """J = 81 reaches |k| = 5, which the 14-mode grid of cutoff 4 cannot
        hold; the cutoff gets 16 modes instead of an error."""
        base = make_grid(2, 48, 2 * math.pi, 16)
        iv = truncate(random_field(base, 6.0, "vector", seed=15), 16)
        it = truncate(random_field(base, 6.0, "tensor", seed=16), 16)
        stepper = StepperConfig(dt=1e-3, horizon=2e-3)
        wiener = WienerQConfig(lambda0=0.02, J=81)
        model = NoiseModel(wiener=wiener, sigma=SigmaInstance(base, wiener, c0=0.2, c1=0.1))
        assert model.sigma.basis.kmax == 5
        path = recorded_path(model, base, stepper.dt, stepper.n_steps)
        trajectories = record_steps(monkeypatch)
        _, window = refinement_single_path(iv, it, PARAMS, stepper, [4.0, 8.0], path, model,
                                           threshold=1e6)
        assert window == stepper.actual_horizon
        sizes = {c: traj[0].v.grid.modes_per_axis for c, traj in trajectories.items()}
        assert sizes == {4.0: 16, 8.0: 26}

    def test_noise_path_checked_against_stepper(self):
        base = make_grid(2, 32, 2 * math.pi, 8)
        iv = truncate(random_field(base, 5.0, "vector", seed=3), 8)
        it = truncate(random_field(base, 5.0, "tensor", seed=4), 8)
        stepper = StepperConfig(dt=1e-3, horizon=5e-3)
        model = refine_noise(base)
        bad_paths = {
            "dt": recorded_path(model, base, 2e-3, 10),
            "basis": recorded_path(model, base, 1e-3, 10, signature=(2, 2 * math.pi, 3)),
            "holds 4 steps": recorded_path(model, base, 1e-3, 4),
        }
        for message, path in bad_paths.items():
            with pytest.raises(ValueError, match=message):
                refinement_single_path(iv, it, PARAMS, stepper, [4.0, 8.0], path,
                                       model, threshold=1e6)

    def test_support_confined_linear_run_differences_vanish(self):
        """With the nonlinearity off and all channels support-preserving
        below the smallest cutoff, every cutoff computes the same bits."""
        base = make_grid(2, 32, 2 * math.pi, 10)
        iv = truncate(random_field(base, 5.0, "vector", seed=5), 3.0)
        it = truncate(random_field(base, 5.0, "tensor", seed=6), 3.0)
        params = PhysicalParams(nu=0.4, a=0.3, b=0.2, mu1=1.0, mu2=1.0, nonlinear=False)

        wiener = WienerQConfig(lambda0=0.05, J=2)  # only |k| = 1 modes
        confined = NoiseModel(
            wiener=wiener,
            sigma=SigmaInstance(base, wiener, c0=0.3, c1=0.0),
            stress=StressNoiseInstance(base, "identity", c_h=0.2),
            jump=JumpOperator(base, JumpConfig(rate=5.0, gamma_kind="linear", gamma0=0.3)),
        )
        res = refinement_study(iv, it, params, StepperConfig(dt=1e-3, horizon=1e-2),
                               [4.0, 8.0], confined,
                               threshold=1e6, n_paths=2, master_seed=22)
        assert res.sup_v == (0.0,)
        assert res.sup_tau == (0.0,)
        assert res.grad_integral == (0.0,)
        assert res.decay_rate is None

    def test_differences_shrink_with_cutoff(self):
        base = make_grid(2, 48, 2 * math.pi, 16)
        iv = truncate(random_field(base, 6.0, "vector", seed=7), 16)
        it = truncate(random_field(base, 6.0, "tensor", seed=8), 16)
        res = refinement_study(iv, it, PARAMS, StepperConfig(dt=2e-3, horizon=0.04),
                               [4.0, 8.0, 16.0], refine_noise(base),
                               threshold=1e6, n_paths=2, master_seed=23)
        assert res.pairs == ((4.0, 8.0), (8.0, 16.0))
        assert res.sup_v[1] < res.sup_v[0]
        assert all(v >= 0.0 for v in res.sup_v + res.sup_tau + res.grad_integral)
        assert res.window_ends == (0.04, 0.04)
        assert res.decay_rate is not None and res.decay_rate > 0.0
        assert len(res.sup_v_paths[0]) == 2

    def test_window_closes_at_initial_exceedance(self):
        base = make_grid(2, 32, 2 * math.pi, 10)
        iv = truncate(random_field(base, 5.0, "vector", seed=9), 10)
        it = truncate(random_field(base, 5.0, "tensor", seed=10), 10)
        res = refinement_study(iv, it, PARAMS, StepperConfig(dt=1e-3, horizon=1e-2),
                               [4.0, 8.0], refine_noise(base),
                               threshold=1e-12, n_paths=1, master_seed=24)
        assert res.window_ends == (0.0,)
        shell = truncate(iv, 8.0).coeffs - truncate(iv, 4.0).coeffs
        assert res.sup_v == (pytest.approx(math.sqrt(np.sum(np.abs(shell) ** 2)), rel=1e-13),)
        assert res.grad_integral == (0.0,)


class TestTwinUniqueness:
    def test_identical_seeds_bitwise_and_zero_distance(self):
        state = ball_state(15, 16)
        rep = twin_uniqueness(state, PARAMS, light_noise(), StepperConfig(dt=1e-3, horizon=5e-3),
                              master_seed=30, threshold=1e6)
        assert rep.twin_identical
        assert rep.perturbation == 0.0
        assert rep.v_distance == (0.0,)
        assert rep.growth_rate is None

    def test_perturbed_pair_reports_distances(self):
        state = ball_state(17, 18)
        stepper = StepperConfig(dt=1e-3, horizon=5e-3)
        rep = twin_uniqueness(state, PARAMS, light_noise(), stepper,
                              master_seed=31, threshold=1e6, perturbation=1e-6)
        assert rep.twin_identical
        assert rep.v_distance[0] == pytest.approx(1e-6, rel=1e-12)
        assert len(rep.times) == stepper.n_steps + 1
        assert len(rep.v_distance) == len(rep.tau_distance) == len(rep.times)
        assert all(math.isfinite(d) for d in rep.v_distance)
        assert isinstance(rep.growth_rate, float)
        # Short horizon, small data: separation stays small.
        assert max(rep.v_distance) < 1e-2


class TestInequalitySuite:
    def test_trials_floor_enforced(self):
        with pytest.raises(ValueError, match="trials must be >= 100"):
            inequality_suite(0, trials=50)

    def test_full_suite_passes(self):
        rep = inequality_suite(2024, trials=100)
        assert rep.passed
        assert set(rep.max_violation) == {
            "leray_divergence", "transport_orthogonality", "coupling_cancellation",
            "truncation_contraction", "truncation_idempotence", "truncation_composition",
            "truncation_decay", "interpolation", "commutator_additivity",
            "commutator_homogeneity",
        }
        assert all(v <= EXACT_TOLERANCE for v in rep.max_violation.values())
        assert rep.max_violation["leray_divergence"] <= 1e-12
        ratio = rep.fitted_constants["kato_ponce"]
        scaled = rep.fitted_constants["kato_ponce_scaled"]
        assert ratio > 0.0
        assert 0.5 <= scaled / ratio <= 2.0
        assert rep.fitted_constants["tame_q"] > 0.0
        assert rep.fitted_constants["algebra"] > 0.0


class TestSummaries:
    def test_json_round_trips_with_schemas(self):
        state = ball_state(19, 20)
        res = run_ensemble(state, PARAMS, NoiseModel(), StepperConfig(dt=1e-3, horizon=2e-3),
                           threshold=1e6, deltas=[1e-3], n_runs=30, master_seed=40)
        blob = json.loads(json.dumps(res.to_dict()))
        assert blob["schema"] == "ensemble/1"
        assert blob["rho"] == [None] * 30  # horizon reached -> unobserved stopping time

        rep = twin_uniqueness(state, PARAMS, NoiseModel(), StepperConfig(dt=1e-3, horizon=1e-3),
                              master_seed=41, threshold=1e6)
        twin_blob = json.loads(json.dumps(rep.to_dict()))
        assert twin_blob["schema"] == "twin/1"
        assert twin_blob["twin_identical"] is True

        base = make_grid(2, 32, 2 * math.pi, 8)
        iv = truncate(random_field(base, 5.0, "vector", seed=21), 8)
        it = truncate(random_field(base, 5.0, "tensor", seed=22), 8)
        ref = refinement_study(iv, it, PARAMS, StepperConfig(dt=1e-3, horizon=2e-3),
                               [4.0, 8.0], refine_noise(base),
                               threshold=1e6, n_paths=1, master_seed=42)
        ref_blob = json.loads(json.dumps(ref.to_dict()))
        assert ref_blob["schema"] == "refine/1"
        assert ref_blob["pairs"] == [[4.0, 8.0]]

"""Studies layer: ensembles, refinement, and the verification suite."""
import __future__
import inspect
import json
import math
import pickle
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stoldroyd import dynamics, experiments, stepping
from stoldroyd.config import draw_initial
from stoldroyd.dynamics import DriftPass, FlowState, PhysicalParams
from stoldroyd.experiments import (
    EXACT_TOLERANCE,
    inequality_suite,
    refinement_single_path,
    refinement_study,
    run_ensemble,
    wilson_interval,
)
from stoldroyd.noise import JumpConfig, NoisePath, WienerQConfig, noise_catalogue, rng_for_run
from stoldroyd.spectral import (
    ScalarField,
    TensorField,
    VectorField,
    hs_norm,
    make_grid,
    random_field,
    relayout,
    truncate,
)
from stoldroyd.monitor import MonitorConfig
from stoldroyd.stepping import (
    NoiseModel,
    StepPlan,
    StepperConfig,
    on_alias_free_grid,
    simulate,
    step,
)

import oracles

GRID = make_grid(2, 32, 2 * math.pi, 8)
PARAMS = PhysicalParams(nu=0.5, a=0.2, b=0.3, mu1=1.0, mu2=1.0)


def ball_state(seed_v, seed_tau, scale=1.0, grid=GRID):
    v = truncate(random_field(grid, 5.0, "vector", seed=seed_v), grid.truncation_radius)
    tau = truncate(random_field(grid, 5.0, "tensor", seed=seed_tau), grid.truncation_radius)
    return FlowState(
        0.0,
        VectorField(grid, scale * v.coeffs),
        TensorField(grid, scale * tau.coeffs),
    )


def light_noise():
    return NoiseModel(
        wiener=WienerQConfig(lambda0=0.02, J=4),
        c0=0.2,
        c1=0.1,
        c_h=0.1,
        jump=JumpConfig(rate=2.0, gamma_kind="constant", gamma0=0.05),
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


# growth of the traced peak of `run_ensemble` from 30 to 120 members, warm
# (GRID, light noise, 2 steps): 1,199 B measured (1,313 B before the monitor's
# weights were built per `energy_records`); a module-level weight cache grew it
# by 219,970 B when keyed by id(grid) and by 1,659,220 B when keyed by the grid
ENSEMBLE_PEAK_GROWTH_BYTES = 16 * 1024


class TestRunEnsemble:
    def test_zero_data_zero_noise_survives_everywhere(self):
        zero = FlowState(
            0.0,
            VectorField(GRID, np.zeros((2,) + GRID.shape, dtype=complex)),
            TensorField(GRID, np.zeros((2, 2) + GRID.shape, dtype=complex)),
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

    def test_members_record_no_noise_and_match_a_non_recording_run(self, monkeypatch):
        """A recording stepper changes nothing for the members: no NoisePath
        is built, and the result equals that of a non-recording stepper."""
        calls = []
        inner = NoisePath.record
        monkeypatch.setattr(NoisePath, "record",
                            staticmethod(lambda *a: calls.append(1) or inner(*a)))
        kwargs = dict(threshold=1e3, deltas=[2e-3, 4e-3], n_runs=30, master_seed=5)
        recording = run_ensemble(ball_state(3, 4), PARAMS, light_noise(),
                                 StepperConfig(dt=1e-3, horizon=5e-3, record_noise=True),
                                 **kwargs)
        assert calls == []
        plain = run_ensemble(ball_state(3, 4), PARAMS, light_noise(),
                             StepperConfig(dt=1e-3, horizon=5e-3), **kwargs)
        assert recording == plain

    @pytest.mark.parametrize("member_data", [None, (4.0, 2.0)])
    def test_member_tasks_survive_a_pickle_round_trip(self, member_data, monkeypatch):
        """Each task `run_ensemble` maps, sent with its run index and its
        result through a pickle round trip (as a process pool would), gives
        the serial result; members still call `simulate` through this
        module's global, so rebinding it reaches every member."""
        def pickling_map(fn, xs):
            for x in xs:
                task, index = pickle.loads(pickle.dumps((fn, x)))
                yield pickle.loads(pickle.dumps(task(index)))

        state = ball_state(3, 4)
        e0 = hs_norm(state.v, 2.0) ** 2 + hs_norm(state.tau, 2.0) ** 2
        kwargs = dict(threshold=1.003 * e0, deltas=[1e-3, 3e-3], n_runs=30, master_seed=5,
                      member_data=member_data)
        stepper = StepperConfig(dt=1e-3, horizon=4e-3)
        serial = run_ensemble(state, PARAMS, light_noise(), stepper, **kwargs)
        assert 0.0 < serial.survival[-1] < serial.survival[0] < 1.0  # some members stop
        calls = []
        monkeypatch.setattr(experiments, "simulate",
                            lambda *a, **kw: calls.append(1) or simulate(*a, **kw))
        pickled = run_ensemble(state, PARAMS, light_noise(), stepper,
                               map_over_runs=pickling_map, **kwargs)
        assert pickled == serial
        assert len(calls) == 30

    def test_randomized_member_draws_its_data_by_the_config_rule(self, monkeypatch):
        """A randomized member starts from `draw_initial` on its own stream,
        at the template's time, with the template's H^s norms at member_data's
        s, not the monitor's."""
        template = FlowState(0.25, ball_state(9, 10).v, ball_state(9, 10, scale=0.5).tau)
        starts = []
        monkeypatch.setattr(experiments, "simulate",
                            lambda state, *a, **kw: starts.append(state) or simulate(state, *a, **kw))
        run_ensemble(template, PARAMS, NoiseModel(), StepperConfig(dt=1e-3, horizon=2e-3),
                     threshold=1e3, deltas=[1e-3], n_runs=30, master_seed=11, s=1.5,
                     member_data=(6.0, 2.0))
        for index in (0, 29):
            want = draw_initial(GRID, 6.0, rng_for_run(11, index), hs_norm(template.v, 2.0),
                                hs_norm(template.tau, 2.0), 2.0, 0.25)
            got = starts[index]
            assert got.t == 0.25
            assert np.array_equal(got.v.coeffs, want.v.coeffs)
            assert np.array_equal(got.tau.coeffs, want.tau.coeffs)

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

    def test_memory_stays_flat_in_n_runs(self):
        """The traced peak of a 120-member ensemble exceeds a 30-member one's by
        at most ENSEMBLE_PEAK_GROWTH_BYTES: a member keeps only its stopping time
        once folded.  Every member steps on a grid of its own (the alias-free
        grid is smaller than GRID), so anything kept per grid grows with n_runs."""
        state, noise = ball_state(3, 4), light_noise()
        assert on_alias_free_grid(state, noise).v.grid.modes_per_axis < GRID.modes_per_axis

        def peak(n_runs):
            run = dict(threshold=1e3, deltas=[1e-3], n_runs=n_runs, master_seed=5,
                       csv_sink=lambda i, records: None)
            tracemalloc.start()
            try:
                run_ensemble(state, PARAMS, noise, StepperConfig(dt=1e-3, horizon=2e-3), **run)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for n_runs in (30, 120):  # first-use allocations that stay cached
            peak(n_runs)
        assert peak(120) - peak(30) <= ENSEMBLE_PEAK_GROWTH_BYTES

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
                             master_seed=11, member_data=(4.0, 2.0))
        above = run_ensemble(template, PARAMS, NoiseModel(), stepper,
                             threshold=1.5 * e0, deltas=[1e-3], n_runs=30,
                             master_seed=11, member_data=(4.0, 2.0))
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


def recorded_path(model, grid, dt, n_steps, seed=21, signature=None):
    sampler = model.sampler(rng_for_run(seed, 0))
    steps = [sampler.sample_step(dt) for _ in range(n_steps)]
    return NoisePath.record(dt, signature or model.signature(grid), steps)


def record_steps(monkeypatch):
    """Collect every state the refinement loop steps to, by cutoff."""
    trajectories = {}
    inner = stepping.step

    def recording(state, *args):
        new = inner(state, *args)
        trajectories.setdefault(new.v.grid.truncation_radius, []).append(new)
        return new

    monkeypatch.setattr(stepping, "step", recording)
    return trajectories


class TestRefinement:
    def test_validation(self):
        base = make_grid(2, 48, 2 * math.pi, 16)
        iv = truncate(random_field(base, 6.0, "vector", seed=1), 16)
        it = truncate(random_field(base, 6.0, "tensor", seed=2), 16)
        stepper = StepperConfig(dt=1e-3, horizon=1e-2)
        with pytest.raises(ValueError, match="strictly increasing"):
            refinement_study(iv, it, PARAMS, stepper, [16.0, 8.0], light_noise(),
                             threshold=1e6, n_paths=1, master_seed=0)
        with pytest.raises(ValueError, match="at least two"):
            refinement_study(iv, it, PARAMS, stepper, [8.0], light_noise(),
                             threshold=1e6, n_paths=1, master_seed=0)
        with pytest.raises(ValueError, match="n_paths"):
            refinement_study(iv, it, PARAMS, stepper, [8.0, 16.0], light_noise(),
                             threshold=1e6, n_paths=0, master_seed=0)

    @pytest.mark.parametrize("threshold", [0.0, -1.0])
    def test_threshold_not_above_zero_is_rejected_before_any_path(self, monkeypatch, threshold):
        """As `run_ensemble` does, the study builds a `MonitorConfig`, so a
        threshold of 0 or below raises its ValueError before any path runs."""
        base = make_grid(2, 32, 2 * math.pi, 8)
        iv = truncate(random_field(base, 5.0, "vector", seed=3), 8)
        it = truncate(random_field(base, 5.0, "tensor", seed=4), 8)
        monkeypatch.setattr(experiments, "refinement_single_path",
                            lambda *args, **kwargs: pytest.fail("a path ran"))
        with pytest.raises(ValueError, match=f"threshold must be positive, got {threshold}"):
            refinement_study(iv, it, PARAMS, StepperConfig(dt=1e-3, horizon=1e-2), [4.0, 8.0],
                             light_noise(), threshold=threshold, n_paths=1, master_seed=0)

    def test_matching_cutoffs_give_exactly_zero(self):
        base = make_grid(2, 32, 2 * math.pi, 8)
        iv = truncate(random_field(base, 5.0, "vector", seed=3), 8)
        it = truncate(random_field(base, 5.0, "tensor", seed=4), 8)
        stepper = StepperConfig(dt=1e-3, horizon=5e-3)
        path = recorded_path(light_noise(), base, stepper.dt, stepper.n_steps)
        stats, window = refinement_single_path(
            iv, it, PARAMS, stepper, [8.0, 8.0], path, light_noise(),
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
        path = recorded_path(light_noise(), base, stepper.dt, 10)
        trajectories = record_steps(monkeypatch)
        _, window = refinement_single_path(iv, it, PARAMS, stepper, [4.0, 8.0, 16.0], path,
                                           light_noise(), threshold=1e6)
        assert window == stepper.actual_horizon
        sizes = {c: traj[0].v.grid.modes_per_axis for c, traj in trajectories.items()}
        assert sizes == {4.0: 14, 8.0: 26, 16.0: 48}
        for c, traj in trajectories.items():
            assert len(traj) == stepper.n_steps
            host = make_grid(2, 48, 2 * math.pi, c)
            state = FlowState(0.0, VectorField(host, truncate(iv, c).coeffs),
                              TensorField(host, truncate(it, c).coeffs))
            plan = StepPlan(host, PARAMS, stepper.dt, light_noise())
            for i, reduced in enumerate(traj):
                state = step(state, path.step_noise(i), plan)
                for got, want in ((reduced.v, state.v), (reduced.tau, state.tau)):
                    embedded = relayout(got, host).coeffs
                    assert np.max(np.abs(embedded - want.coeffs)) <= 1e-12 * np.max(np.abs(want.coeffs))

    @pytest.mark.parametrize("dim, modes, cutoffs", [(2, 48, [4.0, 8.0, 16.0]),
                                                     (3, 26, [4.0, 8.0])])
    def test_pair_differences_equal_embed_then_subtract_bitwise(self, monkeypatch, dim, modes,
                                                                cutoffs):
        """Each pair's difference subtracts the lower cutoff's box blocks from
        a copy of the higher cutoff's box; its sup and integral values equal,
        bitwise, those of the lower state embedded by `relayout` and then
        subtracted: L2 norms by `hs_norm` at s = 0, the gradient sum by the
        oracle's own sum (the 3D cutoffs step on 14 and 26 modes)."""
        base = make_grid(dim, modes, 2 * math.pi, cutoffs[-1])
        iv = truncate(random_field(base, 6.0, "vector", seed=15), cutoffs[-1])
        it = truncate(random_field(base, 6.0, "tensor", seed=16), cutoffs[-1])
        stepper = StepperConfig(dt=1e-3, horizon=5e-3)
        path = recorded_path(light_noise(), base, stepper.dt, stepper.n_steps)
        trajectories = record_steps(monkeypatch)
        stats, _ = refinement_single_path(iv, it, PARAMS, stepper, cutoffs, path,
                                          light_noise(), threshold=1e6)
        rows = []  # each cutoff's states, at t = 0 and after every step
        for c in cutoffs:
            start = on_alias_free_grid(FlowState(0.0, truncate(iv, c), truncate(it, c)),
                                       light_noise(), c)
            rows.append([start] + trajectories[c])
        for p, (sup_v, sup_tau, grad_int) in enumerate(stats):
            want = [0.0, 0.0, 0.0]
            for i, (lo, hi) in enumerate(zip(rows[p], rows[p + 1])):
                grid = hi.v.grid
                assert grid.shape != lo.v.grid.shape
                dv = hi.v.coeffs - relayout(lo.v, grid).coeffs
                dtau = hi.tau.coeffs - relayout(lo.tau, grid).coeffs
                want[0] = max(want[0], hs_norm(VectorField(grid, dv), 0.0))
                want[1] = max(want[1], hs_norm(TensorField(grid, dtau), 0.0))
                if i < stepper.n_steps:  # left endpoint
                    want[2] += stepper.dt * oracles.weighted_grad_sq(grid.xi_sq, grid.weight, dv)
            assert [sup_v, sup_tau, grad_int] == want and min(want) > 0.0

    def test_wide_noise_basis_widens_small_cutoff_grid(self, monkeypatch):
        """J = 81 reaches |k| = 5, which the 14-mode grid of cutoff 4 cannot
        hold; the cutoff gets 16 modes instead of an error."""
        base = make_grid(2, 48, 2 * math.pi, 16)
        iv = truncate(random_field(base, 6.0, "vector", seed=15), 16)
        it = truncate(random_field(base, 6.0, "tensor", seed=16), 16)
        stepper = StepperConfig(dt=1e-3, horizon=2e-3)
        model = NoiseModel(wiener=WienerQConfig(lambda0=0.02, J=81), c0=0.2, c1=0.1)
        assert noise_catalogue(2, model.J).kmax == 5
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
        model = light_noise()
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

        confined = NoiseModel(
            wiener=WienerQConfig(lambda0=0.05, J=2),  # only |k| = 1 modes
            c0=0.3,
            c1=0.0,
            c_h=0.2,
            jump=JumpConfig(rate=5.0, gamma_kind="linear", gamma0=0.3),
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
                               [4.0, 8.0, 16.0], light_noise(),
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
                               [4.0, 8.0], light_noise(),
                               threshold=1e-12, n_paths=1, master_seed=24)
        assert res.window_ends == (0.0,)
        shell = truncate(iv, 8.0).coeffs - truncate(iv, 4.0).coeffs
        shell = oracles.full_from_box(shell, 2, 32)
        assert res.sup_v == (pytest.approx(math.sqrt(np.sum(np.abs(shell) ** 2)), rel=1e-13),)
        assert res.grad_integral == (0.0,)

    def test_matching_cutoffs_close_the_window_at_the_simulate_stop(self):
        """Both cutoffs run the host's own system, so the window closes at
        the stopping time `simulate` finds on the same path."""
        base = make_grid(2, 32, 2 * math.pi, 8)
        iv = truncate(random_field(base, 5.0, "vector", seed=3), 8)
        it = truncate(random_field(base, 5.0, "tensor", seed=4), 8)
        stepper = StepperConfig(dt=1e-3, horizon=2e-2)
        model = light_noise()
        path = recorded_path(model, base, stepper.dt, stepper.n_steps)
        initial = FlowState(0.0, VectorField(base, iv.coeffs),
                            TensorField(base, it.coeffs))
        free = simulate(initial, PARAMS, model, stepper, MonitorConfig(threshold=1e6),
                        noise_path=path)
        threshold = 0.5 * (free.records[0].e_n + max(r.e_n for r in free.records))
        run = simulate(initial, PARAMS, model, stepper, MonitorConfig(threshold=threshold),
                       noise_path=path)
        assert run.event.kind == "threshold_N"
        assert 0.0 < run.event.t_stop < stepper.actual_horizon
        _, window = refinement_single_path(iv, it, PARAMS, stepper, [8.0, 8.0], path, model,
                                           threshold=threshold)
        assert window == run.event.t_stop


class TestInequalitySuite:
    def test_trials_floor_enforced(self):
        with pytest.raises(ValueError, match="trials must be >= 100"):
            inequality_suite(0, trials=50)

    def test_full_suite_passes(self):
        rep = inequality_suite(2024, trials=100)
        assert rep.passed
        assert set(rep.max_violation) == {
            "leray_divergence", "transport_orthogonality", "coupling_cancellation",
            "corotational_cancellation", "truncation_contraction", "truncation_idempotence",
            "truncation_composition", "truncation_decay", "interpolation",
            "commutator_additivity", "commutator_homogeneity",
        }
        assert all(v <= EXACT_TOLERANCE for v in rep.max_violation.values())
        assert rep.max_violation["leray_divergence"] <= 1e-12

    @staticmethod
    def mutated(function, old, new):
        """`function` compiled from its own source with the one occurrence of
        `old` replaced by `new`, in a copy of its module's namespace."""
        module = inspect.getmodule(function)
        source = textwrap.dedent(inspect.getsource(function))
        assert source.count(old) == 1
        namespace = dict(vars(module))
        code = compile(source.replace(old, new), module.__file__, "exec",
                       flags=__future__.annotations.compiler_flag, dont_inherit=True)
        exec(code, namespace)
        return namespace[function.__name__]

    def failed_rows(self, seed):
        rep = inequality_suite(seed, trials=100)
        failed = {name for name, v in rep.max_violation.items() if v > EXACT_TOLERANCE}
        assert rep.passed == (not failed)
        return failed

    def test_a_pass_whose_q_is_not_symmetrized_fails_the_corotational_row(self, monkeypatch):
        """Q = 2P in place of P + P^T: the pass keeps P's upper triangle, and the
        corotational form no longer drops out of the stress energy."""
        monkeypatch.setattr(dynamics, "_q_pointwise", self.mutated(
            dynamics._q_pointwise, "np.add(p, np.swapaxes(p, 0, 1), out=m)", "np.add(p, p, out=m)"))
        assert self.failed_rows(3) == {"corotational_cancellation"}

    def test_a_pass_without_mu1_div_tau_fails_the_coupling_row(self, monkeypatch):
        """Without the velocity's mu1 div(tau), the stress's mu2 D(v) does work
        that nothing cancels."""
        monkeypatch.setattr(experiments, "explicit_terms", self.mutated(
            dynamics.explicit_terms, "vel *= params.mu1", "vel *= 0.0"))
        assert self.failed_rows(3) == {"coupling_cancellation"}


class TestProfileCommutator:
    """K(phi, u) = J^s(phi u) - phi J^s u with the drift pass's profile product:
    only structural facts are asserted."""

    @staticmethod
    def commutator(phi, u, s):
        return experiments._profile_commutator(phi.coeffs, u, s,
                                               DriftPass(GRID, nonlinear=False, profile=True))

    @given(lam=st.floats(min_value=-8.0, max_value=8.0).filter(lambda x: abs(x) > 1e-3))
    @settings(max_examples=15, deadline=None)
    def test_homogeneity_in_phi(self, lam):
        f = random_field(GRID, 4.0, "scalar", seed=70)
        u = random_field(GRID, 4.0, "vector", seed=71)
        base = self.commutator(f, u, 1.5)
        scaled = self.commutator(ScalarField(GRID, lam * f.coeffs), u, 1.5)
        # K is a difference of two terms each about |lam| times its size, so
        # rounding is measured against the field's scale, not each coefficient
        atol = 1e-14 * np.max(np.abs(lam * base))
        assert np.allclose(scaled, lam * base, rtol=1e-12, atol=atol)

    def test_homogeneity_in_u(self):
        f = random_field(GRID, 4.0, "scalar", seed=72)
        u = random_field(GRID, 4.0, "vector", seed=73)
        base = self.commutator(f, u, 1.5)
        scaled = self.commutator(f, VectorField(GRID, -3.0 * u.coeffs), 1.5)
        assert np.allclose(scaled, -3.0 * base, rtol=1e-12, atol=1e-15)

    def test_additivity_in_phi(self):
        f1 = random_field(GRID, 4.0, "scalar", seed=74)
        f2 = random_field(GRID, 4.0, "scalar", seed=75)
        u = random_field(GRID, 4.0, "vector", seed=76)
        k1 = self.commutator(f1, u, 2.0)
        k2 = self.commutator(f2, u, 2.0)
        ksum = self.commutator(ScalarField(GRID, f1.coeffs + f2.coeffs), u, 2.0)
        assert np.allclose(ksum, k1 + k2, rtol=1e-12, atol=1e-15)

    def test_constant_phi_gives_zero_commutator(self):
        c = np.zeros(GRID.shape, dtype=complex)
        c[0, 0] = 2.0
        u = random_field(GRID, 4.0, "vector", seed=77)
        k = self.commutator(ScalarField(GRID, c), u, 2.0)
        assert hs_norm(VectorField(GRID, k), 0.0) <= 1e-12 * hs_norm(u, 2.0)


class TestSummaries:
    def test_json_round_trips_with_schemas(self):
        state = ball_state(19, 20)
        res = run_ensemble(state, PARAMS, NoiseModel(), StepperConfig(dt=1e-3, horizon=2e-3),
                           threshold=1e6, deltas=[1e-3], n_runs=30, master_seed=40)
        blob = json.loads(json.dumps(res.to_dict()))
        assert blob["schema"] == "ensemble/1"
        assert blob["rho"] == [None] * 30  # horizon reached -> unobserved stopping time

        base = make_grid(2, 32, 2 * math.pi, 8)
        iv = truncate(random_field(base, 5.0, "vector", seed=21), 8)
        it = truncate(random_field(base, 5.0, "tensor", seed=22), 8)
        ref = refinement_study(iv, it, PARAMS, StepperConfig(dt=1e-3, horizon=2e-3),
                               [4.0, 8.0], light_noise(),
                               threshold=1e6, n_paths=1, master_seed=42)
        ref_blob = json.loads(json.dumps(ref.to_dict()))
        assert ref_blob["schema"] == "refine/1"
        assert ref_blob["pairs"] == [[4.0, 8.0]]

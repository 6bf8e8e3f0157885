"""Noise channels: the Q-Wiener catalogue and its placement on a plan's grid,
affine diffusion, stress noise, jumps, replay."""
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import stoldroyd
from stoldroyd.dynamics import FlowState, PhysicalParams
from stoldroyd.noise import (
    JumpConfig,
    NoisePath,
    NoiseSampler,
    StepNoise,
    WienerQConfig,
    _halfspace_wavevectors,
    load_noise_path,
    noise_catalogue,
    rng_for_run,
    save_noise_path,
)
from stoldroyd.spectral import (
    ScalarField,
    SpectralGrid,
    TensorField,
    VectorField,
    bessel,
    divergence_defect,
    hermitian_defect,
    hs_norm,
    leray_project,
    random_field,
    make_grid,
    truncate,
)
from stoldroyd.stepping import NoiseModel, StepPlan, step

import oracles

GRID = make_grid(2, 64, 2 * math.pi, 16)
WIENER = WienerQConfig(lambda0=1.0, J=8)
NOISE_ONLY = PhysicalParams(nu=0.0, a=0.0, b=0.0, mu1=0.0, mu2=0.0, nonlinear=False)


def ball_vector(seed, grid=GRID):
    return truncate(random_field(grid, 4.0, "vector", seed=seed), grid.truncation_radius)


def basis_fields(grid, J, weights):
    """sum_j weights[j] e_j and sum_j weights[j] phi_j of the (dim, J) catalogue
    on `grid`, from the dense oracle over all modes, kept to the grid's box."""
    cat = noise_catalogue(grid.dim, J)
    velocity, profile = oracles.noise_basis_modes(cat.k, cat.p, cat.kind, weights,
                                                  grid.modes_per_axis)
    return (VectorField(grid, oracles.box_from_full(velocity, grid.dim)),
            ScalarField(grid, oracles.box_from_full(profile, grid.dim)))


def basis_field(grid, J, j):
    """e_j and phi_j on `grid`."""
    return basis_fields(grid, J, np.eye(J)[j])


def sigma_model(c0, c1, wiener=WIENER):
    """Only the velocity noise on, at amplitudes c0 and c1."""
    return NoiseModel(wiener=wiener, c0=c0, c1=c1)


def sigma_plan(c0, c1, wiener=WIENER, grid=GRID):
    """A plan on `grid` that places the velocity noise at amplitudes c0 and c1."""
    return StepPlan(grid, NOISE_ONLY, 1e-3, sigma_model(c0, c1, wiener))


class TestWienerQConfig:
    def test_eigenvalue_ladder(self):
        w = WienerQConfig(lambda0=2.0, J=4)
        assert np.allclose(w.eigenvalues, [2.0, 0.5, 2.0 / 9.0, 0.125])

    def test_validation(self):
        with pytest.raises(ValueError, match="lambda0"):
            WienerQConfig(lambda0=0.0, J=4)
        with pytest.raises(ValueError, match="J must"):
            WienerQConfig(lambda0=1.0, J=0)
        with pytest.raises(ValueError, match="decay"):
            WienerQConfig(lambda0=1.0, J=4, decay=1.0)


class TestNoiseCatalogue:
    def test_unit_rms_divergence_free_hermitian(self):
        for j in range(8):
            e = basis_field(GRID, 8, j)[0]
            assert hs_norm(e, 0.0) == pytest.approx(1.0, rel=1e-12)
            assert divergence_defect(e) <= 1e-12
            assert hermitian_defect(e) <= 1e-14

    def test_orthonormal_family(self):
        fields = [basis_field(GRID, 8, j)[0] for j in range(8)]
        from stoldroyd.spectral import l2_inner

        for i in range(8):
            for j in range(8):
                want = 1.0 if i == j else 0.0
                assert l2_inner(fields[i], fields[j]) == pytest.approx(want, abs=1e-13)

    def test_enumeration_deterministic_and_low_mode_first(self):
        """One catalogue per (dim, J), a shorter one the start of a longer one."""
        cat = noise_catalogue(2, 12)
        assert noise_catalogue(2, 12) is cat
        short = noise_catalogue(2, 8)
        for name in ("k", "p", "kind", "smooth"):
            assert np.array_equal(getattr(short, name), getattr(cat, name)[:8]), name
        assert list(np.sum(cat.k ** 2, axis=1)) == sorted(np.sum(cat.k ** 2, axis=1))

    def test_arrays_are_read_only_and_hold_no_grid(self):
        cat = noise_catalogue(3, 12)
        for name in ("k", "p", "kind", "smooth", "held", "j", "entries"):
            array = getattr(cat, name)
            assert not array.flags.writeable, name
            with pytest.raises(ValueError):
                array[0] = 0
        assert cat.kmax == int(np.max(np.abs(cat.k)))
        assert not any(isinstance(v, SpectralGrid) for v in vars(cat).values())

    def test_built_on_first_use_not_at_import(self):
        """Importing the package and its command line builds no catalogue."""
        code = ("import stoldroyd.cli, stoldroyd.noise as n; "
                "assert n.noise_catalogue.cache_info().currsize == 0")
        src = os.path.dirname(os.path.dirname(stoldroyd.__file__))
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})

    def test_3d_polarizations_orthogonal(self):
        cat = noise_catalogue(3, 8)
        for j in range(8):
            kv = cat.k[j].astype(float)
            assert abs(cat.p[j] @ kv) <= 1e-12
            assert np.linalg.norm(cat.p[j]) == pytest.approx(1.0, rel=1e-12)

    def test_profile_smoothing_weights(self):
        phi = basis_field(GRID, 4, 0)[1]
        cat = noise_catalogue(2, 4)
        k = tuple(cat.k[0])
        want = math.sqrt(2.0) / (1.0 + sum(c * c for c in k)) * 0.5
        assert phi.coeffs[k] == pytest.approx(want, rel=1e-14)
        assert 0.5 * cat.smooth[0] == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("dim, top, radius", [(2, 99, 12), (3, 364, 8)])
    def test_wavevectors_match_brute_force(self, dim, top, radius):
        """Every count gets the first `count` half-lattice vectors by (|k|^2, k),
        including counts whose last vector lies outside the first search box."""
        box = range(-radius, radius + 1)
        ks = [k for k in itertools.product(box, repeat=dim)
              if any(k) and next(c for c in k if c != 0) > 0]
        ks.sort(key=lambda k: (sum(c * c for c in k), k))
        assert sum(c * c for c in ks[top - 1]) <= radius * radius  # the box holds them all
        for count in range(1, top + 1):
            assert _halfspace_wavevectors(dim, count) == ks[:count], count

    def test_basis_too_wide_for_grid_rejected(self):
        """A box that cannot hold the catalogue raises, in the check and in a plan."""
        tiny = make_grid(2, 8, 2 * math.pi, 2)
        with pytest.raises(ValueError, match="dealias cutoff"):
            noise_catalogue(2, 40).check_grid(tiny)
        with pytest.raises(ValueError, match="noise basis needs modes up to"):
            sigma_plan(1.0, 0.0, WienerQConfig(lambda0=1.0, J=40), tiny)


class TestSampleIncrement:
    @staticmethod
    def increment(sampler, plan, dt):
        """One step's dW_j and the field sum_j sqrt(lambda_j) dW_j e_j, sigma's
        additive part at c0 = 1."""
        dw1 = sampler.sample_step(dt).dw1
        return dw1, VectorField(GRID, plan.sigma_parts(dw1)[0].copy())

    def test_zero_dt_gives_zero(self):
        plan = sigma_plan(1.0, 0.0)
        sampler = NoiseSampler(WIENER.J, JumpConfig(rate=0.0), rng_for_run(1, 0))
        dw1, field = self.increment(sampler, plan, 0.0)
        assert np.all(dw1 == 0)
        assert np.all(field.coeffs == 0)

    def test_same_seed_identical(self):
        a = NoiseSampler(WIENER.J, JumpConfig(rate=0.0), rng_for_run(7, 3)).sample_step(1e-3)
        b = NoiseSampler(WIENER.J, JumpConfig(rate=0.0), rng_for_run(7, 3)).sample_step(1e-3)
        assert np.array_equal(a.dw1, b.dw1)

    def test_increment_variance(self):
        """Sample variance of dW_j matches dt within 3 standard errors."""
        dt = 0.25
        n = 100_000
        rng = rng_for_run(11, 0)
        draws = math.sqrt(dt) * rng.standard_normal(n)
        var = float(np.var(draws, ddof=1))
        se = oracles.sample_variance_se(n, dt)
        assert abs(var - dt) <= 3 * se

    def test_parseval_second_moment(self):
        """E ||sum sqrt(lambda_j) dW_j e_j||^2_{L2} = dt * sum lambda_j."""
        dt = 0.1
        n = 4000
        plan = sigma_plan(1.0, 0.0)
        rng = rng_for_run(13, 0)
        sampler = NoiseSampler(WIENER.J, JumpConfig(rate=0.0), rng)
        sq = np.empty(n)
        for i in range(n):
            _, field = self.increment(sampler, plan, dt)
            sq[i] = hs_norm(field, 0.0) ** 2
        want = dt * float(np.sum(WIENER.eigenvalues))
        se = float(np.std(sq, ddof=1) / math.sqrt(n))
        assert abs(float(np.mean(sq)) - want) <= 3 * se


def noise_step(model, v, dw):
    """Velocity after one step from (v, tau = 0) with only the velocity noise of
    `model` acting; drift and viscosity are off."""
    tau = TensorField(GRID, np.zeros((2, 2) + GRID.shape, dtype=complex))
    sn = StepNoise(dw1=np.asarray(dw, dtype=float), dw2=0.0, jumps=())
    return step(FlowState(0.0, v, tau), sn, StepPlan(GRID, NOISE_ONLY, 1e-3, model)).v.coeffs


def noise_increment(model, v, dw):
    """What the velocity noise adds to one step from v."""
    return noise_step(model, v, dw) - noise_step(model, v, np.zeros(model.J))


class TestSigmaPlacement:
    """A `StepPlan` places the catalogue's held coefficients on its grid: sigma's
    kept modes and columns, and the rows its parts fill."""

    def test_zero_amplitudes_zero_output(self):
        """c0 = c1 = 0 leaves the step exactly as without the channel."""
        dw = np.ones(WIENER.J)
        assert sigma_plan(0.0, 0.0).sigma_parts(dw) == (None, None)
        v = ball_vector(1)
        assert np.array_equal(noise_step(sigma_model(0.0, 0.0), v, dw),
                              noise_step(NoiseModel(), v, dw))

    @pytest.mark.parametrize("dim, M, J", [(2, 16, 8), (2, 32, 81), (3, 12, 12), (3, 14, 3)])
    def test_parts_equal_the_basis_sums(self, dim, M, J):
        """Each part, one product of dW1 with the columns a plan keeps, equals the
        dense sum over the basis within 1e-15 of its largest coefficient: the
        columns are summed in another order.  Several entries share a mode here: cos
        and sin of one k, 3D's two polarizations, and in 2D the -k of a k on
        the zero plane.  Two plans share no memory."""
        grid = make_grid(dim, M, 2 * math.pi)
        wiener = WienerQConfig(lambda0=0.7, J=J)
        plan = sigma_plan(0.6, 1.3, wiener, grid)
        dw1 = rng_for_run(91, J).standard_normal(J)
        w = np.sqrt(wiener.eigenvalues) * dw1
        additive, profile = plan.sigma_parts(dw1)
        velocity, phi = basis_fields(grid, J, 0.6 * w)[0], basis_fields(grid, J, 1.3 * w)[1]
        for got, want in ((additive, velocity.coeffs), (profile, phi.coeffs)):
            assert got.shape == want.shape and np.any(want)
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        again = sigma_plan(0.6, 1.3, wiener, grid).sigma_parts(dw1)
        for a in (additive, profile):
            assert not any(np.shares_memory(a, b) for b in again)
        assert sigma_plan(0.0, 1.3, wiener, grid).sigma_parts(dw1)[0] is None
        assert sigma_plan(0.6, 0.0, wiener, grid).sigma_parts(dw1)[1] is None

    @pytest.mark.parametrize("J", [3, 8, 12, 81])
    @pytest.mark.parametrize("dim, M", [(2, 16), (2, 26), (2, 50), (2, 96), (3, 12), (3, 14)])
    def test_kept_columns_equal_the_dense_construction(self, dim, M, J):
        """The kept modes and columns, placed from the catalogue's held
        coefficients, equal bit for bit those of the J box-sized fields
        c0 sqrt(lambda_j) e_j over c1 sqrt(lambda_j) phi_j and their nonzero
        modes, also where several entries share a mode, for an amplitude below
        zero or at zero."""
        grid = make_grid(dim, M, 2 * math.pi)
        wiener = WienerQConfig(lambda0=0.7, J=J)
        units = [basis_field(grid, J, j) for j in range(J)]
        for c0, c1 in ((0.6, 1.3), (-0.6, 0.0), (0.0, -1.3)):
            plan = sigma_plan(c0, c1, wiener, grid)
            columns = np.stack([np.concatenate([c0 * s * e.coeffs, c1 * s * phi.coeffs[np.newaxis]])
                                for s, (e, phi) in zip(np.sqrt(wiener.eigenvalues), units)])
            columns = columns.reshape(J, -1)
            index = np.flatnonzero(np.any(columns, axis=0))
            assert plan.index.tobytes() == index.tobytes()
            assert plan.columns.shape == (J, index.size)
            assert plan.columns.tobytes() == columns[:, index].tobytes()

    def test_parts_into_a_plans_rows_equal_a_fresh_plans(self):
        """Rows zeroed once take every later call's parts: `sigma_parts` writes
        only its kept modes, so each call equals a fresh plan's first, bitwise."""
        plan = sigma_plan(0.5, 0.8)
        rng = rng_for_run(9, 0)
        for _ in range(3):
            dw = rng.standard_normal(WIENER.J)
            got, want = plan.sigma_parts(dw), sigma_plan(0.5, 0.8).sigma_parts(dw)
            assert all(np.shares_memory(part, plan.rows) for part in got)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    def test_additive_only_ignores_velocity(self):
        """With c1 = 0 no product is formed: the step adds exactly c0 Sigma."""
        dw = rng_for_run(2, 0).standard_normal(WIENER.J)
        additive, profile = sigma_plan(0.7, 0.0).sigma_parts(dw)
        assert profile is None
        for seed in (2, 3):
            v = ball_vector(seed)
            want = leray_project(truncate(VectorField(GRID, v.coeffs + additive),
                                          GRID.truncation_radius)).coeffs
            assert np.array_equal(noise_step(sigma_model(0.7, 0.0), v, dw), want)

    def test_output_divergence_free_and_truncated(self):
        model = sigma_model(0.5, 0.8)
        dw = rng_for_run(4, 0).standard_normal(WIENER.J)
        v = ball_vector(5)
        out = VectorField(GRID, noise_step(model, v, dw))
        inc = noise_increment(model, v, dw)
        outside = ~np.broadcast_to(GRID.ball_mask, inc.shape)
        assert divergence_defect(out) <= 1e-12
        assert np.all(out.coeffs[outside] == 0)
        assert np.all(inc[outside] == 0)
        assert np.max(np.abs(inc)) > 1e-3 * np.max(np.abs(v.coeffs))

    def test_affine_difference_is_linear_part(self):
        """increment(v1) - increment(v2) is the multiplicative part of v1 - v2."""
        model = sigma_model(0.5, 0.8)
        dw = rng_for_run(6, 0).standard_normal(WIENER.J)
        v1, v2 = ball_vector(6), ball_vector(7)
        lhs = noise_increment(model, v1, dw) - noise_increment(model, v2, dw)
        xi, dealias, ball = oracles.full_geometry(2, 64, GRID.truncation_radius)
        profile = sigma_plan(0.5, 0.8).sigma_parts(dw)[1]
        rhs = oracles.box_from_full(oracles.sigma_increment(
            xi, dealias, ball, 0.0, oracles.full_from_box(profile, 2, 64),
            oracles.full_from_box(v1.coeffs - v2.coeffs, 2, 64)), 2)
        scale = np.max(np.abs(lhs)) + np.max(np.abs(rhs))
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * scale

    def test_multiplicative_scaling_exact_for_powers_of_two(self):
        model = sigma_model(0.0, 1.3)
        dw = rng_for_run(8, 0).standard_normal(WIENER.J)
        v = ball_vector(8)
        base = noise_step(model, v, dw)
        doubled = noise_step(model, VectorField(GRID, 2.0 * v.coeffs), dw)
        assert np.array_equal(doubled, 2.0 * base)

class TestJumps:
    def test_validation(self):
        with pytest.raises(ValueError, match="rate"):
            JumpConfig(rate=-1.0)
        with pytest.raises(ValueError, match="z_min < z_max"):
            JumpConfig(rate=1.0, z_min=2.0, z_max=1.0)
        with pytest.raises(ValueError, match="gamma_kind"):
            JumpConfig(rate=1.0, gamma_kind="quadratic")

    def test_closed_form_gamma_moments(self):
        c = JumpConfig(rate=3.0, z_min=0.0, z_max=2.0, gamma_kind="linear", gamma0=0.5)
        assert c.gamma_bar == pytest.approx(0.5 * 1.0)  # mean mark = 1
        const = JumpConfig(rate=1.0, gamma_kind="constant", gamma0=0.7)
        assert const.gamma_bar == 0.7

    def test_zero_rate_no_jumps(self):
        sampler = NoiseSampler(4, JumpConfig(rate=0.0, gamma0=0.0), rng_for_run(20, 0))
        for _ in range(50):
            assert sampler.sample_step(0.01).jumps == ()

    def test_draws_follow_documented_order(self):
        """dW1 block, dW2, jump count, then offsets and marks, drawn one at a
        time; a step without jumps draws nothing after its count."""
        cfg = JumpConfig(rate=500.0, z_min=-1.0, z_max=2.0, gamma0=1.0)
        J, dt = 5, 2e-3
        sampler = NoiseSampler(J, cfg, rng_for_run(23, 0))
        ref = rng_for_run(23, 0)
        counts = []
        for _ in range(2000):
            got = sampler.sample_step(dt)
            dw1 = np.array([math.sqrt(dt) * ref.standard_normal() for _ in range(J)])
            dw2 = math.sqrt(dt) * ref.standard_normal()
            count = int(ref.poisson(cfg.rate * dt))
            offsets = sorted(ref.uniform(0.0, dt) for _ in range(count))
            marks = [ref.uniform(cfg.z_min, cfg.z_max) for _ in range(count)]
            assert np.array_equal(got.dw1, dw1)
            assert got.dw2 == dw2
            assert got.jumps == tuple(zip(offsets, marks))
            counts.append(count)
        assert counts.count(0) > 100 and max(counts) >= 3

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_one_normal_draw_equals_the_two_call_order(self, seed):
        """One draw of J + 1 normals per step gives the stream of a draw of J
        and then one, with the jump draws interleaved: 200 steps equal a
        two-call sampler's bitwise."""
        cfg = JumpConfig(rate=300.0, z_min=-1.0, z_max=2.0, gamma0=1.0)
        J, dt = 6, 2e-3
        sampler = NoiseSampler(J, cfg, rng_for_run(seed, 0))
        ref = rng_for_run(seed, 0)
        for _ in range(200):
            got = sampler.sample_step(dt)
            dw1 = math.sqrt(dt) * ref.standard_normal(J)
            dw2 = math.sqrt(dt) * float(ref.standard_normal())
            count = int(ref.poisson(cfg.rate * dt))
            jumps = ()
            if count:
                offsets = np.sort(ref.uniform(0.0, dt, size=count))
                marks = ref.uniform(cfg.z_min, cfg.z_max, size=count)
                jumps = tuple((float(t), float(z)) for t, z in zip(offsets, marks))
            assert got.dw1.tobytes() == dw1.tobytes()
            assert got.dw2 == dw2 and got.jumps == jumps

    def test_compensator_constant_gamma(self):
        """The compensator rate * gamma_bar * (kappa * v) is rate * gamma_bar times the
        plan's kappa times v, and v's factor `keep` is 1 - dt times it, bitwise."""
        cfg = JumpConfig(rate=2.5, gamma_kind="constant", gamma0=0.3)
        plan = StepPlan(GRID, NOISE_ONLY, 1e-3, NoiseModel(jump=cfg))
        v = ball_vector(21)
        want = 2.5 * 0.3 * bessel(v, -2.0).coeffs
        assert np.allclose(2.5 * 0.3 * plan.kappa * v.coeffs, want, rtol=1e-14, atol=0)
        assert plan.keep.tobytes() == (1.0 - 1e-3 * (2.5 * 0.3 * plan.kappa)).tobytes()

    def test_jump_count_mean(self):
        """Mean count over many steps sits within 3 standard errors of rate*dt."""
        rate, dt, n = 5.0, 0.02, 100_000
        sampler = NoiseSampler(1, JumpConfig(rate=rate, gamma0=1.0), rng_for_run(22, 0))
        counts = np.array([len(sampler.sample_step(dt).jumps) for _ in range(n)])
        se = oracles.poisson_mean_se(rate * dt, n)
        assert abs(counts.mean() - rate * dt) <= 3 * se

    def test_jump_increment_smooths_and_preserves_divfree(self):
        """A jump adds gamma(z) * kappa * v, kappa the plan's."""
        cfg = JumpConfig(rate=1.0, gamma_kind="linear", gamma0=2.0)
        plan = StepPlan(GRID, NOISE_ONLY, 1e-3, NoiseModel(jump=cfg))
        v = ball_vector(23)
        inc = VectorField(GRID, (cfg.gamma(0.5) * plan.kappa) * v.coeffs)
        assert divergence_defect(inc) <= 1e-12
        # kappa damps high modes more than low ones
        assert hs_norm(inc, 1.0) <= 2.0 * 0.5 * hs_norm(v, 1.0)


class TestNoisePathRoundTrip:
    def test_bitwise_npz_round_trip(self, tmp_path):
        sampler = NoiseSampler(6, JumpConfig(rate=8.0, gamma0=1.0), rng_for_run(30, 0))
        steps = [sampler.sample_step(1e-3) for _ in range(40)]
        path = NoisePath.record(1e-3, (2, 2 * math.pi, 6), steps)
        f = tmp_path / "noise.npz"
        save_noise_path(path, f)
        loaded = load_noise_path(f)
        assert loaded.dt == path.dt
        assert loaded.signature == path.signature
        assert np.array_equal(loaded.dw1, path.dw1)
        assert np.array_equal(loaded.dw2, path.dw2)
        assert np.array_equal(loaded.jump_step, path.jump_step)
        assert np.array_equal(loaded.jump_offset, path.jump_offset)
        assert np.array_equal(loaded.jump_mark, path.jump_mark)
        for i in (0, 17, 39):
            assert loaded.step_noise(i).jumps == path.step_noise(i).jumps

    def test_version_guard(self, tmp_path):
        f = tmp_path / "bad.npz"
        np.savez(
            f, version=np.int64(99), dt=np.float64(0.1), dim=np.int64(2),
            box_length=np.float64(1.0), J=np.int64(2), dw1=np.zeros((1, 2)),
            dw2=np.zeros(1), jump_step=np.zeros(0, dtype=np.int64),
            jump_offset=np.zeros(0), jump_mark=np.zeros(0),
        )
        with pytest.raises(ValueError, match="version"):
            load_noise_path(f)

    def test_step_noise_returns_each_steps_jumps(self):
        sampler = NoiseSampler(2, JumpConfig(rate=100.0, gamma0=1.0), rng_for_run(31, 0))
        steps = [sampler.sample_step(1e-2) for _ in range(30)]
        path = NoisePath.record(1e-2, (2, 2 * math.pi, 2), steps)
        assert any(len(s.jumps) > 1 for s in steps)
        assert any(not s.jumps for s in steps)
        for i, s in enumerate(steps):
            assert path.step_noise(i).jumps == s.jumps

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("jump_step", {"jump_step": [1, 0]}),
            ("jump_step", {"jump_step": [0, 2]}),
            ("jump_step", {"jump_step": [-1, 0]}),
            ("jump_step", {"jump_step": [[0, 1]], "jump_offset": [[0.0, 0.0]],
                           "jump_mark": [[0.0, 0.0]]}),
            ("jump_offset", {"jump_offset": np.zeros(1)}),
            ("jump_mark", {"jump_mark": np.zeros(3)}),
            ("dw1", {"dw1": np.zeros((2, 5))}),
            ("dw1", {"dw1": np.zeros(2)}),
            ("dw2", {"dw2": np.zeros(3)}),
        ],
    )
    def test_bad_jump_steps_rejected(self, tmp_path, field, bad):
        f = tmp_path / "bad.npz"
        arrays = dict(
            dw1=np.zeros((2, 2)), dw2=np.zeros(2), jump_step=np.array([0, 1], dtype=np.int64),
            jump_offset=np.zeros(2), jump_mark=np.zeros(2),
        )
        arrays.update({k: np.asarray(v) for k, v in bad.items()})
        np.savez(
            f, version=np.int64(1), dt=np.float64(0.1), dim=np.int64(2),
            box_length=np.float64(1.0), J=np.int64(2), **arrays,
        )
        with pytest.raises(ValueError, match=field):
            load_noise_path(f)

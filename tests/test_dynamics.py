"""The drift pass: deformation/vorticity, the Q form, advection, couplings."""
import math
from dataclasses import replace

import numpy as np
import pytest

from stoldroyd import dynamics, spectral, stepping
from stoldroyd.dynamics import (
    DriftPass,
    FlowState,
    PhysicalParams,
    advect_vector,
    explicit_terms,
)
from stoldroyd.noise import StepNoise, WienerQConfig
from stoldroyd.spectral import (
    TensorField,
    VectorField,
    divergence_defect,
    gradient_vector,
    hs_norm,
    l2_inner,
    leray_project,
    make_grid,
    random_field,
    symmetry_defect,
    truncate,
)
from stoldroyd.stepping import NoiseModel, StepPlan, trajectory

import oracles

GRID = make_grid(2, 64, 2 * math.pi, 16)
GRID_3D = make_grid(3, 20, 2 * math.pi, 5)
PARAMS = PhysicalParams(nu=0.1, a=0.5, b=0.3, mu1=0.7, mu2=0.9)
BOTH_DIMS = pytest.mark.parametrize("grid", [GRID, GRID_3D], ids=["2d", "3d"])


def ball_field(kind, seed, grid=GRID, alpha=4.0):
    """Random field truncated to the spectral ball (admissible dynamics data)."""
    f = random_field(grid, alpha, kind, seed=seed)
    return truncate(f, grid.truncation_radius)


def pass_for(grid, params, profile=None):
    """A fresh drift pass on `grid` of the kind `params` and `profile` run."""
    return DriftPass(grid, params.nonlinear, profile is not None)


def drift(state, params):
    """Leray-projected nonstiff velocity drift and the stress drift: the pass's
    gradient part with the relaxation -a tau, which the step applies, added."""
    grid = state.v.grid
    vel, stress, _ = explicit_terms(state, params, None, pass_for(grid, params))
    return (leray_project(VectorField(grid, vel)),
            TensorField(grid, stress - params.a * state.tau.coeffs))


def pass_stress(v, tau, params):
    """The pass's stress output with the quadratic terms on, tau's transport
    and Q(tau, grad v) among them, as a field."""
    return TensorField(v.grid, explicit_terms(FlowState(0.0, v, tau), params, None,
                                              pass_for(v.grid, params))[1])


def pass_deformation(v):
    """D(v) as the pass forms it: the linear pass's stress output at mu2 = 1."""
    unit = PhysicalParams(nu=0.0, a=0.0, b=0.0, mu1=0.0, mu2=1.0, nonlinear=False)
    return pass_stress(v, zero_state(v.grid).tau, unit)


def noise_plan(grid, params=PARAMS):
    """A plan on `grid` placing the velocity noise J = 4, c0 = 0.3, c1 = 0.2."""
    noise = NoiseModel(wiener=WienerQConfig(lambda0=0.1, J=4), c0=0.3, c1=0.2)
    return StepPlan(grid, params, 1e-3, noise)


def divergence_rows(xi, tau_hat):
    """Row-wise divergence (div tau)_a = sum_b d_b tau_ab from the scalar oracle."""
    return np.array([oracles.divergence_modes(xi, row) for row in tau_hat])


def zero_state(grid=GRID):
    v = VectorField(grid, np.zeros((grid.dim,) + grid.shape, dtype=complex))
    tau = TensorField(grid, np.zeros((grid.dim, grid.dim) + grid.shape, dtype=complex))
    return FlowState(0.0, v, tau)


class TestPhysicalParams:
    def test_slip_parameter_bounds(self):
        with pytest.raises(ValueError, match=r"b must lie in \[-1, 1\]"):
            PhysicalParams(nu=0.1, a=0.0, b=1.5, mu1=1.0, mu2=1.0)
        PhysicalParams(nu=0.1, a=0.0, b=1.0, mu1=1.0, mu2=1.0)
        PhysicalParams(nu=0.1, a=0.0, b=-1.0, mu1=1.0, mu2=1.0)

    def test_negative_viscosity_rejected(self):
        with pytest.raises(ValueError, match="nu"):
            PhysicalParams(nu=-0.1, a=0.0, b=0.0, mu1=1.0, mu2=1.0)

    def test_zero_viscosity_allowed(self):
        p = PhysicalParams(nu=0.0, a=0.0, b=0.0, mu1=0.0, mu2=0.0)
        assert p.nu == 0.0

    def test_negative_relaxation_rejected(self):
        with pytest.raises(ValueError, match="a must"):
            PhysicalParams(nu=0.1, a=-2.0, b=0.0, mu1=1.0, mu2=1.0)


class TestDeformationVorticity:
    def test_zero_velocity(self):
        st = zero_state()
        assert np.all(pass_deformation(st.v).coeffs == 0)
        assert np.all(oracles.vorticity_modes(GRID.xi, st.v.coeffs) == 0)

    def test_single_mode_formula(self):
        """D_hat = (i xi (x) v_hat + i v_hat (x) xi) / 2 at one mode."""
        k = (-3, 2)
        vhat = np.array([1.0 + 0.5j, -0.7 + 0.2j])
        c = np.zeros((2,) + GRID.shape, dtype=complex)
        c[:, k[0], k[1]] = vhat
        d = pass_deformation(VectorField(GRID, c))
        xi = np.array([-3.0, 2.0])
        want = 0.5j * (np.outer(vhat, xi) + np.outer(xi, vhat))
        got = d.coeffs[:, :, k[0], k[1]]
        assert np.allclose(got, want, rtol=1e-14, atol=0)

    def test_deformation_exactly_symmetric(self):
        d = pass_deformation(ball_field("vector", 1))
        assert symmetry_defect(d) == 0.0
        assert oracles.equals_its_transpose(d.coeffs)

    def test_vorticity_exactly_skew(self):
        w = oracles.vorticity_modes(GRID.xi, ball_field("vector", 2).coeffs)
        assert np.array_equal(w, -np.swapaxes(w, 0, 1))

    def test_parts_sum_to_gradient(self):
        """D + W reconstructs grad v (up to the one rounding each half takes)."""
        v = ball_field("vector", 3)
        total = pass_deformation(v).coeffs + oracles.vorticity_modes(GRID.xi, v.coeffs)
        g = gradient_vector(v).coeffs
        assert np.max(np.abs(total - g)) <= 1e-15 * np.max(np.abs(g))


class TestQForm:
    """Q on the pass's stress output, mu2 = 0: -(v.grad)tau - Q(tau, grad v)."""

    QUADRATIC = PhysicalParams(nu=0.1, a=0.0, b=0.0, mu1=0.0, mu2=0.0)

    @BOTH_DIMS
    def test_identity_stress_gives_slip_term_only(self, grid):
        """tau = I commutes with W and is not transported, so the output is
        -Q = 2 b D(v)."""
        v = ball_field("vector", 4, grid)
        c = np.zeros((grid.dim, grid.dim) + grid.shape, dtype=complex)
        c[(*np.diag_indices(grid.dim),) + (0,) * grid.dim] = 1.0
        tau = TensorField(grid, c)
        b = 0.25
        got = pass_stress(v, tau, PhysicalParams(nu=0.1, a=0.0, b=b, mu1=0.0, mu2=0.0))
        want = 2.0 * b * oracles.deformation_modes(grid.xi, v.coeffs)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got.coeffs - want)) <= 1e-13 * scale

    def test_zero_velocity_gives_zero(self):
        tau = ball_field("tensor", 5)
        got = pass_stress(zero_state().v, tau, PhysicalParams(nu=0.1, a=0.0, b=0.7, mu1=0.0,
                                                              mu2=0.0))
        assert np.all(got.coeffs == 0)

    @BOTH_DIMS
    def test_corotational_energy_neutrality(self, grid):
        """b = 0: (Q(tau, grad v), tau)_L2 vanishes by the trace identity, and
        the transport term by skew-symmetry."""
        for seed in range(10):
            v = ball_field("vector", seed, grid)
            tau = ball_field("tensor", seed + 50, grid)
            q = pass_stress(v, tau, self.QUADRATIC)
            val = abs(l2_inner(q, tau))
            scale = hs_norm(q, 0.0) * hs_norm(tau, 0.0)
            assert val <= 1e-10 * scale

    def test_output_exactly_symmetric(self):
        v = ball_field("vector", 6)
        tau = ball_field("tensor", 7)
        q = pass_stress(v, tau, PhysicalParams(nu=0.1, a=0.0, b=0.4, mu1=0.0, mu2=0.0))
        assert symmetry_defect(q) == 0.0
        assert oracles.equals_its_transpose(q.coeffs)

    def test_bilinearity(self):
        v = ball_field("vector", 8)
        tau = ball_field("tensor", 9)
        params = PhysicalParams(nu=0.1, a=0.0, b=0.4, mu1=0.0, mu2=0.0)
        base = pass_stress(v, tau, params)
        doubled = pass_stress(v, TensorField(GRID, 2.0 * tau.coeffs), params)
        assert np.array_equal(doubled.coeffs, 2.0 * base.coeffs)  # power of two: exact
        scaled = pass_stress(v, TensorField(GRID, 0.3 * tau.coeffs), params)
        assert np.allclose(scaled.coeffs, 0.3 * base.coeffs, rtol=1e-12, atol=1e-16)


class TestAdvection:
    def test_constant_field_not_transported(self):
        v = ball_field("vector", 10)
        c = np.zeros((2,) + GRID.shape, dtype=complex)
        c[:, 0, 0] = [2.0, -1.0]
        u = VectorField(GRID, c)
        assert np.all(advect_vector(v, u).coeffs == 0)

    def test_skew_symmetry_after_truncation(self):
        for seed in range(10):
            v = ball_field("vector", seed + 100)
            u = ball_field("vector", seed + 200)
            val = abs(l2_inner(advect_vector(v, u), u))
            scale = hs_norm(v, 1.0) * hs_norm(u, 1.0) * hs_norm(u, 0.0)
            assert val <= 1e-10 * scale

    @BOTH_DIMS
    def test_pass_self_advection_is_skew(self, grid):
        """((v.grad)v, v) = 0 on the pass's velocity output with mu1 = mu2 = 0."""
        params = PhysicalParams(nu=0.1, a=0.0, b=0.3, mu1=0.0, mu2=0.0)
        quadratic = pass_for(grid, params)
        for seed in range(10):
            v = ball_field("vector", seed + 250, grid)
            tau = ball_field("tensor", seed + 260, grid)
            vel, _, _ = explicit_terms(FlowState(0.0, v, tau), params, None, quadratic)
            adv = VectorField(grid, vel)
            assert abs(l2_inner(adv, v)) <= 1e-10 * hs_norm(adv, 0.0) * hs_norm(v, 0.0)

    def test_divergence_form_identity(self):
        """(v.grad)u = div(v (x) u) for divergence-free v."""
        v = ball_field("vector", 11)
        u = ball_field("vector", 12)
        adv = advect_vector(v, u)
        pv, pu = GRID.inverse(v.coeffs), GRID.inverse(u.coeffs)
        # row-wise divergence wants T_ab = u_a v_b: (div T)_a = (v.grad)u_a + u_a div v
        outer = np.einsum("a...,b...->ab...", pu, pv)
        chat = oracles.box_from_full(np.fft.fftn(outer, axes=(-2, -1), norm="forward"), 2)
        div_form = truncate(VectorField(GRID, divergence_rows(GRID.xi, chat)),
                            GRID.truncation_radius)
        scale = hs_norm(adv, 0.0)
        assert np.max(np.abs(adv.coeffs - div_form.coeffs)) <= 1e-10 * scale

    def test_tensor_transport_preserves_symmetry(self):
        """Transport plus Q leave a symmetric stress drift exactly symmetric."""
        v = ball_field("vector", 13)
        tau = ball_field("tensor", 14)
        params = PhysicalParams(nu=0.1, a=0.0, b=0.3, mu1=0.0, mu2=0.0)
        _, sd = drift(FlowState(0.0, v, tau), params)
        assert symmetry_defect(sd) == 0.0
        assert oracles.equals_its_transpose(sd.coeffs)


class TestVelocityDrift:
    def test_rest_state(self):
        vd, sd = drift(zero_state(), PARAMS)
        assert np.all(vd.coeffs == 0)
        assert np.all(sd.coeffs == 0)

    def test_single_mode_viscous_decay_only(self):
        """A perpendicular single mode has no self-interaction, so only the
        viscous decay (left to the implicit solve) acts on it."""
        tau = zero_state().tau
        # shear mode v = (v_0(x_1), 0), with its partner at (0, -4) implied:
        # every product term is an exact zero
        c = np.zeros((2,) + GRID.shape, dtype=complex)
        c[0][0, 4] = -4.0
        vd, _ = drift(FlowState(0.0, VectorField(GRID, c), tau), PARAMS)
        assert np.all(vd.coeffs == 0)
        # oblique mode, its partner at -k implied: (v.grad)v cancels to
        # rounding, far below the viscous term
        k = (3, 4)
        c = np.zeros((2,) + GRID.shape, dtype=complex)
        c[0][k] = -4.0
        c[1][k] = 3.0
        vd, _ = drift(FlowState(0.0, VectorField(GRID, c), tau), PARAMS)
        viscous = PARAMS.nu * 25.0 * c
        assert np.max(np.abs(vd.coeffs)) <= 1e-12 * np.max(np.abs(viscous))

    def test_output_divergence_free(self):
        st = FlowState(0.0, ball_field("vector", 15), ball_field("tensor", 16))
        vd, _ = drift(st, PARAMS)
        assert divergence_defect(vd) <= 1e-12

    @BOTH_DIMS
    def test_coupling_cancellation(self, grid):
        """(div tau, v) + (D(v), tau) = 0: the linear pass's couplings mu1 div(tau)
        and mu2 D(v) do no net work."""
        linear = PhysicalParams(nu=0.1, a=0.5, b=0.3, mu1=0.7, mu2=0.9, nonlinear=False)
        linear_pass = pass_for(grid, linear)
        for seed in range(10):
            v = ball_field("vector", seed + 300, grid)
            tau = ball_field("tensor", seed + 400, grid)
            vel, stress, _ = explicit_terms(FlowState(0.0, v, tau), linear, None, linear_pass)
            total = (l2_inner(VectorField(grid, vel), v) / linear.mu1
                     + l2_inner(TensorField(grid, stress), tau) / linear.mu2)
            scale = hs_norm(tau, 1.0) * hs_norm(v, 1.0)
            assert abs(total) <= 1e-10 * scale

    def test_double_divergence_matches_hand_computation(self):
        """The linear pass's div(tau) at one mode of a symmetric tau, its
        divergence taken by the oracle: div(div tau) = -xi^T tau_hat xi."""
        k = (2, 3)
        A = np.array([[1 + 0.5j, 0.3 - 0.2j], [0.3 - 0.2j, -0.8 + 0.1j]])
        c = np.zeros((2, 2) + GRID.shape, dtype=complex)
        c[:, :, k[0], k[1]] = A
        unit = PhysicalParams(nu=0.0, a=0.0, b=0.0, mu1=1.0, mu2=0.0, nonlinear=False)
        vel, _, _ = explicit_terms(FlowState(0.0, zero_state().v, TensorField(GRID, c)), unit,
                                   None, pass_for(GRID, unit))
        got = oracles.divergence_modes(GRID.xi, vel)[k]
        want = oracles.double_divergence_single_mode(np.array(k, float), A)
        assert got == pytest.approx(want, rel=1e-14)


class TestStressDrift:
    def test_pure_relaxation(self):
        tau = ball_field("tensor", 17)
        st = FlowState(0.0, zero_state().v, tau)
        _, d = drift(st, PARAMS)
        assert np.array_equal(d.coeffs, -PARAMS.a * tau.coeffs)

    def test_pure_deformation_forcing(self):
        v = ball_field("vector", 18)
        st = FlowState(0.0, v, zero_state().tau)
        _, d = drift(st, PARAMS)
        assert np.array_equal(d.coeffs, PARAMS.mu2 * oracles.deformation_modes(GRID.xi, v.coeffs))

    def test_one_mode_against_direct_convolution(self):
        """Assemble every drift term independently at one mode by summing the
        convolution in index space (no FFT) and compare."""
        grid = make_grid(2, 16, 2 * math.pi, 4)
        v = truncate(random_field(grid, 5.0, "vector", seed=19), 4)
        tau = truncate(random_field(grid, 5.0, "tensor", seed=20), 4)
        st = FlowState(0.0, v, tau)
        params = PhysicalParams(nu=0.2, a=0.4, b=0.6, mu1=0.0, mu2=0.8)
        _, sd = drift(st, params)

        k = (2, 1)
        kmax = grid.dealias_kmax
        # direct convolution of (v . grad) tau and Q at mode k, over the full spectra
        vc, tc = (oracles.full_from_box(f.coeffs, 2, 16) for f in (v, tau))
        adv = np.zeros((2, 2), dtype=complex)
        q = np.zeros((2, 2), dtype=complex)
        for p0 in range(-kmax, kmax + 1):
            for p1 in range(-kmax, kmax + 1):
                q0, q1 = k[0] - p0, k[1] - p1
                if abs(q0) > kmax or abs(q1) > kmax:
                    continue
                vp = vc[:, p0, p1]
                tq = tc[:, :, q0, q1]
                xi_q = np.array([q0, q1], dtype=float)
                adv += (1j * vp @ xi_q) * tq
                # grad v at p, tau at q
                gv = 1j * np.outer(vc[:, p0, p1], np.array([p0, p1], float))
                d_p = 0.5 * (gv + gv.T)
                w_p = 0.5 * (gv - gv.T)
                q += tq @ w_p - w_p @ tq - params.b * (d_p @ tq + tq @ d_p)
        xi_k = np.array(k, dtype=float)
        gv_k = 1j * np.outer(v.coeffs[:, k[0], k[1]], xi_k)
        want = (
            -adv
            - params.a * tau.coeffs[:, :, k[0], k[1]]
            - q
            + params.mu2 * 0.5 * (gv_k + gv_k.T)
        )
        got = sd.coeffs[:, :, k[0], k[1]]
        assert np.allclose(got, want, rtol=1e-10, atol=1e-14)

    def test_stokes_mode_drops_quadratic_terms(self):
        v = ball_field("vector", 21)
        tau = ball_field("tensor", 22)
        st = FlowState(0.0, v, tau)
        linear = PhysicalParams(nu=0.1, a=0.5, b=0.3, mu1=0.7, mu2=0.9, nonlinear=False)
        dv, d = drift(st, linear)
        want = -linear.a * tau.coeffs + linear.mu2 * oracles.deformation_modes(GRID.xi, v.coeffs)
        assert np.array_equal(d.coeffs, want)
        want_v = leray_project(
            VectorField(GRID, linear.mu1 * divergence_rows(GRID.xi, tau.coeffs))
        ).coeffs
        assert np.array_equal(dv.coeffs, want_v)

    @pytest.mark.parametrize("dim, M, n", [(2, 64, 16.0), (3, 20, 5.0), (3, 26, 8.0)])
    def test_quadratic_terms_match_per_component_reference(self, dim, M, n):
        """All three quadratic terms against the slow oracle, on random ball fields."""
        b = 0.3
        params = PhysicalParams(nu=0.1, a=0.0, b=b, mu1=0.0, mu2=0.0)
        grid = GRID if (dim, M, n) == (2, 64, 16.0) else make_grid(dim, M, 2 * math.pi, n)
        xi, dealias, ball = oracles.full_geometry(dim, M, grid.truncation_radius)
        keep = dealias & ball
        for seed in range(3):
            v = ball_field("vector", seed + 600, grid)
            tau = ball_field("tensor", seed + 700, grid)
            vd, sd = drift(FlowState(0.0, v, tau), params)
            adv_v, adv_tau, q = (oracles.box_from_full(t, dim) for t in oracles.oldroyd_quadratic_terms(
                xi, oracles.full_from_box(v.coeffs, dim, M),
                oracles.full_from_box(tau.coeffs, dim, M), b, keep))
            want_v = leray_project(VectorField(grid, -adv_v)).coeffs
            want_tau = -(adv_tau + q)
            assert np.max(np.abs(vd.coeffs - want_v)) <= 1e-12 * np.max(np.abs(want_v))
            assert np.max(np.abs(sd.coeffs - want_tau)) <= 1e-12 * np.max(np.abs(want_tau))


class TestSymmetricStressRows:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_pass_sends_only_the_distinct_components(self, monkeypatch, dim):
        """tau sends only its d(d+1)/2 distinct components through the pass's
        one inverse, which returns their gradients too, and the stress drift
        is symmetric bit for bit.  Only field rows go in: v, tau and the
        profile."""
        M, n = (24, 6.0) if dim == 2 else (14, 3.0)
        grid = make_grid(dim, M, 2 * math.pi, n)
        v = truncate(random_field(grid, 4.0, "vector", seed=33), n)
        tau = truncate(random_field(grid, 4.0, "tensor", seed=34), n)
        assert oracles.equals_its_transpose(tau.coeffs)
        profile = noise_plan(grid).sigma_parts(np.full(4, 0.03))[1]
        rows = []
        inner = spectral.SpectralGrid.inverse
        monkeypatch.setattr(spectral.SpectralGrid, "inverse",
                            lambda g, c, *a, **k: rows.append(len(c)) or inner(g, c, *a, **k))
        _, stress, _ = dynamics.explicit_terms(FlowState(0.0, v, tau), PARAMS, profile,
                                               pass_for(grid, PARAMS, profile))
        assert rows == [dim + dim * (dim + 1) // 2 + 1]
        assert oracles.equals_its_transpose(stress)


class TestLinearPassWithAProfile:
    @pytest.mark.parametrize("dim, M, n", [(2, 24, 6.0), (3, 14, 3.0), (3, 20, 5.0), (3, 26, 6.0)])
    def test_linear_pass_equals_the_operators_bitwise(self, dim, M, n):
        """The linear pass with a noise profile sends only [v, profile] through
        the transforms.  On a fresh pass and on a plan's, run twice, its outputs
        equal the per-term oracles, summed in the same order, bitwise."""
        grid = make_grid(dim, M, 2 * math.pi, n)
        v = truncate(random_field(grid, 4.0, "vector", seed=35), n)
        tau = truncate(random_field(grid, 4.0, "tensor", seed=36), n)
        profile = noise_plan(grid).sigma_parts(np.full(4, 0.03))[1]
        params = PhysicalParams(nu=0.1, a=0.5, b=0.3, mu1=0.7, mu2=0.9, nonlinear=False)
        vel = params.mu1 * divergence_rows(grid.xi, tau.coeffs)
        stress = params.mu2 * oracles.deformation_modes(grid.xi, v.coeffs)  # no relaxation
        prod = grid.forward(grid.inverse(profile) * grid.inverse(v.coeffs)) * grid.ball_mask
        plan = noise_plan(grid, params)
        for drift in (pass_for(grid, params, profile), plan.drift, plan.drift):
            got_vel, got_stress, got_prod = explicit_terms(
                FlowState(0.0, v, tau), params, profile, drift)
            assert np.array_equal(got_vel, vel)
            assert np.array_equal(got_stress, stress)
            assert oracles.equals_its_transpose(got_stress)
            assert np.array_equal(got_prod, prod)


class TestOnePassPerPath:
    @pytest.mark.parametrize("dim, M, n", [(2, 16, 5.0), (3, 14, 3.0)])
    @pytest.mark.parametrize("nonlinear", [True, False])
    @pytest.mark.parametrize("with_profile", [True, False])
    def test_trajectory_builds_one_pass_that_replays_its_first_lists(
            self, monkeypatch, dim, M, n, nonlinear, with_profile):
        """A trajectory's plan builds one `DriftPass`, and every step runs it: after
        3 steps its `_Work` still replays the lists the first step kept, and each
        step's outputs equal a fresh pass's on the same state, bitwise."""
        grid = make_grid(dim, M, 2 * math.pi, n)
        params = PhysicalParams(nu=0.1, a=0.5, b=0.3, mu1=0.7, mu2=0.9, nonlinear=nonlinear)
        noise = NoiseModel(wiener=WienerQConfig(lambda0=0.1, J=4), c0=0.3, c1=0.2) \
            if with_profile else NoiseModel()
        built, seen = [], []

        def built_pass(*args):
            built.append(DriftPass(*args))
            return built[-1]

        def checked_terms(state, params, profile, drift):
            got = explicit_terms(state, params, profile, drift)
            want = explicit_terms(state, params, profile, pass_for(grid, params, profile))
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
            assert oracles.equals_its_transpose(got[1])
            assert (got[2] is None) == (want[2] is None) == (not with_profile)
            if with_profile:
                assert got[2].tobytes() == want[2].tobytes()
            seen.append((drift, drift.work.inverse[-1], drift.work.forward[-1]))
            return got

        monkeypatch.setattr(stepping, "DriftPass", built_pass)
        monkeypatch.setattr(stepping, "explicit_terms", checked_terms)
        state = FlowState(0.0, ball_field("vector", 40, grid), ball_field("tensor", 50, grid))
        draws = [StepNoise(dw1=np.full(noise.J, 0.01 * (k + 1)), dw2=0.0, jumps=())
                 for k in range(3)]
        states = list(trajectory(state, params, noise, draws, 1e-3))
        assert len(states) == 4 and len(built) == 1 and len(seen) == 3
        # every step runs the one pass on the first step's lists (a linear pass without
        # a profile makes no transform: its lists stay the empty ones)
        assert seen[0][0] is built[0]
        assert (len(seen[0][1]) > 0) == (len(seen[0][2]) > 0) == (nonlinear or with_profile)
        for later in seen[1:]:
            assert all(a is b for a, b in zip(seen[0], later))


class TestPassKind:
    def test_explicit_terms_refuses_a_pass_of_another_kind_or_grid(self):
        """A pass runs only the kind it was built for (nonlinear or not, with or
        without a profile), on a grid of its shape, samples and box length;
        a pass built on an equal grid object runs."""
        grid = make_grid(2, 16, 2 * math.pi, 5.0)
        state = FlowState(0.0, ball_field("vector", 70, grid), ball_field("tensor", 71, grid))
        profile = noise_plan(grid).sigma_parts(np.full(4, 0.03))[1]
        kinds = [(nonlinear, p) for nonlinear in (True, False) for p in (None, profile)]
        for nonlinear, p in kinds:
            params = replace(PARAMS, nonlinear=nonlinear)
            want = explicit_terms(state, params, p, pass_for(grid, params, p))
            equal = make_grid(2, 16, 2 * math.pi, 5.0)
            got = explicit_terms(state, params, p, pass_for(equal, params, p))
            assert got[0].tobytes() == want[0].tobytes()
            for other, q in kinds:
                if (other, q is None) != (nonlinear, p is None):
                    with pytest.raises(ValueError, match="drift pass of kind"):
                        explicit_terms(state, params, p, DriftPass(grid, other, q is not None))
        others = (make_grid(2, 24, 2 * math.pi, 5.0), make_grid(2, 16, 4 * math.pi, 2.0))
        narrow = make_grid(2, 12, 2 * math.pi, 3.0)  # 12 and 14 modes: one box shape
        pairs = [(state, g) for g in others] + [(
            FlowState(0.0, ball_field("vector", 72, narrow), ball_field("tensor", 73, narrow)),
            make_grid(2, 14, 2 * math.pi, 3.0))]
        for st, other in pairs:
            with pytest.raises(ValueError, match="another grid"):
                explicit_terms(st, PARAMS, None, DriftPass(other, True, False))

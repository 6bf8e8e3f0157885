"""Grid construction, Sobolev calculus, truncation, Leray, dealiased products."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stoldroyd.spectral import (
    ScalarField,
    TensorField,
    VectorField,
    alias_free_modes,
    bessel,
    commutator_bessel_product,
    convect_vector,
    dealiased_product,
    divergence_defect,
    divergence_tensor,
    divergence_vector,
    gradient_scalar,
    gradient_vector,
    hermitian_defect,
    hs_inner,
    hs_norm,
    l2_inner,
    leray_project,
    make_grid,
    pointwise_matmul,
    random_field,
    relayout,
    symmetry_defect,
    to_physical,
    truncate,
)

import oracles

GRID = make_grid(2, 64, 2 * math.pi, 16)
SMALL = make_grid(2, 32, 2 * math.pi, 8)


def single_mode(grid, k, amplitude=1.0, rank=0):
    """Field with exactly one nonzero coefficient (not Hermitian; test data only)."""
    shape = (grid.dim,) * rank + grid.shape
    c = np.zeros(shape, dtype=np.complex128)
    c[(..., *k)] = amplitude
    return (ScalarField, VectorField, TensorField)[rank](grid, c)


class TestMakeGrid:
    def test_valid_desk_scale_grid(self):
        """M=64, n=16 is the workhorse grid; 2/3 rule keeps |k| up to 21."""
        g = make_grid(2, 64, 2 * math.pi, 16)
        assert g.dealias_kmax == 21
        assert g.shape == (64, 64)
        retained = np.abs(g.k_int[0][g.dealias_mask.any(axis=1)]).max()
        assert retained == 21

    def test_odd_modes_rejected(self):
        with pytest.raises(ValueError, match="even"):
            make_grid(2, 7, 2 * math.pi, 2)

    def test_truncation_beyond_dealias_limit_rejected(self):
        with pytest.raises(ValueError, match="10.67"):
            make_grid(3, 32, 2 * math.pi, 20)

    def test_negative_box_rejected(self):
        with pytest.raises(ValueError, match="box_length"):
            make_grid(2, 32, -1.0, 4)

    def test_dim_must_be_2_or_3(self):
        with pytest.raises(ValueError, match="dim"):
            make_grid(1, 32, 2 * math.pi, 4)

    def test_wavevector_layout(self):
        g = make_grid(2, 16, 2 * math.pi, 4)
        assert g.k_int[0].min() == -8 and g.k_int[0].max() == 7
        assert g.xi_sq[0, 0] == 0.0
        # xi = (2 pi / L) k with L = 2 pi means xi equals k exactly
        assert g.xi[0][3, 0] == 3.0

    def test_box_length_scales_wavevectors(self):
        g = make_grid(2, 16, 4 * math.pi, 2)
        assert g.xi[0][2, 0] == pytest.approx(1.0, abs=0)


class TestAliasFreeGrids:
    HOST = make_grid(2, 256, 2 * math.pi, 16)

    def test_size_rule_is_3k_plus_1_rounded_up_to_even(self):
        for k in range(3, 40):
            modes = alias_free_modes(self.HOST, float(k))
            assert modes == (3 * k + 1 if k % 2 else 3 * k + 2)
            assert modes != 3 * k
            make_grid(2, modes, 2 * math.pi, float(k))  # passes the dealias check

    def test_fractional_cutoffs_and_boxes(self):
        # k = 8 gives 26 modes, whose dealias limit 8.67 cannot admit n = 8.9
        assert alias_free_modes(self.HOST, 8.5) == 26
        assert alias_free_modes(self.HOST, 8.9) == 28
        # on a box of length 4 pi, xi = k / 2, so n = 4 holds k = 8
        assert alias_free_modes(make_grid(2, 128, 4 * math.pi, 8), 4.0) == 26
        assert alias_free_modes(self.HOST, 1.0) == 8

    def test_3k_modes_fold_a_product_onto_the_ball(self):
        """The product of mode (k, 0) with itself sits at (2k, 0); M = 3k
        folds it to (-k, 0) on the ball's boundary, M = 3k + 2 does not."""
        k = 8
        for modes, aliased in ((3 * k, True), (alias_free_modes(self.HOST, k), False)):
            grid = make_grid(2, modes, 2 * math.pi, float(k))
            f = single_mode(grid, (k, 0))
            prod = truncate(dealiased_product(f, f), float(k))
            assert (np.max(np.abs(prod.coeffs)) > 0.5) == aliased

    def test_capped_at_host_and_widened_for_a_noise_factor(self):
        assert alias_free_modes(make_grid(2, 48, 2 * math.pi, 16), 16.0) == 48
        # the 14-mode grid of cutoff 4 keeps only |k| <= 4 under the 2/3 rule
        assert alias_free_modes(self.HOST, 4.0, kmax=5) == 16
        # with no dealias margin, a |k| <= 4 factor times the ball |k| <= 3
        # reaches 7 and needs 11 modes, not the 3k + 1 = 10 of the ball alone
        wide = make_grid(2, 64, 2 * math.pi, 3.0, dealias_fraction=1.0)
        assert alias_free_modes(wide, 3.0, kmax=4) == 12

    def test_relayout_embeds_and_restricts(self):
        small = make_grid(2, 26, 2 * math.pi, 8)
        big = make_grid(2, 48, 2 * math.pi, 8)
        f = truncate(random_field(small, 4.0, "tensor", seed=40), 8.0)
        embedded = relayout(f, big)
        assert embedded.grid is big and embedded.coeffs.shape == (2, 2, 48, 48)
        assert embedded.symmetric
        assert np.array_equal(relayout(embedded, small).coeffs, f.coeffs)
        assert hs_norm(embedded, 2.0) == pytest.approx(hs_norm(f, 2.0), rel=1e-14)
        mode = relayout(single_mode(small, (3, -2)), big).coeffs
        assert mode[3, -2] == 1.0 and np.count_nonzero(mode) == 1
        assert relayout(f, make_grid(2, 26, 2 * math.pi, 4)).coeffs is f.coeffs


class TestSobolevNorms:
    def test_zero_mode_any_s(self):
        f = single_mode(GRID, (0, 0), 1.0)
        for s in (-2.0, 0.0, 1.0, 3.5):
            assert hs_norm(f, s) == pytest.approx(1.0, abs=1e-15)

    def test_single_mode_xi_sq_3(self):
        """|xi|^2 = 3 at k = (1,1,1) on a 3D grid: H^2 norm is (1+3)^(2/2) = 4."""
        g3 = make_grid(3, 8, 2 * math.pi, 2)
        f = single_mode(g3, (1, 1, 1), 1.0)
        assert hs_norm(f, 2.0) == pytest.approx(4.0, rel=1e-14)
        assert hs_norm(f, 0.0) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("kind,rank", [("scalar", 0), ("vector", 1), ("tensor", 2)])
    def test_plancherel_matches_physical_rms(self, kind, rank):
        f = random_field(GRID, alpha=4.0, kind=kind, seed=11)
        rms = oracles.rms_norm_components(to_physical(f), GRID.dim)
        assert hs_norm(f, 0.0) == pytest.approx(rms, rel=1e-12)

    def test_inner_product_matches_physical_quadrature(self):
        f = random_field(GRID, alpha=4.0, kind="scalar", seed=3)
        g = random_field(GRID, alpha=4.0, kind="scalar", seed=4)
        want = oracles.l2_inner_physical(to_physical(f), to_physical(g), GRID.dim)
        assert l2_inner(f, g) == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_grid_mismatch_rejected(self):
        f = random_field(GRID, 4.0, "scalar", seed=0)
        g = random_field(SMALL, 4.0, "scalar", seed=0)
        with pytest.raises(ValueError, match="grids"):
            hs_inner(f, g, 0.0)

    @given(
        s_hi=st.floats(min_value=0.5, max_value=4.0),
        frac=st.floats(min_value=0.05, max_value=0.95),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_interpolation_constant_one(self, s_hi, frac, seed):
        """||f||_{H^s'} <= ||f||_{L2}^(1-s'/s) ||f||_{H^s}^(s'/s), constant 1."""
        s_lo = frac * s_hi
        f = random_field(SMALL, alpha=5.0, kind="scalar", seed=seed)
        lhs = hs_norm(f, s_lo)
        rhs = hs_norm(f, 0.0) ** (1 - s_lo / s_hi) * hs_norm(f, s_hi) ** (s_lo / s_hi)
        assert lhs <= rhs * (1 + 1e-12)

    def test_negative_s_allowed(self):
        f = random_field(GRID, 4.0, "scalar", seed=9)
        assert 0 < hs_norm(f, -1.5) < hs_norm(f, 0.0)


class TestTruncation:
    def test_identity_on_supported_field(self):
        f = random_field(GRID, 4.0, "scalar", seed=5)
        g = truncate(f, GRID.truncation_radius)
        h = truncate(g, GRID.truncation_radius)
        assert np.array_equal(g.coeffs, h.coeffs)

    def test_single_mode_beyond_radius_zeroed(self):
        f = single_mode(GRID, (17, 0), 1.0)  # |xi| = 17 = n + 1
        assert np.all(truncate(f, 16.0).coeffs == 0)

    def test_boundary_mode_retained(self):
        f = single_mode(GRID, (16, 0), 1.0)  # |xi| = n exactly: closed ball
        assert truncate(f, 16.0).coeffs[16, 0] == 1.0

    def test_norm_contraction(self):
        f = random_field(GRID, 3.0, "scalar", seed=6)
        for s in (0.0, 1.0, 2.5):
            assert hs_norm(truncate(f, 8.0), s) <= hs_norm(f, s)

    @given(
        n=st.floats(min_value=1.0, max_value=16.0),
        m=st.floats(min_value=1.0, max_value=16.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_composition_is_min(self, n, m):
        f = random_field(GRID, 3.0, "scalar", seed=7)
        lhs = truncate(truncate(f, n), m)
        rhs = truncate(f, min(n, m))
        assert np.array_equal(lhs.coeffs, rhs.coeffs)

    @pytest.mark.parametrize("k", [1, 2])
    def test_difference_decay_constant_one(self, k):
        """||(J_n - J_m) f||_{H^s} <= max(n^-k, m^-k) ||f||_{H^(s+k)}."""
        f = random_field(GRID, 6.0, "scalar", seed=8)
        s = 1.0
        for n, m in [(4.0, 8.0), (6.0, 12.0), (16.0, 5.0)]:
            diff = ScalarField(GRID, truncate(f, n).coeffs - truncate(f, m).coeffs)
            bound = max(n ** (-k), m ** (-k)) * hs_norm(f, s + k)
            assert hs_norm(diff, s) <= bound * (1 + 1e-12)

    def test_nonpositive_radius_rejected(self):
        f = random_field(GRID, 3.0, "scalar", seed=1)
        with pytest.raises(ValueError, match="positive"):
            truncate(f, 0.0)


class TestDifferentialOperators:
    def test_constant_has_zero_gradient(self):
        f = single_mode(GRID, (0, 0), 2.5)
        assert np.all(gradient_scalar(f).coeffs == 0)

    def test_gradient_single_mode(self):
        f = single_mode(GRID, (3, 4), 1.0)
        g = gradient_scalar(f)
        assert g.coeffs[0][3, 4] == 3j
        assert g.coeffs[1][3, 4] == 4j

    def test_gradient_vector_rows_are_components(self):
        """(grad v)_{ab} = d_b v_a."""
        v = single_mode(GRID, (2, 5), 1.0, rank=1)
        c = np.zeros_like(v.coeffs)
        c[0] = v.coeffs[0]
        v = VectorField(GRID, c)  # only component 0 active
        gv = gradient_vector(v)
        assert gv.coeffs[0, 1][2, 5] == 5j  # d_y v_x
        assert np.all(gv.coeffs[1] == 0)

    def test_perpendicular_single_mode_divergence_free(self):
        k = (3, 4)
        c = np.zeros((2,) + GRID.shape, dtype=complex)
        c[0][k] = -4.0  # v_hat = (-k_y, k_x) is perpendicular to k
        c[1][k] = 3.0
        v = VectorField(GRID, c)
        assert np.all(divergence_vector(v).coeffs == 0)

    def test_double_divergence_matches_hand_computation(self):
        k = (2, 3)
        A = np.array([[1 + 0.5j, 0.3 - 0.2j], [0.3 - 0.2j, -0.8 + 0.1j]])
        c = np.zeros((2, 2) + GRID.shape, dtype=complex)
        c[:, :, k[0], k[1]] = A
        tau = TensorField(GRID, c, symmetric=True)
        got = divergence_vector(divergence_tensor(tau)).coeffs[k]
        want = oracles.double_divergence_single_mode(np.array(k, float), A)
        assert got == pytest.approx(want, rel=1e-14)


class TestLerayProjection:
    def test_divergence_free_input_unchanged(self):
        v = random_field(GRID, 4.0, "vector", seed=12)
        w = leray_project(v)
        assert np.max(np.abs(w.coeffs - v.coeffs)) <= 1e-14 * np.max(np.abs(v.coeffs))

    def test_pure_gradient_annihilated(self):
        phi = random_field(GRID, 4.0, "scalar", seed=13)
        g = gradient_scalar(phi)
        assert hs_norm(leray_project(g), 0.0) <= 1e-14 * hs_norm(g, 0.0)

    def test_output_divergence_defect(self):
        c = np.stack([
            random_field(GRID, 4.0, "scalar", seed=14).coeffs,
            random_field(GRID, 4.0, "scalar", seed=15).coeffs,
        ])
        w = leray_project(VectorField(GRID, c))
        assert divergence_defect(w) <= 1e-12
        assert w.div_free

    def test_idempotent(self):
        c = np.stack([
            random_field(GRID, 4.0, "scalar", seed=16).coeffs,
            random_field(GRID, 4.0, "scalar", seed=17).coeffs,
        ])
        v = VectorField(GRID, c)
        once = leray_project(v)
        twice = leray_project(once)
        assert np.max(np.abs(once.coeffs - twice.coeffs)) <= 1e-14

    def test_self_adjoint_and_contractive(self):
        rng_fields = [
            VectorField(GRID, np.stack([
                random_field(GRID, 4.0, "scalar", seed=s).coeffs,
                random_field(GRID, 4.0, "scalar", seed=s + 100).coeffs,
            ]))
            for s in (20, 21)
        ]
        u, w = rng_fields
        lhs = l2_inner(leray_project(u), w)
        rhs = l2_inner(u, leray_project(w))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)
        assert hs_norm(leray_project(u), 0.0) <= hs_norm(u, 0.0) * (1 + 1e-12)

    @pytest.mark.parametrize("grid", [GRID, make_grid(3, 16, 3.0, 5.0)], ids=["2d", "3d"])
    def test_precomputed_denominator_and_masks_match_formula_bitwise(self, grid):
        """make_grid keeps the zero-free |xi|^2 and the dealias-and-ball mask;
        the projection still divides, so it equals the per-call formula."""
        assert np.array_equal(grid.xi_sq_safe, np.where(grid.xi_sq > 0, grid.xi_sq, 1.0))
        assert np.array_equal(grid.dealias_ball_mask, grid.dealias_mask & grid.ball_mask)
        c = np.stack([random_field(grid, 2.0, "scalar", seed=30 + a).coeffs
                      for a in range(grid.dim)])
        got = leray_project(VectorField(grid, c)).coeffs
        assert np.array_equal(got, oracles.leray_project_modes(grid.xi, c))

    def test_mean_mode_untouched(self):
        c = np.zeros((2,) + GRID.shape, dtype=complex)
        c[0][0, 0] = 3.0
        v = leray_project(VectorField(GRID, c))
        assert v.coeffs[0][0, 0] == 3.0


class TestDealiasedProducts:
    def test_multiplication_by_one(self):
        one = single_mode(GRID, (0, 0), 1.0)
        g = random_field(GRID, 4.0, "scalar", seed=30)
        prod = dealiased_product(one, g)
        assert np.max(np.abs(prod.coeffs - g.coeffs)) <= 1e-13 * np.max(np.abs(g.coeffs))

    def test_two_single_modes_convolve(self):
        a1, a2 = 0.7 + 0.2j, -1.1 + 0.5j
        f = single_mode(GRID, (2, 1), a1)
        g = single_mode(GRID, (3, -2), a2)
        prod = dealiased_product(f, g)
        assert prod.coeffs[5, -1] == pytest.approx(a1 * a2, rel=1e-13)
        other = prod.coeffs.copy()
        other[5, -1] = 0
        assert np.max(np.abs(other)) <= 1e-13 * abs(a1 * a2)

    def test_aliased_image_killed(self):
        """Product mode beyond the dealias cutoff is zeroed, not wrapped."""
        f = single_mode(GRID, (21, 0), 1.0)
        g = single_mode(GRID, (21, 0), 1.0)
        prod = dealiased_product(f, g)  # true mode (42,0) aliases to (-22,0)
        assert np.max(np.abs(prod.coeffs)) <= 1e-13

    def test_scalar_times_vector_broadcasts(self):
        f = random_field(GRID, 4.0, "scalar", seed=31)
        v = random_field(GRID, 4.0, "vector", seed=32)
        prod = dealiased_product(f, v)
        comp0 = dealiased_product(f, ScalarField(GRID, v.coeffs[0]))
        assert np.allclose(prod.coeffs[0], comp0.coeffs, rtol=0, atol=1e-15)

    def test_two_vectors_rejected(self):
        v = random_field(GRID, 4.0, "vector", seed=33)
        with pytest.raises(ValueError, match="scalar"):
            dealiased_product(v, v)

    def test_advection_skew_symmetry(self):
        """((f.grad) g, g)_L2 = 0 for divergence-free f, over random pairs."""
        worst = 0.0
        for seed in range(20):
            f = random_field(GRID, 4.0, "vector", seed=seed)
            g = random_field(GRID, 4.0, "vector", seed=seed + 500)
            adv = convect_vector(f, g)
            val = abs(l2_inner(adv, g))
            scale = hs_norm(f, 1.0) * hs_norm(g, 1.0) * hs_norm(g, 0.0)
            worst = max(worst, val / scale)
        assert worst <= 1e-10

    def test_tensor_matmul_pointwise(self):
        a = random_field(SMALL, 4.0, "tensor", seed=40)
        b = random_field(SMALL, 4.0, "tensor", seed=41)
        pa, pb = to_physical(a).real, to_physical(b).real
        prod = pointwise_matmul(pa, pb)
        want = np.zeros_like(prod)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    want[i, j] += pa[i, k] * pb[k, j]
        assert np.max(np.abs(prod - want)) <= 1e-12 * np.max(np.abs(want))


class TestHermitianSymmetry:
    def test_random_fields_are_hermitian(self):
        for kind in ("scalar", "vector", "tensor"):
            f = random_field(GRID, 4.0, kind, seed=50)
            assert hermitian_defect(f) <= 1e-13

    def test_preserved_by_operations(self):
        f = random_field(GRID, 4.0, "scalar", seed=51)
        v = random_field(GRID, 4.0, "vector", seed=52)
        assert hermitian_defect(gradient_scalar(f)) <= 1e-13
        assert hermitian_defect(leray_project(v)) <= 1e-13
        assert hermitian_defect(truncate(f, 8.0)) <= 1e-13
        assert hermitian_defect(bessel(f, 1.5)) <= 1e-13
        assert hermitian_defect(dealiased_product(f, v)) <= 1e-12

    def test_physical_field_is_real(self):
        f = random_field(GRID, 4.0, "scalar", seed=53)
        phys = to_physical(f)
        assert np.max(np.abs(phys.imag)) <= 1e-13 * np.max(np.abs(phys.real))


class TestRandomFields:
    def test_norm_stable_across_resolution(self):
        """Deterministic modulus makes hs_norm M-independent up to mask growth."""
        norms = []
        for M in (32, 64):
            g = make_grid(2, M, 2 * math.pi, 8)
            f = random_field(g, alpha=8.0, kind="scalar", seed=60)
            norms.append(hs_norm(f, 2.0))
        assert norms[1] == pytest.approx(norms[0], rel=0.05)

    def test_divergence_free_kind(self):
        v = random_field(GRID, 4.0, "vector", seed=61)
        assert v.div_free
        assert divergence_defect(v) <= 1e-12

    def test_tensor_kind_symmetric(self):
        tau = random_field(GRID, 4.0, "tensor", seed=62)
        assert tau.symmetric
        assert symmetry_defect(tau) == 0.0

    def test_same_seed_reproduces(self):
        f = random_field(GRID, 4.0, "scalar", seed=63)
        g = random_field(GRID, 4.0, "scalar", seed=63)
        assert np.array_equal(f.coeffs, g.coeffs)

    def test_zero_mean(self):
        f = random_field(GRID, 4.0, "scalar", seed=64)
        assert f.coeffs[0, 0] == 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            random_field(GRID, 4.0, "spinor", seed=0)


class TestCommutator:
    """K(f,g) = J^s(fg) - f J^s g: only structural facts are asserted."""

    @given(lam=st.floats(min_value=-8.0, max_value=8.0).filter(lambda x: abs(x) > 1e-3))
    @settings(max_examples=15, deadline=None)
    def test_homogeneity_in_f(self, lam):
        f = random_field(SMALL, 4.0, "scalar", seed=70)
        g = random_field(SMALL, 4.0, "scalar", seed=71)
        base = commutator_bessel_product(f, g, 1.5)
        scaled = commutator_bessel_product(ScalarField(SMALL, lam * f.coeffs), g, 1.5)
        assert np.allclose(scaled.coeffs, lam * base.coeffs, rtol=1e-12, atol=1e-15)

    def test_homogeneity_in_g(self):
        f = random_field(SMALL, 4.0, "scalar", seed=72)
        g = random_field(SMALL, 4.0, "scalar", seed=73)
        base = commutator_bessel_product(f, g, 1.5)
        scaled = commutator_bessel_product(f, ScalarField(SMALL, -3.0 * g.coeffs), 1.5)
        assert np.allclose(scaled.coeffs, -3.0 * base.coeffs, rtol=1e-12, atol=1e-15)

    def test_additivity_in_f(self):
        f1 = random_field(SMALL, 4.0, "scalar", seed=74)
        f2 = random_field(SMALL, 4.0, "scalar", seed=75)
        g = random_field(SMALL, 4.0, "scalar", seed=76)
        k1 = commutator_bessel_product(f1, g, 2.0)
        k2 = commutator_bessel_product(f2, g, 2.0)
        ksum = commutator_bessel_product(ScalarField(SMALL, f1.coeffs + f2.coeffs), g, 2.0)
        assert np.allclose(ksum.coeffs, k1.coeffs + k2.coeffs, rtol=1e-12, atol=1e-15)

    def test_constant_f_gives_zero_commutator(self):
        c = np.zeros(SMALL.shape, dtype=complex)
        c[0, 0] = 2.0
        f = ScalarField(SMALL, c)
        g = random_field(SMALL, 4.0, "scalar", seed=77)
        k = commutator_bessel_product(f, g, 2.0)
        assert hs_norm(k, 0.0) <= 1e-12 * hs_norm(g, 2.0)

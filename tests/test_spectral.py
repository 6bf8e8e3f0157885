"""Grid construction, Sobolev calculus, truncation, Leray, the transform pair's products."""
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stoldroyd import spectral
from stoldroyd.spectral import (
    ScalarField,
    TensorField,
    VectorField,
    alias_free_modes,
    bessel,
    divergence_defect,
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
    truncate,
)

import oracles

GRID = make_grid(2, 64, 2 * math.pi, 16)
SMALL = make_grid(2, 32, 2 * math.pi, 8)


def product(f, g):
    """f g through the transform pair, kept to the dealias box: the product the
    drift pass forms, before its ball cutoff.  A scalar f broadcasts over g's
    components."""
    grid = f.grid
    return type(g)(grid, grid.forward(grid.inverse(f.coeffs) * grid.inverse(g.coeffs)))


def work_buffers(grid, rows, grads=0):
    """Coefficient rows, the samples of their inverse with the gradients of its
    first `grads` rows, and a `_Work` sized for that inverse."""
    n = rows + grads * grid.dim
    return (np.empty((rows,) + grid.shape, dtype=np.complex128),
            np.empty((n,) + grid.points), spectral._Work(grid, n))


def single_mode(grid, k, amplitude=1.0, rank=0):
    """Field with exactly one nonzero stored coefficient.  Off the zero plane
    k_d = 0 that is the real field with amplitude at k and its conjugate at
    -k; on the zero plane it is not Hermitian (test data only)."""
    shape = (grid.dim,) * rank + grid.shape
    c = np.zeros(shape, dtype=np.complex128)
    c[(..., *k)] = amplitude
    return (ScalarField, VectorField, TensorField)[rank](grid, c)


class TestMakeGrid:
    def test_valid_desk_scale_grid(self):
        """M=64, n=16 is the workhorse grid; 2/3 rule keeps |k| up to 21."""
        g = make_grid(2, 64, 2 * math.pi, 16)
        assert g.dealias_kmax == 21
        assert g.shape == (43, 22) and g.points == (64, 64)
        k_int = spectral._mode_indices(g.runs)
        assert np.abs(k_int).max() == 21 and k_int[-1].min() == 0

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
        k_int = spectral._mode_indices(g.runs)
        assert k_int[0].min() == -5 and k_int[0].max() == 5
        assert k_int[1].min() == 0 and k_int[1].max() == 5
        assert g.xi_sq[0, 0] == 0.0
        # xi = (2 pi / L) k with L = 2 pi means xi equals k exactly
        assert g.xi[0][3, 0] == 3.0

    def test_box_length_scales_wavevectors(self):
        g = make_grid(2, 16, 4 * math.pi, 2)
        assert g.xi[0][2, 0] == pytest.approx(1.0, abs=0)

    def test_two_thirds_rule_equals_the_fraction_formulas(self):
        """K = M // 3 and the limit (2/3)(M/2)(2 pi/L) are, bitwise, the
        formulas of a 2/3 dealias fraction, so default radii are unchanged."""
        fraction = 2.0 / 3.0
        for M in range(8, 514, 2):
            for L in (2 * math.pi, 3.0):
                g = spectral.SpectralGrid(2, M, L, 1.0)  # scalars only: no mode arrays
                assert g.dealias_kmax == int(math.floor(fraction * (M / 2) + 1e-12))
                assert spectral._dealias_limit(M, L) == fraction * (M / 2) * (2 * math.pi / L)
        for M in (8, 26, 50, 96):
            assert make_grid(2, M, 3.0).truncation_radius == fraction * (M / 2) * (2 * math.pi / 3.0)


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
        """The square of the mode (0, k), the field 2 cos(k y), holds (0, 2k)
        beside its mean 2; M = 3k folds (0, 2k) to (0, -k) on the ball's
        boundary, M = 3k + 2 does not."""
        k = 8
        for modes, aliased in ((3 * k, True), (alias_free_modes(self.HOST, k), False)):
            grid = make_grid(2, modes, 2 * math.pi, float(k))
            f = single_mode(grid, (0, k))
            prod = truncate(product(f, f), float(k)).coeffs
            prod[0, 0] -= 2.0
            assert (np.max(np.abs(prod)) > 0.5) == aliased

    def test_matches_a_brute_force_search_over_make_grid(self, monkeypatch):
        """The smallest even M >= 8 past 2k + max(k, kmax) that make_grid
        admits n on, with a dealias box holding kmax, or the host's size;
        found without building a grid."""
        cases = []
        for host_modes, L in ((48, 2 * math.pi), (96, 3.0), (64, 4 * math.pi)):
            host = make_grid(2, host_modes, L)
            for n in np.linspace(0.4, spectral._dealias_limit(host_modes, L), 23):
                for kmax in (0, 2, 5, 9):
                    k = int(math.floor(n * L / (2 * math.pi) + 1e-9))
                    want = host_modes
                    for M in range(8, host_modes, 2):
                        if M < 2 * k + max(k, kmax) + 1:
                            continue
                        try:
                            grid = make_grid(2, M, L, float(n))
                        except ValueError:
                            continue
                        if grid.dealias_kmax >= kmax:
                            want = M
                            break
                    cases.append((host, float(n), kmax, want))

        def no_grid(*args, **kwargs):
            raise AssertionError("alias_free_modes built a grid")

        monkeypatch.setattr(spectral, "SpectralGrid", no_grid)
        monkeypatch.setattr(spectral, "make_grid", no_grid)
        for host, n, kmax, want in cases:
            assert alias_free_modes(host, n, kmax) == want, (host.modes_per_axis, n, kmax)

    def test_capped_at_host_and_widened_for_a_noise_factor(self):
        assert alias_free_modes(make_grid(2, 48, 2 * math.pi, 16), 16.0) == 48
        # the 14-mode grid of cutoff 4 keeps only |k| <= 4 under the 2/3 rule
        assert alias_free_modes(self.HOST, 4.0, kmax=5) == 16

    def test_relayout_embeds_and_restricts(self):
        small = make_grid(2, 26, 2 * math.pi, 8)
        big = make_grid(2, 48, 2 * math.pi, 8)
        f = truncate(random_field(small, 4.0, "tensor", seed=40), 8.0)
        embedded = relayout(f, big)
        assert embedded.grid is big and embedded.coeffs.shape == (2, 2, 33, 17)
        assert oracles.equals_its_transpose(embedded.coeffs)
        assert np.array_equal(relayout(embedded, small).coeffs, f.coeffs)
        assert hs_norm(embedded, 2.0) == pytest.approx(hs_norm(f, 2.0), rel=1e-14)
        mode = relayout(single_mode(small, (-2, 3)), big).coeffs
        assert mode[-2, 3] == 1.0 and np.count_nonzero(mode) == 1
        assert relayout(f, make_grid(2, 26, 2 * math.pi, 4)).coeffs is f.coeffs


class TestSobolevNorms:
    def test_zero_mode_any_s(self):
        f = single_mode(GRID, (0, 0), 1.0)
        for s in (-2.0, 0.0, 1.0, 3.5):
            assert hs_norm(f, s) == pytest.approx(1.0, abs=1e-15)

    def test_single_mode_xi_sq_3(self):
        """|xi|^2 = 3 at k = (1,1,1) on a 3D grid: the unit-RMS field
        sqrt(2) cos(k.x) has H^2 norm (1+3)^(2/2) = 4."""
        g3 = make_grid(3, 8, 2 * math.pi, 2)
        f = single_mode(g3, (1, 1, 1), 1.0 / math.sqrt(2.0))
        assert hs_norm(f, 2.0) == pytest.approx(4.0, rel=1e-14)
        assert hs_norm(f, 0.0) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("kind,rank", [("scalar", 0), ("vector", 1), ("tensor", 2)])
    def test_plancherel_matches_physical_rms(self, kind, rank):
        f = random_field(GRID, alpha=4.0, kind=kind, seed=11)
        rms = oracles.rms_norm_components(GRID.inverse(f.coeffs), GRID.dim)
        assert hs_norm(f, 0.0) == pytest.approx(rms, rel=1e-12)

    def test_inner_product_matches_physical_quadrature(self):
        f = random_field(GRID, alpha=4.0, kind="scalar", seed=3)
        g = random_field(GRID, alpha=4.0, kind="scalar", seed=4)
        want = oracles.l2_inner_physical(GRID.inverse(f.coeffs), GRID.inverse(g.coeffs), GRID.dim)
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
        assert np.all(oracles.divergence_modes(GRID.xi, v.coeffs) == 0)


class TestLerayProjection:
    def test_divergence_free_input_unchanged(self):
        v = random_field(GRID, 4.0, "vector", seed=12)
        w = leray_project(v)
        assert np.max(np.abs(w.coeffs - v.coeffs)) <= 1e-14 * np.max(np.abs(v.coeffs))

    def test_pure_gradient_annihilated(self):
        phi = random_field(GRID, 4.0, "scalar", seed=13)
        g = VectorField(GRID, GRID.ixi * phi.coeffs)
        assert hs_norm(leray_project(g), 0.0) <= 1e-14 * hs_norm(g, 0.0)

    def test_output_divergence_defect(self):
        c = np.stack([
            random_field(GRID, 4.0, "scalar", seed=14).coeffs,
            random_field(GRID, 4.0, "scalar", seed=15).coeffs,
        ])
        w = leray_project(VectorField(GRID, c))
        assert divergence_defect(w) <= 1e-12

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
        """make_grid keeps the zero-free |xi|^2; the projection still
        divides, so it equals the per-call formula."""
        assert np.array_equal(grid.xi_sq_safe, np.where(grid.xi_sq > 0, grid.xi_sq, 1.0))
        c = np.stack([random_field(grid, 2.0, "scalar", seed=30 + a).coeffs
                      for a in range(grid.dim)])
        got = leray_project(VectorField(grid, c)).coeffs
        assert np.array_equal(got, oracles.leray_project_modes(grid.xi, c))

    def test_mean_mode_untouched(self):
        c = np.zeros((2,) + GRID.shape, dtype=complex)
        c[0][0, 0] = 3.0
        v = leray_project(VectorField(GRID, c))
        assert v.coeffs[0][0, 0] == 3.0


class TestPairProducts:
    def test_multiplication_by_one(self):
        one = single_mode(GRID, (0, 0), 1.0)
        g = random_field(GRID, 4.0, "scalar", seed=30)
        prod = product(one, g)
        assert np.max(np.abs(prod.coeffs - g.coeffs)) <= 1e-13 * np.max(np.abs(g.coeffs))

    def test_two_single_modes_convolve(self):
        """a1 at k1 = (2, 1) times a2 at k2 = (3, -2), each with its conjugate,
        is a1 a2 at k1 + k2 = (5, -1), stored as its conjugate at (-5, 1), and
        a1 conj(a2) at k1 - k2 = (-1, 3), with their conjugates."""
        a1, a2 = 0.7 + 0.2j, -1.1 + 0.5j
        f = single_mode(GRID, (2, 1), a1)
        g = single_mode(GRID, (-3, 2), np.conj(a2))
        prod = product(f, g)
        assert prod.coeffs[-5, 1] == pytest.approx(np.conj(a1 * a2), rel=1e-13)
        assert prod.coeffs[-1, 3] == pytest.approx(a1 * np.conj(a2), rel=1e-13)
        other = prod.coeffs.copy()
        other[-5, 1] = other[-1, 3] = 0
        assert np.max(np.abs(other)) <= 1e-13 * abs(a1 * a2)

    def test_aliased_image_killed(self):
        """Product mode beyond the dealias cutoff is zeroed, not wrapped."""
        f = single_mode(GRID, (0, 21), 1.0)
        g = single_mode(GRID, (0, 21), 1.0)
        prod = product(f, g).coeffs  # true mode (0,42) aliases to (0,-22)
        assert prod[0, 0] == pytest.approx(2.0, rel=1e-13)  # the mean of 4 cos^2
        prod[0, 0] = 0
        assert np.max(np.abs(prod)) <= 1e-13

    def test_scalar_times_vector_broadcasts(self):
        f = random_field(GRID, 4.0, "scalar", seed=31)
        v = random_field(GRID, 4.0, "vector", seed=32)
        prod = product(f, v)
        comp0 = product(f, ScalarField(GRID, v.coeffs[0]))
        assert np.allclose(prod.coeffs[0], comp0.coeffs, rtol=0, atol=1e-15)
        want = oracles.dealiased_scalar_product(oracles.full_from_box(f.coeffs, 2, 64),
                                                oracles.full_from_box(v.coeffs, 2, 64),
                                                oracles.full_geometry(2, 64, 16.0)[1])
        scale = np.max(np.abs(prod.coeffs))
        assert np.max(np.abs(prod.coeffs - oracles.box_from_full(want, 2))) <= 1e-13 * scale

    def test_tensor_matmul_pointwise(self):
        a = random_field(SMALL, 4.0, "tensor", seed=40)
        b = random_field(SMALL, 4.0, "tensor", seed=41)
        pa, pb = SMALL.inverse(a.coeffs), SMALL.inverse(b.coeffs)
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
        assert hermitian_defect(VectorField(GRID, GRID.ixi * f.coeffs)) <= 1e-13
        assert hermitian_defect(leray_project(v)) <= 1e-13
        assert hermitian_defect(truncate(f, 8.0)) <= 1e-13
        assert hermitian_defect(bessel(f, 1.5)) <= 1e-13
        assert hermitian_defect(product(f, v)) <= 1e-12

    def test_physical_field_is_real(self):
        """The samples are real by construction; the full spectrum they stand
        for is Hermitian, so numpy's complex inverse of it is real too."""
        f = random_field(GRID, 4.0, "scalar", seed=53)
        assert GRID.inverse(f.coeffs).dtype == np.float64
        phys = np.fft.ifftn(oracles.full_from_box(f.coeffs, 2, 64), norm="forward")
        assert np.max(np.abs(phys.imag)) <= 1e-13 * np.max(np.abs(phys.real))


def ball_fields(dim, M, radius, seed):
    """A divergence-free velocity and a symmetric stress cut to the ball, with
    their grid."""
    grid = make_grid(dim, M, 2 * math.pi, radius)
    v = truncate(random_field(grid, 4.0, "vector", seed=seed), radius)
    tau = truncate(random_field(grid, 4.0, "tensor", seed=seed + 1), radius)
    return grid, v, tau


def full_hs_sq(f, s):
    """sum (1+|xi|^2)^s |c|^2 over all M^d modes of `f`'s numpy full spectrum."""
    grid = f.grid
    c = oracles.full_from_box(f.coeffs, grid.dim, grid.modes_per_axis)
    xi_sq = np.sum(oracles.full_modes(grid.dim, grid.modes_per_axis) ** 2, axis=0)
    return float(np.sum((1.0 + xi_sq) ** s * np.abs(c) ** 2))


class TestHalfLayout:
    """The box layout: the half spectrum k_d >= 0 cut to the dealias box,
    against numpy transforms of the full spectrum (`oracles.full_from_box`)."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_grid_shape_points_and_plane_weight(self, dim):
        box = make_grid(dim, 16, 2 * math.pi, 4.0)
        assert box.dealias_kmax == 5
        assert box.shape == (11,) * (dim - 1) + (6,) and box.points == (16,) * dim
        assert box.xi_sq.shape == box.ball_mask.shape == box.shape
        k_int = spectral._mode_indices(box.runs)
        lead = k_int[(0,) + (slice(None),) + (0,) * (dim - 1)]
        assert lead.tolist() == [0, 1, 2, 3, 4, 5, -5, -4, -3, -2, -1]
        assert k_int[(-1,) + (0,) * (dim - 1)].tolist() == [0, 1, 2, 3, 4, 5]
        assert box.weight.ravel().tolist() == [1.0] + [2.0] * 5

    @pytest.mark.parametrize("dim, M", [(2, 26), (3, 14)])
    def test_norms_and_inner_products_agree_with_the_full_layout(self, dim, M):
        box, v, tau = ball_fields(dim, M, 4.0, 80)
        for s in (-1.0, 0.0, 2.0):
            assert hs_norm(v, s) == pytest.approx(math.sqrt(full_hs_sq(v, s)), rel=1e-13)
            assert hs_norm(tau, s) == pytest.approx(math.sqrt(full_hs_sq(tau, s)), rel=1e-13)
        w = truncate(random_field(box, 4.0, "vector", seed=82), 4.0)
        cv, cw = (oracles.full_from_box(f.coeffs, dim, M) for f in (v, w))
        xi_sq = np.sum(oracles.full_modes(dim, M) ** 2, axis=0)
        want = float(np.real(np.sum((1.0 + xi_sq) * np.conj(cv) * cw)))
        assert hs_inner(v, w, 1.0) == pytest.approx(want, rel=1e-13)
        skew = TensorField(box, tau.coeffs + 0.1 * np.swapaxes(gradient_vector(v).coeffs, 0, 1))
        c = oracles.full_from_box(skew.coeffs, dim, M)
        want = np.sqrt(np.sum(np.abs(c - np.swapaxes(c, 0, 1)) ** 2) / np.sum(np.abs(c) ** 2))
        assert symmetry_defect(skew) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("dim, M", [(2, 26), (3, 14)])
    def test_transform_pair_matches_the_full_layout(self, dim, M):
        """`inverse` gives the real samples of the full spectrum; `forward`
        gives the dealias box of numpy's full transform, of band-limited and
        of white-noise samples alike, so nothing outside the box comes back."""
        box, v, _ = ball_fields(dim, M, 4.0, 83)
        axes = box.grid_axes
        samples = box.inverse(v.coeffs)
        assert samples.dtype == np.float64 and samples.shape == (dim,) + box.points
        want = np.fft.ifftn(oracles.full_from_box(v.coeffs, dim, M), axes=axes, norm="forward")
        assert np.max(np.abs(samples - want.real)) <= 1e-14
        back = box.forward(samples)
        assert back.shape == (dim,) + box.shape
        assert np.max(np.abs(back - v.coeffs)) <= 1e-15
        noise = np.random.default_rng(7).standard_normal((2,) + box.points)
        want = oracles.box_from_full(np.fft.fftn(noise, axes=axes, norm="forward"), dim)
        assert np.max(np.abs(box.forward(noise) - want)) <= 1e-15

    @pytest.mark.parametrize("dim, M", [(2, 16), (2, 26), (2, 50), (2, 96),
                                        (3, 14), (3, 26), (3, 32)])
    def test_transform_pair_matches_numpys_zero_padded_pair(self, dim, M):
        """`inverse`/`forward` equal `ifftn`/`fftn` over the leading axes of the
        zero-padded half spectrum, with `irfft`/`rfft` over the last, to 1e-14
        of the largest reference value; with a reused work buffer and without
        one they agree bitwise, twice on one buffer, with `forward` filling
        it in between."""
        box = make_grid(dim, M, 2 * math.pi, 4.0)
        K, lead = box.dealias_kmax, box.grid_axes[:-1]

        def inverse_reference(c):
            padded = oracles.full_from_box(c, dim, M)[..., :K + 1]
            c = np.fft.ifftn(padded, axes=lead, norm="forward")
            return np.fft.irfft(c, M, axis=-1, norm="forward")

        def forward_reference(x):
            half = np.fft.rfft(x, axis=-1, norm="forward")[..., :K + 1]
            return oracles.box_from_full(np.fft.fftn(half, axes=lead, norm="forward"), dim)

        coeffs, samples, work = work_buffers(box, dim)
        rng = np.random.default_rng(88)
        for seed in (86, 87):
            c = random_field(box, 2.0, "vector", seed=seed).coeffs
            x = rng.standard_normal((dim,) + box.points)
            want_x, want_c = inverse_reference(c), forward_reference(x)
            got_x, got_c = box.inverse(c), box.forward(x)
            assert np.max(np.abs(got_x - want_x)) <= 1e-14 * np.max(np.abs(want_x))
            assert np.max(np.abs(got_c - want_c)) <= 1e-14 * np.max(np.abs(want_c))
            assert box.inverse(c, out=samples, work=work).tobytes() == got_x.tobytes()
            assert box.forward(x, out=coeffs, work=work).tobytes() == got_c.tobytes()

    @pytest.mark.parametrize("dim, M", [(2, 16), (2, 26), (2, 50), (2, 96), (3, 14), (3, 26)])
    def test_a_batch_equals_its_rows_alone_bitwise(self, dim, M):
        """`inverse`/`forward` of a 16-row batch, through a work buffer and
        without one, equal the calls on each row alone, bitwise; so do the
        gradient samples of an `inverse` with gradients of every row."""
        box = make_grid(dim, M, 2 * math.pi, 4.0)
        rng = np.random.default_rng(89)
        c = np.stack([random_field(box, 2.0, "scalar", rng=rng).coeffs for _ in range(16)])
        x = rng.standard_normal((16,) + box.points)
        coeffs, samples, work = work_buffers(box, 16)
        reused = box.inverse(c, out=samples, work=work), box.forward(x, out=coeffs, work=work)
        for got_x, got_c in ((box.inverse(c), box.forward(x)), reused):
            for r in range(16):
                assert got_x[r].tobytes() == box.inverse(c[r]).tobytes()
                assert got_c[r].tobytes() == box.forward(x[r]).tobytes()
        _, samples, work = work_buffers(box, 16, 16)
        for got in (box.inverse(c, 16), box.inverse(c, 16, out=samples, work=work)):
            grads = got[16:].reshape((16, dim) + box.points)
            for r in range(16):
                alone = box.inverse(c[r:r + 1], 1)
                assert got[r].tobytes() == alone[0].tobytes()
                assert grads[r].tobytes() == alone[1:].tobytes()

    @pytest.mark.parametrize("dim, M", [(2, 16), (3, 14)])
    def test_work_replays_its_list_for_the_same_arrays_only(self, dim, M):
        """A work buffer called again on the same input and output objects
        replays the same kept list, on the input's current values; a copy of
        the same shape rebuilds it.  Every result equals a work-less call,
        bitwise.  An input the pair reads through a copy (transposed component
        axes, strided samples) is read afresh on every call."""
        box = make_grid(dim, M, 2 * math.pi, 4.0)
        rng = np.random.default_rng(91)
        coeffs, samples, work = work_buffers(box, 3, 2)
        pair = (("inverse", coeffs, samples[:3 + 2 * dim], partial(box.inverse, grads=2)),
                ("forward", samples[:3], coeffs, box.forward))
        for name, inp, out, transform in pair:
            lists = []
            for source in ("first", "same", "copy"):
                inp = inp.copy() if source == "copy" else inp
                inp[...] = (rng.standard_normal(inp.shape) if name == "forward" else np.stack(
                    [random_field(box, 2.0, "scalar", rng=rng).coeffs for _ in range(3)]))
                got = transform(inp, out=out, work=work)
                assert got.tobytes() == transform(inp.copy()).tobytes()
                lists.append(getattr(work, name)[-1])
            assert lists[1] is lists[0] and lists[2] is not lists[0]
        tau_t = np.swapaxes(random_field(box, 2.0, "tensor", seed=92).coeffs, 0, 1)
        strided = rng.standard_normal((3,) + box.points[:-1] + (2 * M,))[..., ::2]
        for inp, transform, out in ((tau_t, box.inverse, np.empty((dim * dim,) + box.points)),
                                    (strided, box.forward, coeffs)):
            for _ in range(2):
                inp *= -2.0  # in place, between calls on the same objects
                got = transform(inp, out=out, work=work)
                assert got.tobytes() == transform(inp).tobytes()

    @pytest.mark.parametrize("dim, M", [(2, 16), (2, 26), (2, 50), (2, 96),
                                        (3, 14), (3, 26), (3, 32)])
    def test_inverse_gradients_equal_the_inverse_of_the_gradient_rows(self, dim, M):
        """`inverse(c, grads)` returns the samples of every row of c, bitwise
        as without gradients, then d_a of each of the first `grads` rows, within
        1e-14 of the largest value of the inverse of the rows i xi_a c, with a
        work buffer and without one."""
        box = make_grid(dim, M, 2 * math.pi, 4.0)
        rng = np.random.default_rng(90)
        c = np.stack([random_field(box, 2.0, "scalar", rng=rng).coeffs for _ in range(5)])
        want = box.inverse((box.ixi * c[:3, np.newaxis]).reshape((3 * dim,) + box.shape))
        _, samples, work = work_buffers(box, 5, 3)
        for got in (box.inverse(c, 3), box.inverse(c, 3, out=samples, work=work)):
            assert got.shape == (5 + 3 * dim,) + box.points
            assert got[:5].tobytes() == box.inverse(c).tobytes()
            assert np.max(np.abs(got[5:] - want)) <= 1e-14 * np.max(np.abs(want))

    def test_relayout_between_sizes_and_layouts_commutes(self):
        """Box moves between sizes equal numpy's embedding and restriction of
        the full spectrum, bitwise, both ways."""
        small, v, tau = ball_fields(2, 26, 8.0, 85)
        big = make_grid(2, 48, 2 * math.pi, 8.0)
        for f in (v, tau):
            up = relayout(f, big)
            assert up.coeffs.shape[-2:] == big.shape == (33, 17)
            full = oracles.full_from_box(f.coeffs, 2, 48)
            assert np.array_equal(up.coeffs, oracles.box_from_full(full, 2))
            down = relayout(up, small)
            assert np.array_equal(down.coeffs, f.coeffs)
        # the 48-mode box holds |k_a| <= 16; a 16-mode box holds |k_a| <= 5
        tiny = make_grid(2, 16, 2 * math.pi, 4.0)
        wide = random_field(big, 4.0, "vector", seed=89)
        full = oracles.full_from_box(wide.coeffs, 2, 48)
        assert np.array_equal(relayout(wide, tiny).coeffs, oracles.box_from_full(full, 2, K=5))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("plane", [0, -1])
    def test_hermitian_defect_measures_the_zero_and_nyquist_planes(self, dim, plane):
        """A field is measured on its zero plane k_d = 0, the one plane that
        holds both k and -k; its last plane k_d = K holds no conjugate pair."""
        box, v, tau = ball_fields(dim, 14, 4.0, 86)
        for f in (v, tau):
            assert hermitian_defect(f) == 0.0
            k = (Ellipsis, 1) + (0,) * (dim - 2) + (plane,)  # k' = (1, 0...) in the plane
            broken = f.coeffs.copy()
            broken[k] += 0.5j * np.max(np.abs(f.coeffs))
            defect = hermitian_defect(type(f)(box, broken))
            assert defect >= 0.1 if plane == 0 else defect == 0.0

    def test_random_field_on_a_half_grid_folds_the_full_draws(self):
        """Every kind is the dealias box of draws over all M^d modes, bitwise."""
        box, _, _ = ball_fields(3, 14, 4.0, 87)
        for kind, count in (("scalar", 1), ("vector", 3), ("tensor", 9)):
            rng = np.random.default_rng(88)
            c = np.stack([oracles.random_coeffs_full(3, 14, 4.0, rng) for _ in range(count)])
            if kind == "vector":
                c = oracles.leray_project_modes(oracles.full_modes(3, 14).astype(float), c)
            if kind == "tensor":
                c = c.reshape(3, 3, *c.shape[1:])
                c = 0.5 * (c + np.swapaxes(c, 0, 1))
            want = oracles.box_from_full(c[0] if kind == "scalar" else c, 3)
            assert np.array_equal(random_field(box, 4.0, kind, seed=88).coeffs, want)


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
        assert divergence_defect(v) <= 1e-12

    def test_tensor_kind_symmetric(self):
        tau = random_field(GRID, 4.0, "tensor", seed=62)
        assert oracles.equals_its_transpose(tau.coeffs)
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

"""Periodic-box Fourier fields and fractional Sobolev calculus.

Fields live on a uniform grid over [0, L)^d (d = 2 or 3) and are stored as
complex Fourier coefficients with the forward-normalized convention: the
coefficient at wavevector zero equals the mean of the physical field, and
Plancherel reads  sum_k |c_k|^2 = mean_x |f(x)|^2.  With that convention the
s = 0 Sobolev norm coincides with the physical root-mean-square norm, and all
tolerances in the test suite are convention-free.

Wavevectors are xi = (2*pi/L) * k for integer multi-indices k in
[-M/2, M/2)^d.  The spectral cutoff (`truncate`) keeps the closed Euclidean
ball |xi| <= n; dealiasing uses the per-axis 2/3 rule so that quadratic
products of retained modes are alias-free.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

__all__ = [
    "SpectralGrid",
    "ScalarField",
    "VectorField",
    "TensorField",
    "make_grid",
    "alias_free_modes",
    "relayout",
    "to_physical",
    "real_samples",
    "hs_norm",
    "hs_inner",
    "l2_inner",
    "linf_norm",
    "bessel",
    "truncate",
    "gradient_scalar",
    "gradient_vector",
    "divergence_vector",
    "divergence_tensor",
    "leray_project",
    "divergence_defect",
    "hermitian_defect",
    "symmetry_defect",
    "dealiased_product",
    "pointwise_matmul",
    "pointwise_transport",
    "convect_vector",
    "commutator_bessel_product",
    "random_field",
]


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SpectralGrid:
    """Fourier discretization of the periodic box [0, L)^dim.

    Precomputes integer mode indices, wavevectors, |xi|^2 (and its
    zero-free copy, the Leray denominator), the per-axis dealias mask, the
    |xi| <= n cutoff mask and their conjunction.  Instances are immutable and
    shared freely between fields.
    """

    dim: int
    modes_per_axis: int
    box_length: float
    truncation_radius: float
    dealias_fraction: float
    # derived arrays (filled in by make_grid)
    k_int: np.ndarray = dc_field(repr=False, default=None)
    xi: np.ndarray = dc_field(repr=False, default=None)
    xi_sq: np.ndarray = dc_field(repr=False, default=None)
    xi_sq_safe: np.ndarray = dc_field(repr=False, default=None)  # 1 at xi = 0
    dealias_mask: np.ndarray = dc_field(repr=False, default=None)
    ball_mask: np.ndarray = dc_field(repr=False, default=None)
    dealias_ball_mask: np.ndarray = dc_field(repr=False, default=None)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.modes_per_axis,) * self.dim

    @property
    def grid_axes(self) -> tuple[int, ...]:
        """Axes of a coefficient array that carry grid modes (the trailing dim)."""
        return tuple(range(-self.dim, 0))

    @property
    def dealias_kmax(self) -> int:
        """Largest per-axis integer |k| kept by the dealias mask."""
        return int(math.floor(self.dealias_fraction * (self.modes_per_axis / 2) + 1e-12))

    @property
    def dealias_limit(self) -> float:
        """Largest admissible truncation radius in |xi| units."""
        return self.dealias_fraction * (self.modes_per_axis / 2) * (2 * math.pi / self.box_length)


def make_grid(
    dim: int,
    modes_per_axis: int,
    box_length: float = 2 * math.pi,
    truncation_radius: float | None = None,
    dealias_fraction: float = 2.0 / 3.0,
) -> SpectralGrid:
    """Validate parameters and build a grid with precomputed mode geometry.

    Raises ValueError naming the offending field for: dim outside {2, 3},
    odd or too-small modes_per_axis, non-positive box_length, non-positive
    truncation_radius, or a truncation radius that the dealias mask would
    destroy (n must satisfy n <= dealias_fraction * (M/2) * (2*pi/L)).
    """
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    M = modes_per_axis
    if M % 2 != 0:
        raise ValueError(f"modes_per_axis must be even, got {M}")
    if M < 8:
        raise ValueError(f"modes_per_axis must be >= 8, got {M}")
    if not box_length > 0:
        raise ValueError(f"box_length must be positive, got {box_length}")
    if not 0 < dealias_fraction <= 1:
        raise ValueError(f"dealias_fraction must lie in (0, 1], got {dealias_fraction}")
    limit = dealias_fraction * (M / 2) * (2 * math.pi / box_length)
    if truncation_radius is None:
        truncation_radius = limit
    if not truncation_radius > 0:
        raise ValueError(f"truncation_radius must be positive, got {truncation_radius}")
    if truncation_radius > limit * (1 + 1e-12):
        raise ValueError(
            f"truncation_radius {truncation_radius:g} exceeds dealias limit {limit:.2f} "
            f"(= dealias_fraction * (M/2) * (2*pi/L))"
        )

    k1 = np.fft.fftfreq(M, d=1.0 / M)  # integer indices in [-M/2, M/2)
    axes_k = np.meshgrid(*([k1] * dim), indexing="ij")
    k_int = np.stack(axes_k).astype(np.int64)
    xi = (2 * math.pi / box_length) * k_int.astype(np.float64)
    xi_sq = np.sum(xi * xi, axis=0)

    kmax = int(math.floor(dealias_fraction * (M / 2) + 1e-12))
    dealias_mask = np.all(np.abs(k_int) <= kmax, axis=0)
    ball_mask = xi_sq <= truncation_radius * truncation_radius

    return SpectralGrid(
        dim=dim,
        modes_per_axis=M,
        box_length=float(box_length),
        truncation_radius=float(truncation_radius),
        dealias_fraction=float(dealias_fraction),
        k_int=k_int,
        xi=xi,
        xi_sq=xi_sq,
        xi_sq_safe=np.where(xi_sq > 0, xi_sq, 1.0),
        dealias_mask=dealias_mask,
        ball_mask=ball_mask,
        dealias_ball_mask=dealias_mask & ball_mask,
    )


def alias_free_modes(grid: SpectralGrid, n: float, kmax: int = 0) -> int:
    """Fewest modes per axis, capped at `grid`'s, on which the cutoff-n
    system is the same Galerkin system as on `grid`.

    With k = floor(n L / 2 pi), a product of two ball fields reaches per-axis
    |k| <= 2k and M modes fold it back by M, so M >= 3k + 1 keeps every fold
    out of the ball (Orszag's 2/3 rule; M = 3k folds onto its boundary).  A
    factor with modes up to |k| = `kmax` (a noise profile) needs
    M >= 2k + kmax + 1 and a dealias mask that holds it.  M is even, >= 8,
    and admits n under the grid's dealias fraction."""
    k = int(math.floor(n * grid.box_length / (2 * math.pi) + 1e-9))
    M = max(8, 2 * k + max(k, kmax) + 1)
    M += M % 2
    while M < grid.modes_per_axis:
        # a grid of scalars only: its dealias properties need no mode arrays
        bare = SpectralGrid(grid.dim, M, grid.box_length, n, grid.dealias_fraction)
        if n <= bare.dealias_limit * (1 + 1e-12) and bare.dealias_kmax >= kmax:
            return M
        M += 2
    return grid.modes_per_axis


def relayout(f: "Field", grid: SpectralGrid) -> "Field":
    """`f` on `grid`, whose `fftfreq` layout may hold more or fewer modes:
    shared modes are copied, a larger layout is zero elsewhere (embedding), a
    smaller one drops what it cannot hold (restriction).  Flags are kept; a
    matching layout shares the coefficient array."""
    src, dst = f.grid.modes_per_axis, grid.modes_per_axis
    if src == dst:
        return replace(f, grid=grid)
    m = min(src, dst)
    k = np.fft.fftfreq(m, 1.0 / m).astype(np.intp)
    out = np.zeros(f.coeffs.shape[: f.coeffs.ndim - grid.dim] + grid.shape, dtype=f.coeffs.dtype)
    out[(..., *np.ix_(*[k % dst] * grid.dim))] = f.coeffs[(..., *np.ix_(*[k % src] * grid.dim))]
    return replace(f, grid=grid, coeffs=out)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ScalarField:
    grid: SpectralGrid
    coeffs: np.ndarray  # shape grid.shape, complex

    @property
    def rank(self) -> int:
        return 0


@dataclass(frozen=True, eq=False)
class VectorField:
    grid: SpectralGrid
    coeffs: np.ndarray  # shape (dim,) + grid.shape, complex
    div_free: bool = False

    @property
    def rank(self) -> int:
        return 1


@dataclass(frozen=True, eq=False)
class TensorField:
    grid: SpectralGrid
    coeffs: np.ndarray  # shape (dim, dim) + grid.shape, complex
    symmetric: bool = False

    @property
    def rank(self) -> int:
        return 2


Field = ScalarField | VectorField | TensorField


def _like(f: Field, coeffs: np.ndarray, **flags) -> Field:
    if isinstance(f, ScalarField):
        return ScalarField(f.grid, coeffs)
    if isinstance(f, VectorField):
        return VectorField(f.grid, coeffs, div_free=flags.get("div_free", f.div_free))
    return TensorField(f.grid, coeffs, symmetric=flags.get("symmetric", f.symmetric))


def _check_same_grid(f: Field, g: Field) -> None:
    a, b = f.grid, g.grid
    if (a.dim, a.modes_per_axis, a.box_length) != (b.dim, b.modes_per_axis, b.box_length):
        raise ValueError("fields live on different grids")


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def to_physical(f: Field) -> np.ndarray:
    """Inverse transform to physical samples (complex array; real fields come
    back with O(1e-16) imaginary dust)."""
    return np.fft.ifftn(f.coeffs, axes=f.grid.grid_axes, norm="forward")


def real_samples(grid: SpectralGrid, coeffs: np.ndarray) -> np.ndarray:
    """Physical samples of the real field(s) with coefficients `coeffs`.

    Leading component axes are kept; the imaginary dust is dropped.
    """
    return np.fft.ifftn(coeffs, axes=grid.grid_axes, norm="forward").real


# ---------------------------------------------------------------------------
# norms and multipliers
# ---------------------------------------------------------------------------

def _sq_amplitude(f: Field) -> np.ndarray:
    """|coefficients|^2 summed over component axes -> array over modes."""
    a = f.coeffs.real ** 2
    a += f.coeffs.imag ** 2
    comp_axes = tuple(range(a.ndim - f.grid.dim))
    return a.sum(axis=comp_axes) if comp_axes else a


def hs_norm(f: Field, s: float) -> float:
    """Fractional Sobolev norm sqrt( sum_xi (1+|xi|^2)^s |f_hat(xi)|^2 ).

    Negative s is allowed.  Components of vector/tensor fields are summed
    (Frobenius convention).
    """
    w = (1.0 + f.grid.xi_sq) ** s
    return float(np.sqrt(np.sum(w * _sq_amplitude(f))))


def hs_inner(f: Field, g: Field, s: float) -> float:
    """H^s inner product; real part (exact for real-valued fields)."""
    _check_same_grid(f, g)
    w = (1.0 + f.grid.xi_sq) ** s
    prod = np.conj(f.coeffs) * g.coeffs
    comp_axes = tuple(range(prod.ndim - f.grid.dim))
    if comp_axes:
        prod = np.sum(prod, axis=comp_axes)
    return float(np.real(np.sum(w * prod)))


def l2_inner(f: Field, g: Field) -> float:
    return hs_inner(f, g, 0.0)


def linf_norm(f: Field) -> float:
    """Sup norm over grid points; vector/tensor use the pointwise Euclidean/
    Frobenius magnitude."""
    phys = to_physical(f)
    a = np.abs(phys) ** 2
    comp_axes = tuple(range(a.ndim - f.grid.dim))
    if comp_axes:
        a = np.sum(a, axis=comp_axes)
    return float(np.sqrt(np.max(a)))


def bessel(f: Field, r: float) -> Field:
    """Apply the smoothing/roughening multiplier (1+|xi|^2)^(r/2)."""
    w = (1.0 + f.grid.xi_sq) ** (r / 2.0)
    return _like(f, f.coeffs * w)


def truncate(f: Field, n: float) -> Field:
    """Spectral cutoff to the closed ball |xi| <= n; other modes unchanged."""
    if not n > 0:
        raise ValueError(f"truncation radius must be positive, got {n}")
    grid = f.grid
    if n == grid.truncation_radius:
        mask = grid.ball_mask
    else:
        mask = grid.xi_sq <= n * n
    return _like(f, f.coeffs * mask)


# ---------------------------------------------------------------------------
# differential operators (exact multipliers)
# ---------------------------------------------------------------------------

def gradient_scalar(f: ScalarField) -> VectorField:
    """grad f: component a is i*xi_a * f_hat."""
    c = 1j * f.grid.xi * f.coeffs[np.newaxis]
    return VectorField(f.grid, c)


def gradient_vector(v: VectorField) -> TensorField:
    """Velocity gradient with rows = components: (grad v)_{ab} = d_b v_a."""
    g = v.grid
    c = 1j * g.xi[np.newaxis, :] * v.coeffs[:, np.newaxis]
    return TensorField(g, c)


def divergence_vector(v: VectorField) -> ScalarField:
    c = np.sum(1j * v.grid.xi * v.coeffs, axis=0)
    return ScalarField(v.grid, c)


def divergence_tensor(tau: TensorField) -> VectorField:
    """Row-wise divergence: (div tau)_a = sum_b d_b tau_{ab}."""
    c = np.sum(1j * tau.grid.xi[np.newaxis, :] * tau.coeffs, axis=1)
    return VectorField(tau.grid, c)


def leray_project(v: VectorField) -> VectorField:
    """Project onto divergence-free fields: v_hat -> (I - xi xi^T/|xi|^2) v_hat.

    The mean mode (xi = 0) is left unchanged; constants are divergence-free.
    """
    g = v.grid
    xi_dot_v = np.sum(g.xi * v.coeffs, axis=0)
    c = v.coeffs - g.xi * (xi_dot_v / g.xi_sq_safe)[np.newaxis]
    return VectorField(g, c, div_free=True)


def divergence_defect(v: VectorField) -> float:
    """max over active modes of |xi . v_hat| / |v_hat| (0 for the zero field)."""
    g = v.grid
    num = np.abs(np.sum(g.xi * v.coeffs, axis=0))
    den = np.sqrt(np.sum(np.abs(v.coeffs) ** 2, axis=0))
    active = den > 0
    if not np.any(active):
        return 0.0
    return float(np.max(num[active] / den[active]))


def hermitian_defect(f: Field) -> float:
    """max |c(k) - conj(c(-k))| over modes, relative to max |c|."""
    g = f.grid
    neg = tuple((-np.arange(g.modes_per_axis)) % g.modes_per_axis for _ in range(g.dim))
    idx = np.ix_(*neg)
    c = f.coeffs
    flipped = np.conj(c[(..., *idx)])
    scale = np.max(np.abs(c))
    if scale == 0:
        return 0.0
    return float(np.max(np.abs(c - flipped)) / scale)


def symmetry_defect(tau: TensorField, norm_sq: float | None = None) -> float:
    """Relative L2 asymmetry ||tau - tau^T|| / ||tau|| (0 for the zero field);
    `norm_sq`, the sum of |coefficients|^2, saves a pass when the caller has it."""
    norm_sq = float(_sq_amplitude(tau).sum()) if norm_sq is None else norm_sq
    if norm_sq == 0:
        return 0.0
    diff = tau.coeffs - np.swapaxes(tau.coeffs, 0, 1)
    return float(np.sqrt(np.sum(diff.real ** 2 + diff.imag ** 2)) / np.sqrt(norm_sq))


# ---------------------------------------------------------------------------
# dealiased products
# ---------------------------------------------------------------------------

def dealiased_product(f: Field, g: Field) -> Field:
    """Pointwise product via physical space, 2/3-rule masked on output.

    scalar*scalar -> scalar; scalar*vector or scalar*tensor broadcasts the
    scalar over components.  Inputs supported inside the dealias mask make the
    retained product modes exact convolutions.
    """
    _check_same_grid(f, g)
    if f.rank != 0 and g.rank == 0:
        f, g = g, f
    if f.rank != 0:
        raise ValueError("one factor must be a scalar field")
    grid = g.grid
    pf = to_physical(f)
    pg = to_physical(g)
    prod = pf * pg  # broadcasting over leading component axes
    c = np.fft.fftn(prod, axes=grid.grid_axes, norm="forward")
    return _like(g, c * grid.dealias_mask)


def pointwise_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product (a b)_ij = sum_k a_ik b_kj at every grid point.

    `a` and `b` are physical samples with the two matrix axes leading.
    """
    return np.einsum("ik...,kj...->ij...", a, b)


def pointwise_transport(v: np.ndarray, grad: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Transport (v . grad) f = sum_c v_c d_c f at every grid point.

    `v` holds physical velocity samples (dim, *grid); `grad` holds the
    samples of every component's gradient, (components, dim, *grid), in the
    layout of `gradient_vector` (derivative axis last among the components).
    The result is written to `out` when given.
    """
    return np.einsum("c...,nc...->n...", v, grad, out=out)


def convect_vector(v: VectorField, u: VectorField) -> VectorField:
    """(v . grad) u, componentwise, dealiased (no spectral-ball cutoff here)."""
    _check_same_grid(v, u)
    grid = v.grid
    pv = real_samples(grid, v.coeffs)
    pgrad = real_samples(grid, gradient_vector(u).coeffs)
    c = np.fft.fftn(pointwise_transport(pv, pgrad), axes=grid.grid_axes, norm="forward")
    return VectorField(grid, c * grid.dealias_mask)


def commutator_bessel_product(f: ScalarField, g: ScalarField, s: float) -> ScalarField:
    """K(f, g) = J^s(f g) - f (J^s g) with J^s the Bessel multiplier.

    Bilinear in (f, g) exactly; the size of K is what commutator estimates
    control, so this is the quantity the verification suite measures.
    """
    fg = dealiased_product(f, g)
    lhs = bessel(fg, s)
    rhs = dealiased_product(f, bessel(g, s))
    return ScalarField(f.grid, lhs.coeffs - rhs.coeffs)


# ---------------------------------------------------------------------------
# random fields
# ---------------------------------------------------------------------------

def _positive_halfspace(grid: SpectralGrid) -> np.ndarray:
    """Lexicographic half of the mode lattice (used to impose c(-k) = conj c(k))."""
    k = grid.k_int
    mask = k[0] > 0
    tie = k[0] == 0
    mask = mask | (tie & (k[1] > 0))
    if grid.dim == 3:
        tie = tie & (k[1] == 0)
        mask = mask | (tie & (k[2] > 0))
    return mask


def _neg_index(grid: SpectralGrid):
    neg = tuple((-np.arange(grid.modes_per_axis)) % grid.modes_per_axis for _ in range(grid.dim))
    return np.ix_(*neg)


def _random_scalar_coeffs(grid: SpectralGrid, alpha: float, rng: np.random.Generator) -> np.ndarray:
    """Hermitian coefficients with deterministic modulus (1+|xi|^2)^(-alpha/2),
    uniform random phases, zero mean, supported inside the dealias mask."""
    modulus = (1.0 + grid.xi_sq) ** (-alpha / 2.0)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=grid.shape)
    half = _positive_halfspace(grid) & grid.dealias_mask
    c = np.zeros(grid.shape, dtype=np.complex128)
    c[half] = modulus[half] * np.exp(1j * phases[half])
    c = c + np.conj(c[_neg_index(grid)])
    return c


def random_field(
    grid: SpectralGrid,
    alpha: float,
    kind: str = "scalar",
    seed: int | None = None,
    rng: np.random.Generator | None = None,
) -> Field:
    """Zero-mean random test field with spectral decay |f_hat| ~ (1+|xi|^2)^(-alpha/2).

    kind: "scalar", "vector" (Leray-projected, divergence-free), or "tensor"
    (symmetrized).  Same seed, same grid -> identical coefficients.  Support is
    restricted to the dealias mask so products of generated fields are exact.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    if kind == "scalar":
        return ScalarField(grid, _random_scalar_coeffs(grid, alpha, rng))
    if kind == "vector":
        comps = [_random_scalar_coeffs(grid, alpha, rng) for _ in range(grid.dim)]
        v = VectorField(grid, np.stack(comps))
        return leray_project(v)
    if kind == "tensor":
        comps = [
            [_random_scalar_coeffs(grid, alpha, rng) for _ in range(grid.dim)]
            for _ in range(grid.dim)
        ]
        c = np.stack([np.stack(row) for row in comps])
        sym = 0.5 * (c + np.swapaxes(c, 0, 1))
        return TensorField(grid, sym, symmetric=True)
    raise ValueError(f"unknown field kind {kind!r}")

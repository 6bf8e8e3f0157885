"""Periodic-box Fourier fields and fractional Sobolev calculus.

Fields live on a uniform grid over [0, L)^d (d = 2 or 3) and are stored as
complex Fourier coefficients with the forward-normalized convention: the
coefficient at wavevector zero equals the mean of the physical field, and
Plancherel reads  sum_k |c_k|^2 = mean_x |f(x)|^2.  With that convention the
s = 0 Sobolev norm coincides with the physical root-mean-square norm, and all
tolerances in the test suite are convention-free.

Wavevectors are xi = (2*pi/L) * k for integer multi-indices k.  The spectral
cutoff (`truncate`) keeps the closed Euclidean ball |xi| <= n.  Dealiasing is
the per-axis 2/3 rule, fixed in the grid: M samples per axis resolve the
dealias box |k_a| <= K = M // 3, which holds every admissible ball, and
`SpectralGrid.forward` returns only its coefficients, so quadratic products
of retained modes are alias-free.

Fields are real, c(-k) = conj c(k), so a grid stores the dealias box with
k_d >= 0 only: the leading axes hold k = 0..K, -K..-1 (k at index k mod
2K+1), the last 0..K.  Sums over modes read the grid's plane `weight`, 2 on
the planes k_d > 0 and 1 on the zero plane, the one plane that holds both k
and -k.  `SpectralGrid.inverse`/`forward` are the one transform pair: real DFT
factors over the box's modes alone, one matrix product per axis (the sum-factorized
transform of Deville, Fischer & Mund 2002), no zero-padding; the leading axes fold k
with -k (the even-odd decomposition, Solomonoff 1992), and `inverse` returns gradient
samples from the rows' own folded coefficients.

The module's operators on coefficients are exact multipliers (gradient, Bessel
lift, cutoff, Leray projection), norms and defects.  It forms no product of
fields: `dynamics` forms them from the pointwise products below, a step's all in
one pass through the pair (`explicit_terms`).

Every energy and norm the package reports (the monitor's E_N columns, `hs_norm`,
`symmetry_defect`, refine's and verify's L2 rows) is the one squared mode sum
`sq_mode_sum`, whose bits rule makes one quantity equal wherever it is taken; no
other module squares a coefficient array.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field as dc_field, replace
from functools import partial

import numpy as np

__all__ = [
    "SpectralGrid",
    "ScalarField",
    "VectorField",
    "TensorField",
    "make_grid",
    "alias_free_modes",
    "relayout",
    "hs_weights",
    "sq_mode_sum",
    "hs_norm",
    "l2_inner",
    "bessel",
    "truncate",
    "gradient_vector",
    "leray_project",
    "divergence_defect",
    "hermitian_defect",
    "symmetry_defect",
    "pointwise_matmul",
    "pointwise_transport",
    "random_field",
]


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SpectralGrid:
    """Fourier discretization of the periodic box [0, L)^dim.

    Stores the dealias box |k_a| <= K = M // 3 with k_d >= 0 and precomputes
    its wavevectors, i xi, |xi|^2 (and its zero-free copy, the Leray
    denominator), the |xi| <= n cutoff mask and the plane weight.
    Instances are immutable and shared freely between fields.
    """

    dim: int
    modes_per_axis: int
    box_length: float
    truncation_radius: float
    # derived arrays (filled in by make_grid)
    xi: np.ndarray = dc_field(repr=False, default=None)
    ixi: np.ndarray = dc_field(repr=False, default=None)  # 1j * xi, the gradient multiplier
    xi_sq: np.ndarray = dc_field(repr=False, default=None)
    xi_sq_safe: np.ndarray = dc_field(repr=False, default=None)  # 1 at xi = 0
    ball_mask: np.ndarray = dc_field(repr=False, default=None)
    weight: np.ndarray = dc_field(repr=False, default=None)  # per-mode plane weight

    @functools.cached_property
    def runs(self) -> tuple[tuple[int, int], ...]:
        """(length, count of k >= 0) of each mode axis: k = 0, 1, ... lead, k < 0 trail."""
        K = self.dealias_kmax
        return ((2 * K + 1, K + 1),) * (self.dim - 1) + ((K + 1, K + 1),)

    @functools.cached_property
    def shape(self) -> tuple[int, ...]:
        """Mode axes of a coefficient array."""
        return tuple(n for n, _ in self.runs)

    @functools.cached_property
    def points(self) -> tuple[int, ...]:
        """Axes of the physical samples."""
        return (self.modes_per_axis,) * self.dim

    @property
    def grid_axes(self) -> tuple[int, ...]:
        """Axes of a coefficient array that carry grid modes (the trailing dim)."""
        return tuple(range(-self.dim, 0))

    @property
    def dealias_kmax(self) -> int:
        """Largest per-axis integer |k| kept by the 2/3 rule."""
        return self.modes_per_axis // 3

    def inverse(self, coeffs: np.ndarray, grads: int = 0, out: np.ndarray | None = None,
                work: _Work | None = None) -> np.ndarray:
        """Real samples of the rows of `coeffs`, then of the d derivatives of each of its
        first `grads` rows (row len(coeffs) + dim r + a holds d_a of row r).  Every leading
        axis is folded, k with -k (`_fold`); on each, innermost first, the [cos | sin] half
        of `_dft`'s stacked factor takes all rows and the derivatives formed so far, its
        [-k sin | k cos] half the gradient rows to their derivative.  The last axis is one
        product over the (re, im) pairs of its planes, its derivative one more from the
        same planes.  Intermediates go in `work` if given; a call on the same `coeffs` and
        `out` objects as the last one through it replays that call's kept list."""
        d, M = self.dim, self.modes_per_axis
        kept = (work := work or _Work(self)).inverse
        if kept[0] is not coeffs or kept[1] is not out or kept[2] != grads:
            c = coeffs.reshape((-1,) + self.shape)
            n, planes = len(c), M ** (d - 1)
            out = np.empty((n + grads * d,) + self.points) if out is None else out
            lead, syn, dsyn = _dft(M, self.dealias_kmax, self.box_length)[:3]
            ops, region, f, derivs, work.start = [], work.region, c, [], 0  # derivs: d_a, a < d-1
            for axis in self.grid_axes[-2::-1]:
                f = _fold(f, axis, region, ops)
            for axis in self.grid_axes[-2::-1]:
                new = _lead_axis(lead[M:], f[:grads], axis, region, ops)
                derivs = [_lead_axis(lead[:M], y, axis, region, ops) for y in derivs] + [new]
                f = _lead_axis(lead[:M], f, axis, region, ops)
            grad = out[n:].reshape((grads, d) + self.points)
            for y, fac, o in ((f, syn, out[:n]), (f[:grads], dsyn, grad[:, -1]),
                              *((y, syn, grad[:, a]) for a, y in enumerate(reversed(derivs)))):
                y = y.view(np.float64).reshape(len(y), planes, len(fac), copy=False)
                o = o.reshape(len(o), planes, M, copy=False)
                ops.append(partial(np.matmul, y, fac, out=o))
            key = coeffs if np.may_share_memory(c, coeffs) else None  # a copy keys nothing
            work.inverse = kept = key, out, grads, ops
        for op in kept[3]:
            op()
        return kept[1] if grads else kept[1].reshape(coeffs.shape[:coeffs.ndim - d] + self.points)

    def forward(self, samples: np.ndarray, out: np.ndarray | None = None,
                work: _Work | None = None) -> np.ndarray:
        """Dealias-box coefficients of real samples: one real product into the (re, im) pairs
        of the planes k_d <= K, then on each leading axis one by the [cos | sin] half's transpose,
        whose sums `_unfold` turns into the coefficients at k and -k (intermediates in `work`;
        a call on the same `samples` and `out` objects as the last one replays its list)."""
        d, M = self.dim, self.modes_per_axis
        kept = (work := work or _Work(self)).forward
        if kept[0] is not samples or kept[1] is not out:
            x, lead = np.ascontiguousarray(samples), samples.shape[:samples.ndim - d]
            out = np.empty(lead + self.shape, dtype=np.complex128) if out is None else out
            ana, pairs = _dft(M, self.dealias_kmax, self.box_length)[3:]
            region, planes, work.start = work.region, lead + (M ** (d - 1),), 0
            c = region(lead + self.points[:-1] + self.shape[-1:])
            ops = [partial(np.matmul, x.reshape(planes + (M,), copy=False), pairs,
                           out=c.view(np.float64).reshape(planes + pairs.shape[1:], copy=False))]
            for axis in self.grid_axes[:-1]:
                y = _lead_axis(ana, c, axis, region, ops, first=True)
                c = _unfold(y, axis, out if axis == -2 else region(y.shape), ops)
            work.forward = kept = samples if x is samples else None, out, ops  # as in `inverse`
        for op in kept[2]:
            op()
        return kept[1]


class _Work:
    """The pair's flat work buffer, sized for transforms of up to `rows` rows (the rows an
    inverse returns, gradients included) on `grid` (a bound: pages never cut stay untouched),
    and the calls of its last inverse and forward, kept with the arrays they read and write,
    and replayed while those same objects (by identity; kept, no other array takes their ids)
    come back: a path's steps transform the same rows of their drift pass (`dynamics.DriftPass`,
    which owns one), so a warm call only runs its list."""

    def __init__(self, grid: SpectralGrid, rows: int = 0):
        B, H = grid.shape[-2:]
        self.buffer = np.empty(2 * H * rows * (grid.modes_per_axis + B) ** (grid.dim - 1))
        self.start, self.inverse, self.forward = 0, (None, None, 0, []), (None, None, [])

    def region(self, shape: tuple, first: int = 0) -> np.ndarray:
        """The next complex array cut from the buffer after `start` (fresh past its end),
        stored with axis `first` outermost."""
        stored, size, start = list(shape), 2 * math.prod(shape), self.start
        stored[0], stored[first], self.start = shape[first], shape[0], start + size
        a = self.buffer[start:self.start] if self.start <= len(self.buffer) else np.empty(size)
        return a.view(np.complex128).reshape(stored).swapaxes(0, first)


@functools.lru_cache(maxsize=None)
def _dft(M: int, K: int, L: float) -> tuple[np.ndarray, ...]:
    """Real DFT factors of one grid size and box length, built once and shared by its grids
    (only the pair reads them), phases from the exact integers k n mod M, k in fold order
    (0..K, -1..-K), derivatives carrying 2 pi / L: a leading axis's synthesis of folded rows,
    [cos | sin] over [-k sin | k cos] (2M, 2K+1); the last axis's of (re, im) pairs, (cos, -sin)
    weighted 1 at k_d = 0 and 2 elsewhere, and k (-sin, -cos) alike; the analysis factors."""
    k = np.r_[0:K + 1, -1:-K - 1:-1]
    phase = (2 * math.pi / M) * (np.outer(np.arange(M), k) % M)
    cos, sin, xi = np.cos(phase), np.sin(phase), (2 * math.pi / L) * k
    syn = np.where(k >= 0, cos, -sin)  # sin(k n) at -k multiplies i (c_k - c_-k)
    lead = np.concatenate([syn, -xi * np.where(k >= 0, sin, cos)])
    pairs = (cos - 1j * sin)[:, :K + 1].view(np.float64)  # Im at k_d = 0 reads sin 0 = 0
    dpairs = (-(sin + 1j * cos) * xi)[:, :K + 1].view(np.float64)
    w = np.repeat(np.where(np.arange(K + 1) == 0, 1.0, 2.0), 2)  # (re, im) of each plane
    factors = (lead, (pairs * w).T, (dpairs * w).T, syn.T / M, pairs / M)
    return tuple(np.ascontiguousarray(f) for f in factors)


def _lead_axis(mat: np.ndarray, c: np.ndarray, axis: int, region, ops: list,
               first: bool = False) -> np.ndarray:
    """Real `mat` times axis `axis` < -1 of complex `c` into `region`'s next array (stored with
    that axis outermost if `first`): one np.matmul per leading index, appended to `ops`."""
    lead, cols = c.shape[:axis], 2 * math.prod(c.shape[axis + 1:])
    out = region(lead + (len(mat),) + c.shape[axis + 1:], axis if first else 0)
    x = c.view(np.float64).reshape(lead + (c.shape[axis], cols), copy=False)
    y = out.view(np.float64).reshape(lead + (len(mat), cols), copy=False)
    ops.append(partial(np.matmul, mat, x, out=y))
    return out


def _fold(c: np.ndarray, axis: int, region, ops: list) -> np.ndarray:
    """`c` folded along `axis` by calls appended to `ops`, into `region`'s next array stored
    with that axis outermost (each half one block): c_k + c_-k at k = 0..K (c_0 alone; as
    2 c_k - (c_k - c_-k)), then i (c_k - c_-k) for k = 1..K."""
    src, out = c.swapaxes(0, axis), region(c.shape, axis)
    x, K = out.swapaxes(0, axis), len(src) // 2
    p, q = x[1:K + 1], x[K + 1:]
    ops += [partial(np.copyto, x[:K + 1], src[:K + 1]), partial(np.copyto, q, src[:K:-1]),
            partial(np.subtract, p, q, out=q), partial(np.add, p, p, out=p),
            partial(np.subtract, p, q, out=p), partial(np.multiply, q, 1j, out=q)]
    return out


def _unfold(c: np.ndarray, axis: int, out: np.ndarray, ops: list) -> np.ndarray:
    """`c`'s cos sums C (k = 0..K) and sin sums S (k = 1..K) along `axis`, stored with it
    outermost (spent), as coefficients in `out` by calls appended to `ops`: C - i S at k
    (as 2 C - (C + i S)) and C + i S at -k."""
    y, o = c.swapaxes(0, axis), out.swapaxes(0, axis)
    K = len(y) // 2
    p, q = y[1:K + 1], y[K + 1:]
    ops += [partial(np.multiply, q, 1j, out=q), partial(np.add, p, q, out=q),
            partial(np.add, p, p, out=p), partial(np.subtract, p, q, out=p),
            partial(np.copyto, o[:K + 1], y[:K + 1]), partial(np.copyto, o[:K:-1], q)]
    return out


def _dealias_limit(modes_per_axis: int, box_length: float) -> float:
    """The 2/3 rule's radius (2/3)(M/2)(2 pi/L), the largest a grid admits."""
    return 2.0 / 3.0 * (modes_per_axis / 2) * (2 * math.pi / box_length)


def _shared_blocks(src: tuple, dst: tuple) -> tuple:
    """(dst, src) index pairs of the blocks of modes that two layouts, given by
    their axis `runs`, both store: per axis the run of k >= 0 and the run of
    k < 0, so contiguous block copies, 2^(d-1) between two boxes."""
    per_axis = []
    for (n_src, p_src), (n_dst, p_dst) in zip(src, dst):
        pos, neg = min(p_src, p_dst), min(n_src - p_src, n_dst - p_dst)
        per_axis.append([(slice(0, pos),) * 2]
                        + [(slice(n_dst - neg, n_dst), slice(n_src - neg, n_src))] * (neg > 0))
    return tuple(tuple(zip(*blocks)) for blocks in itertools.product(*per_axis))


def _copy_blocks(c: np.ndarray, src: tuple, dst: tuple) -> np.ndarray:
    """`c`, laid out by the axis runs `src`, in the layout `dst`: the shared
    blocks copied into zeros."""
    out = np.zeros(c.shape[:c.ndim - len(dst)] + tuple(n for n, _ in dst), dtype=c.dtype)
    for dst_index, src_index in _shared_blocks(src, dst):
        out[(..., *dst_index)] = c[(..., *src_index)]
    return out


def _mode_indices(runs: tuple) -> np.ndarray:
    """Integer wavevectors, (d, *shape), of a layout given by its axis `runs`:
    each axis in transform order, its run of k = 0, 1, ..., then its k < 0."""
    k = [(np.arange(n) + n - p) % n - (n - p) for n, p in runs]
    return np.stack(np.meshgrid(*k, indexing="ij")).astype(np.int64)


def _mirror(c: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """c at -k over `axes`: index i goes to -i mod the axis length."""
    return np.roll(np.flip(c, axes), 1, axes)


def make_grid(
    dim: int,
    modes_per_axis: int,
    box_length: float = 2 * math.pi,
    truncation_radius: float | None = None,
) -> SpectralGrid:
    """Validate parameters and build a grid with precomputed mode geometry.
    The grid stores the dealias box |k_a| <= M // 3 with k_d >= 0.

    Raises ValueError naming the offending field for: dim outside {2, 3},
    odd or too-small modes_per_axis, non-positive box_length, non-positive
    truncation_radius, or a truncation radius beyond the dealias limit
    (n must satisfy n <= (M/3) * (2*pi/L)).
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
    limit = _dealias_limit(M, box_length)
    if truncation_radius is None:
        truncation_radius = limit
    if not truncation_radius > 0:
        raise ValueError(f"truncation_radius must be positive, got {truncation_radius}")
    if truncation_radius > limit * (1 + 1e-12):
        raise ValueError(
            f"truncation_radius {truncation_radius:g} exceeds dealias limit {limit:.2f} "
            f"(= (M/3) * (2*pi/L))"
        )

    grid = SpectralGrid(dim, M, float(box_length), float(truncation_radius))
    weight = np.where(np.arange(grid.dealias_kmax + 1) == 0, 1.0, 2.0)
    xi = (2 * math.pi / box_length) * _mode_indices(grid.runs).astype(np.float64)
    xi_sq = np.sum(xi * xi, axis=0)
    return replace(
        grid,
        xi=xi,
        ixi=1j * xi,
        xi_sq=xi_sq,
        xi_sq_safe=np.where(xi_sq > 0, xi_sq, 1.0),
        ball_mask=xi_sq <= truncation_radius * truncation_radius,
        weight=weight.reshape((1,) * (dim - 1) + (-1,)),
    )


def alias_free_modes(grid: SpectralGrid, n: float, kmax: int = 0) -> int:
    """Fewest modes per axis, capped at `grid`'s, on which the cutoff-n
    system is the same Galerkin system as on `grid`.

    With k = floor(n L / 2 pi), a product of two ball fields reaches per-axis
    |k| <= 2k and M modes fold it back by M, so M >= 3k + 1 keeps every fold
    out of the ball (Orszag's 2/3 rule; M = 3k folds onto its boundary).  A
    factor with modes up to |k| = `kmax` (a noise profile) needs a dealias
    box that holds it, M >= 3 kmax, which with M >= 3k + 1 implies
    M >= 2k + kmax + 1.  M is
    even, >= 8, and admits n under the 2/3 rule."""
    k = int(math.floor(n * grid.box_length / (2 * math.pi) + 1e-9))
    M = max(8, 3 * k + 1, 3 * kmax)
    M += M % 2
    while M < grid.modes_per_axis and n > _dealias_limit(M, grid.box_length) * (1 + 1e-12):
        M += 2
    return min(M, grid.modes_per_axis)


def relayout(f: "Field", grid: SpectralGrid) -> "Field":
    """`f` on `grid`, whose box may hold more or fewer modes: the shared blocks
    of modes are copied, a larger box is zero elsewhere (embedding), a smaller
    one drops what it cannot hold (restriction).  A box of the same shape
    shares the coefficient array."""
    if f.grid.shape == grid.shape:
        return replace(f, grid=grid)
    return replace(f, grid=grid, coeffs=_copy_blocks(f.coeffs, f.grid.runs, grid.runs))


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ScalarField:
    grid: SpectralGrid
    coeffs: np.ndarray  # shape grid.shape, complex


@dataclass(frozen=True, eq=False)
class VectorField:
    grid: SpectralGrid
    coeffs: np.ndarray  # shape (dim,) + grid.shape, complex


@dataclass(frozen=True, eq=False)
class TensorField:
    grid: SpectralGrid
    coeffs: np.ndarray  # shape (dim, dim) + grid.shape, complex


Field = ScalarField | VectorField | TensorField


def _check_same_grid(f: Field, g: Field) -> None:
    a, b = f.grid, g.grid
    if (a.shape, a.points, a.box_length) != (b.shape, b.points, b.box_length):
        raise ValueError("fields live on different grids")


# ---------------------------------------------------------------------------
# norms and multipliers
# ---------------------------------------------------------------------------

def hs_weights(grid: SpectralGrid, s: float) -> tuple[np.ndarray, np.ndarray]:
    """`sq_mode_sum`'s weights on `grid`, flat over its modes, built once per grid by
    the caller (nothing caches them): (1+|xi|^2)^s times the plane weight, a power of
    two, so folding it in moves no bit of a product; and the rows 1 and |xi|^2."""
    w = ((1.0 + grid.xi_sq) ** s * grid.weight).ravel()
    return w, np.stack((np.ones_like(w), grid.xi_sq.ravel()))


def sq_mode_sum(coeffs: np.ndarray, weights: tuple, grad: bool = False) -> float | list:
    """sum_xi w |c_hat|^2 on `hs_weights`; with `grad`, [that, sum_xi |xi|^2 w |c_hat|^2]
    from one reduction of the same amplitude against the rows 1 and |xi|^2.  The bits
    rule: re^2 + im^2 summed over the component rows in order, times w, then one
    pairwise `np.add.reduce` over the flat modes."""
    w, rows = weights
    a = coeffs.real ** 2
    a += coeffs.imag ** 2
    a = w * np.add.reduce(a.reshape(-1, len(w)), 0)
    return np.add.reduce(rows * a, 1).tolist() if grad else float(np.add.reduce(a))


def hs_norm(f: Field, s: float) -> float:
    """Fractional Sobolev norm sqrt( sum_xi (1+|xi|^2)^s |f_hat(xi)|^2 ).

    Negative s is allowed.  Components of vector/tensor fields are summed
    (Frobenius convention).
    """
    return math.sqrt(sq_mode_sum(f.coeffs, hs_weights(f.grid, s)))


def l2_inner(f: Field, g: Field) -> float:
    """L^2 inner product; real part (exact for real-valued fields)."""
    _check_same_grid(f, g)
    prod = np.conj(f.coeffs) * g.coeffs
    rows = prod.sum(axis=tuple(range(prod.ndim - f.grid.dim)))  # components summed
    return float(np.real(np.sum(f.grid.weight * rows)))


def bessel(f: Field, r: float) -> Field:
    """Apply the smoothing/roughening multiplier (1+|xi|^2)^(r/2)."""
    w = (1.0 + f.grid.xi_sq) ** (r / 2.0)
    return type(f)(f.grid, f.coeffs * w)


def truncate(f: Field, n: float) -> Field:
    """Spectral cutoff to the closed ball |xi| <= n; other modes unchanged."""
    if not n > 0:
        raise ValueError(f"truncation radius must be positive, got {n}")
    mask = f.grid.ball_mask if n == f.grid.truncation_radius else f.grid.xi_sq <= n * n
    return type(f)(f.grid, f.coeffs * mask)


# ---------------------------------------------------------------------------
# differential operators (exact multipliers)
# ---------------------------------------------------------------------------

def gradient_vector(v: VectorField) -> TensorField:
    """Velocity gradient with rows = components: (grad v)_{ab} = d_b v_a."""
    g = v.grid
    c = g.ixi[np.newaxis, :] * v.coeffs[:, np.newaxis]
    return TensorField(g, c)


def leray_project(v: VectorField) -> VectorField:
    """Project onto divergence-free fields: v_hat -> (I - xi xi^T/|xi|^2) v_hat.

    The mean mode (xi = 0) is left unchanged; constants are divergence-free.
    """
    g = v.grid
    c = g.xi * v.coeffs  # the one box-sized temporary: the result is formed in it
    s = np.add.reduce(c, 0)
    s /= g.xi_sq_safe
    return VectorField(g, np.subtract(v.coeffs, np.multiply(g.xi, s, out=c), out=c))


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
    """max |c(k) - conj(c(-k))| over the zero plane k_d = 0, relative to max |c|.
    Only that plane holds both k and -k; elsewhere symmetry holds by
    construction."""
    g, c = f.grid, f.coeffs
    scale = np.max(np.abs(c))
    if scale == 0:
        return 0.0
    c = c[..., :1]
    flipped = np.conj(_mirror(c, g.grid_axes[:-1]))
    return float(np.max(np.abs(c - flipped)) / scale)


def symmetry_defect(tau: TensorField) -> float:
    """Relative L2 asymmetry ||tau - tau^T|| / ||tau|| (0 for the zero field)."""
    w = hs_weights(tau.grid, 0.0)
    norm_sq = sq_mode_sum(tau.coeffs, w)
    if norm_sq == 0:
        return 0.0
    diff_sq = sq_mode_sum(tau.coeffs - np.swapaxes(tau.coeffs, 0, 1), w)
    return math.sqrt(diff_sq) / math.sqrt(norm_sq)


# ---------------------------------------------------------------------------
# pointwise products of physical samples
# ---------------------------------------------------------------------------

def pointwise_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Matrix product (a b)_ij = sum_k a_ik b_kj at every grid point.

    `a` and `b` are physical samples with the two matrix axes leading.  The
    result is written to `out` when given.
    """
    return np.einsum("ik...,kj...->ij...", a, b, out=out)


def pointwise_transport(v: np.ndarray, grad: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Transport (v . grad) f = sum_c v_c d_c f at every grid point.

    `v` holds physical velocity samples (dim, *grid); `grad` holds the
    samples of every component's gradient, (components, dim, *grid), in the
    layout of `gradient_vector` (derivative axis last among the components).
    The result is written to `out` when given.
    """
    return np.einsum("c...,nc...->n...", v, grad, out=out)


# ---------------------------------------------------------------------------
# random fields
# ---------------------------------------------------------------------------

def _random_scalar_coeffs(grid: SpectralGrid, draw: tuple, rng: np.random.Generator) -> np.ndarray:
    """Hermitian box coefficients with uniform random phases, drawn over all
    M^d modes: `draw` is (their axis runs, the half mask, the modulus on it)."""
    runs, half, modulus = draw
    phases = rng.uniform(0.0, 2.0 * math.pi, size=grid.points)
    c = np.zeros(grid.points, dtype=np.complex128)
    c[half] = modulus * np.exp(1j * phases[half])
    return _copy_blocks(c + np.conj(_mirror(c, grid.grid_axes)), runs, grid.runs)


def random_field(
    grid: SpectralGrid,
    alpha: float,
    kind: str = "scalar",
    seed: int | None = None,
    rng: np.random.Generator | None = None,
) -> Field:
    """Zero-mean random test field with spectral decay |f_hat| ~ (1+|xi|^2)^(-alpha/2).

    kind: "scalar", "vector" (Leray-projected, divergence-free), or "tensor"
    (symmetrized).  Same seed, same grid -> identical coefficients.  Each
    scalar component draws a deterministic modulus (1+|xi|^2)^(-alpha/2) and
    a uniform phase for one mode of every +-k pair in the dealias box, with
    the phases drawn over all M^d modes; the box's blocks are kept, so
    products of generated fields are exact.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    if kind not in ("scalar", "vector", "tensor"):
        raise ValueError(f"unknown field kind {kind!r}")
    M = grid.modes_per_axis
    runs = ((M, M // 2),) * grid.dim
    k_int = _mode_indices(runs)
    first = k_int[-1]  # the first nonzero k_a: positive on one of each +-k pair
    for k in k_int[-2::-1]:
        first = np.where(k != 0, k, first)
    half = (first > 0) & np.all(np.abs(k_int) <= grid.dealias_kmax, axis=0)
    xi = (2 * math.pi / grid.box_length) * k_int.astype(np.float64)
    modulus = (1.0 + np.sum(xi * xi, axis=0)[half]) ** (-alpha / 2.0)
    draw = (runs, half, modulus)
    if kind == "scalar":
        return ScalarField(grid, _random_scalar_coeffs(grid, draw, rng))
    if kind == "vector":
        comps = [_random_scalar_coeffs(grid, draw, rng) for _ in range(grid.dim)]
        return leray_project(VectorField(grid, np.stack(comps)))
    comps = [[_random_scalar_coeffs(grid, draw, rng) for _ in range(grid.dim)]
             for _ in range(grid.dim)]
    c = np.stack([np.stack(row) for row in comps])
    return TensorField(grid, 0.5 * (c + np.swapaxes(c, 0, 1)))

"""Independent reference computations for the test suite.

Everything here is deliberately written without importing the package under
test: plain quadrature sums, closed-form solutions, and textbook interval
formulas.  Tests compare package output against these, never the other way
around.
"""
from __future__ import annotations

import math

import numpy as np

# two-sided 97.5% standard-normal quantile, to full double precision
Z_95 = 1.959963984540054


def rms_norm_components(values: np.ndarray, grid_dim: int) -> float:
    """Root-mean-square over grid points, summed over leading component axes.

    `values` has shape (components..., M, ..., M) with `grid_dim` trailing grid
    axes.  Matches the discrete Plancherel normalization of the package's
    s = 0 Sobolev norm.
    """
    a = np.abs(np.asarray(values)) ** 2
    grid_axes = tuple(range(a.ndim - grid_dim, a.ndim))
    mean_sq = a.mean(axis=grid_axes)
    return float(np.sqrt(mean_sq.sum()))


def weighted_grad_sq(xi_sq: np.ndarray, weight: np.ndarray, c: np.ndarray) -> float:
    """sum over modes of |xi|^2 w |c|^2 for coefficients `c` with leading component
    axes, `weight` the per-mode plane weight w broadcasting over the modes:
    re^2 + im^2 added over the components one after another, then one sum."""
    c = np.asarray(c)
    rows = (c.real ** 2 + c.imag ** 2).reshape((-1,) + xi_sq.shape)
    amp = rows[0]
    for row in rows[1:]:
        amp = amp + row
    return float(np.sum(xi_sq * (weight * amp)))


def l2_inner_physical(f: np.ndarray, g: np.ndarray, grid_dim: int) -> float:
    """Physical-space L2 inner product with mean (not sum) quadrature."""
    prod = np.conj(np.asarray(f)) * np.asarray(g)
    grid_axes = tuple(range(prod.ndim - grid_dim, prod.ndim))
    return float(np.real(prod.mean(axis=grid_axes).sum()))


def full_modes(dim: int, M: int) -> np.ndarray:
    """Integer wavevectors of all M^dim modes in FFT order, shape (dim, M, ..., M)."""
    k = np.rint(np.fft.fftfreq(M, 1.0 / M)).astype(np.int64)
    return np.stack(np.meshgrid(*[k] * dim, indexing="ij"))


def full_geometry(dim: int, M: int, radius: float, box_length: float = 2 * math.pi):
    """Wavevectors xi, (dim, M, ..., M), of all M^dim modes in FFT order, the
    mask of the dealias box |k_a| <= M // 3 and the mask of the ball |xi| <= radius."""
    k = full_modes(dim, M)
    xi = (2 * math.pi / box_length) * k
    return xi, np.all(np.abs(k) <= M // 3, axis=0), np.sum(xi * xi, axis=0) <= radius * radius


def box_from_full(c: np.ndarray, dim: int, K: int | None = None) -> np.ndarray:
    """The box |k_a| <= K (the dealias box, K = M // 3, by default) with
    k_d >= 0 of coefficients over all M^dim modes (trailing `dim` axes in FFT
    order; the last may hold only its first planes, as an rfft does): the
    leading axes hold k = 0..K, -K..-1, the last k = 0..K."""
    c = np.asarray(c)
    M = c.shape[-dim]
    K = M // 3 if K is None else K
    k = np.r_[0:K + 1, -K:0]
    index = np.ix_(*[k % M] * (dim - 1) + [np.arange(K + 1)])
    return c[(Ellipsis,) + index]


def full_from_box(c: np.ndarray, dim: int, M: int) -> np.ndarray:
    """Coefficients over all M^dim modes (FFT order) of the real field whose
    dealias box (as `box_from_full` lays it out) is `c`: zero outside the
    box, and c(-k) = conj c(k) written for the planes k_d > 0."""
    c = np.asarray(c)
    K = c.shape[-1] - 1
    k = np.r_[0:K + 1, -K:0]
    kd = np.arange(1, K + 1)
    out = np.zeros(c.shape[:c.ndim - dim] + (M,) * dim, dtype=np.complex128)
    out[(Ellipsis,) + np.ix_(*[k % M] * (dim - 1) + [np.arange(K + 1)])] = c
    out[(Ellipsis,) + np.ix_(*[-k % M] * (dim - 1) + [-kd % M])] = np.conj(c[..., 1:])
    return out


def random_coeffs_full(dim: int, M: int, alpha: float, rng: np.random.Generator,
                       box_length: float = 2 * math.pi) -> np.ndarray:
    """One scalar draw of the random test fields over all M^dim modes: a
    uniform phase per mode (drawn over every mode, in FFT order) and the
    modulus (1+|xi|^2)^(-alpha/2) on the modes of the dealias box whose first
    nonzero k_a is positive, then c(-k) = conj c(k) filled in."""
    k = full_modes(dim, M)
    first = k[-1]
    for ka in k[-2::-1]:
        first = np.where(ka != 0, ka, first)
    half = (first > 0) & np.all(np.abs(k) <= M // 3, axis=0)
    xi = (2 * math.pi / box_length) * k.astype(np.float64)
    modulus = (1.0 + np.sum(xi * xi, axis=0)) ** (-alpha / 2.0)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=(M,) * dim)
    c = np.zeros((M,) * dim, dtype=np.complex128)
    c[half] = modulus[half] * np.exp(1j * phases[half])
    axes = tuple(range(dim))
    return c + np.conj(np.roll(np.flip(c, axes), 1, axes))


def equals_its_transpose(tau_hat: np.ndarray) -> bool:
    """Whether a tensor's coefficients (matrix axes leading) equal their
    transpose bit for bit."""
    return tau_hat.tobytes() == np.swapaxes(tau_hat, 0, 1).tobytes()


def stokes_discrete_factor(nu: float, dt: float, xi_sq: float, n_steps: int) -> float:
    """Exact per-mode amplification of the semi-implicit viscous solve."""
    return (1.0 + nu * dt * xi_sq) ** (-n_steps)


def geometric_bm_exact(x0: complex, c: float, w_total: float) -> complex:
    """Stratonovich solution of dx = c x dW: x(t) = x0 * exp(c * W(t))."""
    return x0 * math.exp(c * w_total)


def double_divergence_single_mode(xi: np.ndarray, tau_hat: np.ndarray) -> complex:
    """div(div tau) at one Fourier mode: -xi^T tau_hat xi."""
    xi = np.asarray(xi, dtype=float)
    return complex(-xi @ np.asarray(tau_hat) @ xi)


def divergence_modes(xi: np.ndarray, v_hat: np.ndarray) -> np.ndarray:
    """div v on Fourier coefficients: sum_a i xi_a v_hat_a."""
    return np.sum(1j * np.asarray(xi) * np.asarray(v_hat), axis=0)


def vorticity_modes(xi: np.ndarray, v_hat: np.ndarray) -> np.ndarray:
    """Skew part W(v) = (grad v - grad v^T)/2, with (grad v)_ab = i xi_b v_hat_a."""
    g = 1j * np.asarray(xi)[np.newaxis] * np.asarray(v_hat)[:, np.newaxis]
    return 0.5 * (g - np.swapaxes(g, 0, 1))


def deformation_modes(xi: np.ndarray, v_hat: np.ndarray) -> np.ndarray:
    """Symmetric part D(v) = (grad v + grad v^T)/2, with (grad v)_ab = i xi_b v_hat_a."""
    g = 1j * np.asarray(xi)[np.newaxis] * np.asarray(v_hat)[:, np.newaxis]
    return 0.5 * (g + np.swapaxes(g, 0, 1))


def oldroyd_quadratic_terms(xi, v_hat, tau_hat, b: float, keep):
    """(v.grad)v, (v.grad)tau and Q = tau W - W tau - b (D tau + tau D), one
    component at a time.

    `xi` holds the wavevectors (d, *grid); `v_hat` (d, *grid) and `tau_hat`
    (d, d, *grid) are forward-normalized Fourier coefficients.  Every factor
    is brought to physical space on its own, products are summed by hand
    (complex samples, the full four-product Q), and each result is
    transformed back and multiplied by the boolean mode mask `keep`.
    """
    d = xi.shape[0]
    axes = tuple(range(-d, 0))

    def phys(c):
        return np.fft.ifftn(c, axes=axes, norm="forward")

    def back(p):
        return np.fft.fftn(p, axes=axes, norm="forward") * keep

    def matmul(x, y):
        return np.einsum("ik...,kj...->ij...", x, y)

    v = [phys(v_hat[c]) for c in range(d)]
    grad_v = np.array([[phys(1j * xi[c] * v_hat[a]) for c in range(d)] for a in range(d)])
    adv_v = np.array([back(sum(v[c] * grad_v[a, c] for c in range(d))) for a in range(d)])
    adv_tau = np.array([
        [back(sum(v[c] * phys(1j * xi[c] * tau_hat[i, j]) for c in range(d))) for j in range(d)]
        for i in range(d)
    ])
    tau = np.array([[phys(tau_hat[i, j]) for j in range(d)] for i in range(d)])
    w = 0.5 * (grad_v - grad_v.swapaxes(0, 1))
    dd = 0.5 * (grad_v + grad_v.swapaxes(0, 1))
    q = back(matmul(tau, w) - matmul(w, tau) - b * (matmul(dd, tau) + matmul(tau, dd)))
    return adv_v, adv_tau, q


def leray_project_modes(xi, c_hat):
    """(I - xi xi^T / |xi|^2) c_hat mode by mode; the mean mode is kept."""
    xi_sq = np.sum(xi * xi, axis=0)
    xi_dot_c = np.sum(xi * c_hat, axis=0)
    return c_hat - xi * (xi_dot_c / np.where(xi_sq > 0, xi_sq, 1.0))


def dealiased_scalar_product(f_hat, v_hat, keep):
    """Scalar field f times each component of v, one component at a time
    through physical space, transformed back and masked by `keep`."""
    axes = tuple(range(-f_hat.ndim, 0))
    f = np.fft.ifftn(f_hat, axes=axes, norm="forward")
    return np.array([
        np.fft.fftn(f * np.fft.ifftn(v_hat[a], axes=axes, norm="forward"), axes=axes,
                    norm="forward") * keep
        for a in range(v_hat.shape[0])
    ])


def noise_basis_modes(k, p, kind, weights, M: int):
    """sum_j weights[j] e_j and sum_j weights[j] phi_j over all M^d modes (FFT
    order), one entry at a time: e_j = sqrt(2) p_j cos(k_j.x) (kind 0) or
    sqrt(2) p_j sin(k_j.x) (kind 1), cos and sin having the coefficients
    (1/2, 1/2) and (-i/2, i/2) at (k_j, -k_j), and phi_j the scalar cos or sin
    weighed by sqrt(2) / (1 + |k_j|^2).  Entries of weight 0 add nothing and
    are skipped."""
    dim = len(k[0])
    velocity = np.zeros((dim,) + (M,) * dim, dtype=complex)
    profile = np.zeros((M,) * dim, dtype=complex)
    for j in np.flatnonzero(weights):
        smooth = math.sqrt(2.0) / (1.0 + float(np.sum(k[j] ** 2)))
        pair = (0.5 + 0.0j, 0.5 + 0.0j) if kind[j] == 0 else (-0.5j, 0.5j)
        for sign, coef in zip((1, -1), pair):
            mode = tuple(sign * k[j] % M)
            velocity[(slice(None),) + mode] += math.sqrt(2.0) * weights[j] * coef * p[j]
            profile[mode] += weights[j] * smooth * coef
    return velocity, profile


def sigma_increment(xi, dealias, ball, additive_hat, profile_hat, v_hat):
    """The velocity noise increment P(trunc(c0 Sigma + c1 dealias(Phi v))),
    each operation on its own; `additive_hat` holds c0 Sigma and
    `profile_hat` c1 Phi."""
    total = additive_hat + dealiased_scalar_product(profile_hat, v_hat, dealias)
    return leray_project_modes(xi, total * ball)


def wilson_interval(successes: int, n: int, z: float = Z_95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n == 0:
        return (0.0, 1.0)
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return (max(0.0, center - half), min(1.0, center + half))


def fit_loglog_slope(x, y) -> float:
    """Least-squares slope of log(y) against log(x)."""
    return float(np.polyfit(np.log(np.asarray(x, float)), np.log(np.asarray(y, float)), 1)[0])


def sample_variance_se(n: int, sigma_sq: float) -> float:
    """Approximate standard error of the sample variance of n normals."""
    return sigma_sq * math.sqrt(2.0 / (n - 1))


def poisson_mean_se(lam: float, n: int) -> float:
    """Standard error of the mean of n Poisson(lam) counts."""
    return math.sqrt(lam / n)

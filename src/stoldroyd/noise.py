"""The three noise channels driving the system.

* Velocity: a Q-Wiener process expanded over a fixed catalogue of low-mode,
  divergence-free, unit-RMS trigonometric fields e_j with trace-class weights
  lambda_j = lambda0 * j^(-decay), acted on by an affine diffusion
  sigma(v) e_j = c0 * psi_j + c1 * (phi_j * v).  Affinity keeps the growth
  and Lipschitz constants analytic instead of assumed.
* Stress: a single scalar Brownian motion multiplying S(tau) = h tau
  (pointwise matrix product).  The Stratonovich-to-Ito correction
  (1/2) S^2(tau) is consumed by the drift assembly in `dynamics`.
* Jumps: a compound Poisson channel G(v, z) = gamma(z) * (kappa * v) with a
  smoothing multiplier kappa_hat = (1+|xi|^2)^(-1), compensated exactly in
  closed form.

The noise basis is indexed by j, never by grid resolution, so one recorded
path can drive runs at different spectral cutoffs (the coupling behind the
refinement experiments).  Increments are recorded raw (unscaled by the
eigenvalues) and reproduce bitwise through save/load.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .spectral import (
    ScalarField,
    SpectralGrid,
    TensorField,
    VectorField,
    pointwise_matmul,
    real_samples,
    truncate,
)

__all__ = [
    "WienerQConfig",
    "VelocityNoiseBasis",
    "SigmaInstance",
    "StressNoiseInstance",
    "JumpConfig",
    "JumpOperator",
    "StepNoise",
    "NoiseSampler",
    "NoisePath",
    "save_noise_path",
    "load_noise_path",
    "rng_for_run",
]

NOISE_PATH_VERSION = 1


def rng_for_run(master_seed: int, run_index: int) -> np.random.Generator:
    """Independent per-run stream; the (seed, index) pair is the whole identity,
    so ensembles can execute in any order."""
    return np.random.default_rng(np.random.SeedSequence([master_seed, run_index]))


# ---------------------------------------------------------------------------
# Q-Wiener structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WienerQConfig:
    """Eigenvalue ladder of the velocity noise covariance."""

    lambda0: float
    J: int
    decay: float = 2.0

    def __post_init__(self):
        if not self.lambda0 > 0:
            raise ValueError(f"lambda0 must be positive, got {self.lambda0}")
        if self.J < 1:
            raise ValueError(f"J must be >= 1, got {self.J}")
        if not self.decay > 1:
            raise ValueError(f"decay must exceed 1 for a summable tail, got {self.decay}")

    @property
    def eigenvalues(self) -> np.ndarray:
        j = np.arange(1, self.J + 1, dtype=float)
        return self.lambda0 * j ** (-self.decay)

    @property
    def trace(self) -> float:
        return float(self.eigenvalues.sum())

    @property
    def tail_bound(self) -> float:
        """Analytic bound on the discarded tail sum_{j>J} lambda_j
        (integral comparison: sum j^-p <= J^(1-p)/(p-1))."""
        return self.lambda0 * self.J ** (1.0 - self.decay) / (self.decay - 1.0)


def _halfspace_wavevectors(dim: int, count: int) -> list[tuple[int, ...]]:
    """First `count` integer wavevectors from the lexicographic half-lattice,
    sorted by |k|^2 then lexicographically.  Deterministic enumeration."""
    radius = 4
    while True:
        # one representative per +-k pair: the first nonzero entry is positive
        ks = [kv for kv in itertools.product(range(-radius, radius + 1), repeat=dim)
              if next((c for c in kv if c != 0), 0) > 0]
        ks.sort(key=lambda kv: (sum(c * c for c in kv), kv))
        # the box holds every vector with |k|^2 <= radius^2; past that, a
        # shorter vector outside the box could be missing from the list
        if len(ks) >= count and sum(c * c for c in ks[count - 1]) <= radius * radius:
            return ks[:count]
        radius *= 2


def _polarizations(kv: tuple[int, ...]) -> list[np.ndarray]:
    """Orthonormal vectors perpendicular to k (one in 2D, two in 3D)."""
    k = np.array(kv, dtype=float)
    if len(kv) == 2:
        p = np.array([-k[1], k[0]]) / np.linalg.norm(k)
        return [p]
    helper = np.array([0.0, 0.0, 1.0])
    if abs(k @ helper) == np.linalg.norm(k) * np.linalg.norm(helper):
        helper = np.array([1.0, 0.0, 0.0])
    p1 = np.cross(k, helper)
    p1 /= np.linalg.norm(p1)
    p2 = np.cross(k, p1)
    p2 /= np.linalg.norm(p2)
    return [p1, p2]


class VelocityNoiseBasis:
    """Catalogue of J divergence-free unit-RMS fields e_j and the matching
    smoothed scalar profiles phi_j.

    e_j = sqrt(2) * p * cos(k_j . x) or sin(k_j . x), with p a unit
    polarization perpendicular to k_j: each field occupies the +-k_j mode
    pair, has physical RMS exactly 1, and is identical on every grid that
    contains the pair.  phi_j drops the polarization and weighs the profile by
    (1 + |k_j|^2)^(-1) so the multiplicative channel is smoothing.
    """

    def __init__(self, grid: SpectralGrid, J: int):
        entries = []  # (k tuple, polarization vector, kind 0=cos 1=sin)
        per_k = 2 * (grid.dim - 1)  # polarizations times {cos, sin}
        n_k = (J + per_k - 1) // per_k
        for kv in _halfspace_wavevectors(grid.dim, n_k):
            for p in _polarizations(kv):
                entries.append((kv, p, 0))
                entries.append((kv, p, 1))
        entries = entries[:J]
        # largest per-axis |k| of the catalogue
        self.kmax = max(max(abs(c) for c in kv) for kv, _, _ in entries)
        if self.kmax > grid.dealias_kmax:
            raise ValueError(
                f"noise basis needs modes up to |k|={self.kmax}, beyond the "
                f"dealias cutoff {grid.dealias_kmax} of this grid"
            )
        self.grid = grid
        self.J = J
        self.k = np.array([kv for kv, _, _ in entries], dtype=np.int64)  # (J, dim)
        self.p = np.array([p for _, p, _ in entries])  # (J, dim)
        self.kind = np.array([kind for _, _, kind in entries], dtype=np.int64)
        M = grid.modes_per_axis
        flat_strides = np.array([M ** (grid.dim - 1 - a) for a in range(grid.dim)])
        # flat positions of the +k and -k coefficients, (2, J), and per component
        self._index = np.stack([(self.k % M) @ flat_strides, ((-self.k) % M) @ flat_strides])
        self._index_by_component = (np.arange(grid.dim)[:, np.newaxis, np.newaxis] * M ** grid.dim
                                    + self._index).ravel()
        # cos(kx) has coefficients (1/2, 1/2) at +-k; sin(kx) has (-i/2, +i/2)
        self._coef = np.where(self.kind == 0, 0.5 + 0.0j, np.array([[-0.5j], [0.5j]]))
        self.k_sq = np.sum(self.k ** 2, axis=1).astype(float)
        self._smooth = math.sqrt(2.0) / (1.0 + self.k_sq)

    def assemble_velocity(self, weights: np.ndarray) -> VectorField:
        """sum_j weights[j] * sqrt(2) * e_j as a vector field."""
        grid = self.grid
        flat = np.zeros(grid.dim * grid.modes_per_axis ** grid.dim, dtype=np.complex128)
        signed = math.sqrt(2.0) * weights * self._coef
        np.add.at(flat, self._index_by_component, (signed * self.p.T[:, np.newaxis]).ravel())
        return VectorField(grid, flat.reshape((grid.dim,) + grid.shape), div_free=True)

    def assemble_profile(self, weights: np.ndarray) -> ScalarField:
        """sum_j weights[j] * phi_j as a scalar field."""
        grid = self.grid
        flat = np.zeros(grid.modes_per_axis ** grid.dim, dtype=np.complex128)
        np.add.at(flat, self._index.ravel(), (weights * self._smooth * self._coef).ravel())
        return ScalarField(grid, flat.reshape(grid.shape))

    def e_j(self, j: int) -> VectorField:
        return self.assemble_velocity(np.eye(self.J)[j])

    def phi_j(self, j: int) -> ScalarField:
        return self.assemble_profile(np.eye(self.J)[j])

    def peetre_factors(self, s: float) -> np.ndarray:
        """Multiplier bounds A_j(s) with ||phi_j * v||_{H^s} <= A_j ||v||_{H^s}."""
        abs_s = abs(s)
        l1_phi = math.sqrt(2.0) / (1.0 + self.k_sq)  # sum of |phi_hat| over the pair
        return 2.0 ** (abs_s / 2.0) * l1_phi * (1.0 + self.k_sq) ** (abs_s / 2.0)


# ---------------------------------------------------------------------------
# affine velocity diffusion
# ---------------------------------------------------------------------------

class SigmaInstance:
    """sigma(v) e_j = c0 * e_j + c1 * (phi_j * v).

    Affine in v: with w_j = sqrt(lambda_j) dW_j, the full increment
    sum_j w_j sigma(v) e_j is c0 * sum_j w_j e_j + c1 * Phi v with the single
    profile Phi = sum_j w_j phi_j, so one product covers every j.  `parts`
    gives the two spectral pieces; `stepping.step` forms the product in the
    drift's physical-space pass and truncates and projects the velocity
    update as a whole.
    """

    def __init__(self, grid: SpectralGrid, wiener: WienerQConfig, c0: float, c1: float):
        self.grid = grid
        self.wiener = wiener
        self.c0 = float(c0)
        self.c1 = float(c1)
        self.basis = VelocityNoiseBasis(grid, wiener.J)
        self._sqrt_lambda = np.sqrt(wiener.eigenvalues)

    def on(self, grid: SpectralGrid) -> "SigmaInstance":
        return SigmaInstance(grid, self.wiener, self.c0, self.c1)

    def parts(self, dw1: np.ndarray) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Coefficients of c0 * sum_j w_j e_j and of c1 * Phi, the multiplier
        of v; None for a part whose amplitude is 0."""
        w = self._sqrt_lambda * dw1
        return (None if self.c0 == 0.0 else self.basis.assemble_velocity(self.c0 * w).coeffs,
                None if self.c1 == 0.0 else self.basis.assemble_profile(self.c1 * w).coeffs)

    def growth_constant(self, s: float, jump: "JumpOperator | None" = None) -> float:
        """Analytic K with sum_j lambda_j ||sigma(v) e_j||_{H^s}^2
        + integral ||G(v,z)||^2 lambda(dz) <= K (1 + ||v||_{H^s}^2)."""
        lam = self.wiener.eigenvalues
        e_norms_sq = (1.0 + self.basis.k_sq) ** s  # ||e_j||_{H^s}^2 exactly
        a_sq = self.basis.peetre_factors(s) ** 2
        k_sigma = 2.0 * float(np.sum(lam * (self.c0 ** 2 * e_norms_sq + self.c1 ** 2 * a_sq)))
        k_jump = 0.0 if jump is None else jump.second_moment_bound()
        return k_sigma + k_jump


# ---------------------------------------------------------------------------
# stress noise
# ---------------------------------------------------------------------------

class StressNoiseInstance:
    """S(tau) = h tau with h either c_h * identity or a smooth bump profile
    times the all-ones matrix.

    The identity kind multiplies coefficients directly (no transform), keeps
    tau symmetric, and makes the scalar linear SDE per coefficient exact up to
    the scheme error — the bump kind exercises the symmetry-defect tracking.
    Never symmetrizes its output.
    """

    def __init__(self, grid: SpectralGrid, h_kind: str = "identity", c_h: float = 0.0,
                 bump_width: float = 1.0):
        if h_kind not in ("identity", "bump"):
            raise ValueError(f"h_kind must be 'identity' or 'bump', got {h_kind!r}")
        self.grid = grid
        self.h_kind = h_kind
        self.c_h = float(c_h)
        self.bump_width = bump_width
        self.preserves_symmetry = h_kind == "identity"
        if h_kind == "bump":
            x = np.meshgrid(
                *[np.linspace(0, grid.box_length, grid.modes_per_axis, endpoint=False)] * grid.dim,
                indexing="ij",
            )
            kappa = 1.0 / bump_width ** 2
            profile = np.ones(grid.shape)
            for xa in x:
                profile = profile * np.exp(kappa * (np.cos(2 * math.pi * xa / grid.box_length) - 1.0))
            ones = np.ones((grid.dim, grid.dim))
            phys = self.c_h * np.einsum("ab,...->ab...", ones, profile)
            c = np.fft.fftn(phys, axes=grid.grid_axes, norm="forward") * grid.dealias_mask
            self.h = TensorField(grid, c, symmetric=True)
            # physical samples of the dealiased profile, the left factor of every product
            self._h_samples = real_samples(grid, c)
        else:
            c = np.zeros((grid.dim, grid.dim) + grid.shape, dtype=np.complex128)
            for a in range(grid.dim):
                c[(a, a) + (0,) * grid.dim] = self.c_h
            self.h = TensorField(grid, c, symmetric=True)

    def on(self, grid: SpectralGrid) -> "StressNoiseInstance":
        return StressNoiseInstance(grid, self.h_kind, self.c_h, self.bump_width)

    def s_apply(self, tau: TensorField) -> TensorField:
        if self.h_kind == "identity":
            return TensorField(self.grid, self.c_h * tau.coeffs, symmetric=tau.symmetric)
        ptau = real_samples(self.grid, tau.coeffs)
        c = np.fft.fftn(pointwise_matmul(self._h_samples, ptau), axes=self.grid.grid_axes, norm="forward")
        return TensorField(self.grid, c * self.grid.dealias_mask)

    def s_squared(self, tau: TensorField) -> TensorField:
        """S(S(tau)) — the composition, matching how the increment is applied."""
        return self.s_apply(self.s_apply(tau))

    def h_operator_sup(self) -> float:
        """sup_x of the spectral (operator) norm of the matrix h(x)."""
        if self.h_kind == "identity":
            return abs(self.c_h)
        d = self.grid.dim
        mats = np.moveaxis(self._h_samples, (0, 1), (-2, -1)).reshape(-1, d, d)
        return float(np.linalg.norm(mats, ord=2, axis=(1, 2)).max())


# ---------------------------------------------------------------------------
# compound-Poisson jump channel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JumpConfig:
    """Finite-activity jump channel: rate, uniform mark law on [z_min, z_max],
    and the coefficient shape gamma(z) (constant or linear in the mark)."""

    rate: float
    z_min: float = 0.0
    z_max: float = 1.0
    gamma_kind: str = "constant"
    gamma0: float = 0.0

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError(f"rate must be >= 0, got {self.rate}")
        if not self.z_min < self.z_max:
            raise ValueError(
                f"mark interval must satisfy z_min < z_max, got [{self.z_min}, {self.z_max}]"
            )
        if self.gamma_kind not in ("constant", "linear"):
            raise ValueError(f"gamma_kind must be 'constant' or 'linear', got {self.gamma_kind!r}")

    def gamma(self, z: float) -> float:
        return self.gamma0 if self.gamma_kind == "constant" else self.gamma0 * z

    @property
    def gamma_bar(self) -> float:
        """Mean of gamma under the uniform mark law (closed form)."""
        if self.gamma_kind == "constant":
            return self.gamma0
        return self.gamma0 * 0.5 * (self.z_min + self.z_max)

    @property
    def gamma_sq_bar(self) -> float:
        """Mean of gamma^2 under the uniform mark law (closed form)."""
        if self.gamma_kind == "constant":
            return self.gamma0 ** 2
        width = self.z_max - self.z_min
        return self.gamma0 ** 2 * (self.z_max ** 3 - self.z_min ** 3) / (3.0 * width)


class JumpOperator:
    """G(v, z) = gamma(z) * (kappa * v) with kappa_hat = (1+|xi|^2)^(-1)."""

    def __init__(self, grid: SpectralGrid, config: JumpConfig):
        self.grid = grid
        self.config = config
        self._kappa = 1.0 / (1.0 + grid.xi_sq)

    def on(self, grid: SpectralGrid) -> "JumpOperator":
        return JumpOperator(grid, self.config)

    def smooth(self, v: VectorField) -> VectorField:
        return VectorField(self.grid, self._kappa * v.coeffs, div_free=v.div_free)

    def jump_increment(self, v: VectorField, z: float) -> VectorField:
        return VectorField(
            self.grid,
            self.config.gamma(z) * self._kappa * v.coeffs,
            div_free=v.div_free,
        )

    def compensator(self, v: VectorField) -> VectorField:
        """integral_Z G(v, z) lambda(dz) = rate * gamma_bar * (kappa * v)."""
        factor = self.config.rate * self.config.gamma_bar
        return VectorField(self.grid, factor * self._kappa * v.coeffs, div_free=v.div_free)

    def second_moment_bound(self) -> float:
        """integral ||G(v,z)||^2 lambda(dz) <= this * ||v||^2 (kappa <= 1)."""
        return self.config.rate * self.config.gamma_sq_bar


# ---------------------------------------------------------------------------
# sampling and replay
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepNoise:
    """Raw noise for one step: dW_j (unscaled), dW_2, and jumps in step-local
    time, each jump a (time offset in [0, dt), mark) pair sorted by offset."""

    dw1: np.ndarray
    dw2: float
    jumps: tuple[tuple[float, float], ...]


class NoiseSampler:
    """Owns one RNG and a fixed draw order per step: dW1 block, dW2, jump
    count, jump offsets, jump marks.  The order never changes, so trajectories
    are reproducible functions of (seed, config)."""

    def __init__(self, J: int, jump_config: JumpConfig, rng: np.random.Generator):
        self.J = J
        self.jump_config = jump_config
        self.rng = rng

    def sample_step(self, dt: float) -> StepNoise:
        if dt < 0:
            raise ValueError(f"dt must be >= 0, got {dt}")
        scale = math.sqrt(dt)
        dw1 = scale * self.rng.standard_normal(self.J)
        dw2 = scale * float(self.rng.standard_normal())
        count = int(self.rng.poisson(self.jump_config.rate * dt))
        if count == 0:  # zero-size draws would leave the stream where it is
            return StepNoise(dw1=dw1, dw2=dw2, jumps=())
        offsets = np.sort(self.rng.uniform(0.0, dt, size=count))
        marks = self.rng.uniform(self.jump_config.z_min, self.jump_config.z_max, size=count)
        jumps = tuple((float(t), float(z)) for t, z in zip(offsets, marks))
        return StepNoise(dw1=dw1, dw2=dw2, jumps=jumps)


@dataclass
class NoisePath:
    """Recorded increments for replay across spectral cutoffs.

    Indexed by noise-basis j and step, never by grid mode.  `signature`
    captures what the increments mean: (dim, box_length, J).
    """

    dt: float
    signature: tuple
    dw1: np.ndarray  # (n_steps, J)
    dw2: np.ndarray  # (n_steps,)
    jump_step: np.ndarray  # (K,) int
    jump_offset: np.ndarray  # (K,) float, within-step time
    jump_mark: np.ndarray  # (K,)

    @property
    def n_steps(self) -> int:
        return self.dw1.shape[0]

    def step_noise(self, i: int) -> StepNoise:
        # jump_step is nondecreasing (record writes it in step order; load checks it)
        lo, hi = np.searchsorted(self.jump_step, (i, i + 1))
        jumps = tuple(
            (float(t), float(z))
            for t, z in zip(self.jump_offset[lo:hi], self.jump_mark[lo:hi])
        )
        return StepNoise(dw1=self.dw1[i], dw2=float(self.dw2[i]), jumps=jumps)

    @classmethod
    def record(cls, dt: float, signature: tuple, steps: list[StepNoise]) -> "NoisePath":
        J = int(signature[2])
        if steps:
            dw1 = np.array([s.dw1 for s in steps])
            dw2 = np.array([s.dw2 for s in steps])
        else:
            dw1 = np.zeros((0, J))
            dw2 = np.zeros(0)
        jump_step, jump_offset, jump_mark = [], [], []
        for i, s in enumerate(steps):
            for t, z in s.jumps:
                jump_step.append(i)
                jump_offset.append(t)
                jump_mark.append(z)
        return cls(
            dt=dt,
            signature=signature,
            dw1=dw1,
            dw2=dw2,
            jump_step=np.array(jump_step, dtype=np.int64),
            jump_offset=np.array(jump_offset, dtype=float),
            jump_mark=np.array(jump_mark, dtype=float),
        )


def save_noise_path(path: NoisePath, filename) -> None:
    dim, box_length, J = path.signature
    np.savez(
        filename,
        version=np.int64(NOISE_PATH_VERSION),
        dt=np.float64(path.dt),
        dim=np.int64(dim),
        box_length=np.float64(box_length),
        J=np.int64(J),
        dw1=path.dw1,
        dw2=path.dw2,
        jump_step=path.jump_step,
        jump_offset=path.jump_offset,
        jump_mark=path.jump_mark,
    )


def load_noise_path(filename) -> NoisePath:
    with np.load(filename) as data:
        version = int(data["version"])
        if version != NOISE_PATH_VERSION:
            raise ValueError(
                f"noise path version {version} not supported (expected {NOISE_PATH_VERSION})"
            )
        path = NoisePath(
            dt=float(data["dt"]),
            signature=(int(data["dim"]), float(data["box_length"]), int(data["J"])),
            dw1=data["dw1"].copy(),
            dw2=data["dw2"].copy(),
            jump_step=data["jump_step"].copy(),
            jump_offset=data["jump_offset"].copy(),
            jump_mark=data["jump_mark"].copy(),
        )
    # a file from outside may hold arrays that disagree; step_noise would zip them short
    n_steps = path.dw1.shape[0] if path.dw1.ndim else -1
    expected = {
        "dw1": (n_steps, path.signature[2]),
        "dw2": (n_steps,),
        "jump_offset": path.jump_step.shape,
        "jump_mark": path.jump_step.shape,
    }
    for name, shape in expected.items():
        if getattr(path, name).shape != shape:
            raise ValueError(
                f"noise path {name} has shape {getattr(path, name).shape}, expected {shape}"
            )
    # step_noise looks jumps up by bisection, which needs sorted in-range steps
    steps = path.jump_step
    if steps.ndim != 1:
        raise ValueError("noise path jump_step must be one-dimensional")
    if not np.all(np.diff(steps) >= 0):
        raise ValueError("noise path jump_step must be nondecreasing")
    if not np.all((steps >= 0) & (steps < path.n_steps)):
        raise ValueError(f"noise path jump_step must lie in [0, {path.n_steps})")
    return path

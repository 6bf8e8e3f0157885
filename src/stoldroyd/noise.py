"""The three noise channels driving the system.

* Velocity: a Q-Wiener process expanded over a fixed catalogue of low-mode,
  divergence-free, unit-RMS trigonometric fields e_j with trace-class weights
  lambda_j = lambda0 * j^(-decay), acted on by an affine diffusion
  sigma(v) e_j = c0 * e_j + c1 * (phi_j * v).
* Stress: a single scalar Brownian motion multiplying S(tau) = c_h tau, a
  number, so it has no object here: `stepping.step` folds the increment
  S(tau) dW2 and the Stratonovich-to-Ito correction (1/2) S^2(tau) =
  (c_h^2 / 2) tau into the one multiple of tau it applies per step.
* Jumps: a compound Poisson channel G(v, z) = gamma(z) * (kappa * v) with a
  smoothing multiplier kappa_hat = (1+|xi|^2)^(-1), compensated exactly in
  closed form.

Nothing here holds a grid: the basis is indexed by j, never by grid resolution,
and a path's `stepping.StepPlan` places it and kappa on the grid it steps on, so
one recorded path can drive runs at different spectral cutoffs (the coupling
behind the refinement experiments).  Increments are recorded raw (unscaled by
the eigenvalues) and reproduce bitwise through save/load.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .spectral import SpectralGrid

__all__ = [
    "WienerQConfig",
    "NoiseCatalogue",
    "noise_catalogue",
    "JumpConfig",
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


@dataclass(frozen=True)
class NoiseCatalogue:
    """The J divergence-free unit-RMS fields e_j and the matching smoothed
    scalar profiles phi_j, as coefficients on no grid (`noise_catalogue`).

    e_j = sqrt(2) * p * cos(k_j . x) or sin(k_j . x), with p a unit
    polarization perpendicular to k_j: each field occupies the +-k_j mode
    pair, has physical RMS exactly 1, and is identical on every grid that
    contains the pair.  phi_j drops the polarization and weighs the profile by
    (1 + |k_j|^2)^(-1) so the multiplicative channel is smoothing.  A grid
    stores the `held` coefficients, those with k_d >= 0.  Arrays are read-only.
    """

    k: np.ndarray  # (J, dim) wavevectors
    p: np.ndarray  # (J, dim) polarizations
    kind: np.ndarray  # (J,) 0 = cos, 1 = sin
    smooth: np.ndarray  # (J,) phi_j's weight sqrt(2) / (1 + |k_j|^2)
    held: np.ndarray  # (n, dim) wavevector of each held coefficient
    j: np.ndarray  # (n,) basis index of each held coefficient
    entries: np.ndarray  # ((dim + 1) n,) a unit weight's e_j rows, then phi_j's, at each
    kmax: int  # largest per-axis |k|

    def check_grid(self, grid: SpectralGrid) -> None:
        if self.kmax > grid.dealias_kmax:
            raise ValueError(f"noise basis needs modes up to |k|={self.kmax}, beyond the "
                             f"dealias cutoff {grid.dealias_kmax} of this grid")


@functools.lru_cache(maxsize=None)
def noise_catalogue(dim: int, J: int) -> NoiseCatalogue:
    """The catalogue of the first J fields in `dim` dimensions, built once."""
    per_k = 2 * (dim - 1)  # polarizations times {cos, sin}
    entries = [(kv, p, kind) for kv in _halfspace_wavevectors(dim, -(-J // per_k))
               for p in _polarizations(kv) for kind in (0, 1)][:J]
    k, p, kind = (np.array(column, dtype=dtype)
                  for column, dtype in zip(zip(*entries), (np.int64, float, np.int64)))
    # the +-k coefficients, (2, J), of which a grid holds those with k_d >= 0;
    # cos(kx) has (1/2, 1/2) at +-k, sin(kx) (-i/2, +i/2)
    pm = np.stack([k, -k])
    held = pm[..., -1] >= 0
    j = np.nonzero(held)[1]
    coef = np.where(kind == 0, 0.5 + 0.0j, np.array([[-0.5j], [0.5j]]))[held]
    smooth = math.sqrt(2.0) / (1.0 + np.sum(k ** 2, axis=1).astype(float))
    catalogue = NoiseCatalogue(
        k=k, p=p, kind=kind, smooth=smooth, held=pm[held], j=j,
        entries=np.r_[(math.sqrt(2.0) * coef * p[j].T).ravel(), smooth[j] * coef],
        kmax=int(np.max(np.abs(k))))
    for shared in (k, p, kind, smooth, catalogue.held, j, catalogue.entries):
        shared.flags.writeable = False
    return catalogue


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
        normals = self.rng.standard_normal(self.J + 1)  # the stream of dW1's draws, then dW2's
        dw1, dw2 = scale * normals[:-1], scale * float(normals[-1])
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

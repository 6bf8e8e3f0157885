"""Deterministic drift of the truncated velocity/stress system.

The velocity drift splits into a stiff viscous part (handled implicitly by
the integrator) and an explicit part: minus the truncated self-advection plus
the stress-divergence coupling.  The stress drift is fully explicit:
transport, relaxation, the bilinear rotation/slip form Q, the deformation
forcing, and the Ito correction coming from the Stratonovich stress noise.

`explicit_terms` forms every quadratic term of a step in one physical-space
pass: v, tau, a scalar noise profile and the gradients go out in one
inverse transform, advection, stress transport, Q and the profile-times-v
noise product are formed pointwise on real samples, and one forward
transform and one dealias-and-ball mask bring them back.  The velocity terms
stay unprojected, so the integrator projects its whole update once.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import (
    TensorField,
    VectorField,
    convect_vector,
    divergence_tensor,
    gradient_vector,
    leray_project,
    pointwise_matmul,
    pointwise_transport,
    real_samples,
    truncate,
)

__all__ = [
    "PhysicalParams",
    "FlowState",
    "deformation",
    "vorticity",
    "q_form",
    "advect_vector",
    "explicit_terms",
    "drift",
]


@dataclass(frozen=True)
class PhysicalParams:
    """Model constants: viscosity, relaxation, slip, coupling weights.

    `s` is the working Sobolev index used by energy monitoring and noise
    growth bookkeeping.  `nonlinear` switches the quadratic terms (advection
    and Q) on or off; the linear stress/velocity couplings always stay on, so
    False gives the Stokes-type linearization.
    """

    nu: float
    a: float
    b: float
    mu1: float
    mu2: float
    s: float = 2.0
    nonlinear: bool = True

    def __post_init__(self):
        if self.nu < 0:
            raise ValueError(f"nu must be >= 0, got {self.nu}")
        if self.a < 0:
            raise ValueError(f"a must be >= 0, got {self.a}")
        if not -1.0 <= self.b <= 1.0:
            raise ValueError(f"b must lie in [-1, 1], got {self.b}")
        if self.mu1 < 0:
            raise ValueError(f"mu1 must be >= 0, got {self.mu1}")
        if self.mu2 < 0:
            raise ValueError(f"mu2 must be >= 0, got {self.mu2}")


@dataclass(frozen=True)
class FlowState:
    """Velocity/stress pair at one instant; fields are never mutated."""

    t: float
    v: VectorField
    tau: TensorField


def deformation(v: VectorField) -> TensorField:
    """Symmetric velocity-gradient part D(v) = (grad v + grad v^T)/2.

    The output is symmetric to the last bit: entry (i,j) and entry (j,i) are
    the same floating-point sum.
    """
    g = gradient_vector(v).coeffs
    c = 0.5 * (g + np.swapaxes(g, 0, 1))
    return TensorField(v.grid, c, symmetric=True)


def vorticity(v: VectorField) -> TensorField:
    """Skew part W(v) = (grad v - grad v^T)/2; W + W^T = 0 exactly."""
    g = gradient_vector(v).coeffs
    c = 0.5 * (g - np.swapaxes(g, 0, 1))
    return TensorField(v.grid, c, symmetric=False)


def _q_pointwise(tau: np.ndarray, grad_v: np.ndarray, b: float) -> np.ndarray:
    """Q = tau W - W tau - b (D tau + tau D) on physical samples.

    For symmetric tau, W tau = -(tau W)^T and D tau = (tau D)^T, so
    Q = P + P^T with P = tau (W - b D): one matrix product, and the explicit
    symmetrization gives zero symmetry defect by construction.  `grad_v` is
    laid out as in `gradient_vector`: grad_v[a, c] = d_c v_a.
    """
    m = (0.5 * (1.0 - b)) * grad_v
    m -= (0.5 * (1.0 + b)) * np.swapaxes(grad_v, 0, 1)
    p = pointwise_matmul(tau, m)
    return np.add(p, np.swapaxes(p, 0, 1), out=m)  # m is spent


def q_form(tau: TensorField, v: VectorField, b: float) -> TensorField:
    """Rotation/slip bilinear form Q(tau, grad v), dealiased; see `_q_pointwise`."""
    grid = v.grid
    ptau = real_samples(grid, tau.coeffs)
    pgrad = real_samples(grid, gradient_vector(v).coeffs)
    c = np.fft.fftn(_q_pointwise(ptau, pgrad, b), axes=grid.grid_axes, norm="forward")
    return TensorField(grid, c * grid.dealias_mask, symmetric=True)


def advect_vector(v: VectorField, u: VectorField) -> VectorField:
    """Truncated transport (v . grad) u."""
    return truncate(convect_vector(v, u), v.grid.truncation_radius)


def explicit_terms(
    state: FlowState, params: PhysicalParams, stress_noise=None, profile=None
) -> tuple[np.ndarray, TensorField, np.ndarray | None]:
    """Unprojected nonstiff velocity drift, stress drift, and noise product.

    Velocity: -(v.grad)v + mu1 div(tau); nu Laplacian(v) is left to the
    implicit solve.  Stress: -(v.grad)tau - a tau - Q(tau, grad v) + mu2 D(v),
    plus the Ito correction (1/2) S^2(tau) of a stress-noise instance (S its
    linear action).  The third output is the product of v with the scalar
    field `profile` (None without one).  Quadratic terms, the product and the
    correction are cut to the spectral ball.
    """
    grid = state.v.grid
    d, shape, axes = grid.dim, grid.shape, grid.grid_axes
    vel = params.mu1 * divergence_tensor(state.tau).coeffs
    stress = -params.a * state.tau.coeffs + params.mu2 * deformation(state.v).coeffs
    symmetric = state.tau.symmetric
    if stress_noise is not None:
        stress += 0.5 * truncate(stress_noise.s_squared(state.tau), grid.truncation_radius).coeffs
        symmetric = symmetric and stress_noise.preserves_symmetry
    nonlinear, p = params.nonlinear, int(profile is not None)  # p: rows the profile adds
    if not (nonlinear or p):
        return vel, TensorField(grid, stress, symmetric=symmetric), None
    # one inverse transform of the rows [v, tau, profile, grad v, grad tau]
    rows = d + d * d if nonlinear else d
    buf = np.empty((rows + p + (rows * d if nonlinear else 0),) + shape, dtype=np.complex128)
    buf[:d] = state.v.coeffs
    if p:
        buf[rows] = profile
    if nonlinear:
        buf[d:rows] = state.tau.coeffs.reshape((d * d,) + shape)
        grad = buf[rows + p:].reshape((rows, d) + shape)
        np.multiply(1j * grid.xi, buf[:rows, np.newaxis], out=grad)
    np.fft.ifftn(buf, axes=axes, norm="forward", out=buf)
    phys = buf.real
    n_out = (rows if nonlinear else 0) + p * d
    out = np.empty((n_out,) + shape)
    if nonlinear:
        pointwise_transport(phys[:d], grad.real, out=out[:rows])
        # Q is symmetrized before the transport of tau is added, keeping symmetry exact
        tau = phys[d:rows].reshape((d, d) + shape)
        out[d:rows] += _q_pointwise(tau, grad.real[:d], params.b).reshape((d * d,) + shape)
    if p:
        np.multiply(phys[rows], phys[:d], out=out[n_out - d:])
    # the samples are spent: the output reuses the buffer's leading rows
    nl = buf[:n_out]
    nl[...] = out
    del out
    np.fft.fftn(nl, axes=axes, norm="forward", out=nl)
    nl *= grid.dealias_ball_mask
    if nonlinear:
        vel -= nl[:d]
        stress -= nl[d:rows].reshape((d, d) + shape)
    prod = nl[n_out - d:].copy() if p else None  # a copy, so the buffer goes on return
    return vel, TensorField(grid, stress, symmetric=symmetric), prod


def drift(
    state: FlowState, params: PhysicalParams, stress_noise=None
) -> tuple[VectorField, TensorField]:
    """Leray-projected nonstiff velocity drift and the stress drift; see
    `explicit_terms`."""
    vel, stress, _ = explicit_terms(state, params, stress_noise)
    return leray_project(VectorField(state.v.grid, vel)), stress

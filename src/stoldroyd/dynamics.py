"""Deterministic drift of the truncated velocity/stress system.

The velocity drift splits into a stiff viscous part (handled implicitly by
the integrator) and an explicit part: minus the truncated self-advection plus
the stress-divergence coupling, Leray-projected.  The stress drift is fully
explicit: transport, relaxation, the bilinear rotation/slip form Q, the
deformation forcing, and the Ito correction coming from the Stratonovich
stress noise.

`drift` evaluates all three quadratic terms in one physical-space pass: v,
grad v, tau and grad tau are transformed once, the products are formed
pointwise on real samples, and one forward transform followed by one
dealias-and-ball mask brings them back.
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
    grad_t = np.swapaxes(grad_v, 0, 1)
    p = pointwise_matmul(tau, 0.5 * ((1.0 - b) * grad_v - (1.0 + b) * grad_t))
    return p + np.swapaxes(p, 0, 1)


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


def drift(
    state: FlowState, params: PhysicalParams, stress_noise=None
) -> tuple[VectorField, TensorField]:
    """Nonstiff velocity drift and stress drift at the current state.

    Velocity: Leray projection of -(v.grad)v + mu1 div(tau); the viscous
    part nu Laplacian(v) is left to the integrator's implicit solve.
    Stress: -(v.grad)tau - a tau - Q(tau, grad v) + mu2 D(v), plus the Ito
    correction (1/2) S^2(tau) when a stress-noise instance is supplied (S is
    its linear action; the correction converts the Stratonovich product to
    Ito form).  Quadratic terms and the correction are cut to the spectral
    ball.
    """
    grid = state.v.grid
    d = grid.dim
    axes = grid.grid_axes
    vel = params.mu1 * divergence_tensor(state.tau).coeffs
    stress = -params.a * state.tau.coeffs + params.mu2 * deformation(state.v).coeffs
    if params.nonlinear:
        # rows 0..d-1 hold v, the rest tau flattened; both are transformed in
        # place, so the largest transient of the step is not held twice
        fields = np.concatenate([state.v.coeffs, state.tau.coeffs.reshape((d * d,) + grid.shape)])
        grad = 1j * grid.xi[np.newaxis] * fields[:, np.newaxis]
        np.fft.ifftn(grad, axes=axes, norm="forward", out=grad)
        np.fft.ifftn(fields, axes=axes, norm="forward", out=fields)
        phys, pgrad = fields.real, grad.real
        out = pointwise_transport(phys[:d], pgrad)
        # transport of tau is added to the already symmetrized Q, keeping symmetry exact
        q = _q_pointwise(phys[d:].reshape((d, d) + grid.shape), pgrad[:d], params.b)
        out[d:] += q.reshape((d * d,) + grid.shape)
        nl = out.astype(np.complex128)
        np.fft.fftn(nl, axes=axes, norm="forward", out=nl)
        nl *= grid.dealias_mask & grid.ball_mask
        vel = vel - nl[:d]
        stress = stress - nl[d:].reshape((d, d) + grid.shape)
    symmetric = state.tau.symmetric
    if stress_noise is not None:
        correction = stress_noise.s_squared(state.tau)
        stress = stress + 0.5 * truncate(correction, grid.truncation_radius).coeffs
        symmetric = symmetric and stress_noise.preserves_symmetry
    return leray_project(VectorField(grid, vel)), TensorField(grid, stress, symmetric=symmetric)

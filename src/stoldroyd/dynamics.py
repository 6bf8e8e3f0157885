"""Deterministic drift of the truncated velocity/stress system.

The velocity drift splits into a stiff viscous part (handled implicitly by
the integrator) and an explicit part: minus the truncated self-advection plus
the stress-divergence coupling.  The stress drift is fully explicit:
transport, relaxation, the bilinear rotation/slip form Q, the deformation
forcing, and the Ito correction coming from the Stratonovich stress noise,
which the integrator forms and hands in.

`explicit_terms` forms every quadratic term of a step in one physical-space
pass: v, tau, a scalar noise profile and the gradients go out in one
inverse transform, advection, stress transport, Q and the profile-times-v
noise product are formed pointwise on real samples, and one forward
transform, which keeps the dealias box, and one ball mask bring them back
(the transforms are dense DFT products over the box's modes alone).
A symmetric tau sends only its d(d+1)/2 distinct components and their
gradients.  The velocity terms stay unprojected, so the integrator projects
its whole update once.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .spectral import (
    TensorField,
    VectorField,
    convect_vector,
    gradient_vector,
    pointwise_matmul,
    pointwise_transport,
    truncate,
)

__all__ = [
    "PhysicalParams",
    "FlowState",
    "deformation",
    "q_form",
    "advect_vector",
    "explicit_terms",
]


@dataclass(frozen=True)
class PhysicalParams:
    """Model constants: viscosity, relaxation, slip, coupling weights.

    `nonlinear` switches the quadratic terms (advection and Q) on or off; the
    linear stress/velocity couplings always stay on, so False gives the
    Stokes-type linearization.  The Sobolev index of a run is not a model
    constant: the monitor takes `MonitorConfig.s`, and the initial data
    scale with the config's `[params] s`.
    """

    nu: float
    a: float
    b: float
    mu1: float
    mu2: float
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
    ptau = grid.inverse(tau.coeffs)
    pgrad = grid.inverse(gradient_vector(v).coeffs)
    return TensorField(grid, grid.forward(_q_pointwise(ptau, pgrad, b)), symmetric=True)


def advect_vector(v: VectorField, u: VectorField) -> VectorField:
    """Truncated transport (v . grad) u."""
    return truncate(convect_vector(v, u), v.grid.truncation_radius)


@functools.lru_cache(maxsize=None)
def _tau_rows(d: int, symmetric: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b) of the stress rows a pass sends (a <= b for a symmetric tau), each component's row."""
    ta, tb = np.triu_indices(d) if symmetric else np.indices((d, d)).reshape(2, -1)
    row = np.empty((d, d), dtype=np.int64)
    row[tb, ta] = row[ta, tb] = np.arange(ta.size)  # the upper triangle written last
    for shared in (ta, tb, row):  # cached: every pass reads the same arrays
        shared.flags.writeable = False
    return ta, tb, row


def explicit_terms(
    state: FlowState, params: PhysicalParams, ito, profile, workspace
) -> tuple[np.ndarray, TensorField, np.ndarray | None]:
    """Unprojected nonstiff velocity drift, stress drift, and noise product.

    Velocity: -(v.grad)v + mu1 div(tau); nu Laplacian(v) is left to the
    implicit solve.  Stress: -(v.grad)tau - a tau - Q(tau, grad v) + mu2 D(v),
    plus `ito`, the coefficients of the stress noise's Ito correction (None
    without one).  The third output is the product of v with the scalar
    field `profile` (None without one).  Quadratic terms and the product are
    cut to the spectral ball.  The stress drift carries tau's symmetry flag;
    the caller, which formed `ito`, owns its symmetry.  The pass's buffers come
    from `workspace(rows, extra)`, as `SpectralGrid.workspace` returns them; the noise
    product is a view of them, valid until the next pass through them.
    """
    grid = state.v.grid
    d, shape = grid.dim, grid.shape
    nonlinear, p = params.nonlinear, int(profile is not None)  # p: rows the profile adds
    # the term without gradients first: its temporary goes before the buffer
    stress = -params.a * state.tau.coeffs
    # the gradients of [v, tau], read by the couplings before any transform;
    # a symmetric tau takes one row per distinct component, row[a, b] = row[b, a]
    ta, tb, row = _tau_rows(d, state.tau.symmetric)
    full = d + ta.size
    # one inverse transform of the rows [v, tau, profile, grad v, grad tau], or [v, profile],
    # and one forward of the products, which take sample rows of their own
    rows = full if nonlinear else d
    n_in, n_out = rows + p + (full * d if nonlinear else 0), (rows if nonlinear else 0) + p * d
    buf, samples, work = workspace(n_in, n_out) if nonlinear or p else (None,) * 3
    if nonlinear:
        fields, grad = buf[:full], buf[full + p:].reshape((full, d) + shape)
    else:
        fields, grad = np.empty((full,) + shape, dtype=np.complex128), None
    fields[:d] = state.v.coeffs
    fields[d:] = state.tau.coeffs[ta, tb]
    grad = np.multiply(grid.ixi, fields[:, np.newaxis], out=grad)
    grad_v, grad_tau = grad[:d], grad[d:]
    # the couplings in place, one at a time, so a step's peak memory stays put:
    # stress += mu2 D(v); vel = mu1 div(tau), summed from zero in b order as
    # `divergence_tensor` sums (div tau)_a = sum_b d_b tau_ab
    deform = np.add(grad_v, np.swapaxes(grad_v, 0, 1))
    deform *= 0.5
    deform *= params.mu2
    stress += deform
    del deform
    if ito is not None:
        stress += ito
    vel = np.zeros_like(grad_v[0])
    for b in range(d):
        vel += grad_tau[row[:, b], b]
    vel *= params.mu1
    if not (nonlinear or p):
        return vel, TensorField(grid, stress, symmetric=state.tau.symmetric), None
    if not nonlinear:
        buf[:d] = state.v.coeffs
    if p:
        buf[rows] = profile
    phys = grid.inverse(buf, out=samples[:n_in], work=work)
    out = samples[n_in:]
    if nonlinear:
        pgrad = phys[full + p:].reshape((full, d) + grid.points)
        pointwise_transport(phys[:d], pgrad, out=out[:rows])
        # Q is symmetrized before the transport of tau is added, keeping symmetry exact
        out[d:rows] += _q_pointwise(phys[d:rows][row], pgrad[:d], params.b)[ta, tb]
    if p:
        np.multiply(phys[rows], phys[:d], out=out[n_out - d:])
    # the coefficient and work rows are spent: the forward transform reuses them
    nl = grid.forward(out, out=buf[:n_out], work=work[:n_out])
    nl *= grid.ball_mask
    if nonlinear:
        vel -= nl[:d]
        stress -= nl[d:rows][row]
    return vel, TensorField(grid, stress, symmetric=state.tau.symmetric), nl[-d:] if p else None

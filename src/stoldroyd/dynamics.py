"""Deterministic drift of the truncated velocity/stress system.

The velocity drift splits into a stiff viscous part (handled implicitly by
the integrator) and an explicit part: minus the truncated self-advection plus
the stress-divergence coupling.  The stress drift is fully explicit:
transport, relaxation, the bilinear rotation/slip form Q, the deformation
forcing, and the Ito correction coming from the Stratonovich stress noise,
which the integrator forms and hands in.

`explicit_terms` forms every quadratic term of a step in one physical-space
pass: v, tau and a scalar noise profile go out in one inverse transform,
which returns the samples of the gradients of v and tau too; advection,
stress transport, Q and the profile-times-v noise product are formed
pointwise on real samples, in rows the pass has spent, and one forward
transform, which keeps the dealias box, and one ball mask bring them back
(the transforms are dense DFT products over the box's modes alone).
A symmetric tau sends only its d(d+1)/2 distinct components.  The velocity
terms stay unprojected, so the integrator projects its whole update once.
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


def _q_pointwise(tau: np.ndarray, row: np.ndarray, grad_v: np.ndarray, b: float,
                 m: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Q = tau W - W tau - b (D tau + tau D) on physical samples, formed in `m`.

    For symmetric tau, W tau = -(tau W)^T and D tau = (tau D)^T, so
    Q = P + P^T with P = tau (W - b D): one matrix product, and the explicit
    symmetrization gives zero symmetry defect by construction.  `grad_v` is
    laid out as in `gradient_vector`: grad_v[a, c] = d_c v_a; tau's component
    (a, c) is the row tau[row[a, c]].  Nothing is allocated: `grad_v` is spent
    (it takes the gathered tau) and `p` is scratch.
    """
    np.multiply(np.swapaxes(grad_v, 0, 1), 0.5 * (1.0 + b), out=m)
    grad_v *= 0.5 * (1.0 - b)
    np.subtract(grad_v, m, out=m)  # W - b D
    pointwise_matmul(tau.take(row, axis=0, out=grad_v, mode="wrap"), m, out=p)
    return np.add(p, np.swapaxes(p, 0, 1), out=m)


def q_form(tau: TensorField, v: VectorField, b: float) -> TensorField:
    """Rotation/slip bilinear form Q(tau, grad v), dealiased; see `_q_pointwise`."""
    grid, d = v.grid, v.grid.dim
    ptau = grid.inverse(tau.coeffs.reshape((d * d,) + grid.shape))
    pgrad = grid.inverse(gradient_vector(v).coeffs)
    q = _q_pointwise(ptau, _tau_rows(d, False)[1], pgrad, b, *np.empty((2,) + pgrad.shape))
    return TensorField(grid, grid.forward(q), symmetric=True)


def advect_vector(v: VectorField, u: VectorField) -> VectorField:
    """Truncated transport (v . grad) u."""
    return truncate(convect_vector(v, u), v.grid.truncation_radius)


@functools.lru_cache(maxsize=None)
def _tau_rows(d: int, symmetric: bool) -> tuple[np.ndarray, np.ndarray]:
    """The stress components a pass sends, as flat indices a d + b (a <= b for a
    symmetric tau), and each component's row among them."""
    ta, tb = np.triu_indices(d) if symmetric else np.indices((d, d)).reshape(2, -1)
    row = np.empty((d, d), dtype=np.int64)
    row[tb, ta] = row[ta, tb] = np.arange(ta.size)  # the upper triangle written last
    flat = ta * d + tb
    for shared in (flat, row):  # cached: every pass reads the same arrays
        shared.flags.writeable = False
    return flat, row


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
    from `workspace(rows, grads, extra)`, as `SpectralGrid.workspace` returns them; the
    noise product is a view of them, valid until the next pass through them.
    """
    grid = state.v.grid
    d, shape, points = grid.dim, grid.shape, grid.points
    nonlinear, p = params.nonlinear, int(profile is not None)  # p: rows the profile adds
    # the term without gradients first: its temporary goes before the buffer
    stress = -params.a * state.tau.coeffs
    # the fields [v, tau], whose gradients the couplings read before any transform;
    # a symmetric tau takes one row per distinct component, row[a, b] = row[b, a]
    flat, row = _tau_rows(d, state.tau.symmetric)
    full = d + flat.size
    # one inverse of [v, tau, profile], returning the gradients of [v, tau] too, or of
    # [v, profile]; one forward of the products, which take sample rows of their own
    rows, grads = (full, full) if nonlinear else (d, 0)
    n_in, n_out = rows + p, (rows if nonlinear else 0) + p * d
    buf, samples, work = workspace(n_in, grads, n_out) if nonlinear or p else (None,) * 3
    if nonlinear:  # the spectral gradients and D(v) in work rows the transforms have not reached
        fields, spare = buf[:full], np.ndarray((full + d, d) + shape, np.complex128, work.buffer)
        grad, deform = spare[:full], spare[full:]
    else:
        fields, grad, deform = np.empty((full,) + shape, dtype=np.complex128), None, None
    fields[:d] = state.v.coeffs
    state.tau.coeffs.reshape((d * d,) + shape).take(flat, axis=0, out=fields[d:], mode="wrap")
    grad = np.multiply(grid.ixi, fields[:, np.newaxis], out=grad)
    grad_v, grad_tau = grad[:d], grad[d:]
    # the couplings in place, one at a time, so a step's peak memory stays put:
    # stress += mu2 D(v); vel = mu1 div(tau), summed from zero in b order as
    # `divergence_tensor` sums (div tau)_a = sum_b d_b tau_ab
    deform = np.add(grad_v, np.swapaxes(grad_v, 0, 1), out=deform)
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
    phys = grid.inverse(buf[:n_in], grads, out=samples[:n_in + grads * d], work=work)
    out = samples[n_in + grads * d:]
    if nonlinear:
        pgrad = phys[n_in:].reshape((full, d) + points)
        pointwise_transport(phys[:d], pgrad, out=out[:rows])
        # Q in spent rows (W - b D in tau's gradient rows, P in the work rows), symmetrized
        # before tau's transport is added; take's mode="wrap" leaves `out` unbuffered
        m = pgrad[d:].reshape((-1,) + points)[:d * d].reshape((d, d) + points)
        scratch = np.ndarray((d * d,) + points, np.float64, work.buffer)
        q = _q_pointwise(phys[d:rows], row, pgrad[:d], params.b, m, scratch.reshape(m.shape))
        out[d:rows] += q.reshape(scratch.shape).take(flat, axis=0, out=scratch[:len(flat)],
                                                     mode="wrap")
    if p:
        np.multiply(phys[rows], phys[:d], out=out[n_out - d:])
    # the coefficient and work rows are spent: the forward transform reuses them
    nl = grid.forward(out, out=buf[:n_out], work=work)
    nl *= grid.ball_mask
    if nonlinear:
        vel -= nl[:d]
        spent = np.ndarray(stress.shape, np.complex128, work.buffer)
        stress -= nl[d:rows].take(row, axis=0, out=spent, mode="wrap")
    return vel, TensorField(grid, stress, symmetric=state.tau.symmetric), nl[-d:] if p else None

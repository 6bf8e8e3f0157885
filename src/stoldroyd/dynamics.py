"""Deterministic drift of the truncated velocity/stress system.

The velocity drift splits into a stiff viscous part (handled implicitly by
the integrator) and an explicit part: minus the truncated self-advection plus
the stress-divergence coupling.  The stress drift is fully explicit:
transport, relaxation, the bilinear rotation/slip form Q and the forcing
mu2 D(v).  Relaxation, a multiple of tau like the stress noise and its Ito
correction, is the integrator's; the pass here forms the terms needing gradients.

`explicit_terms` forms every quadratic term of a step in one physical-space
pass: v, tau and a scalar noise profile go out in one inverse transform,
which returns the samples of the gradients of v and tau too; advection,
stress transport, Q and the profile-times-v noise product are formed
pointwise on real samples, in rows the pass has spent, and one forward
transform, which keeps the dealias box, and one ball mask bring them back
(the transforms are dense DFT products over the box's modes alone).
tau is symmetric (`stepping.trajectory` checks a path's initial tau), so it
sends only its d(d+1)/2 distinct components.  The velocity terms stay
unprojected, so the integrator projects its whole update once.  A pass runs
in the buffers of a `DriftPass`, built once per path (a path's `StepPlan`
holds it; plan once, run every step), so a path's warm steps hand the
transforms the same arrays, whose kept calls they replay.

The pass is the package's one home of these terms: the couplings, Q and the
noise product have no operator of their own, and `experiments.inequality_suite`
measures the energy identities on the pass's outputs.  `advect_vector`, transport
of one field by another, serves the off-diagonal skew-symmetry check of the
acceptance gate, which the pass, transporting v by itself, cannot form.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import (
    SpectralGrid,
    TensorField,
    VectorField,
    _Work,
    _check_same_grid,
    gradient_vector,
    pointwise_matmul,
    pointwise_transport,
)

__all__ = [
    "PhysicalParams",
    "FlowState",
    "DriftPass",
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


def advect_vector(v: VectorField, u: VectorField) -> VectorField:
    """Transport (v . grad) u, componentwise, dealiased and cut to the spectral ball."""
    _check_same_grid(v, u)
    grid = v.grid
    pgrad = grid.inverse(gradient_vector(u).coeffs)
    return VectorField(grid, grid.forward(pointwise_transport(grid.inverse(v.coeffs), pgrad))
                       * grid.ball_mask)


class DriftPass:
    """The buffers of one `kind` of pass, (nonlinear, profile): with the quadratic terms or
    without, with the noise product's profile row or without, on `grid`'s size.  Built
    once per path, it holds its coefficient rows, samples and transform `work`, and its
    views of them, cut once: `rows` field rows, `grads` of them with gradients, tau's
    component rows `row`; a pass without gradients gives its fields arrays of their own."""

    def __init__(self, grid: SpectralGrid, nonlinear: bool, profile: bool):
        d, shape, points, p = grid.dim, grid.shape, grid.points, int(profile)
        self.grid, self.kind = grid, (nonlinear, bool(profile))
        # the fields [v, tau], whose gradients the couplings read before any transform;
        # tau sends its distinct components a <= b (flat a d + b), row[a, b] = row[b, a]
        ta, tb = np.triu_indices(d)
        self.row = row = np.empty((d, d), dtype=np.int64)
        row[tb, ta] = row[ta, tb] = np.arange(ta.size)  # the upper triangle written last
        self.flat = flat = ta * d + tb
        full = d + flat.size
        # one inverse of [v, tau, profile], returning the gradients of [v, tau] too, or of
        # [v, profile]; one forward of the products, which take sample rows of their own
        rows, grads = (full, full) if nonlinear else (d, 0)
        self.grads = grads
        n_in, extra = rows + p, (rows if nonlinear else 0) + p * d
        n = n_in + grads * d  # sample rows of the inverse
        buf = np.empty((max(n_in, extra),) + shape, dtype=np.complex128)
        samples = np.empty((n + extra,) + points)
        self.work = work = _Work(grid, max(n_in, extra) + d * grads)
        fields = buf[:full] if grads else np.empty((full,) + shape, np.complex128)
        # the gradients, and rows to gather a full tau into: work rows no transform reaches
        spare = np.ndarray((full + d, d) + shape, np.complex128, work.buffer if grads else None)
        self.v_rows, self.tau_rows, self.fields = fields[:d], fields[d:], fields[:, np.newaxis]
        self.grad, self.gather, self.grad_vt = spare[:full], spare[full:], spare[:d].swapaxes(0, 1)
        self.div = (row.T + d, np.arange(d)[:, np.newaxis])  # grad's rows d_b tau_ab, [b, a]
        self.coeffs_v, self.coeffs_phi, self.coeffs = buf[:d], buf[rows:n_in], buf[:n_in]
        self.phys, self.out, self.nl = samples[:n], samples[n:], buf[:extra]
        self.phys_v, self.phys_tau, self.phys_phi = samples[:d], samples[d:rows], samples[rows:n_in]
        self.out_rows, self.out_tau, self.prod = self.out[:rows], self.out[d:rows], self.out[-d:]
        self.nl_v, self.nl_tau, self.nl_prod = self.nl[:d], self.nl[d:rows], self.nl[-d:]
        if grads:  # Q in spent rows: W - b D in tau's gradient rows, P in the work rows
            self.pgrad = self.phys[n_in:].reshape((full, d) + points)
            self.q = self.pgrad[d:].reshape((-1,) + points)[:d * d]  # m, below, as flat rows
            self.m = self.q.reshape((d, d) + points)
            self.scratch = np.ndarray((d, d) + points, np.float64, work.buffer)
            self.q_rows = self.scratch.reshape(self.q.shape)[:full - d]


def explicit_terms(
    state: FlowState, params: PhysicalParams, profile: np.ndarray | None, drift: DriftPass
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Coefficients of the unprojected nonstiff velocity drift, the stress drift's gradient
    part, and the noise product.  Velocity: -(v.grad)v + mu1 div(tau); nu Laplacian(v) is
    left to the implicit solve.  Stress: mu2 D(v) - (v.grad)tau - Q(tau, grad v); the
    relaxation -a tau, a multiple of tau, is left to the integrator.  The noise product is v
    times the scalar field `profile` (None without one).  Quadratic terms and the product
    are cut to the spectral ball.  tau must be symmetric: the pass reads only its distinct
    components.  The pass runs in `drift`'s buffers, so the noise product is a view, valid
    until its next run; ValueError if `drift` is of another kind or grid size."""
    grid, d, w = state.v.grid, state.v.grid.dim, drift
    nonlinear, p = params.nonlinear, profile is not None
    if w.kind != (nonlinear, p):
        raise ValueError(f"a drift pass of kind {w.kind} (nonlinear, profile) cannot form "
                         f"the terms of kind {(nonlinear, p)}")
    if (w.grid.points, w.grid.box_length) != (grid.points, grid.box_length):
        raise ValueError("the drift pass was built on another grid")
    flat, row = w.flat, w.row
    np.copyto(w.v_rows, state.v.coeffs)
    state.tau.coeffs.reshape((d * d,) + grid.shape).take(flat, 0, w.tau_rows, "wrap")
    np.multiply(grid.ixi, w.fields, out=w.grad)
    # the couplings, one at a time, so a step's peak memory stays put: the stress drift
    # is a fresh array from mu2 D(v), scaled once by 0.5 mu2 (0.5 is exact); vel = mu1
    # div(tau), (div tau)_a = sum_b d_b tau_ab summed in b order
    stress = np.add(w.grad[:d], w.grad_vt)
    stress *= 0.5 * params.mu2
    vel = np.add.reduce(w.grad[w.div], axis=0)
    vel *= params.mu1
    if not (nonlinear or p):
        return vel, stress, None
    if not nonlinear:
        np.copyto(w.coeffs_v, state.v.coeffs)
    if p:
        np.copyto(w.coeffs_phi, profile)
    grid.inverse(w.coeffs, w.grads, out=w.phys, work=w.work)
    if nonlinear:
        pointwise_transport(w.phys_v, w.pgrad, out=w.out_rows)
        # Q symmetrized before tau's transport is added; take's mode="wrap" leaves `out` unbuffered
        _q_pointwise(w.phys_tau, row, w.pgrad[:d], params.b, w.m, w.scratch)
        w.out_tau += w.q.take(flat, axis=0, out=w.q_rows, mode="wrap")
    if p:
        np.multiply(w.phys_phi, w.phys_v, out=w.prod)
    # the coefficient and work rows are spent: the forward transform reuses them
    nl = grid.forward(w.out, out=w.nl, work=w.work)
    nl *= grid.ball_mask
    if nonlinear:
        vel -= w.nl_v
        stress -= w.nl_tau.take(row, axis=0, out=w.gather, mode="wrap")
    return vel, stress, w.nl_prod if p else None

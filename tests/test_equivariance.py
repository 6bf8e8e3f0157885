"""Exact referees for the nonlinear stack that need no oracle.

Translation: a real shift a multiplies each coefficient by e^{i xi.a}.  With the
Wiener channel off (its basis sits at fixed modes with fixed phases), every
other operator of a step is a Fourier multiplier or an alias-free product, so
the path from shifted data is the shifted path, to rounding.  Aliasing breaks
this: on a 48-mode grid at cutoff 16, one mode pair short of the alias-free 50,
the defect reads 4e-13 to 1.3e-12 where the alias-free grids read at most 2.1e-15.

Degree: for fixed draws a step's products are bilinear and every other factor
is linear, so a step is an exact quadratic in the state: its third differences
vanish and its second differences do not depend on the base state.  A clip, a
state-dependent rate or a rescale by a norm breaks this.

Physics: the benchmark's desk run (nu 0.5, a 0.2, b 0.5, mu1 = mu2 = 1, c0 0.5,
c1 0.2, c_h 0.3, gamma0 0.1, dt 1e-3, data of decay 5 at H^2 norms 0.6), with a
jump rate of 100 so that the short paths hold jumps.  The bounds sit about 10x
above the worst defect of a sweep over 20 seeds.
"""
from dataclasses import replace

import numpy as np
import pytest

from stoldroyd.config import draw_initial
from stoldroyd.dynamics import FlowState, PhysicalParams
from stoldroyd.noise import JumpConfig, WienerQConfig, rng_for_run
from stoldroyd.spectral import TensorField, VectorField, alias_free_modes, hs_norm, make_grid
from stoldroyd.stepping import NoiseModel, StepPlan, step, trajectory

PARAMS = PhysicalParams(nu=0.5, a=0.2, b=0.5, mu1=1.0, mu2=1.0)
NOISE = NoiseModel(wiener=WienerQConfig(lambda0=0.1, J=8), c0=0.5, c1=0.2, c_h=0.3,
                   jump=JumpConfig(rate=100.0, gamma0=0.1))
DT = 1e-3
SEED = 7

TRANSLATION_BOUND = 2e-14  # worst of the sweep 2.1e-15
THIRD_DIFFERENCE_BOUND = 5e-15  # of the largest output; worst of the sweep 5.0e-16
SECOND_DIFFERENCE_BOUND = 2e-11  # of the second difference, 1e-4 of the output; worst 2.3e-12


def desk_data(grid, rng):
    return draw_initial(grid, 5.0, rng, 0.6, 0.6, 2.0)


def translated(state, shift):
    grid = state.v.grid
    phase = np.exp(1j * np.tensordot(shift, grid.xi, axes=1))
    return FlowState(state.t, VectorField(grid, state.v.coeffs * phase),
                     TensorField(grid, state.tau.coeffs * phase))


def translation_defect(grid, n_steps, shift, seed):
    """Worst relative L2 defect, over the path's states and both fields, between
    the shifted path and the path from shifted data, under one set of draws."""
    rng = rng_for_run(seed, 0)
    u0 = desk_data(grid, rng)
    noise = replace(NOISE, wiener=None)
    sampler = noise.sampler(rng)
    draws = [sampler.sample_step(DT) for _ in range(n_steps)]
    assert any(sn.jumps for sn in draws)
    worst = 0.0
    for a, b in zip(trajectory(u0, PARAMS, noise, draws, DT),
                    trajectory(translated(u0, shift), PARAMS, noise, draws, DT)):
        moved = translated(a, shift)
        for got, want in ((b.v, moved.v), (b.tau, moved.tau)):
            diff = type(got)(got.grid, got.coeffs - want.coeffs)
            worst = max(worst, hs_norm(diff, 0.0) / hs_norm(want, 0.0))
    return worst


@pytest.mark.parametrize("dim, modes, cutoff, n_steps", [
    (2, None, 16, 120), (2, 64, 16, 120), (3, None, 4, 20), (3, None, 8, 20)])
def test_the_path_from_shifted_data_is_the_shifted_path(dim, modes, cutoff, n_steps):
    """On the smallest alias-free grid for the cutoff (None: 50 modes at 16, 14 at 4 and
    26 at 8) and on the desk's 64-mode grid."""
    if modes is None:
        modes = alias_free_modes(make_grid(dim, 4 * cutoff, truncation_radius=cutoff), cutoff)
    shift = np.array([0.37, 1.91, 0.83][:dim])
    defect = translation_defect(make_grid(dim, modes, truncation_radius=cutoff), n_steps,
                                shift, SEED)
    assert defect <= TRANSLATION_BOUND, (modes, defect)


def step_differences(grid, seed):
    """A step's outputs from u0 + c h, c = 0..3, and from u1 + c h, c = 0..2, under one
    draw with a jump, every channel on; each output flat over v's and tau's modes."""
    rng = rng_for_run(seed, 0)
    u0, u1, h = (desk_data(grid, rng) for _ in range(3))
    sn = replace(NOISE.sampler(rng).sample_step(DT), jumps=((0.4 * DT, 0.5),))
    plan = StepPlan(grid, PARAMS, DT, NOISE)

    def out(base, c):
        new = step(FlowState(0.0, VectorField(grid, base.v.coeffs + c * h.v.coeffs),
                             TensorField(grid, base.tau.coeffs + c * h.tau.coeffs)), sn, plan)
        return np.concatenate([new.v.coeffs.ravel(), new.tau.coeffs.ravel()])

    return [out(u0, c) for c in range(4)], [out(u1, c) for c in range(3)]


@pytest.mark.parametrize("dim, modes, cutoff", [(2, 64, 16), (3, 26, 8)])
def test_a_step_is_an_exact_quadratic_in_the_state(dim, modes, cutoff):
    """Third differences of a step vanish, and its second difference at two bases agrees."""
    y, z = step_differences(make_grid(dim, modes, truncation_radius=cutoff), SEED)
    scale = max(np.linalg.norm(out) for out in y)
    third = y[3] - 3.0 * y[2] + 3.0 * y[1] - y[0]
    assert np.linalg.norm(third) <= THIRD_DIFFERENCE_BOUND * scale
    second = y[2] - 2.0 * y[1] + y[0]
    assert np.linalg.norm(second) > 1e-6 * scale  # the quadratic part is resolved
    elsewhere = z[2] - 2.0 * z[1] + z[0]
    assert np.linalg.norm(elsewhere - second) <= SECOND_DIFFERENCE_BOUND * np.linalg.norm(second)

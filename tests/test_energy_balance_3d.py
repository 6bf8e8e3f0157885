"""Criterion 2's energy balance in 3D, where the paper's result also holds.

Noise off, a = 0, b = 0: the discrete energy-plus-dissipation budget
mu2 |v|^2 + mu1 |tau|^2 + 2 nu mu2 int |grad v|^2, the monitored energy at
Sobolev index 0, closes to 1e-2 over t = 0.5 at dt = 1e-3 and shrinks at first
order when dt halves: the advection, coupling and corotational pairings cancel
exactly on the dealiased ball, so only the time discretization is left.  The
bounds are criterion 2's; the 2D gate is not edited.
"""
import math

from stoldroyd.dynamics import FlowState, PhysicalParams
from stoldroyd.monitor import MonitorConfig
from stoldroyd.noise import rng_for_run
from stoldroyd.spectral import hs_norm, leray_project, make_grid, random_field, truncate
from stoldroyd.stepping import NoiseModel, StepperConfig, simulate

import oracles

GRID = make_grid(3, 14, 2 * math.pi, 4)


def normalized(field, target):
    return type(field)(field.grid, field.coeffs * (target / hs_norm(field, 0.0)))


def test_corotational_energy_balance_in_3d():
    params = PhysicalParams(nu=0.5, a=0.0, b=0.0, mu1=1.0, mu2=1.0)
    v0 = normalized(leray_project(truncate(random_field(GRID, 4.0, "vector", seed=11), 4.0)), 0.8)
    tau0 = normalized(truncate(random_field(GRID, 4.0, "tensor", seed=12), 4.0), 0.8)
    assert oracles.equals_its_transpose(tau0.coeffs)
    budget = MonitorConfig(threshold=1e9, s=0.0)

    def drift(dt):
        res = simulate(FlowState(0.0, v0, tau0), params, NoiseModel(),
                       StepperConfig(dt=dt, horizon=0.5), budget, rng=rng_for_run(0, 0))
        assert res.event.kind == "horizon"
        first, last = res.records[0], res.records[-1]
        return abs(last.e_n - first.e_n) / first.e_n

    coarse = drift(1e-3)
    fine = drift(5e-4)
    order = math.log2(coarse / fine)
    assert coarse <= 1e-2
    assert order >= 0.9
    print(f"3D corotational energy balance: residual {coarse:.2e}, halving order {order:.3f}")

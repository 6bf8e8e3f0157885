"""The exact homogeneity referee: with the nonlinearity off and no additive
noise, every channel is linear in the state, so a path is homogeneous of
degree 1 in its initial data.  Scaling the data by r = 2^k is exact in
floating point, so each record's energies scale by r^2 bit for bit, and the
stopping time at threshold r^2 N is the one at N, stop kind included.  In the
paper's variable: rho_N(2 u0) = rho_{N/4}(u0).

Setup: the survival ensemble's config (16 modes, cutoff 5, every noise
channel on) with `nonlinear = false` and `c0 = 0`.  The negative controls,
`c0 = 0.5` and `nonlinear = true`, break the homogeneity and must differ.
"""
import pytest

from stoldroyd.config import materialize, parse_config
from stoldroyd.dynamics import FlowState
from stoldroyd.experiments import run_ensemble
from stoldroyd.monitor import MonitorConfig
from stoldroyd.noise import rng_for_run
from stoldroyd.spectral import TensorField, VectorField
from stoldroyd.stepping import simulate

SURVIVAL = """
[grid]
dim = 2
modes_per_axis = 16
truncation_radius = 5

[params]
nu = 0.5
a = 0.2
b = 0.5
mu1 = 1.0
mu2 = 1.0
nonlinear = {nonlinear}

[noise]
lambda0 = 0.1
j_modes = 8
c0 = {c0}
c1 = 0.2
c_h = 0.3
jump_rate = 2.0
gamma0 = 0.1

[initial]
v_scale = 0.8
tau_scale = 0.8

[stepper]
dt = 0.001
horizon = 0.2

[monitor]
threshold = 1.4

[seeds]
master_seed = 424242
"""

THRESHOLD = 1.4
MEMBERS = 10  # at THRESHOLD, members 6 and 9 stop before the horizon


def survival_run(nonlinear="false", c0=0.0):
    return materialize(parse_config(SURVIVAL.format(nonlinear=nonlinear, c0=c0)))


def scaled(state, r):
    grid = state.v.grid
    return FlowState(state.t, VectorField(grid, r * state.v.coeffs),
                     TensorField(grid, r * state.tau.coeffs))


def member(run, initial, threshold, i):
    return simulate(initial, run.params, run.noise, run.stepper,
                    MonitorConfig(threshold=threshold, s=run.monitor.s),
                    rng=rng_for_run(run.master_seed, i))


def scales_exactly(base, big, r):
    """`big`'s records are `base`'s with every energy times r^2, bitwise, and it
    stops as `base` does."""
    fields = ("v_hs2", "tau_hs2", "gradv_hs2", "cum_diss", "e_n")
    return (len(big.records) == len(base.records)
            and all(b.t == a.t and all(getattr(b, f) == r * r * getattr(a, f) for f in fields)
                    for a, b in zip(base.records, big.records))
            and (big.event.kind, big.event.t_stop) == (base.event.kind, base.event.t_stop))


@pytest.mark.parametrize("r", [2.0, 4.0])
def test_scaled_data_scale_every_record_and_keep_the_stop(r):
    """Each of 10 members from r u0 at threshold r^2 N has r^2 times the energies
    of the member from u0 at N, bitwise, and the same stop kind and time; some
    member stops at the threshold, so the stop is compared, not only the
    horizon."""
    run = survival_run()
    kinds = set()
    for i in range(MEMBERS):
        base = member(run, run.initial, THRESHOLD, i)
        big = member(run, scaled(run.initial, r), r * r * THRESHOLD, i)
        assert scales_exactly(base, big, r), i
        kinds.add(base.event.kind)
    assert kinds == {"horizon", "threshold_N"}


def test_ensemble_rho_at_twice_the_data_is_rho_at_a_quarter_of_the_threshold():
    """run_ensemble's stopping times from 2 u0 at N = 4 THRESHOLD equal those from
    u0 at N / 4, bitwise, over 30 members; both finite and infinite times occur."""
    run = survival_run()
    kwargs = dict(deltas=[0.1], n_runs=30, master_seed=run.master_seed, s=run.monitor.s)
    big = run_ensemble(scaled(run.initial, 2.0), run.params, run.noise, run.stepper,
                       threshold=4.0 * THRESHOLD, **kwargs)
    small = run_ensemble(run.initial, run.params, run.noise, run.stepper,
                         threshold=THRESHOLD, **kwargs)
    assert big.rho == small.rho
    assert any(r == float("inf") for r in big.rho) and any(r < 0.2 for r in big.rho)


@pytest.mark.parametrize("control", [{"c0": 0.5}, {"nonlinear": "true"}])
def test_a_broken_homogeneity_differs(control):
    """Additive noise or the quadratic terms break the identity: no member's
    scaled run scales exactly."""
    run = survival_run(**control)
    for i in range(MEMBERS):
        base = member(run, run.initial, THRESHOLD, i)
        big = member(run, scaled(run.initial, 2.0), 4.0 * THRESHOLD, i)
        assert not scales_exactly(base, big, 2.0), i


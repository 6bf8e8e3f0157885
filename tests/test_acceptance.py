"""The acceptance gate: eight contract criteria, one test per criterion.

Every tolerance below is pinned — none of them track the implementation, so a
failure here means the dynamics (not the test) moved.  Run

    pytest -v tests/test_acceptance.py

for the one-line-per-criterion pass/fail report; add ``-s`` to see the
measured numbers behind each verdict.  Desk scale throughout (2D, a 64-mode
box, dt = 1e-3) except where a criterion itself dictates otherwise; those
choices are noted inline.  The Monte Carlo items (4, 5, 7) dominate the cost;
the whole gate runs in roughly ten minutes on one core.
"""
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from stoldroyd.cli import main
from stoldroyd.dynamics import FlowState, PhysicalParams, advect_vector
from stoldroyd.experiments import inequality_suite, refinement_study, run_ensemble
from stoldroyd.monitor import MonitorConfig
from stoldroyd.noise import (
    JumpConfig,
    JumpOperator,
    SigmaInstance,
    StressNoiseInstance,
    WienerQConfig,
    rng_for_run,
)
from stoldroyd.spectral import (
    TensorField,
    VectorField,
    hs_norm,
    leray_project,
    make_grid,
    random_field,
    truncate,
)
from stoldroyd.stepping import NoiseModel, StepperConfig, simulate

import oracles

DESK = make_grid(2, 64, 2 * math.pi, 16)
MON = MonitorConfig(threshold=1e9, s=2.0)


def _ball_field(kind, seed, alpha=4.0, grid=DESK):
    field = truncate(random_field(grid, alpha, kind, seed=seed), grid.truncation_radius)
    if kind == "vector":
        field = leray_project(field)
    return field


def _normalized(field, target, s):
    scale = target / hs_norm(field, s)
    if isinstance(field, VectorField):
        return VectorField(field.grid, field.coeffs * scale, div_free=field.div_free)
    return TensorField(field.grid, field.coeffs * scale, symmetric=field.symmetric)


def _zero_tau(grid):
    shape = (grid.dim, grid.dim) + grid.shape
    return TensorField(grid, np.zeros(shape, dtype=complex), symmetric=True)


def test_criterion_1_exact_spectral_identities():
    """Leray output divergence <= 1e-12; skew-symmetry, the coupling
    cancellation, truncation facts and the constant-1 interpolation
    inequality <= 1e-10, each over 100 random fields."""
    report = inequality_suite(90210, trials=100)
    assert report.passed
    violation = report.max_violation
    assert violation["leray_divergence"] <= 1e-12
    assert violation["transport_orthogonality"] <= 1e-10
    assert violation["coupling_cancellation"] <= 1e-10
    for key in ("truncation_contraction", "truncation_idempotence",
                "truncation_composition", "truncation_decay", "interpolation"):
        assert violation[key] <= 1e-10, key

    # Off-diagonal advection skew-symmetry <(f.grad)g, h> = -<(f.grad)h, g>
    # over 100 independent triples; the suite covers the diagonal case g = h.
    worst = 0.0
    for trial in range(100):
        f = _ball_field("vector", 5000 + trial, alpha=3.0)
        g = truncate(random_field(DESK, 3.0, "vector", seed=6000 + trial), 16.0)
        h = truncate(random_field(DESK, 3.0, "vector", seed=7000 + trial), 16.0)
        forward = np.vdot(h.coeffs, advect_vector(f, g).coeffs).real
        backward = np.vdot(g.coeffs, advect_vector(f, h).coeffs).real
        worst = max(worst, abs(forward + backward) / max(abs(forward), abs(backward), 1e-300))
    assert worst <= 1e-10
    print(f"criterion 1 (exact spectral identities): PASS -- "
          f"leray {violation['leray_divergence']:.2e}, skew-symmetry {worst:.2e}")


def test_criterion_2_corotational_energy_balance():
    """Noise off, a = 0, b = 0: the discrete energy-plus-dissipation budget
    mu2 |v|^2 + mu1 |tau|^2 + 2 nu mu2 int |grad v|^2 closes to 1e-2 at
    dt = 1e-3 and shrinks at first order when dt halves.  The budget is the
    monitored energy at Sobolev index 0, where the advection, coupling, and
    corotational pairings cancel exactly on the dealiased ball."""
    params = PhysicalParams(nu=0.5, a=0.0, b=0.0, mu1=1.0, mu2=1.0)
    v0 = _normalized(_ball_field("vector", 11), 0.8, 0.0)
    tau0 = _normalized(truncate(random_field(DESK, 4.0, "tensor", seed=12), 16.0), 0.8, 0.0)
    budget = MonitorConfig(threshold=1e9, s=0.0)

    def drift(dt):
        res = simulate(FlowState(0.0, v0, tau0), params, NoiseModel(),
                       StepperConfig(dt=dt, horizon=0.5), budget, rng=rng_for_run(0, 0))
        first, last = res.records[0], res.records[-1]
        return abs(last.e_n - first.e_n) / first.e_n

    coarse = drift(1e-3)
    fine = drift(5e-4)
    order = math.log2(coarse / fine)
    assert coarse <= 1e-2
    assert order >= 0.9
    print(f"criterion 2 (corotational energy balance): PASS -- "
          f"residual {coarse:.2e}, halving order {order:.3f}")


def test_criterion_3_viscous_closed_form():
    """A single divergence-free mode under pure viscosity tracks the
    semi-implicit factor (1 + nu dt |xi|^2)^-n to 1e-12 over 1000 steps."""
    k, nu = (3, 4), 0.7
    coeffs = np.zeros((2,) + DESK.shape, dtype=complex)
    perp = np.array([-k[1], k[0]], dtype=float)
    perp /= np.linalg.norm(perp)
    coeffs[:, k[0], k[1]] = perp
    coeffs[:, -k[0], -k[1]] = perp
    v0 = VectorField(DESK, coeffs, div_free=True)
    params = PhysicalParams(nu=nu, a=0.0, b=0.0, mu1=0.0, mu2=0.0, nonlinear=False)
    stepper = StepperConfig(dt=1e-3, horizon=1.0)
    res = simulate(FlowState(0.0, v0, _zero_tau(DESK)), params, NoiseModel(), stepper,
                   MON, rng=rng_for_run(0, 0))
    want = oracles.stokes_discrete_factor(nu, stepper.dt, float(k[0] ** 2 + k[1] ** 2),
                                          stepper.n_steps)
    got = res.final_state.v.coeffs[:, k[0], k[1]]
    rel = float(np.max(np.abs(got - want * perp))) / abs(want)
    assert rel <= 1e-12
    print(f"criterion 3 (viscous closed form): PASS -- relative error {rel:.2e}")


def test_criterion_4_stratonovich_strong_order():
    """Identity stress noise h = c I with v = 0, a = 0: the strong error
    against tau0 exp(c W(T)) over 500 paths fits order in [0.4, 0.7] across
    dt in {1e-2, 5e-3, 2.5e-3}.  The tau dynamics are mode-local and
    grid-independent here, so this runs on a 16-mode replica of the desk box
    to keep 500 x 350 steps affordable."""
    grid = make_grid(2, 16, 2 * math.pi, 4)
    c_h, horizon, n_paths = 0.5, 0.5, 500
    tc = np.zeros((2, 2) + grid.shape, dtype=complex)
    for i in (0, 1):
        tc[i, i, 1, 0] = 1.0
        tc[i, i, -1, 0] = 1.0
    tau0 = TensorField(grid, tc, symmetric=True)
    v0 = VectorField(grid, np.zeros((2,) + grid.shape, dtype=complex), div_free=True)
    params = PhysicalParams(nu=0.0, a=0.0, b=0.0, mu1=0.0, mu2=0.0, nonlinear=False)
    noise = NoiseModel(stress=StressNoiseInstance(grid, "identity", c_h=c_h))

    dts = (1e-2, 5e-3, 2.5e-3)
    errors = []
    for level, dt in enumerate(dts):
        stepper = StepperConfig(dt=dt, horizon=horizon, record_noise=True)
        total = 0.0
        for p in range(n_paths):
            res = simulate(FlowState(0.0, v0, tau0), params, noise, stepper, MON,
                           rng=rng_for_run(20260401, level * n_paths + p))
            w_total = float(res.noise_path.dw2.sum())
            exact = oracles.geometric_bm_exact(1.0, c_h, w_total)
            total += abs(res.final_state.tau.coeffs[0, 0, 1, 0] - exact)
        errors.append(total / n_paths)

    assert errors[0] > errors[1] > errors[2]
    order = oracles.fit_loglog_slope(dts, errors)
    assert 0.4 <= order <= 0.7
    print(f"criterion 4 (stratonovich strong order): PASS -- "
          f"errors {[f'{e:.3e}' for e in errors]}, fitted order {order:.3f}")


def test_criterion_5_compensated_jump_martingale():
    """Pure-jump linear run (all drift off, linear marks): over 500 paths the
    ensemble mean of every retained velocity coefficient stays within 3
    standard errors of its initial value for at least 95% of the ball."""
    v0 = _ball_field("vector", 7, alpha=3.0)
    params = PhysicalParams(nu=0.0, a=0.0, b=0.0, mu1=0.0, mu2=0.0, nonlinear=False)
    noise = NoiseModel(jump=JumpOperator(DESK, JumpConfig(
        rate=20.0, z_min=0.0, z_max=1.0, gamma_kind="linear", gamma0=0.4)))
    stepper = StepperConfig(dt=1e-3, horizon=0.1)

    n_paths = 500
    running = np.zeros_like(v0.coeffs)
    square = np.zeros(v0.coeffs.shape)
    for p in range(n_paths):
        res = simulate(FlowState(0.0, v0, _zero_tau(DESK)), params, noise, stepper, MON,
                       rng=rng_for_run(515151, p))
        final = res.final_state.v.coeffs
        running += final
        square += np.abs(final) ** 2

    mean = running / n_paths
    var = np.maximum(square - n_paths * np.abs(mean) ** 2, 0.0) / (n_paths - 1)
    se = np.sqrt(var / n_paths)
    ones = VectorField(DESK, np.ones_like(v0.coeffs))
    retained = truncate(ones, DESK.truncation_radius).coeffs.real != 0.0
    within = np.abs(mean - v0.coeffs) <= 3.0 * se
    fraction = float(within[retained].mean())
    assert fraction >= 0.95
    print(f"criterion 5 (compensated-jump martingale): PASS -- "
          f"{fraction:.1%} of {int(retained.sum())} retained coefficients within 3 SE")


def test_criterion_6_galerkin_refinement_decay():
    """Common-noise cutoff refinement at {8, 16, 32} on smooth data: the mean
    sup-difference between consecutive cutoffs shrinks by at least a factor
    0.75 per doubling, for both fields, over 20 paths.  Cutoff 32 needs a
    96-mode host grid (the desk box dealias limit is 21)."""
    base = make_grid(2, 96, 2 * math.pi, 32)
    v0 = leray_project(truncate(random_field(base, 6.0, "vector", seed=21), 32.0))
    tau0 = truncate(random_field(base, 6.0, "tensor", seed=22), 32.0)

    w = WienerQConfig(lambda0=0.05, J=8)
    noise = NoiseModel(
        wiener=w,
        sigma=SigmaInstance(base, w, c0=0.3, c1=0.1),
        stress=StressNoiseInstance(base, "identity", c_h=0.2),
        jump=JumpOperator(base, JumpConfig(rate=1.0, gamma_kind="constant", gamma0=0.05)),
    )

    params = PhysicalParams(nu=0.5, a=0.2, b=0.5, mu1=1.0, mu2=1.0)
    study = refinement_study(v0, tau0, params, StepperConfig(dt=1e-3, horizon=0.05),
                             (8.0, 16.0, 32.0), noise, threshold=1e9, n_paths=20,
                             master_seed=777)

    assert all(end == pytest.approx(0.05) for end in study.window_ends)
    ratio_v = study.sup_v[1] / study.sup_v[0]
    ratio_tau = study.sup_tau[1] / study.sup_tau[0]
    assert 0.0 < ratio_v <= 0.75
    assert 0.0 < ratio_tau <= 0.75
    print(f"criterion 6 (galerkin refinement decay): PASS -- doubling ratios "
          f"v {ratio_v:.3f}, tau {ratio_tau:.3f} (rate {study.decay_rate:.2f})")


def test_criterion_7_survival_monotonicity():
    """Paired 200-run ensembles: survival is nonincreasing in delta; halving
    the data amplitude never hurts survival (Wilson overlap-or-improve at
    every delta, same per-run noise via the shared master seed); and the
    small-data ensemble keeps P >= 0.95 at delta = 0.01.  Threshold and
    amplitude were calibrated once so the base curve actually moves."""
    w = WienerQConfig(lambda0=0.1, J=8)
    noise = NoiseModel(
        wiener=w,
        sigma=SigmaInstance(DESK, w, c0=0.5, c1=0.2),
        stress=StressNoiseInstance(DESK, "identity", c_h=0.3),
        jump=JumpOperator(DESK, JumpConfig(rate=2.0, gamma_kind="constant", gamma0=0.1)),
    )
    params = PhysicalParams(nu=0.5, a=0.2, b=0.5, mu1=1.0, mu2=1.0)
    stepper = StepperConfig(dt=1e-3, horizon=0.12)
    deltas = (0.01, 0.02, 0.05, 0.1)

    def ensemble(amplitude):
        v0 = _normalized(_ball_field("vector", 31), amplitude, 2.0)
        tau0 = _normalized(truncate(random_field(DESK, 4.0, "tensor", seed=32), 16.0),
                           amplitude, 2.0)
        with ThreadPoolExecutor(max_workers=4) as pool:
            return run_ensemble(FlowState(0.0, v0, tau0), params, noise, stepper,
                                threshold=1.6, deltas=deltas, n_runs=200,
                                master_seed=424242, map_over_runs=pool.map)

    full = ensemble(0.8)
    half = ensemble(0.4)

    for j in range(1, len(deltas)):
        assert full.survival[j] <= full.survival[j - 1]
        assert half.survival[j] <= half.survival[j - 1]
    for j in range(len(deltas)):
        improves = half.survival[j] >= full.survival[j]
        overlaps = (half.wilson_low[j] <= full.wilson_high[j]
                    and full.wilson_low[j] <= half.wilson_high[j])
        assert improves or overlaps, f"amplitude monotonicity broken at delta={deltas[j]}"
    assert half.survival[0] >= 0.95
    assert full.survival[-1] < 1.0  # calibration keeps the base curve informative
    print(f"criterion 7 (survival monotonicity): PASS -- "
          f"full {full.survival}, half {half.survival}")


DESK_CONFIG = """
[grid]
dim = 2
modes_per_axis = 64
truncation_radius = 16

[params]
nu = 0.5
a = 0.2
b = 0.5
mu1 = 1.0
mu2 = 1.0

[noise]
lambda0 = 0.1
j_modes = 8
c0 = 0.5
c1 = 0.2
c_h = 0.3
jump_rate = 2.0
gamma0 = 0.1

[initial]
v_scale = 0.6
tau_scale = 0.6

[stepper]
dt = 0.001
horizon = 0.05

[monitor]
threshold = 1000000.0

[seeds]
master_seed = 2026
"""


def test_criterion_8_reproducibility(tmp_path):
    """Identical (config, seed) CLI runs produce byte-identical CSV and event
    files, and a recorded noise path replays the full stack bitwise."""
    cfg = tmp_path / "desk.ini"
    cfg.write_text(DESK_CONFIG, encoding="utf-8")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert (out_a / "energy.csv").read_bytes() == (out_b / "energy.csv").read_bytes()
    assert (out_a / "event.json").read_bytes() == (out_b / "event.json").read_bytes()

    w = WienerQConfig(lambda0=0.1, J=8)
    noise = NoiseModel(
        wiener=w,
        sigma=SigmaInstance(DESK, w, c0=0.5, c1=0.2),
        stress=StressNoiseInstance(DESK, "identity", c_h=0.3),
        jump=JumpOperator(DESK, JumpConfig(rate=2.0, gamma_kind="constant", gamma0=0.1)),
    )
    params = PhysicalParams(nu=0.5, a=0.2, b=0.5, mu1=1.0, mu2=1.0)
    initial = FlowState(0.0, _normalized(_ball_field("vector", 31), 0.6, 2.0),
                        _normalized(truncate(random_field(DESK, 4.0, "tensor", seed=32), 16.0),
                                    0.6, 2.0))
    stepper = StepperConfig(dt=1e-3, horizon=0.05, record_noise=True)
    first = simulate(initial, params, noise, stepper, MON, rng=rng_for_run(9, 0))
    again = simulate(initial, params, noise, stepper, MON, noise_path=first.noise_path)
    assert np.array_equal(first.final_state.v.coeffs, again.final_state.v.coeffs)
    assert np.array_equal(first.final_state.tau.coeffs, again.final_state.tau.coeffs)
    assert first.records == again.records
    print("criterion 8 (reproducibility): PASS -- "
          "byte-identical CSV/event reruns, bitwise noise-path replay")

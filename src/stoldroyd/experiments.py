"""Orchestrated studies: survival ensembles, refinement Cauchy checks,
twin-run uniqueness probes, and the inequality verification suite.

Every study is deterministic given its master seed.  Run ``run_index`` of an
ensemble always sees ``rng_for_run(master_seed, run_index)`` no matter how the
runs are scheduled, so aggregation is a plain fold over run index and the
results are invariant under execution order.

All result objects carry a ``to_dict`` method emitting a schema-versioned,
JSON-ready summary; file writing is the caller's business.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import FlowState, PhysicalParams, deformation, q_form
from .monitor import MonitorConfig, energy
from .noise import NoisePath, rng_for_run
from .spectral import (
    SpectralGrid,
    TensorField,
    VectorField,
    bessel,
    commutator_bessel_product,
    convect_vector,
    dealiased_product,
    divergence_defect,
    divergence_tensor,
    gradient_scalar,
    gradient_vector,
    hs_norm,
    l2_inner,
    leray_project,
    linf_norm,
    make_grid,
    random_field,
    relayout,
    truncate,
)
from .stepping import (
    NoiseModel,
    StepperConfig,
    _check_replay_compatible,
    on_alias_free_grid,
    simulate,
    step,
)

EXACT_TOLERANCE = 1e-10

# 97.5% standard-normal quantile, to full double precision.
_Z95 = 1.959963984540054


def wilson_interval(successes: int, n: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, clamped into [0, 1]."""
    if n <= 0:
        raise ValueError(f"interval needs a positive sample count, got {n}")
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


# ---------------------------------------------------------------------------
# Survival ensembles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnsembleResult:
    """Empirical survival curve for the stopping time of an ensemble.

    ``rho`` holds the per-run stopping time, ``inf`` when the run reached the
    horizon without crossing the energy threshold.  ``survival[i]`` estimates
    P(rho > deltas[i]) and is nonincreasing in the delta grid by construction.
    """

    n_runs: int
    threshold: float
    deltas: tuple[float, ...]
    survival: tuple[float, ...]
    wilson_low: tuple[float, ...]
    wilson_high: tuple[float, ...]
    n_divergences: int
    rho: tuple[float, ...]
    master_seed: int

    def to_dict(self) -> dict:
        return {
            "schema": "ensemble/1",
            "n_runs": self.n_runs,
            "threshold": self.threshold,
            "master_seed": self.master_seed,
            "deltas": list(self.deltas),
            "survival": list(self.survival),
            "wilson_low": list(self.wilson_low),
            "wilson_high": list(self.wilson_high),
            "n_divergences": self.n_divergences,
            "rho": [r if math.isfinite(r) else None for r in self.rho],
        }


def _ensemble_member(
    run_index: int,
    initial: FlowState,
    params: PhysicalParams,
    noise: NoiseModel,
    stepper: StepperConfig,
    monitor: MonitorConfig,
    master_seed: int,
    randomize_initial: bool,
    init_alpha: float,
) -> tuple[float, bool, list]:
    """One seeded run; returns (stopping time, diverged flag, energy records)."""
    rng = rng_for_run(master_seed, run_index)
    state = initial
    if randomize_initial:
        # Fresh data drawn before any noise so the stream stays aligned
        # across ensembles that share a master seed.
        grid = initial.v.grid
        v = truncate(random_field(grid, init_alpha, "vector", rng=rng), grid.truncation_radius)
        tau = truncate(random_field(grid, init_alpha, "tensor", rng=rng), grid.truncation_radius)
        v = _rescale(v, hs_norm(initial.v, monitor.s), monitor.s)
        tau = _rescale(tau, hs_norm(initial.tau, monitor.s), monitor.s)
        state = FlowState(initial.t, v, tau)
    result = simulate(state, params, noise, stepper, monitor, rng=rng)
    if result.event.kind == "horizon":
        return (math.inf, False, result.records)
    return (result.event.t_stop, result.event.kind == "divergence", result.records)


def _rescale(field, target: float, s: float):
    current = hs_norm(field, s)
    scale = 0.0 if target == 0.0 else (target / current if current != 0.0 else 1.0)
    return replace(field, coeffs=scale * field.coeffs)


def run_ensemble(
    initial: FlowState,
    params: PhysicalParams,
    noise: NoiseModel,
    stepper: StepperConfig,
    *,
    threshold: float,
    deltas: Sequence[float],
    n_runs: int,
    master_seed: int,
    s: float = 2.0,
    randomize_initial: bool = False,
    init_alpha: float = 4.0,
    map_over_runs: Callable = map,
    csv_sink: Callable[[int, list], None] | None = None,
) -> EnsembleResult:
    """Monte Carlo estimate of the survival curve delta -> P(rho > delta).

    Each run is stopped at the first recorded time whose energy exceeds
    ``threshold`` (divergences count as exceedances and are also tallied
    separately); runs reaching the horizon contribute rho = inf.  Survival is
    therefore resolved at the step size Delta t.  ``map_over_runs`` accepts an
    ``Executor.map`` drop-in for parallel members; results are folded in run
    order either way.  ``csv_sink`` (if given) receives each run's energy
    records as that run is folded, so with the serial ``map`` run i is written
    before run i + 1 starts; only the stopping times and divergence flags are
    kept.
    """
    if n_runs < 30:
        raise ValueError(f"n_runs must be >= 30 for ensemble statistics, got {n_runs}")
    grid_deltas = tuple(sorted(float(d) for d in deltas))
    if len(grid_deltas) == 0:
        raise ValueError("delta grid must not be empty")
    if grid_deltas[0] <= 0.0:
        raise ValueError(f"delta grid entries must be positive, got {grid_deltas[0]:g}")
    if grid_deltas[-1] > stepper.actual_horizon:
        raise ValueError(
            f"delta {grid_deltas[-1]:g} exceeds the simulated horizon "
            f"{stepper.actual_horizon:g}; survival past it is unobservable"
        )
    monitor = MonitorConfig(threshold=threshold, s=s)

    outcomes = map_over_runs(
        lambda idx: _ensemble_member(
            idx, initial, params, noise, stepper, monitor,
            master_seed, randomize_initial, init_alpha,
        ),
        range(n_runs),
    )
    rho, n_div = [], 0
    for idx, (t_stop, diverged, records) in enumerate(outcomes):
        rho.append(t_stop)
        n_div += diverged
        if csv_sink is not None:
            csv_sink(idx, records)

    survival, lows, highs = [], [], []
    for delta in grid_deltas:
        hits = sum(1 for r in rho if r > delta)
        survival.append(hits / n_runs)
        low, high = wilson_interval(hits, n_runs)
        lows.append(low)
        highs.append(high)
    # Nonincreasing by construction; kept as a regression sentinel.
    assert all(a >= b for a, b in zip(survival, survival[1:]))

    return EnsembleResult(
        n_runs=n_runs,
        threshold=threshold,
        deltas=grid_deltas,
        survival=tuple(survival),
        wilson_low=tuple(lows),
        wilson_high=tuple(highs),
        n_divergences=n_div,
        rho=tuple(rho),
        master_seed=master_seed,
    )


# ---------------------------------------------------------------------------
# Refinement Cauchy studies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RefinementResult:
    """Pairwise differences between runs at successive truncation cutoffs.

    ``sup_v``/``sup_tau`` are Monte Carlo means over noise paths of the
    per-path sup-in-time L2 differences; the per-path values are kept too
    because the underlying theory bounds a mean over paths of a sup in time,
    and neither summary alone determines the other.  ``decay_rate`` is the
    fitted exponent r in sup-difference ~ n^(-r) against the lower cutoff of
    each pair (None when a difference vanishes identically or there is only
    one pair).
    """

    cutoffs: tuple[float, ...]
    pairs: tuple[tuple[float, float], ...]
    n_paths: int
    sup_v: tuple[float, ...]
    sup_tau: tuple[float, ...]
    grad_integral: tuple[float, ...]
    sup_v_paths: tuple[tuple[float, ...], ...]
    sup_tau_paths: tuple[tuple[float, ...], ...]
    grad_integral_paths: tuple[tuple[float, ...], ...]
    window_ends: tuple[float, ...]
    decay_rate: float | None
    master_seed: int

    def to_dict(self) -> dict:
        return {
            "schema": "refine/1",
            "cutoffs": list(self.cutoffs),
            "pairs": [list(p) for p in self.pairs],
            "n_paths": self.n_paths,
            "master_seed": self.master_seed,
            "sup_v": list(self.sup_v),
            "sup_tau": list(self.sup_tau),
            "grad_integral": list(self.grad_integral),
            "sup_v_paths": [list(p) for p in self.sup_v_paths],
            "sup_tau_paths": [list(p) for p in self.sup_tau_paths],
            "grad_integral_paths": [list(p) for p in self.grad_integral_paths],
            "window_ends": list(self.window_ends),
            "decay_rate": self.decay_rate,
        }


def _l2_of(coeffs: np.ndarray) -> float:
    return math.sqrt(float(np.sum(np.abs(coeffs) ** 2)))


def _grad_sq_of(grid: SpectralGrid, coeffs: np.ndarray) -> float:
    return float(np.sum(grid.xi_sq * np.sum(np.abs(coeffs) ** 2, axis=0)))


def refinement_single_path(
    initial_v: VectorField,
    initial_tau: TensorField,
    params: PhysicalParams,
    stepper: StepperConfig,
    cutoffs: Sequence[float],
    noise_path: NoisePath,
    noise: NoiseModel,
    *,
    threshold: float,
    s: float = 2.0,
) -> tuple[list[tuple[float, float, float]], float]:
    """Lockstep all cutoffs through one shared noise path.

    Every cutoff gets its own grid, the smallest alias-free one for its
    cutoff (`on_alias_free_grid`), and ``noise`` rebuilt on it, so the shared
    Wiener/jump draws are projected per cutoff exactly as the dynamics are.
    The path must suit ``stepper``, whose n_steps are taken.  Differences
    are accumulated for successive cutoff pairs, in the larger layout of each
    pair, at every recorded time in [0, window]; the window closes at the
    horizon or at the first time any cutoff's energy leaves [0, threshold]
    (divergence included), and the closing comparison is kept.

    Returns per-pair (sup_t L2 v-difference, sup_t L2 tau-difference,
    integral of the squared L2 gradient of the v-difference) and the window
    end time.
    """
    _check_replay_compatible(noise_path, stepper, noise.signature(initial_v.grid))
    states, models = [], []
    for c in cutoffs:
        state, model = on_alias_free_grid(
            FlowState(0.0, truncate(initial_v, c), truncate(initial_tau, c)), noise, c)
        states.append(state)
        models.append(model)

    k = len(states)
    n_pairs = k - 1
    cum = [0.0] * k
    sup_v = [0.0] * n_pairs
    sup_tau = [0.0] * n_pairs
    grad_int = [0.0] * n_pairs
    dt = stepper.dt

    def window_records() -> list | None:
        """Every cutoff's energy record, or None once the window closes."""
        records = []
        for j in range(k):
            rec = energy(states[j], s, params, cum[j])
            if not rec.finite or rec.e_n > threshold:
                return None
            records.append(rec)
        return records

    def compare() -> list:
        """Update the sups; return each pair's (layout grid, v-difference)."""
        diffs = []
        for p in range(n_pairs):
            lo, hi = states[p], states[p + 1]
            grid = max(lo.v.grid, hi.v.grid, key=lambda g: g.modes_per_axis)
            dv = relayout(hi.v, grid).coeffs - relayout(lo.v, grid).coeffs
            dtau = relayout(hi.tau, grid).coeffs - relayout(lo.tau, grid).coeffs
            sup_v[p] = max(sup_v[p], _l2_of(dv))
            sup_tau[p] = max(sup_tau[p], _l2_of(dtau))
            diffs.append((grid, dv))
        return diffs

    diffs = compare()
    records = window_records()
    if records is None:
        return [(sup_v[p], sup_tau[p], 0.0) for p in range(n_pairs)], 0.0

    window_end = stepper.actual_horizon
    for i in range(stepper.n_steps):
        # Left-endpoint quadrature for both accumulated integrals; the
        # dissipation reuses the records' gradient energies.
        for p, (grid, dv) in enumerate(diffs):
            grad_int[p] += dt * _grad_sq_of(grid, dv)
        for j in range(k):
            cum[j] += dt * records[j].gradv_hs2
        sn = noise_path.step_noise(i)
        states = [step(state, params, model, sn, dt) for state, model in zip(states, models)]
        diffs = compare()
        records = window_records()
        if records is None:
            window_end = states[0].t
            break

    return list(zip(sup_v, sup_tau, grad_int)), window_end


def refinement_study(
    initial_v: VectorField,
    initial_tau: TensorField,
    params: PhysicalParams,
    stepper: StepperConfig,
    cutoffs: Sequence[float],
    noise: NoiseModel,
    *,
    threshold: float,
    n_paths: int,
    master_seed: int,
    s: float = 2.0,
) -> RefinementResult:
    """Common-noise Cauchy study across strictly increasing cutoffs.

    Path ``p`` presamples one NoisePath from ``rng_for_run(master_seed, p)``
    and feeds it to every cutoff, then per-pair differences are averaged over
    paths.  Initial data should be drawn with enough spectral decay that the
    truncated tails are small (two extra orders beyond the comparison norm is
    the intended regime).
    """
    cuts = tuple(float(c) for c in cutoffs)
    if len(cuts) < 2:
        raise ValueError("refinement needs at least two cutoffs to compare")
    if any(b <= a for a, b in zip(cuts, cuts[1:])):
        raise ValueError(f"cutoffs must be strictly increasing, got {cuts}")
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")

    signature = noise.signature(initial_v.grid)
    n_pairs = len(cuts) - 1
    per_pair_v = [[] for _ in range(n_pairs)]
    per_pair_tau = [[] for _ in range(n_pairs)]
    per_pair_grad = [[] for _ in range(n_pairs)]
    windows = []

    for p in range(n_paths):
        sampler = noise.sampler(rng_for_run(master_seed, p))
        steps = [sampler.sample_step(stepper.dt) for _ in range(stepper.n_steps)]
        path = NoisePath.record(stepper.dt, signature, steps)
        stats, window_end = refinement_single_path(
            initial_v, initial_tau, params, stepper, cuts, path, noise,
            threshold=threshold, s=s,
        )
        windows.append(window_end)
        for i, (sv, st, gi) in enumerate(stats):
            per_pair_v[i].append(sv)
            per_pair_tau[i].append(st)
            per_pair_grad[i].append(gi)

    mean_v = tuple(float(np.mean(vals)) for vals in per_pair_v)
    mean_tau = tuple(float(np.mean(vals)) for vals in per_pair_tau)
    mean_grad = tuple(float(np.mean(vals)) for vals in per_pair_grad)

    decay_rate = None
    if n_pairs >= 2 and all(v > 0.0 for v in mean_v):
        lower_ns = np.log([a for a, _ in zip(cuts, cuts[1:])])
        slope = np.polyfit(lower_ns, np.log(mean_v), 1)[0]
        decay_rate = float(-slope)

    return RefinementResult(
        cutoffs=cuts,
        pairs=tuple(zip(cuts, cuts[1:])),
        n_paths=n_paths,
        sup_v=mean_v,
        sup_tau=mean_tau,
        grad_integral=mean_grad,
        sup_v_paths=tuple(tuple(vals) for vals in per_pair_v),
        sup_tau_paths=tuple(tuple(vals) for vals in per_pair_tau),
        grad_integral_paths=tuple(tuple(vals) for vals in per_pair_grad),
        window_ends=tuple(windows),
        decay_rate=decay_rate,
        master_seed=master_seed,
    )


# ---------------------------------------------------------------------------
# Twin-run uniqueness probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwinReport:
    """Determinism and pathwise-separation diagnostics for one configuration."""

    dt: float
    twin_identical: bool
    perturbation: float
    times: tuple[float, ...]
    v_distance: tuple[float, ...]
    tau_distance: tuple[float, ...]
    growth_rate: float | None

    def to_dict(self) -> dict:
        return {
            "schema": "twin/1",
            "dt": self.dt,
            "twin_identical": self.twin_identical,
            "perturbation": self.perturbation,
            "times": list(self.times),
            "v_distance": list(self.v_distance),
            "tau_distance": list(self.tau_distance),
            "growth_rate": self.growth_rate,
        }


def twin_uniqueness(
    initial: FlowState,
    params: PhysicalParams,
    noise: NoiseModel,
    stepper: StepperConfig,
    *,
    master_seed: int,
    threshold: float,
    s: float = 2.0,
    perturbation: float = 0.0,
    perturbation_alpha: float = 4.0,
) -> TwinReport:
    """Run the same configuration twice and once perturbed, under common noise.

    The twin check reruns (config, seed) from scratch and compares bitwise.
    If ``perturbation`` is nonzero, a unit-L2 divergence-free field scaled by
    it is added to the initial velocity and the pair is stepped in lockstep
    through the recorded noise of the first run; per-time L2 distances are
    reported along with a fitted exponential growth rate (a report, not a
    verdict — the observed rate is configuration-dependent).
    """
    monitor = MonitorConfig(threshold=threshold, s=s)
    recording = replace(stepper, record_noise=True)
    first = simulate(initial, params, noise, recording, monitor, rng=rng_for_run(master_seed, 0))
    second = simulate(initial, params, noise, recording, monitor, rng=rng_for_run(master_seed, 0))
    twin_identical = (
        np.array_equal(first.final_state.v.coeffs, second.final_state.v.coeffs)
        and np.array_equal(first.final_state.tau.coeffs, second.final_state.tau.coeffs)
        and first.records == second.records
    )

    host = initial.v.grid
    dt = stepper.dt
    times = [0.0]
    v_dist = [0.0]
    tau_dist = [0.0]
    if perturbation != 0.0:
        # the pair steps on the run's alias-free grid; the bump is drawn on the
        # caller's grid, whose size fixes the random draws
        state_a, model = on_alias_free_grid(initial, noise)
        grid = state_a.v.grid
        bump = truncate(
            random_field(host, perturbation_alpha, "vector", rng=rng_for_run(master_seed, 1)),
            host.truncation_radius,
        )
        bump_coeffs = relayout(bump, grid).coeffs / _l2_of(bump.coeffs)
        state_b = FlowState(
            initial.t,
            VectorField(grid, state_a.v.coeffs + perturbation * bump_coeffs,
                        div_free=initial.v.div_free),
            state_a.tau,
        )
        v_dist[0] = _l2_of(state_b.v.coeffs - state_a.v.coeffs)
        path = first.noise_path
        for i in range(path.n_steps):
            sn = path.step_noise(i)
            state_a = step(state_a, params, model, sn, dt)
            state_b = step(state_b, params, model, sn, dt)
            times.append(state_a.t)
            v_dist.append(_l2_of(state_b.v.coeffs - state_a.v.coeffs))
            tau_dist.append(_l2_of(state_b.tau.coeffs - state_a.tau.coeffs))
            if not (math.isfinite(v_dist[-1]) and math.isfinite(tau_dist[-1])):
                break

    growth_rate = None
    positive = [(t, d) for t, d in zip(times, v_dist) if d > 0.0 and math.isfinite(d)]
    if len(positive) >= 2:
        ts, ds = zip(*positive)
        growth_rate = float(np.polyfit(ts, np.log(ds), 1)[0])

    return TwinReport(
        dt=dt,
        twin_identical=twin_identical,
        perturbation=perturbation,
        times=tuple(times),
        v_distance=tuple(v_dist),
        tau_distance=tuple(tau_dist),
        growth_rate=growth_rate,
    )


# ---------------------------------------------------------------------------
# Inequality verification suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InequalityReport:
    """Max relative violations of exact facts plus fitted inequality constants.

    ``passed`` means every entry of ``max_violation`` is at most
    EXACT_TOLERANCE.  Fitted constants are reported for inspection only;
    nothing about their magnitude is asserted anywhere.
    """

    master_seed: int
    trials: int
    passed: bool
    max_violation: dict
    fitted_constants: dict

    def to_dict(self) -> dict:
        return {
            "schema": "verify/1",
            "master_seed": self.master_seed,
            "trials": self.trials,
            "tolerance": EXACT_TOLERANCE,
            "passed": self.passed,
            "max_violation": dict(self.max_violation),
            "fitted_constants": dict(self.fitted_constants),
        }


def _relative_inner_defect(value: float, scale: float) -> float:
    return abs(value) / scale if scale > 0.0 else abs(value)


def inequality_suite(master_seed: int, trials: int = 100, *, s: float = 2.0) -> InequalityReport:
    """Check the exact spectral facts on random fields; fit the loose constants.

    Exact facts (violations must stay within EXACT_TOLERANCE, relative):
    Leray output divergence, transport orthogonality ((f.grad)J^s g, J^s g) = 0
    for divergence-free f, the velocity/stress coupling cancellation
    (div tau, v) + (D(v), tau) = 0, truncation contraction / idempotence /
    composition / tail decay with constant 1, the interpolation inequality
    with constant 1, and bilinearity plus homogeneity of the Bessel-product
    commutator.

    Fitted constants (reported, never asserted): the commutator ratio against
    the gradient/norm bound — at base amplitude and with both factors scaled
    by 10 to exhibit scale stability — the tame-estimate ratio for the stress
    coupling form, and the product-algebra ratio.
    """
    if trials < 100:
        raise ValueError(f"trials must be >= 100, got {trials}")
    grid = make_grid(2, 64, 2 * math.pi, 16)
    rng = rng_for_run(master_seed, 0)
    ball = grid.truncation_radius

    checks = {
        "leray_divergence": 0.0,
        "transport_orthogonality": 0.0,
        "coupling_cancellation": 0.0,
        "truncation_contraction": 0.0,
        "truncation_idempotence": 0.0,
        "truncation_composition": 0.0,
        "truncation_decay": 0.0,
        "interpolation": 0.0,
        "commutator_additivity": 0.0,
        "commutator_homogeneity": 0.0,
    }
    constants = {
        "kato_ponce": 0.0,
        "kato_ponce_scaled": 0.0,
        "tame_q": 0.0,
        "algebra": 0.0,
    }

    def bump(name: str, value: float) -> None:
        if value > checks[name]:
            checks[name] = value

    for _ in range(trials):
        f = random_field(grid, 4.0, "scalar", rng=rng)
        g = random_field(grid, 4.0, "scalar", rng=rng)
        raw = random_field(grid, 4.0, "vector", rng=rng)
        v = truncate(raw, ball)
        tau = truncate(random_field(grid, 4.0, "tensor", rng=rng), ball)
        n_cut = float(rng.integers(3, 13))
        m_cut = float(rng.integers(3, 13))

        proj = leray_project(raw)
        bump("leray_divergence", divergence_defect(proj))

        jg = bessel(random_field(grid, 4.0, "vector", rng=rng), s)
        transported = convect_vector(v, jg)
        scale = hs_norm(transported, 0.0) * hs_norm(jg, 0.0)
        bump("transport_orthogonality", _relative_inner_defect(l2_inner(transported, jg), scale))

        coupling = l2_inner(divergence_tensor(tau), v) + l2_inner(deformation(v), tau)
        coupling_scale = hs_norm(tau, 0.0) * hs_norm(gradient_vector(v), 0.0)
        bump("coupling_cancellation", _relative_inner_defect(coupling, coupling_scale))

        full = hs_norm(f, s)
        cut = truncate(f, n_cut)
        bump("truncation_contraction", max(0.0, (hs_norm(cut, s) - full) / full))
        bump("truncation_idempotence",
             _l2_of(truncate(cut, n_cut).coeffs - cut.coeffs) / hs_norm(f, 0.0))
        composed = truncate(truncate(f, n_cut), m_cut)
        direct = truncate(f, min(n_cut, m_cut))
        bump("truncation_composition",
             _l2_of(composed.coeffs - direct.coeffs) / hs_norm(f, 0.0))
        # Tail mass via Pythagoras: the cut and its complement are orthogonal.
        tail = math.sqrt(max(hs_norm(f, s) ** 2 - hs_norm(cut, s) ** 2, 0.0))
        decay_bound = (1.0 + n_cut * n_cut) ** -1.0 * hs_norm(f, s + 2.0)
        bump("truncation_decay", max(0.0, (tail - decay_bound) / decay_bound))

        s_mid = float(rng.uniform(0.3, 0.9)) * s
        theta = s_mid / s
        interp_bound = hs_norm(f, 0.0) ** (1.0 - theta) * hs_norm(f, s) ** theta
        bump("interpolation", max(0.0, (hs_norm(f, s_mid) - interp_bound) / interp_bound))

        comm = commutator_bessel_product(f, g, s)
        g2 = random_field(grid, 4.0, "scalar", rng=rng)
        lhs = commutator_bessel_product(
            f, type(g)(grid, g.coeffs + g2.coeffs), s
        )
        rhs = comm.coeffs + commutator_bessel_product(f, g2, s).coeffs
        add_scale = _l2_of(rhs)
        bump("commutator_additivity", _l2_of(lhs.coeffs - rhs) / add_scale)
        lam = 3.7
        homog = commutator_bessel_product(type(f)(grid, lam * f.coeffs), g, s)
        bump("commutator_homogeneity",
             _l2_of(homog.coeffs - lam * comm.coeffs) / (abs(lam) * _l2_of(comm.coeffs)))

        kp_denominator = (
            linf_norm(gradient_scalar(f)) * hs_norm(g, s - 1.0)
            + hs_norm(f, s) * linf_norm(g)
        )
        ratio = hs_norm(comm, 0.0) / kp_denominator
        constants["kato_ponce"] = max(constants["kato_ponce"], ratio)
        comm10 = commutator_bessel_product(
            type(f)(grid, 10.0 * f.coeffs), type(g)(grid, 10.0 * g.coeffs), s
        )
        kp10 = (
            10.0 * linf_norm(gradient_scalar(f)) * 10.0 * hs_norm(g, s - 1.0)
            + 10.0 * hs_norm(f, s) * 10.0 * linf_norm(g)
        )
        constants["kato_ponce_scaled"] = max(
            constants["kato_ponce_scaled"], hs_norm(comm10, 0.0) / kp10
        )

        qv = q_form(tau, v, 0.5)
        gv = gradient_vector(v)
        tame = hs_norm(tau, s) * linf_norm(gv) + linf_norm(tau) * hs_norm(gv, s)
        constants["tame_q"] = max(constants["tame_q"], hs_norm(qv, s) / tame)

        product = dealiased_product(f, g)
        constants["algebra"] = max(
            constants["algebra"], hs_norm(product, s) / (hs_norm(f, s) * hs_norm(g, s))
        )

    passed = all(value <= EXACT_TOLERANCE for value in checks.values())
    return InequalityReport(
        master_seed=master_seed,
        trials=trials,
        passed=passed,
        max_violation=checks,
        fitted_constants=constants,
    )

"""Orchestrated studies: survival ensembles, refinement Cauchy checks, and
the inequality verification suite.

Every study is deterministic given its master seed.  Run ``run_index`` of an
ensemble always sees ``rng_for_run(master_seed, run_index)`` no matter how the
runs are scheduled, so aggregation is a plain fold over run index and the
results are invariant under execution order.

All result objects carry a ``to_dict`` method emitting a schema-versioned,
JSON-ready summary; file writing is the caller's business.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .config import draw_initial
from .dynamics import DriftPass, FlowState, PhysicalParams, explicit_terms
from .monitor import MonitorConfig, energy_records, stop_event
from .noise import NoisePath, rng_for_run
from .spectral import (
    TensorField,
    VectorField,
    _shared_blocks,
    bessel,
    divergence_defect,
    gradient_vector,
    hs_norm,
    hs_weights,
    l2_inner,
    leray_project,
    make_grid,
    random_field,
    sq_mode_sum,
    truncate,
)
from .stepping import (
    NoiseModel,
    StepperConfig,
    _replayed_draws,
    on_alias_free_grid,
    simulate,
    trajectory,
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
    init_s: float,
) -> tuple[float, bool, list]:
    """One seeded run; returns (stopping time, diverged flag, energy records)."""
    rng = rng_for_run(master_seed, run_index)
    state = initial
    if randomize_initial:
        # Fresh data drawn before any noise so the stream stays aligned
        # across ensembles that share a master seed.
        state = draw_initial(initial.v.grid, init_alpha, rng, hs_norm(initial.v, init_s),
                             hs_norm(initial.tau, init_s), init_s, initial.t)
    result = simulate(state, params, noise, stepper, monitor, rng=rng)
    if result.event.kind == "horizon":
        return (math.inf, False, result.records)
    return (result.event.t_stop, result.event.kind == "divergence", result.records)


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
    init_s: float | None = None,
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
    kept.  With ``randomize_initial`` each member draws data of decay ``init_alpha``
    at the template's H^init_s norms (``init_s``, the config's ``[params] s``, or ``s``)."""
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
    stepper = replace(stepper, record_noise=False)  # members keep no noise path

    # a partial of the module-level member pickles, so any Executor.map can send it;
    # the member looks up `simulate` in this module at call time
    member = functools.partial(_ensemble_member, initial=initial, params=params, noise=noise,
                               stepper=stepper, monitor=monitor, master_seed=master_seed,
                               randomize_initial=randomize_initial, init_alpha=init_alpha,
                               init_s=s if init_s is None else init_s)
    outcomes = map_over_runs(member, range(n_runs))
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


def _difference(hi, lo) -> np.ndarray:
    """hi - lo on hi's grid, whose box holds lo's modes: lo's blocks subtracted
    from a copy of hi, bitwise hi minus lo embedded."""
    out = hi.coeffs.copy()
    for dst, src in _shared_blocks(lo.grid.runs, hi.grid.runs):
        out[(..., *dst)] -= lo.coeffs[(..., *src)]
    return out


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
    cutoff (`on_alias_free_grid`), where its trajectory's `StepPlan` places ``noise``:
    the shared Wiener/jump draws are projected per cutoff exactly as the dynamics are.
    The path must suit ``stepper``, whose n_steps are taken.  The cutoffs'
    trajectories are zipped row by row; differences are accumulated for
    successive cutoff pairs, on the higher cutoff's grid of each pair, at
    every row in [0, window].  The window closes at the horizon or at the first
    row in which `stop_event`, the rule `simulate` stops by, fires for any cutoff
    (E_N above ``threshold``, or divergence: a non-finite record or E_N above
    `monitor.DIVERGENCE_CAP`), and the closing comparison is kept.

    Returns per-pair (sup_t L2 v-difference, sup_t L2 tau-difference,
    integral of the squared L2 gradient of the v-difference) and the window
    end time.
    """
    draws = _replayed_draws(noise_path, stepper, noise.signature(initial_v.grid))
    paths, l2 = [], []  # l2: each cutoff grid's L2 weights, a pair's on its higher cutoff's
    for c, cut_draws in zip(cutoffs, itertools.tee(draws, len(cutoffs))):
        state = on_alias_free_grid(
            FlowState(0.0, truncate(initial_v, c), truncate(initial_tau, c)), noise, c)
        l2.append(hs_weights(state.v.grid, 0.0))
        states = trajectory(state, params, noise, cut_draws, stepper.dt)
        paths.append(energy_records(states, s, params, stepper.dt))

    sup_v, sup_tau, grad_int, grad_sq = ([0.0] * (len(cutoffs) - 1) for _ in range(4))
    window_end = stepper.actual_horizon
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging row closes the window
        for row in zip(*paths):
            states, records = zip(*row)
            del row  # else zip's cached row tuple keeps an older row's states alive
            for p, (lo, hi) in enumerate(zip(states, states[1:])):
                grad_int[p] += stepper.dt * grad_sq[p]  # left endpoint: the previous row's
                v_sq, grad_sq[p] = sq_mode_sum(_difference(hi.v, lo.v), l2[p + 1], grad=True)
                sup_v[p] = max(sup_v[p], math.sqrt(v_sq))
                tau_sq = sq_mode_sum(_difference(hi.tau, lo.tau), l2[p + 1])
                sup_tau[p] = max(sup_tau[p], math.sqrt(tau_sq))
            if any(stop_event(rec, threshold) is not None for rec in records):
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
    MonitorConfig(threshold=threshold, s=s)  # validates the threshold, as `run_ensemble` does

    signature = noise.signature(initial_v.grid)
    per_path, windows = [], []
    for p in range(n_paths):
        sampler = noise.sampler(rng_for_run(master_seed, p))
        steps = [sampler.sample_step(stepper.dt) for _ in range(stepper.n_steps)]
        path = NoisePath.record(stepper.dt, signature, steps)
        stats, window_end = refinement_single_path(
            initial_v, initial_tau, params, stepper, cuts, path, noise,
            threshold=threshold, s=s,
        )
        per_path.append(stats)
        windows.append(window_end)
    # per_pair_v[i][p]: pair i's sup v-difference on path p; alike for tau and the integral
    per_pair_v, per_pair_tau, per_pair_grad = (
        [tuple(stats[i][q] for stats in per_path) for i in range(len(cuts) - 1)] for q in range(3))
    mean_v, mean_tau, mean_grad = (tuple(float(np.mean(vals)) for vals in per_pair)
                                   for per_pair in (per_pair_v, per_pair_tau, per_pair_grad))

    decay_rate = None
    if len(cuts) > 2 and all(v > 0.0 for v in mean_v):
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
        sup_v_paths=tuple(per_pair_v),
        sup_tau_paths=tuple(per_pair_tau),
        grad_integral_paths=tuple(per_pair_grad),
        window_ends=tuple(windows),
        decay_rate=decay_rate,
        master_seed=master_seed,
    )


# ---------------------------------------------------------------------------
# Inequality verification suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InequalityReport:
    """Max relative violation of each exact spectral fact over the trials.

    ``passed`` means every entry of ``max_violation`` is at most
    EXACT_TOLERANCE.
    """

    master_seed: int
    trials: int
    passed: bool
    max_violation: dict

    def to_dict(self) -> dict:
        return {
            "schema": "verify/3",
            "master_seed": self.master_seed,
            "trials": self.trials,
            "tolerance": EXACT_TOLERANCE,
            "passed": self.passed,
            "max_violation": dict(self.max_violation),
        }


def _relative_inner_defect(value: float, scale: float) -> float:
    return abs(value) / scale if scale > 0.0 else abs(value)


def _profile_commutator(phi: np.ndarray, u: VectorField, s: float, drift: DriftPass) -> np.ndarray:
    """K(phi, u) = J^s(phi u) - phi J^s u for a scalar profile phi (coefficients),
    each product the drift pass's profile product: phi u cut to the ball, from `drift`,
    a linear pass with a profile (`explicit_terms` with ``nonlinear=False``)."""
    grid = u.grid
    product_only = PhysicalParams(nu=0.0, a=0.0, b=0.0, mu1=0.0, mu2=0.0, nonlinear=False)
    no_tau = TensorField(grid, np.zeros((grid.dim, grid.dim) + grid.shape, dtype=np.complex128))
    lift = (1.0 + grid.xi_sq) ** (s / 2.0)  # J^s

    def product(w: np.ndarray) -> np.ndarray:  # a view into the pass's rows
        return explicit_terms(FlowState(0.0, VectorField(grid, w), no_tau), product_only, phi,
                              drift)[2]

    lifted = lift * product(u.coeffs)  # a new array, formed before the next pass
    return lifted - product(lift * u.coeffs)


def inequality_suite(master_seed: int, trials: int = 100, *, s: float = 2.0) -> InequalityReport:
    """Check the exact facts of the energy estimate on random fields, each on
    the operator a step runs; every relative violation must stay within
    EXACT_TOLERANCE.

    - ``leray_divergence``: the divergence of `leray_project`'s output.
    - ``transport_orthogonality``: ((v.grad)v, v) = 0 for a Bessel-lifted
      divergence-free ball v, on the velocity output of `explicit_terms` with
      mu1 = mu2 = 0, which tau does not enter.
    - ``corotational_cancellation``: (-(v.grad)tau - Q(tau, grad v), tau) = 0
      for the corotational form (b = 0), on the same pass's stress output: v
      transports and rotates a distinct tau.
    - ``coupling_cancellation``: (vel, v)/mu1 + (stress, tau)/mu2 =
      (div tau, v) + (D(v), tau) = 0, on the linear pass (``nonlinear=False``).
    - ``truncation_*`` and ``interpolation``: contraction, idempotence,
      composition and tail decay of `truncate` with constant 1, and the
      interpolation inequality with constant 1, on `hs_norm`.
    - ``commutator_additivity``/``commutator_homogeneity``: K(phi, u) =
      J^s(phi u) - phi J^s u is additive in u and homogeneous in phi, each
      product the pass's profile product (`_profile_commutator`), the one
      dealiased scalar-times-field product a step forms.

    The suite builds its three passes once: quadratic, linear, and linear with
    a profile.
    """
    if trials < 100:
        raise ValueError(f"trials must be >= 100, got {trials}")
    grid = make_grid(2, 64, 2 * math.pi, 16)
    rng = rng_for_run(master_seed, 0)
    ball = grid.truncation_radius
    quad_pass = DriftPass(grid, nonlinear=True, profile=False)
    linear_pass = DriftPass(grid, nonlinear=False, profile=False)
    phi_pass = DriftPass(grid, nonlinear=False, profile=True)  # `_profile_commutator`'s
    quadratic = PhysicalParams(nu=0.0, a=0.0, b=0.0, mu1=0.0, mu2=0.0)
    coupling_only = PhysicalParams(nu=0.0, a=0.0, b=0.0, mu1=0.7, mu2=0.9, nonlinear=False)

    checks = dict.fromkeys((
        "leray_divergence", "transport_orthogonality", "coupling_cancellation",
        "corotational_cancellation", "truncation_contraction", "truncation_idempotence",
        "truncation_composition", "truncation_decay", "interpolation",
        "commutator_additivity", "commutator_homogeneity",
    ), 0.0)

    l2 = hs_weights(grid, 0.0)

    def l2_norm(coeffs: np.ndarray) -> float:
        return math.sqrt(sq_mode_sum(coeffs, l2))

    def bump(name: str, value: float) -> None:
        if value > checks[name]:
            checks[name] = value

    def pairing(name: str, drift: np.ndarray, field) -> None:
        out = type(field)(grid, drift)
        bump(name, _relative_inner_defect(l2_inner(out, field),
                                          hs_norm(out, 0.0) * hs_norm(field, 0.0)))

    for _ in range(trials):
        f = random_field(grid, 4.0, "scalar", rng=rng)
        raw = random_field(grid, 4.0, "vector", rng=rng)
        v = truncate(raw, ball)
        tau = truncate(random_field(grid, 4.0, "tensor", rng=rng), ball)
        n_cut = float(rng.integers(3, 13))
        m_cut = float(rng.integers(3, 13))

        proj = leray_project(raw)
        bump("leray_divergence", divergence_defect(proj))

        lifted = truncate(bessel(random_field(grid, 4.0, "vector", rng=rng), s), ball)
        vel, stress, _ = explicit_terms(FlowState(0.0, lifted, tau), quadratic, None, quad_pass)
        pairing("transport_orthogonality", vel, lifted)
        pairing("corotational_cancellation", stress, tau)

        vel, stress, _ = explicit_terms(FlowState(0.0, v, tau), coupling_only, None, linear_pass)
        coupling = (l2_inner(VectorField(grid, vel), v) / coupling_only.mu1
                    + l2_inner(TensorField(grid, stress), tau) / coupling_only.mu2)
        coupling_scale = hs_norm(tau, 0.0) * hs_norm(gradient_vector(v), 0.0)
        bump("coupling_cancellation", _relative_inner_defect(coupling, coupling_scale))

        full = hs_norm(f, s)
        cut = truncate(f, n_cut)
        bump("truncation_contraction", max(0.0, (hs_norm(cut, s) - full) / full))
        bump("truncation_idempotence",
             l2_norm(truncate(cut, n_cut).coeffs - cut.coeffs) / hs_norm(f, 0.0))
        composed = truncate(truncate(f, n_cut), m_cut)
        direct = truncate(f, min(n_cut, m_cut))
        bump("truncation_composition",
             l2_norm(composed.coeffs - direct.coeffs) / hs_norm(f, 0.0))
        # Tail mass via Pythagoras: the cut and its complement are orthogonal.
        tail = math.sqrt(max(hs_norm(f, s) ** 2 - hs_norm(cut, s) ** 2, 0.0))
        decay_bound = (1.0 + n_cut * n_cut) ** -1.0 * hs_norm(f, s + 2.0)
        bump("truncation_decay", max(0.0, (tail - decay_bound) / decay_bound))

        s_mid = float(rng.uniform(0.3, 0.9)) * s
        theta = s_mid / s
        interp_bound = hs_norm(f, 0.0) ** (1.0 - theta) * hs_norm(f, s) ** theta
        bump("interpolation", max(0.0, (hs_norm(f, s_mid) - interp_bound) / interp_bound))

        u2 = truncate(random_field(grid, 4.0, "vector", rng=rng), ball)
        comm = _profile_commutator(f.coeffs, v, s, phi_pass)
        lhs = _profile_commutator(f.coeffs, VectorField(grid, v.coeffs + u2.coeffs), s, phi_pass)
        rhs = comm + _profile_commutator(f.coeffs, u2, s, phi_pass)
        bump("commutator_additivity", l2_norm(lhs - rhs) / l2_norm(rhs))
        lam = 3.7
        homog = _profile_commutator(lam * f.coeffs, v, s, phi_pass)
        bump("commutator_homogeneity",
             l2_norm(homog - lam * comm) / (abs(lam) * l2_norm(comm)))

    passed = all(value <= EXACT_TOLERANCE for value in checks.values())
    return InequalityReport(
        master_seed=master_seed,
        trials=trials,
        passed=passed,
        max_violation=checks,
    )

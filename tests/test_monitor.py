"""Energy functional entries, stopping detection, CSV format."""
import io
import math

import numpy as np
import pytest

from stoldroyd import monitor
from stoldroyd.dynamics import FlowState, PhysicalParams
from stoldroyd.monitor import (
    CSV_COLUMNS,
    EnergyRecord,
    MonitorConfig,
    energy,
    energy_records,
    stop_event,
    write_energy_csv,
)
from stoldroyd.spectral import (
    TensorField,
    VectorField,
    gradient_vector,
    hs_norm,
    make_grid,
    random_field,
    relayout,
    symmetry_defect,
    truncate,
)

import oracles

GRID = make_grid(2, 64, 2 * math.pi, 16)
PARAMS = PhysicalParams(nu=0.1, a=0.2, b=0.0, mu1=0.5, mu2=2.0)


def make_record(t, e_n, finite=True):
    val = e_n if finite else float("nan")
    return EnergyRecord(t=t, v_hs2=val, tau_hs2=0.0, gradv_hs2=0.0, cum_diss=0.0,
                        e_n=val, sym_defect=0.0)


def first_stop(records, threshold):
    """The event of the first record `stop_event` stops at, as `simulate`
    applies the rule record by record; None: survival throughout."""
    return next(filter(None, (stop_event(rec, threshold) for rec in records)), None)


def zero_state():
    v = VectorField(GRID, np.zeros((2,) + GRID.shape, dtype=complex))
    tau = TensorField(GRID, np.zeros((2, 2) + GRID.shape, dtype=complex))
    return FlowState(0.0, v, tau)


class TestEnergy:
    def test_zero_state_all_zero(self):
        rec = energy(zero_state(), 2.0, PARAMS)
        assert (rec.v_hs2, rec.tau_hs2, rec.gradv_hs2, rec.cum_diss, rec.e_n) == (0,) * 5

    def test_single_mode_multiplier_values(self):
        """|xi|^2 = 3, unit RMS (amplitude 1/sqrt(2) at k and at -k), s = 1:
        ||v||^2 = 4 and ||grad v||^2 = 12."""
        g3 = make_grid(3, 8, 2 * math.pi, 2)
        c = np.zeros((3,) + g3.shape, dtype=complex)
        c[0][1, 1, 1] = 1.0 / math.sqrt(2.0)
        v = VectorField(g3, c)
        tau = TensorField(g3, np.zeros((3, 3) + g3.shape, dtype=complex))
        params = PhysicalParams(nu=0.5, a=0.0, b=0.0, mu1=1.0, mu2=1.0)
        rec = energy(FlowState(0.0, v, tau), 1.0, params)
        assert rec.v_hs2 == pytest.approx(4.0, rel=1e-14)
        assert rec.gradv_hs2 == pytest.approx(12.0, rel=1e-14)
        assert rec.e_n == pytest.approx(4.0, rel=1e-14)

    def test_gradient_energy_matches_tensor_norm(self):
        v = truncate(random_field(GRID, 4.0, "vector", seed=1), 16)
        tau = truncate(random_field(GRID, 4.0, "tensor", seed=2), 16)
        st = FlowState(0.0, v, tau)
        direct = energy(st, 1.5, PARAMS).gradv_hs2
        via_field = hs_norm(gradient_vector(v), 1.5) ** 2
        assert direct == pytest.approx(via_field, rel=1e-12)

    def test_s0_matches_physical_quadrature(self):
        v = truncate(random_field(GRID, 4.0, "vector", seed=3), 16)
        tau = truncate(random_field(GRID, 4.0, "tensor", seed=4), 16)
        rec = energy(FlowState(0.0, v, tau), 0.0, PARAMS)
        assert rec.v_hs2 == pytest.approx(
            oracles.rms_norm_components(GRID.inverse(v.coeffs), 2) ** 2, rel=1e-12
        )
        assert rec.tau_hs2 == pytest.approx(
            oracles.rms_norm_components(GRID.inverse(tau.coeffs), 2) ** 2, rel=1e-12
        )

    def test_weighted_combination(self):
        v = truncate(random_field(GRID, 4.0, "vector", seed=5), 16)
        tau = truncate(random_field(GRID, 4.0, "tensor", seed=6), 16)
        rec = energy(FlowState(0.0, v, tau), 2.0, PARAMS, cum_diss=3.0)
        want = PARAMS.mu2 * rec.v_hs2 + PARAMS.mu1 * rec.tau_hs2 + 2 * PARAMS.mu2 * PARAMS.nu * 3.0
        assert rec.e_n == pytest.approx(want, rel=1e-14)


class TestEnergyRecords:
    @pytest.mark.parametrize("dim, host_modes, small_modes, radius",
                             [(2, 64, 50, 16), (3, 26, 14, 4)])
    def test_records_equal_per_record_energy_bitwise(self, dim, host_modes, small_modes, radius):
        """The weight (1+|xi|^2)^s is formed once per grid; the records equal
        `energy` called per state with the left-endpoint dissipation sum,
        bitwise, across a change of grid too, in 2D and 3D."""
        host = make_grid(dim, host_modes, 2 * math.pi, radius)
        small = make_grid(dim, small_modes, 2 * math.pi, radius)
        states = []
        for seed, grid in ((40, host), (42, host), (44, small), (46, small)):
            v = truncate(random_field(host, 4.0, "vector", seed=seed), radius)
            tau = truncate(random_field(host, 4.0, "tensor", seed=seed + 1), radius)
            states.append(FlowState(0.01 * seed, relayout(v, grid), relayout(tau, grid)))
        cum_diss, dt = 0.0, 0.01
        for (state, rec), want_state in zip(energy_records(iter(states), 1.5, PARAMS, dt), states):
            assert state is want_state
            assert rec == energy(state, 1.5, PARAMS, cum_diss)
            cum_diss += dt * rec.gradv_hs2

    def test_weights_are_built_once_per_grid(self, monkeypatch):
        """Five states on two grids: `energy_records` builds the weights twice,
        once for each grid, in the order the grids appear."""
        built = []
        inner = monitor.hs_weights
        monkeypatch.setattr(monitor, "hs_weights",
                            lambda grid, s: built.append(grid) or inner(grid, s))
        small = make_grid(2, 50, 2 * math.pi, 16)
        v = truncate(random_field(GRID, 4.0, "vector", seed=50), 16)
        tau = truncate(random_field(GRID, 4.0, "tensor", seed=51), 16)
        states = [FlowState(0.01 * k, relayout(v, grid), relayout(tau, grid))
                  for k, grid in enumerate((GRID, GRID, GRID, small, small))]
        assert len(list(energy_records(iter(states), 1.5, PARAMS, 0.01))) == 5
        assert built == [GRID, small]


def _edited_stress(edit):
    """A symmetric ball stress on GRID, then `edit` applied to its coefficients."""
    tau = truncate(random_field(GRID, 4.0, "tensor", seed=8), 16).coeffs.copy()
    edit(tau)
    return TensorField(GRID, tau)


def _set_pair(upper, lower):
    """An edit writing the off-diagonal pair of one mode: tau_01 = upper, tau_10 = lower."""
    def edit(tau):
        tau[0, 1, 1, 2], tau[1, 0, 1, 2] = upper, lower
    return edit


def _set_diagonal(value):
    def edit(tau):
        tau[0, 0, 1, 2] = value
    return edit


def _scaled_by_1e200_after(edit):
    """Finite entries whose squares overflow."""
    def scaled(tau):
        edit(tau)
        tau *= 1e200
    return scaled


def _keep(tau):
    pass


_STRESS_EDITS = {
    "symmetric": _keep,
    "asymmetric": _set_pair(0.25, -0.5),
    "zero": lambda tau: tau.fill(0.0),
    "inf_diagonal": _set_diagonal(np.inf),
    "nan_diagonal": _set_diagonal(np.nan),
    "inf_pair": _set_pair(np.inf, np.inf),
    "signed_zero_pair": _set_pair(-0.0, 0.0),
    "overflowing_squares": _scaled_by_1e200_after(_keep),
    "overflowing_asymmetric": _scaled_by_1e200_after(_set_pair(0.25, -0.5)),
}


class TestSymmetryColumn:
    """`energy` reads the column as 0.0 without the formula when tau's bits
    equal its transpose's and tau_hs2 is finite, and runs the formula
    otherwise; either way the column holds the formula's bits."""

    @pytest.mark.parametrize("edit", _STRESS_EDITS.values(), ids=_STRESS_EDITS.keys())
    def test_column_holds_the_formula_bits(self, edit):
        tau = _edited_stress(edit)
        v = truncate(random_field(GRID, 4.0, "vector", seed=7), 16)
        with np.errstate(over="ignore", invalid="ignore"):
            got = energy(FlowState(0.0, v, tau), 2.0, PARAMS).sym_defect
            want = symmetry_defect(tau)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("name", _STRESS_EDITS)
    def test_formula_runs_only_off_the_fast_path(self, name, monkeypatch):
        """Only the symmetric and the zero stress skip the formula: the others
        have unequal bits (the signed-zero pair) or a non-finite tau_hs2."""
        calls = []
        monkeypatch.setattr(monitor, "symmetry_defect", lambda t: calls.append(t) or 0.0)
        tau = _edited_stress(_STRESS_EDITS[name])
        v = truncate(random_field(GRID, 4.0, "vector", seed=7), 16)
        with np.errstate(over="ignore", invalid="ignore"):
            energy(FlowState(0.0, v, tau), 2.0, PARAMS)
        assert len(calls) == (0 if name in ("symmetric", "zero") else 1)


class TestStopEvent:
    def test_zero_trajectory_survives(self):
        records = [make_record(0.001 * k, 0.0) for k in range(100)]
        assert first_stop(records, 1.0) is None

    def test_monotone_crossing(self):
        dt = 0.001
        records = [make_record(dt * k, 0.1 * k) for k in range(100)]
        evt = first_stop(records, 0.55)
        assert evt is not None and evt.kind == "threshold_N"
        assert evt.t_stop == pytest.approx(6 * dt)  # first sample with 0.1k > 0.55

    def test_equality_is_not_a_crossing(self):
        records = [make_record(0.0, 1.0), make_record(0.1, 1.0)]
        assert first_stop(records, 1.0) is None

    def test_nan_is_divergence(self):
        records = [make_record(0.0, 0.5), make_record(0.1, 0.0, finite=False)]
        evt = first_stop(records, 10.0)
        assert evt.kind == "divergence"
        assert evt.t_stop == 0.1

    def test_cap_is_divergence_even_above_threshold(self):
        records = [make_record(0.0, 5e12)]
        evt = first_stop(records, 1.0)
        assert evt.kind == "divergence"

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(7)
        e = np.cumsum(rng.uniform(0, 0.2, size=200))
        records = [make_record(0.01 * k, float(v)) for k, v in enumerate(e)]

        def t_stop(n):
            evt = first_stop(records, n)
            return evt.t_stop if evt else float("inf")

        thresholds = sorted(rng.uniform(0.0, e[-1] * 1.2, size=20))
        stops = [t_stop(n) for n in thresholds]
        assert stops == sorted(stops)

    def test_threshold_validated(self):
        with pytest.raises(ValueError, match="threshold"):
            MonitorConfig(threshold=0.0)
        with pytest.raises(ValueError, match="threshold"):
            MonitorConfig(threshold=-1.0)


class TestCsv:
    def test_exact_column_order_and_comments(self):
        records = [make_record(0.0, 1.0), make_record(0.5, 2.0)]
        buf = io.StringIO()
        write_energy_csv(records, buf, header_comments=["config: abc", "seed: 42"])
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# config: abc"
        assert lines[1] == "# seed: 42"
        assert lines[2] == "t,v_hs2,tau_hs2,gradv_hs2,cum_diss,E_N,sym_defect"
        assert len(lines) == 5
        assert CSV_COLUMNS == ("t", "v_hs2", "tau_hs2", "gradv_hs2", "cum_diss", "E_N", "sym_defect")

    def test_floats_round_trip(self):
        rec = EnergyRecord(t=1 / 3, v_hs2=math.pi, tau_hs2=0.1, gradv_hs2=2e-17,
                           cum_diss=7.0, e_n=math.e, sym_defect=0.0)
        buf = io.StringIO()
        write_energy_csv([rec], buf)
        row = buf.getvalue().splitlines()[1].split(",")
        assert float(row[0]) == rec.t
        assert float(row[1]) == rec.v_hs2
        assert float(row[5]) == rec.e_n

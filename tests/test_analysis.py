"""Prevalence formula, stationarity detection, and the emergence report."""

import math

import numpy as np
import pytest
from conftest import trajectory_from_csv

from bbnet.analysis import (
    c_of_N,
    complexity_proxy,
    detect_stationarity,
    emergence_report,
    measure_tau_E,
    theoretical_prevalence,
    StationarityResult,
)
from bbnet.dynamics import Trajectory
from bbnet.errors import ParameterError
from bbnet.machines import OmegaEstimate


def make_traj(densities, max_displayed=None):
    densities = np.asarray(densities, dtype=float)
    if max_displayed is None:
        max_displayed = np.full(len(densities), 4, dtype=np.int64)
    return Trajectory(
        infected_density=densities,
        best_carrier_density=densities.copy(),
        max_displayed=np.asarray(max_displayed, dtype=np.int64),
    )


def stationarity_oracle(series, window, tol):
    """detect_stationarity as a loop over t: (t_s, rho_hat, every gap compared)."""
    gaps = []
    for t in range(2 * window, len(series) + 1):
        recent = sum(series[t - window:t]) / window
        earlier = sum(series[t - 2 * window:t - window]) / window
        gaps.append(abs(recent - earlier))
        if gaps[-1] <= tol:
            tail = series[t:]
            return t, (sum(tail) / len(tail) if tail else recent), gaps
    return None, None, gaps


class TestTheoreticalPrevalence:
    def test_reference_value(self):
        assert theoretical_prevalence(2, 0.5) == pytest.approx(0.735758882343, abs=1e-9)

    def test_depends_only_on_product(self):
        assert theoretical_prevalence(1, 1.0) == pytest.approx(
            theoretical_prevalence(2, 0.5), abs=1e-12
        )
        for m in range(1, 6):
            for product in (0.2, 0.5, 1.0, 2.0, 5.0):
                lam = product / m
                assert theoretical_prevalence(m, lam) == pytest.approx(
                    2.0 * math.exp(-1.0 / product), abs=1e-12
                )

    def test_vanishes_as_lambda_to_zero(self):
        assert theoretical_prevalence(3, 1e-6) < 1e-100

    def test_can_exceed_one(self):
        assert theoretical_prevalence(5, 10.0) > 1.0

    def test_domain_error(self):
        with pytest.raises(ParameterError):
            theoretical_prevalence(2, 0.0)
        with pytest.raises(ParameterError):
            theoretical_prevalence(2, -1.0)
        with pytest.raises(ParameterError):
            theoretical_prevalence(0, 1.0)


class TestStationarity:
    def test_constant_series_fires_at_2w(self):
        res = detect_stationarity([0.3] * 500, window=50, tol=0.001)
        assert res.t_s == 100
        assert res.rho_hat == pytest.approx(0.3)

    def test_linear_series_never_fires(self):
        w, tol = 50, 0.001
        slope = 2 * tol / w  # window means differ by slope * w = 2 * tol
        series = [slope * t for t in range(500)]
        res = detect_stationarity(series, window=w, tol=tol)
        assert not res.fired
        assert res.rho_hat is None

    def test_plateau_after_transient(self):
        series = [1.0 / (1 + t) for t in range(100)] + [0.25] * 300
        res = detect_stationarity(series, window=20, tol=1e-4)
        assert res.fired
        assert res.t_s <= 160
        assert res.rho_hat == pytest.approx(0.25, abs=0.01)

    def test_short_series_returns_none(self):
        assert not detect_stationarity([0.5] * 10, window=50, tol=0.01).fired

    def test_matches_loop_oracle(self):
        # random series that settle at varied speeds; a series with a
        # window-mean gap within 1e-9 of tol is skipped, since the cumulative
        # sums and the loop's direct sums may round it to either side
        rng = np.random.default_rng(2024)
        outcomes = set()
        for _ in range(200):
            window = int(rng.integers(2, 12))
            n = int(rng.integers(window, 12 * window))
            tol = float(rng.choice([1e-3, 1e-2, 5e-2]))
            noise = rng.normal(0, 0.2, n) * np.exp(-np.arange(n) / rng.uniform(2, 80))
            series = list(0.3 + noise)
            t_s, rho_hat, gaps = stationarity_oracle(series, window, tol)
            if any(abs(gap - tol) < 1e-9 for gap in gaps):
                continue
            res = detect_stationarity(series, window, tol)
            assert res.t_s == t_s
            if t_s is None:
                assert res.rho_hat is None
                outcomes.add("short" if n < 2 * window else "never")
            else:
                assert res.rho_hat == pytest.approx(rho_hat, rel=1e-12, abs=1e-12)
                outcomes.add("at end" if t_s == n else "fired")
        assert outcomes == {"short", "never", "at end", "fired"}

    def test_invalid_params(self):
        with pytest.raises(ParameterError):
            detect_stationarity([0.1] * 10, window=1, tol=0.01)
        with pytest.raises(ParameterError):
            detect_stationarity([0.1] * 10, window=5, tol=0.0)


class TestCOfN:
    @pytest.mark.parametrize(
        "n,c,expected",
        [(10_000, 1.0, 10_000), (10_000, 0.5, 100), (2, 0.3, 2), (1, 0.5, 1), (1000, 0.5, 32)],
    )
    def test_values(self, n, c, expected):
        assert c_of_N(n, c) == expected

    def test_invalid(self):
        with pytest.raises(ParameterError):
            c_of_N(10, 0.0)
        with pytest.raises(ParameterError):
            c_of_N(10, 1.5)
        with pytest.raises(ParameterError):
            c_of_N(0, 0.5)


class TestTauE:
    def test_all_infected(self):
        assert measure_tau_E(make_traj([1.0] * 20), 1, 10) == 1.0

    def test_cured_world(self):
        traj = make_traj([0.5] + [0.0] * 20)
        assert measure_tau_E(traj, 1, 10) == 0.0

    def test_window_inclusive(self):
        traj = make_traj([0.0, 1.0, 1.0, 0.0, 0.0])
        assert measure_tau_E(traj, 1, 2) == 1.0
        assert measure_tau_E(traj, 1, 3) == pytest.approx(2 / 3)

    def test_window_start_at_end_rejected(self):
        for t0 in (10, 11):
            with pytest.raises(ParameterError, match=f"need 0 <= t0 < c_n, got t0={t0}, c_n=10"):
                measure_tau_E(make_traj([0.1] * 20), t0, 10)

    def test_range_error(self):
        with pytest.raises(ParameterError, match="beyond trajectory"):
            measure_tau_E(make_traj([0.1] * 5), 1, 10)

    def test_serialization_invariance(self):
        import io

        traj = make_traj(np.linspace(0.123456789, 0.2, 50))
        buf = io.StringIO()
        traj.to_csv(buf)
        back = trajectory_from_csv(io.StringIO(buf.getvalue()))
        assert measure_tau_E(back, 1, 40) == pytest.approx(
            measure_tau_E(traj, 1, 40), abs=1e-9
        )


class TestComplexityProxy:
    @pytest.mark.parametrize("x,bits", [(0, 0), (1, 1), (4, 3), (7, 3), (8, 4), (255, 8), (256, 9)])
    def test_values(self, x, bits):
        assert complexity_proxy(x) == bits

    def test_matches_binary_string_length(self):
        for x in range(1, 2000):
            assert complexity_proxy(x) == len(format(x, "b"))

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            complexity_proxy(-1)


class TestEmergenceReport:
    # fired at step 1, within c(100) = 10, so only tau_E decides the condition
    EARLY = StationarityResult(t_s=1, rho_hat=0.5)

    def omega(self, value):
        return OmegaEstimate("enumeration", value, 0.0, l_max=18)

    def test_c_bar_matches_complexity_proxy(self):
        # the array bit length of own fitness against the scalar proxy, one value at a time
        traj = make_traj([0.5] * 20)
        for x in [0, 1, 2**62] + [2**j + d for j in range(1, 62) for d in (-1, 1)]:
            rep = emergence_report(traj, self.omega(0.1), 3, 1.0, 100, 0.5, 1, np.array([x]),
                                   self.EARLY)
            assert rep.c_bar_isolated == complexity_proxy(x)
        with pytest.raises(ParameterError, match="need x >= 0, got -3"):
            emergence_report(traj, self.omega(0.1), 3, 1.0, 100, 0.5, 1, [4, -3, 0], self.EARLY)

    def test_no_diffusion(self):
        traj = make_traj([0.5] + [0.0] * 30)
        rep = emergence_report(
            traj, self.omega(0.3), 3, 0.25, 100, 0.5, 1, [1, 0, 1, 0], self.EARLY
        )
        assert rep.tau_e == 0.0
        assert not rep.condition_met
        assert rep.eeac_proxy == 0.0

    def test_full_diffusion(self):
        traj = make_traj([1.0] * 30, max_displayed=[10] * 30)
        own = [10, 0, 0, 0]
        rep = emergence_report(traj, self.omega(0.3), 3, 1.0, 100, 0.5, 1, own, self.EARLY)
        assert rep.tau_e == 1.0
        assert rep.condition_met
        assert rep.c_best == 4
        assert rep.c_bar_isolated == pytest.approx(1.0)
        assert rep.eeac_proxy == pytest.approx(3.0)

    def test_condition_monotone_in_tau(self):
        t_low = make_traj([0.2] * 30)
        t_high = make_traj([0.9] * 30)
        om = self.omega(0.5)
        low = emergence_report(t_low, om, 3, 0.25, 100, 0.5, 1, [1], self.EARLY)
        high = emergence_report(t_high, om, 3, 0.25, 100, 0.5, 1, [1], self.EARLY)
        assert not low.condition_met
        assert high.condition_met

    def test_rho_theory_clamped(self):
        traj = make_traj([0.5] * 30)
        rep = emergence_report(traj, self.omega(0.1), 5, 10.0, 100, 0.5, 1, [1], self.EARLY)
        assert rep.rho_theory == 1.0

    def test_nu_zero_lambda_zero_allowed(self):
        traj = make_traj([0.5] + [0.0] * 30)
        rep = emergence_report(traj, self.omega(0.1), 3, 0.0, 100, 0.5, 1, [1], self.EARLY)
        assert rep.rho_theory == 0.0

    def test_late_stationarity_invalidates_condition(self):
        traj = make_traj([0.9] * 30)
        stat = StationarityResult(t_s=25, rho_hat=0.9)
        rep = emergence_report(traj, self.omega(0.1), 3, 0.25, 100, 0.5, 1, [1], stat)
        # c(100) = 10 < 25: condition would hold on tau alone but is invalidated
        assert rep.tau_e > rep.omega_hat
        assert not rep.condition_met

    def test_timely_stationarity_keeps_condition(self):
        traj = make_traj([0.9] * 30)
        stat = StationarityResult(t_s=8, rho_hat=0.9)
        rep = emergence_report(traj, self.omega(0.1), 3, 0.25, 100, 0.5, 1, [1], stat)
        assert rep.condition_met

    def test_short_trajectory_raises(self):
        traj = make_traj([0.5] * 5)
        with pytest.raises(ParameterError, match="beyond trajectory"):
            emergence_report(traj, self.omega(0.1), 3, 0.25, 100, 0.5, 1, [1], self.EARLY)

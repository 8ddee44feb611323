"""Acceptance suite: one test per criterion, each at its stated tolerance;
criterion 1 has a second, against BA growth's exact degree law.

Each test prints one ACCEPTANCE line on success (visible with -s and collected
into the terminal summary); run the whole module with

    pytest tests/test_acceptance.py -v
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import iter_encodings, kraft_sum, outcome, record_criterion, table_from_int

from bbnet.analysis import detect_stationarity, theoretical_prevalence
from bbnet.dynamics import EpidemicParams, count_infected_neighbours, run_sim, step
from bbnet.experiment import ExperimentConfig, run_experiment, run_sweep_to_dir
from bbnet.graph import Graph, NetworkParams, approx_diameter, degree_ccdf, fit_power_law, generate_ba
from bbnet.machines import (
    omega_enumerate,
    omega_monte_carlo,
    population_fitness,
    sample_programs,
    table_bits,
)
from bbnet.rng import rng_from_seed


pytestmark = pytest.mark.acceptance


def test_criterion_1_ba_topology():
    """N=1e5, m=2, 5 seeds: exponent in [2.6, 3.4], exact edge count, min degree m."""
    n, m = 100_000, 2
    expected_edges = 3 + m * (n - 3)
    for seed in range(5):
        t0 = time.perf_counter()
        g = generate_ba(NetworkParams(n=n, m=m, seed=seed))
        elapsed = time.perf_counter() - t0
        assert elapsed <= 10.0, f"seed {seed} took {elapsed:.1f}s"
        assert g.num_edges == expected_edges
        assert int(g.degrees.min()) == m
        fit = fit_power_law(degree_ccdf(g), k_min=2 * m)
        assert 2.6 <= fit.gamma_hat <= 3.4, f"seed {seed}: gamma {fit.gamma_hat:.3f}"
    record_criterion(1, "BA topology: exponent band, edge identity, min degree, <=10s/graph")


def degree_law_z(degrees, m, tail=40):
    """z = (chi2 - dof) / sqrt(2 dof) of the counts of degrees k = m..tail-1
    and k >= tail against N p(k), where p(k) = 2m(m+1) / (k(k+1)(k+2)) is BA
    growth's exact degree law at finite m (Dorogovtsev, Mendes & Samukhin,
    PRL 85, 4633, 2000), whose tail P(K >= k) is m(m+1) / (k(k+1))."""
    assert int(degrees.min()) >= m
    counts = np.bincount(np.minimum(degrees, tail), minlength=tail + 1)[m:]
    k = np.arange(m, tail, dtype=float)
    p = np.append(2 * m * (m + 1) / (k * (k + 1) * (k + 2)), m * (m + 1) / (tail * (tail + 1)))
    expected = len(degrees) * p
    dof = len(p) - 1
    return (float(((counts - expected) ** 2 / expected).sum()) - dof) / math.sqrt(2 * dof)


def test_criterion_1_exact_degree_law():
    """N 1e4 and 1e5, m 2 and 3, seeds 0-3: |z| <= 4 on every graph
    against the exact law (-1.20..+1.20 when set); uniform attachment fails it."""
    zs = []
    for n in (10_000, 100_000):
        for m in (2, 3):
            for seed in range(4):
                g = generate_ba(NetworkParams(n=n, m=m, seed=seed))
                zs.append(degree_law_z(g.degrees, m))
    assert max(abs(z) for z in zs) <= 4, [round(z, 2) for z in zs]
    # each new node joins m distinct nodes chosen uniformly, not by degree
    n, m = 10_000, 3
    rng = np.random.default_rng(0)
    uniform = np.full(n, m, dtype=np.int64)
    for j in range(m + 1, n):
        uniform[rng.choice(j, size=m, replace=False)] += 1
    assert degree_law_z(uniform, m) > 100
    record_criterion(1, f"BA exact degree law: |z| <= 4 on 16 graphs (max {max(map(abs, zs)):.2f})")


@pytest.mark.slow
def test_criterion_2_prevalence_shape():
    """N=1e4, m=3, delta=1: rho>0, increasing in nu, log-slope within 35% of -1/m."""
    t_start = time.perf_counter()
    n, m = 10_000, 3
    nus = [0.10, 0.15, 0.20, 0.25]
    n_seeds = 10
    mean_rho = []
    for nu in nus:
        vals = []
        for s in range(n_seeds):
            rng = rng_from_seed(10_000 * s + int(nu * 1000))
            g = generate_ba(NetworkParams(n=n, m=m, seed=s), rng)
            own = population_fitness(sample_programs(rng, n), "", 100)
            traj = run_sim(g, own, EpidemicParams(nu=nu, delta=1.0, rho0=0.2), 1200, rng)
            stat = detect_stationarity(traj.infected_density, window=100, tol=0.002)
            assert stat.fired, f"nu={nu} seed={s}: no stationarity within 1200 steps"
            vals.append(stat.rho_hat)
        assert min(vals) > 0.0, f"nu={nu}: prevalence died out"
        mean_rho.append(float(np.mean(vals)))

    assert all(a < b for a, b in zip(mean_rho, mean_rho[1:])), (
        f"prevalence not strictly increasing in nu: {mean_rho}"
    )
    inv_lambda = np.array([1.0 / nu for nu in nus])  # delta = 1
    slope = float(np.polyfit(inv_lambda, np.log(mean_rho), 1)[0])
    target = -1.0 / m
    assert 0.65 * abs(target) <= abs(slope) <= 1.35 * abs(target), (
        f"slope {slope:.4f} outside -1/m +-35%"
    )
    assert slope < 0
    elapsed = time.perf_counter() - t_start
    assert elapsed <= 600, f"criterion 2 exceeded 10 min: {elapsed:.0f}s"
    record_criterion(
        2, f"prevalence shape: rho increasing, ln-slope {slope:.3f} within -1/3 +-35%"
    )


def test_criterion_3_closed_form():
    """Reference value to 1e-9 and m*lambda functional identity over a 5x5 grid."""
    assert theoretical_prevalence(2, 0.5) == pytest.approx(0.735758882343, abs=1e-9)
    products = [0.25, 0.5, 1.0, 2.0, 4.0]
    for p in products:
        reference = theoretical_prevalence(1, p)
        for m in range(1, 6):
            assert theoretical_prevalence(m, p / m) == pytest.approx(reference, abs=1e-12)
    record_criterion(3, "closed-form prevalence: 2e^-1 value and m*lambda identity")


@pytest.mark.slow
def test_criterion_4_omega_oracle_equivalence():
    """K_max=2, T=1e3: MC(1e6) within 3 stderr of exact enumeration; Kraft; prefix-free."""
    t_start = time.perf_counter()
    k_max, t_max = 2, 1000

    enum = omega_enumerate(18, "", t_max, k_max=k_max)
    mc = omega_monte_carlo(10**6, "", t_max, rng_from_seed(4242), k_max=k_max)
    assert abs(mc.value - enum.value) <= 3 * mc.stderr, (
        f"MC {mc.value:.6f} vs enum {enum.value:.6f}, stderr {mc.stderr:.6f}"
    )

    assert kraft_sum(k_max) == Fraction(1)

    encodings = set()
    for k, t_int, _, _ in iter_encodings(k_max, 18):
        bits = format(t_int, f"0{table_bits(k)}b")
        encodings.add("1" * (k - 1) + "0" + bits)
        if k == k_max:
            encodings.add("1" * k + bits)
    assert len(encodings) == 64 + 2 * 65536
    for enc in encodings:
        if len(enc) > 7:
            assert enc[:7] not in encodings, "a short program prefixes a longer one"

    elapsed = time.perf_counter() - t_start
    assert elapsed <= 120, f"criterion 4 exceeded 2 min: {elapsed:.0f}s"
    record_criterion(
        4, f"omega oracles agree: |MC-enum| = {abs(mc.value - enum.value) / mc.stderr:.2f} stderr"
    )


def test_criterion_5_dynamics_oracle_and_busy_beaver():
    """Path-3 one-step distribution vs exact 8-outcome enumeration; BB(2) = 4."""
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    params = EpidemicParams(nu=0.5, delta=0.5)
    own = np.array([3, 7, 5], dtype=np.int64)
    infected = np.array([False, True, False])
    n_inf = count_infected_neighbours(g, infected)
    rng = rng_from_seed(777)
    n_trials = 100_000
    counts: dict[tuple, int] = {}
    for _ in range(n_trials):
        nxt, _, _ = step(g, params, own, infected, own, n_inf, rng.random((3, 3)))
        key = tuple(nxt.tolist())
        counts[key] = counts.get(key, 0) + 1
    # three independent fair flips -> 8 equally likely infected-set outcomes
    assert len(counts) == 8
    expected = n_trials / 8
    sigma = float(np.sqrt(n_trials * (1 / 8) * (7 / 8)))
    for key, c in counts.items():
        assert abs(c - expected) <= 3 * sigma, f"outcome {key}: {c} vs {expected:.0f}"

    best = 0
    for k, t_int, _, _ in iter_encodings(2, 18):
        if k != 2:
            continue
        out = outcome(table_from_int(2, t_int), "", 100)
        if out.halted:
            best = max(best, out.score)
    assert best == 4, f"two-state busy beaver brute force gave {best}"
    record_criterion(5, "dynamics one-step oracle within 3 sigma; BB(2) brute force = 4")


def headline_config(nu: float) -> ExperimentConfig:
    return ExperimentConfig(
        n_values=[100, 1000, 10_000],
        m_values=[3],
        nu_values=[nu],
        delta_values=[1.0],
        rho0=0.5,
        c_exponent=0.5,
        k_max=6,
        t_max=1000,
        t_max_steps=300,
        t0=1,
        stat_window=3,
        stat_tol=0.05,
        n_seeds=10,
        master_seed=2024,
        omega_method="monte-carlo",
        omega_samples=200_000,
    )


@pytest.mark.slow
def test_criterion_6_phase_transition_condition():
    """Headline sweep: condition per cell; eeac growth; nu=0 control is exactly 0."""
    t_start = time.perf_counter()
    records, summary = run_experiment(headline_config(nu=0.25))
    per_n = summary["per_n"]
    ns = sorted(int(x) for x in per_n)
    assert ns == [100, 1000, 10_000]

    cond_fraction = {n: per_n[str(n)]["condition_met_fraction"] for n in ns}
    condition_at_every_n = all(frac > 0.5 for frac in cond_fraction.values())

    medians = [per_n[str(n)]["median_eeac_proxy"] for n in ns]
    assert all(a <= b for a, b in zip(medians, medians[1:])), (
        f"median eeac proxy not non-decreasing: {medians}"
    )
    assert medians[-1] > 0.0, f"eeac proxy not positive at N=1e4: {medians[-1]}"

    control_records, control_summary = run_experiment(headline_config(nu=0.0))
    for rec in control_records:
        assert rec.report.eeac_proxy == 0.0, (
            f"control run N={rec.n} seed={rec.seed_index} gave eeac {rec.report.eeac_proxy}"
        )

    elapsed = time.perf_counter() - t_start
    assert elapsed <= 1800, f"criterion 6 exceeded 30 min: {elapsed:.0f}s"
    status = "holds" if condition_at_every_n else "does not hold"
    record_criterion(
        6,
        f"headline sweep: eeac medians {medians} non-decreasing, control exactly 0; "
        f"condition tau_E > omega {status} (fractions {cond_fraction})",
    )


def test_criterion_7_limit_case_protocol_recovery():
    """delta=0, nu=1, reimitation on: global max displayed everywhere within diameter-estimate steps."""
    for seed in range(3):
        rng = rng_from_seed(9000 + seed)
        g = generate_ba(NetworkParams(n=500, m=3, seed=seed), rng)
        d_est = approx_diameter(g)
        own = population_fitness(sample_programs(rng, 500), "", 500)
        params = EpidemicParams(nu=1.0, delta=0.0, rho0=1.0, reimitation=True)
        traj = run_sim(g, own, params, d_est, rng)
        assert traj.best_carrier_density[-1] == 1.0, f"seed {seed}: diffusion incomplete"
    record_criterion(7, "limit case nu=1, delta=0 recovers full imitation within diameter steps")


def test_criterion_8_determinism(tmp_path):
    """Identical config + master seed => byte-identical records.csv and summary.json."""
    config = ExperimentConfig(
        n_values=[60, 120],
        m_values=[2],
        nu_values=[0.3],
        delta_values=[1.0],
        rho0=0.2,
        k_max=3,
        t_max=200,
        t_max_steps=50,
        stat_window=3,
        stat_tol=0.05,
        n_seeds=3,
        master_seed=31,
        omega_method="enumerate",
        omega_max_len=18,
    )
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    run_sweep_to_dir(config, d1)
    run_sweep_to_dir(config, d2)
    assert (d1 / "records.csv").read_bytes() == (d2 / "records.csv").read_bytes()
    assert (d1 / "summary.json").read_bytes() == (d2 / "summary.json").read_bytes()
    record_criterion(8, "re-run with same master seed is byte-identical")

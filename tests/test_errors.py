"""The integer and real rules, ``errors.check_int`` and ``errors.check_real``, at each
argument outside the machine layer that passes them."""

import io
import re

import numpy as np
import pytest
from conftest import edges_oracle

from bbnet import experiment
from bbnet.analysis import c_of_N, complexity_proxy, detect_stationarity, theoretical_prevalence
from bbnet.dynamics import EpidemicParams, run_sim
from bbnet.errors import ParameterError
from bbnet.experiment import ExperimentConfig, run_experiment, run_sweep_to_dir
from bbnet.graph import (
    Graph,
    NetworkParams,
    degree_ccdf,
    fit_power_law,
    generate_ba,
    write_edge_list,
)
from bbnet.rng import rng_from_seed

GRAPH = generate_ba(NetworkParams(n=30, m=2, seed=3))
OWN = np.arange(30) % 7
SIS = EpidemicParams(nu=0.3, delta=0.5, rho0=0.2)
SERIES = np.linspace(0.5, 0.6, 40) ** 2


def config(**overrides):
    base = dict(n_values=[30], m_values=[2], nu_values=[0.3], delta_values=[1.0], rho0=0.2,
                k_max=2, t_max=100, t_max_steps=12, stat_window=3, stat_tol=0.05,
                master_seed=7, omega_method="enumerate")
    base.update(overrides)
    return ExperimentConfig(**base)


def no_omega(config):
    raise AssertionError("omega estimated before the worker count was checked")


# (argument name, call with that argument set to the value), one per place that
# asks the rule about an argument outside the machine layer.
SITES = [
    ("n", lambda v: NetworkParams(n=v, m=1)),
    ("m", lambda v: NetworkParams(n=10, m=v)),
    ("seed", lambda v: NetworkParams(n=10, m=2, seed=v)),
    ("n", lambda v: Graph.from_edges(v, [(0, 1)])),
    ("t_max_steps", lambda v: run_sim(GRAPH, OWN, SIS, v, rng_from_seed(1))),
    ("m", lambda v: theoretical_prevalence(v, 1.0)),
    ("window", lambda v: detect_stationarity(SERIES, v, 0.1)),
    ("N", lambda v: c_of_N(v, 0.5)),
    ("x", lambda v: complexity_proxy(v)),
    ("workers", lambda v: run_experiment(config(), workers=v)),
    ("k_min", lambda v: fit_power_law(degree_ccdf(GRAPH), v)),
    ("m", lambda v: write_edge_list(GRAPH, io.StringIO(), v, 0)),
    ("seed", lambda v: write_edge_list(GRAPH, io.StringIO(), 2, v)),
]
SITE_IDS = ["params-n", "params-m", "params-seed", "from_edges-n", "run_sim-t_max_steps",
            "prevalence-m", "stationarity-window", "c_of_N-N", "complexity-x",
            "run_experiment-workers", "fit_power_law-k_min", "write_edge_list-m",
            "write_edge_list-seed"]


@pytest.mark.parametrize("value", [2.0, True, "3"], ids=repr)
@pytest.mark.parametrize("name, call", SITES, ids=SITE_IDS)
def test_non_integer_refused_naming_the_argument(name, call, value, monkeypatch):
    monkeypatch.setattr(experiment, "estimate_omega", no_omega)
    with pytest.raises(ParameterError, match=f"^need an integer {name}, got {value!r}$"):
        call(value)


# (argument name, call with that argument set to the value), one per place that
# asks the real rule about an argument before its range check.
REAL_SITES = [
    ("C", lambda v: c_of_N(10, v)),
    ("tol", lambda v: detect_stationarity(SERIES, 3, v)),
    ("lambda", lambda v: theoretical_prevalence(3, v)),
]


@pytest.mark.parametrize("value", [True, "0.5", None], ids=repr)
@pytest.mark.parametrize("name, call", REAL_SITES, ids=["c_of_N-C", "stationarity-tol",
                                                        "prevalence-lambda"])
def test_non_real_refused_naming_the_argument(name, call, value):
    # "0.5" and None raised TypeError at the range check, and c_of_N took True as 1
    message = re.escape(f"need a real number {name}, got {value!r}")
    with pytest.raises(ParameterError, match=f"^{message}$"):
        call(value)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: generate_ba(NetworkParams(n=100.0, m=2)), "need an integer n, got 100.0"),
        (lambda: generate_ba(NetworkParams(n=10, m=2, seed=1.5)),
         "need an integer seed, got 1.5"),
        (lambda: generate_ba(NetworkParams(n=10, m=2, seed=True)),
         "need an integer seed, got True"),
        (lambda: run_sim(GRAPH, OWN, SIS, 2.5, rng_from_seed(0)),
         "need an integer t_max_steps, got 2.5"),
        (lambda: run_sim(GRAPH, OWN, SIS, True, rng_from_seed(0)),
         "need an integer t_max_steps, got True"),
        (lambda: detect_stationarity(SERIES, 2.5, 0.1), "need an integer window, got 2.5"),
        (lambda: c_of_N(True, 0.5), "need an integer N, got True"),
        (lambda: c_of_N(100.5, 0.5), "need an integer N, got 100.5"),
        (lambda: complexity_proxy(3.5), "need an integer x, got 3.5"),
        (lambda: theoretical_prevalence(2.5, 1.0), "need an integer m, got 2.5"),
        (lambda: run_experiment(config(), workers=1.5), "need an integer workers, got 1.5"),
    ],
    ids=["generate_ba-n-float", "generate_ba-seed-float", "generate_ba-seed-bool", "run_sim-steps-float", "run_sim-steps-bool",
         "stationarity-window-float", "c_of_N-bool", "c_of_N-float", "complexity-float",
         "prevalence-m-float", "workers-float"],
)
def test_inputs_that_used_to_pass_or_crash(call, message, monkeypatch):
    # each of these raised TypeError or IndexError, or ran, before the rule covered it
    monkeypatch.setattr(experiment, "estimate_omega", no_omega)
    with pytest.raises(ParameterError, match=f"^{message}$"):
        call()


def test_workers_checked_before_the_out_dir_is_made(tmp_path, monkeypatch):
    monkeypatch.setattr(experiment, "estimate_omega", no_omega)
    out = tmp_path / "out"
    with pytest.raises(ParameterError, match="^need an integer workers, got 2.0$"):
        run_sweep_to_dir(config(), out, workers=2.0)
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(t_max_steps=0), "need t_max_steps >= 1, got 0"),
        (dict(n_seeds=0), "need n_seeds >= 1, got 0"),
        (dict(omega_samples=0), "need omega_samples >= 1, got 0"),
        (dict(omega_max_len=-5), "need omega_max_len >= 0, got -5"),
        (dict(omega_max_len=27), "need omega_max_len < 27, got 27"),
    ],
    ids=["t_max_steps", "n_seeds", "omega_samples", "omega_max_len-negative",
         "omega_max_len-past-guard"],
)
def test_config_rules_read_as_the_rule(overrides, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        config(**overrides)
    with pytest.raises(ParameterError, match=f"^{message}$"):
        config(omega_method="monte-carlo", **overrides)


class TestNumpyIntegers:
    """An np.int64 argument gives what the equal int gives, as a Python int."""

    def test_graph(self):
        params = NetworkParams(n=np.int64(200), m=np.int64(3), seed=5)
        assert type(params.n) is int and type(params.m) is int
        wide, plain = generate_ba(params), generate_ba(NetworkParams(n=200, m=3, seed=5))
        assert np.array_equal(wide.indptr, plain.indptr)
        assert np.array_equal(wide.indices, plain.indices)
        edges = edges_oracle(plain)
        again = Graph.from_edges(np.int64(200), edges)
        assert type(again.n) is int
        assert np.array_equal(again.indices, plain.indices)

    def test_trajectory(self):
        wide = run_sim(GRAPH, OWN, SIS, np.int64(25), rng_from_seed(2))
        plain = run_sim(GRAPH, OWN, SIS, 25, rng_from_seed(2))
        for name in ("infected_density", "best_carrier_density", "max_displayed"):
            assert np.array_equal(getattr(wide, name), getattr(plain, name))

    def test_analysis(self):
        assert c_of_N(np.int64(1000), 0.5) == c_of_N(1000, 0.5) == 32
        assert type(c_of_N(np.int64(100), 0.5)) is int
        assert complexity_proxy(np.int64(5)) == 3
        assert type(complexity_proxy(np.int64(5))) is int
        assert theoretical_prevalence(np.int64(2), 0.5) == theoretical_prevalence(2, 0.5)
        assert detect_stationarity(SERIES, np.int64(4), 0.1) == detect_stationarity(SERIES, 4, 0.1)

    def test_workers(self):
        cfg = config()
        assert run_experiment(cfg, workers=np.int64(1))[1] == run_experiment(cfg, workers=1)[1]

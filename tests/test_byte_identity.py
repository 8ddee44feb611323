"""Byte-identity pins: SHA-256 of the artifacts of four fixed sweeps, one
simulate and one gen-graph.

Run-to-run determinism (acceptance criterion 8) cannot show that a refactor
kept the outputs; these digests can. Sweep A is criterion 8's config. Sweep B
covers the other branches: a non-empty input w, delta < 1, a Monte-Carlo omega
estimate, reimitation and infected-only imitation. Sweep C samples 2000
programs with k_max=6 per run, so its programs reach past the first 4096-bit
block of the Generator's bit stream. Sweep D carries infected nodes from
step to step without either protocol flag: delta 0 (no node is cured) and
delta 0.3 (some nodes stay infected). The gen-graph pin covers the edge-list
writer: a 5000-node BA graph with m=3 has about 15,000 edges, all written
from one array chunk. A change that alters any digest changes
output bytes and must say why. `bbnet omega` on the configs of sweeps A and
B must print the omega_hat that the sweep writes to summary.json.

The digests rest on numpy Generator methods, whose algorithms numpy may
change between releases while PCG64's raw stream stays fixed. The stream
canary checks the four draws the pins rest on: it rebuilds program bits and
step uniforms from the raw stream, draws the BA picks' array-bounded
integers against one scalar call per bound, and compares the initial
infected sets' sample without replacement with digests recorded on numpy
2.4.6. A numpy that changes any of them fails with the method's name rather
than only an opaque digest mismatch.

Every run of the four sweeps is also rebuilt from the slow oracles of the
other test modules, composed in the documented draw order, and compared
with ``simulate_cell`` array for array.
"""

import hashlib
import json

import numpy as np
import pytest
from test_analysis import stationarity_oracle
from test_dynamics import _step_reference
from test_graph import _generate_ba_reference
from test_machines import reference_decode, reference_run

from bbnet.analysis import c_of_N
from bbnet.cli import main
from bbnet.dynamics import EpidemicParams
from bbnet.experiment import ExperimentConfig, simulate_cell
from bbnet.graph import NetworkParams
from bbnet.rng import derive_seed, rng_from_seed

SWEEP_A = dict(
    n_values=[60, 120], m_values=[2], nu_values=[0.3], delta_values=[1.0],
    rho0=0.2, k_max=3, t_max=200, t_max_steps=50, stat_window=3, stat_tol=0.05,
    n_seeds=3, master_seed=31, omega_method="enumerate", omega_max_len=18,
)
SWEEP_B = dict(
    SWEEP_A, delta_values=[0.5], w="101", n_seeds=2, master_seed=7,
    omega_method="monte-carlo", omega_samples=2000,
    reimitation=True, imitate_infected_only=True,
)
SWEEP_C = dict(
    n_values=[2000], m_values=[3], nu_values=[0.25], delta_values=[1.0],
    rho0=0.2, k_max=6, t_max=200, t_max_steps=50, stat_window=3, stat_tol=0.05,
    n_seeds=2, master_seed=5, omega_method="monte-carlo", omega_samples=2000,
)
SWEEP_D = dict(SWEEP_A, delta_values=[0.0, 0.3], n_seeds=2, master_seed=11)
SWEEPS = {"A": SWEEP_A, "B": SWEEP_B, "C": SWEEP_C, "D": SWEEP_D}

PINS = {
    "A": {
        "records.csv": "e3f69ed48669c9909dc3df64e7e43a4ee59604d488d30f0b54affe8c91a84fe5",
        "summary.json": "90ab9d110ae80ec81c06ab627e68fb65cf5b8307e0fca4a38ebad2382ca797d1",
    },
    "B": {
        "records.csv": "2d2f2c829cb91160c8b83ff90cc021806f61287d62139ed9d32aa0c7cf7a5818",
        "summary.json": "9e847b25bc9352c3a712be3e944bf979b5fb283e5e7d96af248a42d796651c44",
    },
    "C": {
        "records.csv": "403824170c2c20be18fa011e51a55859bf2321e17b0599b50234c2b8fb574315",
        "summary.json": "bb349360756a11a6901e37783cb3bf4f745f3f196f2d1feea1089cfa18c64f2d",
    },
    "D": {
        "records.csv": "d007fe8813faaaace228c070fad3f2302c820dc1befbabf39b5b8a485ec2bc4e",
        "summary.json": "8a4f2ce8c82018c17960f10265fbfcbdd349fedce5e9342d3e5116e011ddceeb",
    },
}
# sha256 of choice(n, k, replace=False) over CHOICE_SIZES, then one raw word, drawn
# by test_stream_canary after its other draws
CHOICE_SIZES = ((1, 1), (60, 12), (120, 24), (10000, 1000), (20000, 100), (100000, 10000))
CHOICE_DIGESTS = {
    0: "59d354ec9eeeeb01e8df3db370ac345c8aacda48625b3be7d55184c4849eed4e",
    7: "b4b565b259d9f2a469792827c088d95ed3ce61e6c5842dea678338c374f42bd8",
    31: "937ae3b7075264a2bc9bd9d00f006aeebc7c5fed9b27be6b55a1c752645d28d3",
    2**64 - 1: "9a9aa4c9d6108515344077b80dbe67374486316946af1bcc7be9bf3d3c6c5500",
}
SIMULATE_B = "127f6538e6e00caa0c671dc7dcc3797e3185aac503ea96d611a2b2223d16af7b"
GEN_GRAPH = "1e55ecfd052484de8f35594b46da111443e12f1c115cc006cc720af4fe188dbb"


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("name, cfg", SWEEPS.items())
def test_sweep_artifacts_pinned(tmp_path, name, cfg):
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
    assert {f: sha256(out / f) for f in PINS[name]} == PINS[name]


@pytest.mark.parametrize("seed_words", [[], ["--seed", "3"]], ids=["master-seed", "seed-3"])
@pytest.mark.parametrize("name, cfg", [("A", SWEEP_A), ("B", SWEEP_B)])
def test_omega_is_the_sweeps_omega(tmp_path, capsys, name, cfg, seed_words):
    # pin A's enumeration and pin B's Monte-Carlo stream, each with and without --seed
    config = str(write_config(tmp_path, cfg))
    out = tmp_path / "out"
    assert main(["sweep", "--config", config, "--out", str(out), *seed_words]) == 0
    capsys.readouterr()
    assert main(["omega", "--config", config, *seed_words]) == 0
    value = json.loads(capsys.readouterr().out)["value"]
    assert round(value, 9) == json.loads((out / "summary.json").read_text())["omega_hat"]


def test_simulate_trajectory_pinned(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--config", str(write_config(tmp_path, SWEEP_B)), "--out", str(out)]) == 0
    assert sha256(out) == SIMULATE_B


def test_gen_graph_edge_list_pinned(tmp_path):
    out = tmp_path / "graph.edges"
    assert main(["gen-graph", "--n", "5000", "--m", "3", "--seed", "9", "--out", str(out)]) == 0
    assert sha256(out) == GEN_GRAPH


def _same_state(gen, twin):
    # uinteger is stale while has_uint32 is 0, so it is not compared
    g, t = gen.bit_generator.state, twin.bit_generator.state
    return g["state"] == t["state"] and g["has_uint32"] == t["has_uint32"]


@pytest.mark.parametrize("seed", [0, 7, 31, 2**64 - 1])
def test_stream_canary(seed):
    # each Generator draw against the same draw rebuilt from a twin's raw words
    gen, twin = rng_from_seed(seed), rng_from_seed(seed)
    for n in (1, 3, 1000):
        uniforms = gen.random(n)
        rebuilt = (twin.bit_generator.random_raw(n) >> np.uint64(11)) * 2.0**-53
        assert np.array_equal(uniforms, rebuilt), "Generator.random no longer draws (raw >> 11) * 2**-53"
        assert _same_state(gen, twin), "Generator.random no longer takes one raw word per uniform"
        bits = gen.integers(0, 2, 4096, dtype=np.uint8)
        rebuilt = twin.bit_generator.random_raw(512).view(np.uint8) >> 7
        assert np.array_equal(bits, rebuilt), (
            "Generator.integers(0, 2, dtype=uint8) no longer draws bit 7 of each raw byte"
        )
        assert _same_state(gen, twin), (
            "Generator.integers(0, 2, 4096, dtype=uint8) no longer takes 512 raw words"
        )
    bounds = np.array([1, 2, 3, 7, 1000, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**40, 2**63 - 1] * 3)
    picks = gen.integers(0, bounds)
    one_by_one = [twin.integers(0, int(b)) for b in bounds]
    assert np.array_equal(picks, one_by_one), (
        "Generator.integers(0, bounds) over an array no longer draws as one scalar call per bound"
    )
    assert _same_state(gen, twin), (
        "Generator.integers(0, bounds) over an array no longer takes the scalar calls' words"
    )
    digest = hashlib.sha256()
    for n, k in CHOICE_SIZES:
        digest.update(gen.choice(n, k, replace=False).astype(np.int64).tobytes())
    digest.update(gen.bit_generator.random_raw(1).tobytes())
    assert digest.hexdigest() == CHOICE_DIGESTS[seed], (
        "Generator.choice(n, k, replace=False) no longer draws the sample recorded on numpy 2.4.6"
    )


def _bits(rng):
    """The Generator's fair bits, one 4096-bit block drawn only when a bit is needed."""
    while True:
        yield from rng.integers(0, 2, 4096, dtype=np.uint8).tolist()


def _oracle_run(config, cell_index, seed_index):
    """``simulate_cell`` rebuilt from the slow oracles, drawing in the same order."""
    n, m, nu, delta = config.cells()[cell_index]
    seed = derive_seed(config.master_seed, cell_index, seed_index)
    rng = rng_from_seed(seed)
    g = _generate_ba_reference(NetworkParams(n=n, m=m, seed=seed), rng)
    bits = _bits(rng)
    own = np.array([reference_run(reference_decode(bits, config.k_max), config.w, config.t_max).score
                    for _ in range(n)], dtype=np.int64)
    params = EpidemicParams(nu, delta, config.rho0, config.reimitation,
                            config.imitate_infected_only)
    infected = np.zeros(n, dtype=bool)
    infected[rng.choice(n, max(1, round(config.rho0 * n)), replace=False)] = True
    carried, n_inf = own.copy(), None  # the oracle step counts neighbours itself
    rows = []
    for t in range(max(config.t_max_steps, c_of_N(n, config.c_exponent)) + 1):
        if t > 0:
            infected, carried, n_inf = _step_reference(
                g, params, own, infected, carried, n_inf, rng.random((n, 3))
            )
        rows.append((infected.sum() / n, (carried == own.max()).sum() / n, carried.max()))
    return own, [np.array(column) for column in zip(*rows)]


ORACLE_RUNS = [
    (name, cell, seed)
    for name, cfg in SWEEPS.items()
    for cell in range(len(ExperimentConfig(**cfg).cells()))
    for seed in range(cfg["n_seeds"])
]


@pytest.mark.parametrize("name, cell, seed", ORACLE_RUNS,
                         ids=[f"{n}-cell{c}-seed{s}" for n, c, s in ORACLE_RUNS])
def test_oracles_composed_reproduce_simulate_cell(name, cell, seed):
    config = ExperimentConfig(**SWEEPS[name])
    own, _, traj, stat = simulate_cell(config, cell, seed)
    ref_own, ref_series = _oracle_run(config, cell, seed)
    assert np.array_equal(own, ref_own)
    for got, ref in zip(
        (traj.infected_density, traj.best_carrier_density, traj.max_displayed), ref_series
    ):
        assert np.array_equal(got, ref)
    # A window gap that equals tol in exact arithmetic is a tie, and each sum's
    # rounding decides it: the detector's cumsum and the oracle's loop may read
    # it on opposite sides (A cell 0 seed 1 and D cell 1 seed 0 tie at t = 8).
    # There the detector must agree with the oracle run just below or above tol;
    # away from a tie the three oracle runs give one verdict.
    series = ref_series[0].tolist()
    verdicts = {
        (t_s, None if rho_hat is None else f"{rho_hat:.9f}")
        for t_s, rho_hat, _ in (
            stationarity_oracle(series, config.stat_window, config.stat_tol + d)
            for d in (-1e-9, 0.0, 1e-9)
        )
    }
    assert (stat.t_s, None if stat.rho_hat is None else f"{stat.rho_hat:.9f}") in verdicts

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
canary rebuilds the two draws behind program bits and step uniforms from
the raw stream, so a numpy that changes either fails with the method's name
rather than only an opaque digest mismatch.
"""

import hashlib
import json

import numpy as np
import pytest

from bbnet.cli import main
from bbnet.rng import rng_from_seed

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
SIMULATE_B = "127f6538e6e00caa0c671dc7dcc3797e3185aac503ea96d611a2b2223d16af7b"
GEN_GRAPH = "1e55ecfd052484de8f35594b46da111443e12f1c115cc006cc720af4fe188dbb"


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize(
    "name, cfg", [("A", SWEEP_A), ("B", SWEEP_B), ("C", SWEEP_C), ("D", SWEEP_D)]
)
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

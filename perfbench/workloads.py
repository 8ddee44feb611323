"""The four workloads, as the parts a benchmark pass runs in fresh interpreters.

Why each exists (see README.md for the expected moves):

* ``headline``  -- configs/headline.json through ``bbnet sweep``: the users'
  mix of interpreter, dynamics and graph growth, scaled to fit a run.
* ``prevalence`` -- a criterion-2 sweep at t_max=100: dynamics-bound, and
  the no-change control for interpreter work.
* ``halting_mass`` -- Monte-Carlo and exact Omega in separate interpreters,
  so neither starts with the other's memo warm: interpreter only.
* ``topology`` -- BA growth, degree fit, diameter and edge-list round trip
  at N=1e5: graph only.

A part's ``prepare`` is set-up (inputs ready); ``work`` is the timed region;
``checks`` runs after it.
"""

from __future__ import annotations

import json
from pathlib import Path

import gate

# headline.json takes 33 s on one core of a 2-vCPU Intel Xeon VM; these two
# fields scale it to about 7 s so that several passes fit in one run. Every
# other field, including the three population sizes, is kept.
HEADLINE_SCALE = {"n_seeds": 2, "omega_samples": 40_000}

PREVALENCE = {
    "n_values": [10_000], "m_values": [3], "nu_values": [0.10, 0.25],
    "delta_values": [1.0], "rho0": 0.2, "c_exponent": 0.5, "k_max": 6,
    "t_max": 100, "w": "", "t_max_steps": 1200, "t0": 1,
    "stat_window": 100, "stat_tol": 0.002, "n_seeds": 1,
    "omega_method": "monte-carlo", "omega_samples": 1000,
}

OMEGA = {"k_max": 6, "t_max": 1000, "mc_samples": 50_000, "max_len": 18}
TOPOLOGY = {"n": 100_000, "m": 2}


class SweepPart:
    """A config sweep driven through ``bbnet.cli.main``, as a user runs it."""

    def __init__(self, workload: str, root: Path, workdir: Path, seed: int):
        self.workload, self.root, self.workdir, self.seed = workload, root, workdir, seed

    def prepare(self) -> None:
        if self.workload == "headline":
            config = json.loads((self.root / "configs" / "headline.json").read_text())
            config.update(HEADLINE_SCALE)
            config["master_seed"] += self.seed
        else:
            config = dict(PREVALENCE, master_seed=self.seed)
        self.config = config
        self.config_path = self.workdir / "config.json"
        self.config_path.write_text(json.dumps(config))
        self.out_dir = self.workdir / "out"

    def work(self) -> None:
        from bbnet import cli

        self.status = cli.main(
            ["sweep", "--config", str(self.config_path), "--out", str(self.out_dir)]
        )

    def checks(self) -> list:
        c = self.config
        n_rows = (len(c["n_values"]) * len(c["m_values"]) * len(c["nu_values"])
                  * len(c["delta_values"]) * c["n_seeds"])
        return [gate.check("sweep_exit_code", self.status == 0, str(self.status))] + gate.check_sweep(
            self.workload, self.seed, self.out_dir, c["n_values"], n_rows
        )

    def outputs(self) -> dict:
        return {}


class OmegaPart:
    """One halting-mass estimator: ``mc`` (Monte Carlo) or ``enum`` (exact)."""

    def __init__(self, method: str, seed: int):
        self.method, self.seed = method, seed

    def prepare(self) -> None:
        from bbnet.rng import rng_from_seed

        self.rng = rng_from_seed(self.seed)

    def work(self) -> None:
        from bbnet import machines

        p = OMEGA
        if self.method == "mc":
            self.est = machines.omega_monte_carlo(p["mc_samples"], "", p["t_max"], self.rng, p["k_max"])
        else:
            self.est = machines.omega_enumerate(p["max_len"], "", p["t_max"], p["k_max"])

    def checks(self) -> list:
        return []

    def outputs(self) -> dict:
        e = self.est
        return {"value": e.value, "stderr": e.stderr, "n_samples": e.n_samples,
                "numerator": e.numerator, "max_len": e.l_max}


class TopologyPart:
    """Grow, fit, measure and round-trip one BA graph through a file."""

    def __init__(self, workdir: Path, seed: int):
        self.workdir, self.seed = workdir, seed

    def prepare(self) -> None:
        from bbnet.graph import NetworkParams

        self.params = NetworkParams(n=TOPOLOGY["n"], m=TOPOLOGY["m"], seed=self.seed)
        self.path = self.workdir / "graph.edges"

    def work(self) -> None:
        from bbnet import graph

        m = self.params.m
        self.g = graph.generate_ba(self.params)
        self.fit = graph.fit_power_law(graph.degree_ccdf(self.g), k_min=2 * m)
        self.diameter = graph.approx_diameter(self.g)
        with open(self.path, "w") as fh:
            graph.write_edge_list(self.g, fh, m, self.seed)
        with open(self.path) as fh:
            self.g_read, _ = graph.read_edge_list(fh)

    def checks(self) -> list:
        return gate.check_topology(
            self.seed, self.params.n, self.params.m, self.g, self.g_read,
            self.fit.gamma_hat, self.diameter, self.path,
        )

    def outputs(self) -> dict:
        return {"diameter": self.diameter}


WORKLOADS = {
    "headline": ("sweep",),
    "prevalence": ("sweep",),
    "halting_mass": ("mc", "enum"),
    "topology": ("graph",),
}


def make_part(workload: str, part: str, root: Path, workdir: Path, seed: int):
    if workload in ("headline", "prevalence"):
        return SweepPart(workload, root, workdir, seed)
    if workload == "halting_mass":
        return OmegaPart(part, seed)
    return TopologyPart(workdir, seed)


def pass_checks(workload: str, seed: int, outputs: dict) -> list:
    """Checks that need every part of a pass (the parts run in separate processes)."""
    if workload == "halting_mass":
        return gate.check_halting_mass(seed, outputs["mc"], outputs["enum"])
    return []

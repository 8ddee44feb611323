"""Sweep orchestration: grid x seeds -> records.csv / summary.json.

Every run derives its own 64-bit seed from (master seed, cell index, seed
index), so cells and repeats can execute in parallel without changing a
single output byte. Records are buffered and written sorted by (cell, seed).
Wall-clock durations are intentionally kept out of records.csv (they would
break byte-for-byte reproducibility) and go to timings.csv instead, beside
each run's seed: ``bbnet gen-graph`` with it writes the run's graph.

Each schema is written down once. ExperimentConfig's annotations give each
field's kind, which validate checks on load, and the fields without a
default are the required keys. _RECORD_SCHEMA lists the records.csv columns
in order, and writing a row goes through it.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from statistics import median
from operator import attrgetter
from typing import Sequence, TextIO

import numpy as np

from . import __version__
from .analysis import (EmergenceReport, StationarityResult, c_of_N, detect_stationarity,
                       emergence_report)
from .dynamics import EpidemicParams, Trajectory, run_sim
from .errors import ParameterError, check_int
from .graph import NetworkParams, generate_ba
from .machines import (
    ENUM_LENGTH_GUARD,
    K_MAX_DEFAULT,
    T_MAX_DEFAULT,
    OmegaEstimate,
    check_input,
    omega_enumerate,
    omega_monte_carlo,
    population_fitness,
    sample_programs,
)
from .rng import OMEGA_STREAM_TAG, derive_seed, rng_from_seed

OMEGA_METHODS = ("enumerate", "monte-carlo")

# Annotation of a scalar config field -> (accepted types, wording for errors).
# A list[...] field is a nonempty list of that kind. JSON true/false load as
# bool, a subclass of int, so only a bool field accepts them.
_KINDS = {
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "str": (str, "a string"),
    "bool": (bool, "true or false"),
}


def _is_kind(x, kind: str) -> bool:
    if kind.startswith("list["):
        return (isinstance(x, (list, tuple)) and len(x) > 0
                and all(_is_kind(v, kind[5:-1]) for v in x))
    return isinstance(x, _KINDS[kind][0]) and (kind == "bool" or not isinstance(x, bool))


def _describe(kind: str) -> str:
    if kind.startswith("list["):
        return f"a nonempty list, each entry {_describe(kind[5:-1])}"
    return _KINDS[kind][1]


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep, echoed into summary.json. Frozen: checked when made and by
    dataclasses.replace. The grid lists are stored as tuples, so that no
    change in place can get round the check; ``to_dict`` writes them as lists."""

    n_values: list[int]
    m_values: list[int]
    nu_values: list[float]
    delta_values: list[float]
    rho0: float = 0.1
    c_exponent: float = 0.5
    k_max: int = K_MAX_DEFAULT
    t_max: int = T_MAX_DEFAULT
    w: str = ""
    t_max_steps: int = 2000
    t0: int = 1
    stat_window: int = 100
    stat_tol: float = 0.002
    n_seeds: int = 1
    master_seed: int = 0
    omega_method: str = "monte-carlo"
    omega_max_len: int = 18
    omega_samples: int = 100_000
    reimitation: bool = False
    imitate_infected_only: bool = False

    def __post_init__(self) -> None:
        self.validate()  # first, so that its messages show each value as given
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type.startswith("list[") and isinstance(value, list):
                object.__setattr__(self, f.name, tuple(value))

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not _is_kind(value, f.type):
                raise ParameterError(f"{f.name} must be {_describe(f.type)}, got {value!r}")
        # Each rule on a parameter that a layer owns is checked by asking that
        # layer, so its message is the layer's own.
        for n, m in itertools.product(self.n_values, self.m_values):
            NetworkParams(n=n, m=m)
        for nu, delta in itertools.product(self.nu_values, self.delta_values):
            EpidemicParams(nu=nu, delta=delta, rho0=self.rho0)
        n_min = min(self.n_values)
        c_min = c_of_N(n_min, self.c_exponent)
        detect_stationarity((), self.stat_window, self.stat_tol)
        check_int("k_max", self.k_max, 1)
        check_input(self.w, self.t_max)
        # The rules below belong to the sweep, or their layer checks them
        # only inside the call that does the work.
        check_int("t_max_steps", self.t_max_steps, 1)
        if not 0 <= self.t0 < c_min:
            raise ParameterError(
                f"t0 must lie in [0, c(N)) for every N, got t0={self.t0}, c({n_min})={c_min}"
            )
        check_int("n_seeds", self.n_seeds, 1)
        if self.omega_method not in OMEGA_METHODS:
            raise ParameterError(
                f"omega_method must be one of {OMEGA_METHODS}, got {self.omega_method!r}"
            )
        check_int("omega_max_len", self.omega_max_len, 0, ENUM_LENGTH_GUARD + 1)
        check_int("omega_samples", self.omega_samples, 1)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ParameterError(f"unknown config keys: {sorted(unknown)}")
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(data)
        if missing:
            raise ParameterError(f"missing required config keys: {sorted(missing)}")
        return cls(**data)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            data = json.loads(Path(path).read_text())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ParameterError(f"config is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ParameterError("config must be a JSON object")
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}

    def cells(self) -> list[tuple[int, int, float, float]]:
        """Grid cells in sweep order: product of N, m, nu, delta values."""
        return list(
            itertools.product(self.n_values, self.m_values, self.nu_values, self.delta_values)
        )


@dataclass
class RunRecord:
    """One (cell, seed) result plus its wall-clock duration."""

    cell_index: int
    seed_index: int
    n: int
    m: int
    nu: float
    delta: float
    lam: float
    c_exponent: float
    report: EmergenceReport
    duration_s: float

    def csv_row(self) -> str:
        return ",".join(to_text(attrgetter(attr)(self)) for _, attr, to_text in _RECORD_SCHEMA)


_f9 = "{:.9f}".format

# records.csv, one entry per column in order: (header, attribute of the
# RunRecord, with "report." for its EmergenceReport, value -> text). A
# stationarity detector that never fired writes t_s as -1 and rho_hat as nan,
# and a delta = 0 cell writes lambda as inf.
_RECORD_SCHEMA = [
    ("N", "n", str),
    ("m", "m", str),
    ("nu", "nu", _f9),
    ("delta", "delta", _f9),
    ("lambda", "lam", _f9),
    ("C", "c_exponent", _f9),
    ("c_of_N", "report.c_of_n", str),
    ("t_s", "report.t_s", lambda v: "-1" if v is None else str(v)),
    ("rho_hat", "report.rho_hat", lambda v: "nan" if v is None else _f9(v)),
    ("rho_theory", "report.rho_theory", _f9),
    ("tau_E", "report.tau_e", _f9),
    ("omega_hat", "report.omega_hat", _f9),
    ("condition_met", "report.condition_met", lambda v: "true" if v else "false"),
    ("c_best", "report.c_best", str),
    ("c_bar_isolated", "report.c_bar_isolated", _f9),
    ("eeac_proxy", "report.eeac_proxy", _f9),
]
RECORD_COLUMNS = [header for header, _, _ in _RECORD_SCHEMA]


def estimate_omega(config: ExperimentConfig) -> OmegaEstimate:
    """The config's one omega estimate: it does not depend on the grid cell.

    The only place that picks the estimator and seeds it, for a sweep and
    for ``bbnet omega`` alike.
    """
    if config.omega_method == "enumerate":
        return omega_enumerate(
            config.omega_max_len, config.w, config.t_max, config.k_max
        )
    rng = rng_from_seed(derive_seed(config.master_seed, OMEGA_STREAM_TAG, 0))
    return omega_monte_carlo(
        config.omega_samples, config.w, config.t_max, rng, config.k_max
    )


def simulate_cell(
    config: ExperimentConfig, cell_index: int, seed_index: int
) -> tuple[np.ndarray, EpidemicParams, Trajectory, StationarityResult]:
    """One run of one grid cell: (own fitness, SIS params, trajectory, stationarity).

    The one place that sets a run's length, max(t_max_steps, c(N)) steps, and
    its stationarity verdict, for ``bbnet sweep`` and ``bbnet simulate`` alike.
    The run's Generator is drawn in a fixed order: graph growth, program bits,
    initial infected set, step uniforms; scoring draws nothing. The graph is
    the one ``bbnet gen-graph --n N --m m --seed S`` writes, with S the run's
    ``derive_seed(master_seed, cell_index, seed_index)``.
    """
    n, m, nu, delta = config.cells()[cell_index]
    seed = derive_seed(config.master_seed, cell_index, seed_index)
    rng = rng_from_seed(seed)
    g = generate_ba(NetworkParams(n=n, m=m, seed=seed), rng)
    own = population_fitness(sample_programs(rng, n, config.k_max), config.w, config.t_max)
    params = EpidemicParams(
        nu=nu,
        delta=delta,
        rho0=config.rho0,
        reimitation=config.reimitation,
        imitate_infected_only=config.imitate_infected_only,
    )
    steps = max(config.t_max_steps, c_of_N(n, config.c_exponent))
    traj = run_sim(g, own, params, steps, rng)
    stat = detect_stationarity(traj.infected_density, config.stat_window, config.stat_tol)
    return own, params, traj, stat


def run_cell_seed(
    config: ExperimentConfig,
    cell_index: int,
    seed_index: int,
    omega_hat: float,
) -> RunRecord:
    """Score one grid cell's run with one derived seed (``simulate_cell``) against omega_hat."""
    n, m, nu, delta = config.cells()[cell_index]
    started = time.perf_counter()
    own, params, traj, stat = simulate_cell(config, cell_index, seed_index)
    lam = params.spreading_rate
    report = emergence_report(
        traj, omega_hat, m, lam, n, config.c_exponent, config.t0, own, stat
    )
    return RunRecord(
        cell_index=cell_index,
        seed_index=seed_index,
        n=n,
        m=m,
        nu=nu,
        delta=delta,
        lam=lam,
        c_exponent=config.c_exponent,
        report=report,
        duration_s=time.perf_counter() - started,
    )


def run_experiment(
    config: ExperimentConfig, workers: int = 1
) -> tuple[list[RunRecord], dict]:
    """Run the full grid; returns records sorted by (cell, seed) and the summary."""
    workers = check_int("workers", workers, 1)
    omega_hat = estimate_omega(config).value
    cells, seeds = zip(*itertools.product(range(len(config.cells())), range(config.n_seeds)))
    args = (itertools.repeat(config), cells, seeds, itertools.repeat(omega_hat))
    workers = min(workers, len(cells))  # a pool starts all its workers at its first submit
    if workers > 1:
        # imported here: the pool's modules cost every other call their load time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(run_cell_seed, *args))
    else:
        records = list(map(run_cell_seed, *args))
    records.sort(key=lambda r: (r.cell_index, r.seed_index))
    return records, summarize(records, config)


def _round9(x: float) -> float:
    return round(x, 9)


def summarize(records: Sequence[RunRecord], config: ExperimentConfig) -> dict:
    """Per-N aggregation: median eeac proxy and condition_met fraction, with the
    config and omega_hat echoed for provenance.

    Order-independent: records are grouped by N regardless of input order.
    """
    by_n: dict[int, list[RunRecord]] = {}
    for rec in records:
        by_n.setdefault(rec.n, []).append(rec)
    per_n = {}
    for n in sorted(by_n):
        group = by_n[n]
        per_n[str(n)] = {
            "n_records": len(group),
            "median_eeac_proxy": _round9(median(r.report.eeac_proxy for r in group)),
            "median_tau_E": _round9(median(r.report.tau_e for r in group)),
            "condition_met_fraction": _round9(
                sum(1 for r in group if r.report.condition_met) / len(group)
            ),
        }
    return {"version": __version__, "per_n": per_n, "n_records": len(records),
            "config": config.to_dict(),
            "omega_hat": _round9(records[0].report.omega_hat) if records else None}


def write_records_csv(records: Sequence[RunRecord], out: TextIO) -> None:
    out.write(",".join(RECORD_COLUMNS) + "\n")
    for rec in records:
        out.write(rec.csv_row() + "\n")


def write_timings_csv(records: Sequence[RunRecord], master_seed: int, out: TextIO) -> None:
    """Wall-clock per run and the run's seed; excluded from the determinism contract."""
    out.write("cell_index,seed_index,N,seed,duration_s,version\n")
    for rec in records:
        seed = derive_seed(master_seed, rec.cell_index, rec.seed_index)
        out.write(f"{rec.cell_index},{rec.seed_index},{rec.n},{seed},"
                  f"{rec.duration_s:.6f},{__version__}\n")


def write_summary_json(summary: dict, out: TextIO) -> None:
    out.write(json.dumps(summary, indent=2, sort_keys=True))
    out.write("\n")


def run_sweep_to_dir(
    config: ExperimentConfig,
    out_dir: str | Path,
    workers: int = 1,
) -> tuple[list[RunRecord], dict]:
    """run_experiment plus artifact emission into out_dir, made only once workers is accepted."""
    workers = check_int("workers", workers, 1)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records, summary = run_experiment(config, workers=workers)
    with open(out / "records.csv", "w") as fh:
        write_records_csv(records, fh)
    with open(out / "summary.json", "w") as fh:
        write_summary_json(summary, fh)
    with open(out / "timings.csv", "w") as fh:
        write_timings_csv(records, config.master_seed, fh)
    return records, summary

"""Sweep orchestration: grid x seeds -> records.csv / summary.json.

Every run derives its own 64-bit seed from (master seed, cell index, seed
index), so cells and repeats can execute in parallel without changing a
single output byte. Records are buffered and written sorted by (cell, seed).
Wall-clock durations are intentionally kept out of records.csv (they would
break byte-for-byte reproducibility) and go to timings.csv instead.
"""

from __future__ import annotations

import itertools
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from statistics import median
from typing import Sequence, TextIO

import numpy as np

from . import __version__
from .analysis import EmergenceReport, c_of_N, detect_stationarity, emergence_report
from .dynamics import EpidemicParams, Trajectory, run_sim
from .errors import ConfigError, ParameterError
from .graph import NetworkParams, generate_ba, write_edge_list
from .machines import (
    ENUM_LENGTH_GUARD,
    OmegaEstimate,
    omega_enumerate,
    omega_monte_carlo,
    population_fitness,
    sample_programs,
)
from .rng import OMEGA_STREAM_TAG, derive_seed, rng_from_seed

RECORD_COLUMNS = [
    "N", "m", "nu", "delta", "lambda", "C", "c_of_N", "t_s", "rho_hat",
    "rho_theory", "tau_E", "omega_hat", "condition_met", "c_best",
    "c_bar_isolated", "eeac_proxy",
]

_INT_FIELDS = (
    "k_max", "t_max", "t_max_steps", "t0", "stat_window", "n_seeds",
    "master_seed", "omega_max_len", "omega_samples",
)


def _is_int(x) -> bool:
    # JSON true/false load as bool, a subclass of int.
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


@dataclass
class ExperimentConfig:
    """Full description of one sweep; every field is echoed into summary.json."""

    n_values: list[int]
    m_values: list[int]
    nu_values: list[float]
    delta_values: list[float]
    rho0: float = 0.1
    c_exponent: float = 0.5
    k_max: int = 6
    t_max: int = 10_000
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
        self.validate()

    def validate(self) -> None:
        for name in ("n_values", "m_values", "nu_values", "delta_values"):
            vals = getattr(self, name)
            if not isinstance(vals, (list, tuple)) or len(vals) == 0:
                raise ConfigError(f"{name} must be a nonempty list")
        for name in ("n_values", "m_values"):
            if not all(_is_int(v) for v in getattr(self, name)):
                raise ConfigError(f"{name} entries must be integers, got {getattr(self, name)}")
        for name in ("nu_values", "delta_values"):
            if not all(_is_real(v) for v in getattr(self, name)):
                raise ConfigError(f"{name} entries must be numbers, got {getattr(self, name)}")
        for name in _INT_FIELDS:
            if not _is_int(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("rho0", "c_exponent", "stat_tol"):
            if not _is_real(getattr(self, name)):
                raise ConfigError(f"{name} must be a number, got {getattr(self, name)!r}")
        for name in ("reimitation", "imitate_infected_only"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if any(n < 2 for n in self.n_values):
            raise ConfigError("every N must be >= 2")
        if any(m < 1 for m in self.m_values):
            raise ConfigError("every m must be >= 1")
        if max(self.m_values) >= min(self.n_values):
            raise ConfigError(
                "every m must be < every N (the seed clique has m + 1 nodes), "
                f"got m={max(self.m_values)}, N={min(self.n_values)}"
            )
        if any(not 0 <= nu <= 1 for nu in self.nu_values):
            raise ConfigError("every nu must lie in [0, 1]")
        if any(not 0 <= d <= 1 for d in self.delta_values):
            raise ConfigError("every delta must lie in [0, 1]")
        if not 0 < self.rho0 <= 1:
            raise ConfigError(f"rho0 must lie in (0, 1], got {self.rho0}")
        if not 0 < self.c_exponent <= 1:
            raise ConfigError(f"c_exponent must lie in (0, 1], got {self.c_exponent}")
        if self.k_max < 1:
            raise ConfigError(f"k_max must be >= 1, got {self.k_max}")
        if self.t_max < 1:
            raise ConfigError(f"t_max must be >= 1, got {self.t_max}")
        if not isinstance(self.w, str) or any(ch not in "01" for ch in self.w):
            raise ConfigError(f"w must be a bit string, got {self.w!r}")
        if self.t_max_steps < 1:
            raise ConfigError(f"t_max_steps must be >= 1, got {self.t_max_steps}")
        if self.t0 < 0:
            raise ConfigError(f"t0 must be >= 0, got {self.t0}")
        c_min = c_of_N(min(self.n_values), self.c_exponent)
        if self.t0 >= c_min:
            raise ConfigError(
                f"t0 must be < c(N) for every N, got t0={self.t0}, c({min(self.n_values)})={c_min}"
            )
        if self.stat_window < 2:
            raise ConfigError(f"stat_window must be >= 2, got {self.stat_window}")
        if not self.stat_tol > 0:
            raise ConfigError(f"stat_tol must be > 0, got {self.stat_tol}")
        if self.n_seeds < 1:
            raise ConfigError(f"n_seeds must be >= 1, got {self.n_seeds}")
        if self.omega_method not in ("enumerate", "monte-carlo"):
            raise ConfigError(
                f"omega_method must be 'enumerate' or 'monte-carlo', got {self.omega_method!r}"
            )
        if self.omega_method == "enumerate" and not 0 <= self.omega_max_len <= ENUM_LENGTH_GUARD:
            raise ConfigError(
                f"omega_max_len must lie in [0, {ENUM_LENGTH_GUARD}] for enumeration, "
                f"got {self.omega_max_len}"
            )
        if self.omega_samples < 1:
            raise ConfigError(f"omega_samples must be >= 1, got {self.omega_samples}")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = {"n_values", "m_values", "nu_values", "delta_values"} - set(data)
        if missing:
            raise ConfigError(f"missing required config keys: {sorted(missing)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None

    @classmethod
    def from_json_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            data = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return asdict(self)

    def cells(self) -> list[tuple[int, int, float, float]]:
        """Grid cells in sweep order: product of N, m, nu, delta values."""
        return list(
            itertools.product(self.n_values, self.m_values, self.nu_values, self.delta_values)
        )


@dataclass
class RunRecord:
    """One (cell, seed) result plus non-deterministic run metadata."""

    cell_index: int
    seed_index: int
    n: int
    m: int
    nu: float
    delta: float
    lam: float
    c_exponent: float
    report: EmergenceReport
    duration_s: float = 0.0
    version: str = __version__

    def csv_row(self) -> str:
        r = self.report
        t_s = -1 if r.t_s is None else r.t_s
        rho_hat = float("nan") if r.rho_hat is None else r.rho_hat
        vals = [
            str(self.n),
            str(self.m),
            f"{self.nu:.9f}",
            f"{self.delta:.9f}",
            f"{self.lam:.9f}",
            f"{self.c_exponent:.9f}",
            str(r.c_of_n),
            str(t_s),
            f"{rho_hat:.9f}",
            f"{r.rho_theory:.9f}",
            f"{r.tau_e:.9f}",
            f"{r.omega_hat:.9f}",
            "true" if r.condition_met else "false",
            str(r.c_best),
            f"{r.c_bar_isolated:.9f}",
            f"{r.eeac_proxy:.9f}",
        ]
        return ",".join(vals)


def estimate_omega(config: ExperimentConfig) -> OmegaEstimate:
    """One omega estimate per sweep (it does not depend on the grid cell)."""
    if config.omega_method == "enumerate":
        return omega_enumerate(
            config.omega_max_len, config.w, config.t_max, config.k_max
        )
    rng = rng_from_seed(derive_seed(config.master_seed, OMEGA_STREAM_TAG, 0))
    return omega_monte_carlo(
        config.omega_samples, config.w, config.t_max, rng, config.k_max
    )


def simulate_cell(
    config: ExperimentConfig,
    cell_index: int,
    seed_index: int,
    t_max_steps: int,
    graph_dir: str | Path | None = None,
) -> tuple[np.ndarray, EpidemicParams, Trajectory]:
    """One run of one grid cell: (own fitness, SIS params, trajectory).

    The run's Generator is drawn in a fixed order: graph growth, program
    bits, initial infected set, step uniforms. Scoring the programs draws
    nothing. With graph_dir set, the topology is exported as
    graph_<cell>_<seed>.edges (filenames are unique, so parallel workers
    never collide).
    """
    n, m, nu, delta = config.cells()[cell_index]
    seed = derive_seed(config.master_seed, cell_index, seed_index)
    rng = rng_from_seed(seed)
    g = generate_ba(NetworkParams(n=n, m=m, seed=seed), rng)
    if graph_dir is not None:
        path = Path(graph_dir) / f"graph_{cell_index}_{seed_index}.edges"
        with open(path, "w") as fh:
            write_edge_list(g, fh, m, seed)
    own = population_fitness(sample_programs(rng, n, config.k_max), config.w, config.t_max)
    params = EpidemicParams(
        nu=nu,
        delta=delta,
        rho0=config.rho0,
        reimitation=config.reimitation,
        imitate_infected_only=config.imitate_infected_only,
    )
    return own, params, run_sim(g, own, params, t_max_steps, rng)


def run_cell_seed(
    config: ExperimentConfig,
    cell_index: int,
    seed_index: int,
    omega: OmegaEstimate,
    graph_dir: str | Path | None = None,
) -> RunRecord:
    """Execute one grid cell with one derived seed, for at least c(N) steps."""
    n, m, nu, delta = config.cells()[cell_index]
    started = time.perf_counter()
    horizon = max(config.t_max_steps, c_of_N(n, config.c_exponent))
    own, params, traj = simulate_cell(config, cell_index, seed_index, horizon, graph_dir)
    stat = detect_stationarity(traj.infected_density, config.stat_window, config.stat_tol)
    lam = params.spreading_rate
    report = emergence_report(
        traj, omega, m, lam, n, config.c_exponent, config.t0, own, stat
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
    config: ExperimentConfig,
    workers: int = 1,
    graph_dir: str | Path | None = None,
) -> tuple[list[RunRecord], dict]:
    """Run the full grid; returns records sorted by (cell, seed) and the summary."""
    omega = estimate_omega(config)
    cells, seeds = zip(*itertools.product(range(len(config.cells())), range(config.n_seeds)))
    args = (itertools.repeat(config), cells, seeds,
            itertools.repeat(omega), itertools.repeat(graph_dir))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(run_cell_seed, *args))
    else:
        records = list(map(run_cell_seed, *args))
    records.sort(key=lambda r: (r.cell_index, r.seed_index))
    return records, summarize(records, config)


def _round9(x: float) -> float:
    return round(x, 9)


def summarize(records: Sequence[RunRecord], config: ExperimentConfig | None = None) -> dict:
    """Per-N aggregation: median eeac proxy and condition_met fraction.

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
    summary = {"version": __version__, "per_n": per_n, "n_records": len(records)}
    if config is not None:
        summary["config"] = config.to_dict()
        summary["omega_hat"] = _round9(records[0].report.omega_hat) if records else None
    return summary


def write_records_csv(records: Sequence[RunRecord], out: TextIO) -> None:
    out.write(",".join(RECORD_COLUMNS) + "\n")
    for rec in records:
        out.write(rec.csv_row() + "\n")


def write_timings_csv(records: Sequence[RunRecord], out: TextIO) -> None:
    """Wall-clock per run; excluded from the determinism contract."""
    out.write("cell_index,seed_index,N,duration_s,version\n")
    for rec in records:
        out.write(
            f"{rec.cell_index},{rec.seed_index},{rec.n},{rec.duration_s:.6f},{rec.version}\n"
        )


def write_summary_json(summary: dict, out: TextIO) -> None:
    out.write(json.dumps(summary, indent=2, sort_keys=True))
    out.write("\n")


def read_records_csv(inp: TextIO) -> list[RunRecord]:
    """Parse records.csv back into RunRecords (for re-aggregation)."""
    header = inp.readline().strip()
    if header != ",".join(RECORD_COLUMNS):
        raise ParameterError(f"unexpected records header: {header!r}")
    records = []
    for i, line in enumerate(inp):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(RECORD_COLUMNS):
            raise ParameterError(f"row {i + 1} has {len(parts)} columns")
        if parts[12] not in ("true", "false"):
            raise ParameterError(
                f"row {i + 1}: condition_met must be true or false, got {parts[12]!r}"
            )
        try:
            t_s = int(parts[7])
            rho_hat = float(parts[8])
            report = EmergenceReport(
                tau_e=float(parts[10]),
                omega_hat=float(parts[11]),
                condition_met=parts[12] == "true",
                c_of_n=int(parts[6]),
                rho_theory=float(parts[9]),
                eeac_proxy=float(parts[15]),
                c_best=int(parts[13]),
                c_bar_isolated=float(parts[14]),
                t_s=None if t_s < 0 else t_s,
                rho_hat=None if rho_hat != rho_hat else rho_hat,
            )
            records.append(
                RunRecord(
                    cell_index=0,
                    seed_index=i,
                    n=int(parts[0]),
                    m=int(parts[1]),
                    nu=float(parts[2]),
                    delta=float(parts[3]),
                    lam=float(parts[4]),
                    c_exponent=float(parts[5]),
                    report=report,
                )
            )
        except ValueError as exc:
            raise ParameterError(f"row {i + 1}: {exc}") from None
    return records


def run_sweep_to_dir(
    config: ExperimentConfig,
    out_dir: str | Path,
    workers: int = 1,
    emit_graphs: bool = False,
) -> tuple[list[RunRecord], dict]:
    """run_experiment plus artifact emission into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records, summary = run_experiment(
        config, workers=workers, graph_dir=out if emit_graphs else None
    )
    with open(out / "records.csv", "w") as fh:
        write_records_csv(records, fh)
    with open(out / "summary.json", "w") as fh:
        write_summary_json(summary, fh)
    with open(out / "timings.csv", "w") as fh:
        write_timings_csv(records, fh)
    return records, summary

"""Sweep orchestration: grid x seeds -> records.csv / summary.json.

Every run derives its own 64-bit seed from (master seed, cell index, seed
index), so cells and repeats can execute in parallel without changing a
single output byte. Records are buffered and written sorted by (cell, seed).
Wall-clock durations are intentionally kept out of records.csv (they would
break byte-for-byte reproducibility) and go to timings.csv instead.

Each schema is written down once. ExperimentConfig's annotations give each
field's kind, which validate checks on load, and the fields without a
default are the required keys. _RECORD_SCHEMA lists the records.csv columns
in order, and both writing and reading a row go through it.
"""

from __future__ import annotations

import itertools
import json
import math
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
from .graph import NetworkParams, generate_ba, write_edge_list
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
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type.startswith("list[") and isinstance(value, list):
                object.__setattr__(self, f.name, tuple(value))
        self.validate()

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
        return ",".join(to_text(attrgetter(attr)(self)) for _, attr, to_text, _ in _RECORD_SCHEMA)


def _bool_from_text(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"must be true or false, got {text!r}")
    return text == "true"


def _finite_from_text(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"must be finite, got {text!r}")
    return x


_f9 = "{:.9f}".format

# records.csv, one entry per column in order: (header, attribute of the
# RunRecord, with "report." for its EmergenceReport, value -> text,
# text -> value). A stationarity detector that never fired writes t_s as -1
# and rho_hat as nan, and a delta = 0 cell writes lambda as inf. No other
# float column reads a non-finite value back, so summary.json stays strict JSON.
_RECORD_SCHEMA = [
    ("N", "n", str, int),
    ("m", "m", str, int),
    ("nu", "nu", _f9, _finite_from_text),
    ("delta", "delta", _f9, _finite_from_text),
    ("lambda", "lam", _f9, lambda s: math.inf if s == "inf" else _finite_from_text(s)),
    ("C", "c_exponent", _f9, _finite_from_text),
    ("c_of_N", "report.c_of_n", str, int),
    ("t_s", "report.t_s",
     lambda v: "-1" if v is None else str(v),
     lambda s: None if int(s) < 0 else int(s)),
    ("rho_hat", "report.rho_hat",
     lambda v: "nan" if v is None else _f9(v),
     lambda s: None if s == "nan" else _finite_from_text(s)),
    ("rho_theory", "report.rho_theory", _f9, _finite_from_text),
    ("tau_E", "report.tau_e", _f9, _finite_from_text),
    ("omega_hat", "report.omega_hat", _f9, _finite_from_text),
    ("condition_met", "report.condition_met", lambda v: "true" if v else "false", _bool_from_text),
    ("c_best", "report.c_best", str, int),
    ("c_bar_isolated", "report.c_bar_isolated", _f9, _finite_from_text),
    ("eeac_proxy", "report.eeac_proxy", _f9, _finite_from_text),
]
RECORD_COLUMNS = [header for header, _, _, _ in _RECORD_SCHEMA]


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
    config: ExperimentConfig,
    cell_index: int,
    seed_index: int,
    graph_dir: str | Path | None = None,
) -> tuple[np.ndarray, EpidemicParams, Trajectory, StationarityResult]:
    """One run of one grid cell: (own fitness, SIS params, trajectory, stationarity).

    The one place that sets a run's length, max(t_max_steps, c(N)) steps, and
    its stationarity verdict, for ``bbnet sweep`` and ``bbnet simulate`` alike.
    The run's Generator is drawn in a fixed order: graph growth, program bits,
    initial infected set, step uniforms; scoring draws nothing. With graph_dir
    set, the topology is exported as graph_<cell>_<seed>.edges, which no other run writes.
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
    steps = max(config.t_max_steps, c_of_N(n, config.c_exponent))
    traj = run_sim(g, own, params, steps, rng)
    stat = detect_stationarity(traj.infected_density, config.stat_window, config.stat_tol)
    return own, params, traj, stat


def run_cell_seed(
    config: ExperimentConfig,
    cell_index: int,
    seed_index: int,
    omega_hat: float,
    graph_dir: str | Path | None = None,
) -> RunRecord:
    """Score one grid cell's run with one derived seed (``simulate_cell``) against omega_hat."""
    n, m, nu, delta = config.cells()[cell_index]
    started = time.perf_counter()
    own, params, traj, stat = simulate_cell(config, cell_index, seed_index, graph_dir)
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
    config: ExperimentConfig,
    workers: int = 1,
    graph_dir: str | Path | None = None,
) -> tuple[list[RunRecord], dict]:
    """Run the full grid; returns records sorted by (cell, seed) and the summary."""
    workers = check_int("workers", workers, 1)
    omega_hat = estimate_omega(config).value
    cells, seeds = zip(*itertools.product(range(len(config.cells())), range(config.n_seeds)))
    args = (itertools.repeat(config), cells, seeds,
            itertools.repeat(omega_hat), itertools.repeat(graph_dir))
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
    try:
        header, body = inp.readline().strip(), inp.read()
    except UnicodeDecodeError as exc:
        raise ParameterError(f"cannot decode records: {exc}") from None
    if header != ",".join(RECORD_COLUMNS):
        raise ParameterError(f"unexpected records header: {header!r}")
    records = []
    for i, line in enumerate(body.split("\n")):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(RECORD_COLUMNS):
            raise ParameterError(f"row {i + 1} has {len(parts)} columns")
        run: dict = {}
        report: dict = {}
        for (header, attr, _, from_text), text in zip(_RECORD_SCHEMA, parts):
            owner, _, name = attr.rpartition(".")
            try:
                (report if owner else run)[name] = from_text(text)
            except ValueError as exc:
                raise ParameterError(f"row {i + 1}, column {header}: {exc}") from None
        records.append(
            RunRecord(cell_index=0, seed_index=i, report=EmergenceReport(**report), **run)
        )
    if not records:
        raise ParameterError("records.csv holds no rows")
    return records


def run_sweep_to_dir(
    config: ExperimentConfig,
    out_dir: str | Path,
    workers: int = 1,
    emit_graphs: bool = False,
) -> tuple[list[RunRecord], dict]:
    """run_experiment plus artifact emission into out_dir, made only once workers is accepted."""
    workers = check_int("workers", workers, 1)
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

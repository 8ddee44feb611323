"""Sweep orchestration: determinism, record layout, aggregation."""

import concurrent.futures
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bbnet import experiment
from bbnet.analysis import c_of_N, detect_stationarity
from bbnet.dynamics import EpidemicParams
from bbnet.errors import ParameterError, check_int
from bbnet.experiment import (
    RECORD_COLUMNS,
    ExperimentConfig,
    read_records_csv,
    run_experiment,
    run_sweep_to_dir,
    summarize,
    write_records_csv,
    write_summary_json,
)
from bbnet.graph import NetworkParams
from bbnet.machines import check_input
from bbnet.rng import derive_seed, splitmix64

CONFIGS = sorted((Path(__file__).parents[1] / "configs").glob("*.json"))

# Values of the wrong type for each field annotation, near misses first.
WRONG_TYPED = {
    "int": [True, 2.0, "2", None],
    "float": [True, "0.5", None],
    "str": [1, ["01"], None],
    "bool": [1, "true", None],
    "list[int]": [[], [2.0], [True], [2, "3"], 50],
    "list[float]": [[], ["0.5"], [True], 0.5],
}


def tiny_config(**overrides):
    base = dict(
        n_values=[50],
        m_values=[2],
        nu_values=[0.3],
        delta_values=[1.0],
        rho0=0.2,
        c_exponent=0.5,
        k_max=2,
        t_max=100,
        t_max_steps=40,
        stat_window=3,
        stat_tol=0.05,
        n_seeds=1,
        master_seed=7,
        omega_method="enumerate",
        omega_max_len=18,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestSeedDerivation:
    def test_splitmix_reference_vector(self):
        # published first output of splitmix64 seeded with 0
        assert splitmix64(0) == 0xE220A8397B1DCDAF

    def test_derive_seed_distinct_and_stable(self):
        seeds = {derive_seed(1, ci, si) for ci in range(20) for si in range(20)}
        assert len(seeds) == 400
        assert derive_seed(1, 3, 4) == derive_seed(1, 3, 4)
        assert derive_seed(1, 3, 4) != derive_seed(2, 3, 4)


class TestConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ParameterError):
            ExperimentConfig.from_dict({"n_values": [10], "m_values": [1],
                                        "nu_values": [0.1], "delta_values": [1.0],
                                        "bogus": 3})

    def test_missing_grid_rejected(self):
        # the required keys are the fields without a default
        grid = dict(n_values=[10], m_values=[1], nu_values=[0.1], delta_values=[1.0])
        assert ExperimentConfig.from_dict(grid) == ExperimentConfig(**grid)
        for key in grid:
            partial = {k: v for k, v in grid.items() if k != key}
            with pytest.raises(ParameterError, match=f"missing required config keys: .*{key}"):
                ExperimentConfig.from_dict(partial)

    def test_empty_grid_rejected(self):
        with pytest.raises(ParameterError):
            tiny_config(nu_values=[])

    def test_bad_values_rejected(self):
        with pytest.raises(ParameterError):
            tiny_config(rho0=0.0)
        with pytest.raises(ParameterError):
            tiny_config(omega_method="guess")
        with pytest.raises(ParameterError):
            tiny_config(w="21")

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(n_values=[1e2]),
            dict(m_values=[True]),
            dict(k_max=2.0),
            dict(n_seeds=True),
            dict(m_values=[50]),  # m >= N: the seed clique needs m + 1 nodes
            dict(t0=8),  # c(50) = 8
            dict(omega_max_len=27),  # above the enumeration guard
            dict(w=["01"]),
            dict(w=["0", "1"]),
            dict(rho0=True),
            dict(c_exponent=True),
            dict(stat_tol=True),
            dict(nu_values=[True]),
            dict(delta_values=[0.5, True]),
            dict(n_values=[1]),
            dict(m_values=[0]),
            dict(nu_values=[1.5]),
            dict(delta_values=[-0.1]),
            dict(rho0=1.5),
            dict(c_exponent=0.0),
            dict(k_max=0),
            dict(t_max=0),
            dict(t_max_steps=0),
            dict(stat_window=1),
            dict(stat_tol=0.0),
            dict(stat_tol=float("inf")),
            dict(n_seeds=0),
            dict(omega_samples=0),
            dict(omega_max_len=-5, omega_method="monte-carlo"),  # checked under both methods
            dict(reimitation=1),
            dict(imitate_infected_only="yes"),
        ],
        ids=["float-N", "bool-m", "float-field", "bool-field", "m-ge-N", "t0-ge-c", "enum-guard",
             "w-list", "w-list-of-bits", "bool-rho0", "bool-c_exponent", "bool-stat_tol",
             "bool-nu", "bool-delta", "N-lt-2", "m-lt-1", "nu-gt-1", "delta-lt-0", "rho0-gt-1",
             "c_exponent-0", "k_max-0", "t_max-0", "t_max_steps-0", "stat_window-1",
             "stat_tol-0", "stat_tol-inf", "n_seeds-0", "omega_samples-0", "mc-max_len-negative",
             "int-reimitation", "str-imitate_infected_only"],
    )
    def test_rejected_before_any_run(self, overrides):
        with pytest.raises(ParameterError):
            tiny_config(**overrides)

    @pytest.mark.parametrize(
        "overrides, owner_call",
        [
            (dict(n_values=[1]), lambda: NetworkParams(n=1, m=2)),
            (dict(n_values=[3037000500]), lambda: NetworkParams(n=3037000500, m=2)),
            (dict(m_values=[0]), lambda: NetworkParams(n=50, m=0)),
            (dict(m_values=[50]), lambda: NetworkParams(n=50, m=50)),
            (dict(nu_values=[1.5]), lambda: EpidemicParams(nu=1.5, delta=1.0, rho0=0.2)),
            (dict(delta_values=[-0.1]), lambda: EpidemicParams(nu=0.3, delta=-0.1, rho0=0.2)),
            (dict(rho0=0.0), lambda: EpidemicParams(nu=0.3, delta=1.0, rho0=0.0)),
            (dict(c_exponent=1.5), lambda: c_of_N(50, 1.5)),
            (dict(stat_window=1), lambda: detect_stationarity((), 1, 0.05)),
            (dict(stat_tol=0.0), lambda: detect_stationarity((), 3, 0.0)),
            (dict(stat_tol=float("inf")), lambda: detect_stationarity((), 3, float("inf"))),
            (dict(k_max=0), lambda: check_int("k_max", 0, 1)),
            (dict(t_max=0), lambda: check_input("", 0)),
            (dict(w="012"), lambda: check_input("012", 100)),
        ],
        ids=["N", "N-past-key-bound", "m", "m-ge-N", "nu", "delta", "rho0", "C", "stat_window", "stat_tol",
             "stat_tol-inf", "k_max", "t_max", "w"],
    )
    def test_delegated_rule_reports_owner_message(self, overrides, owner_call):
        # the config asks the layer that owns the rule, so the two texts match
        with pytest.raises(ParameterError) as owner:
            owner_call()
        with pytest.raises(ParameterError) as config:
            tiny_config(**overrides)
        assert str(config.value) == str(owner.value)

    @pytest.mark.parametrize("field", dataclasses.fields(ExperimentConfig), ids=lambda f: f.name)
    def test_wrong_type_rejected(self, field):
        for value in WRONG_TYPED[field.type]:
            with pytest.raises(ParameterError, match=field.name):
                tiny_config(**{field.name: value})

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
    def test_shipped_config_loads(self, path):
        data = json.loads(path.read_text())
        echoed = ExperimentConfig.from_json_file(path).to_dict()
        assert {key: echoed[key] for key in data} == data

    def test_frozen_and_checked_again_on_replace(self):
        # checked when made, so no later change can skip the check
        cfg = tiny_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.n_values = [1]
        with pytest.raises(ParameterError) as owner:
            NetworkParams(n=1, m=2)
        with pytest.raises(ParameterError) as replaced:
            dataclasses.replace(cfg, n_values=[1])
        assert str(replaced.value) == str(owner.value)
        assert dataclasses.replace(cfg, master_seed=3) == tiny_config(master_seed=3)

    @pytest.mark.parametrize("name", ["n_values", "m_values", "nu_values", "delta_values"])
    def test_grid_lists_cannot_change_in_place(self, name):
        # a list appended to after the check would reach the first run unchecked
        cfg = tiny_config()
        with pytest.raises(AttributeError):
            getattr(cfg, name).append(1)
        assert cfg == tiny_config()
        assert type(cfg.to_dict()[name]) is list

    def test_json_round_trip(self, tmp_path):
        cfg = tiny_config()
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg.to_dict()))
        assert ExperimentConfig.from_json_file(p) == cfg

    def test_json_array_rejected(self, tmp_path):
        p = tmp_path / "list.json"
        p.write_text(json.dumps([tiny_config().to_dict()]))
        with pytest.raises(ParameterError, match="config must be a JSON object"):
            ExperimentConfig.from_json_file(p)

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ParameterError):
            ExperimentConfig.from_json_file(p)


class TestRunExperiment:
    def test_single_cell_single_record(self):
        records, summary = run_experiment(tiny_config())
        assert len(records) == 1
        assert summary["per_n"]["50"]["n_records"] == 1

    def test_record_count_and_order(self):
        cfg = tiny_config(n_values=[30, 60], nu_values=[0.2, 0.4], n_seeds=3)
        records, _ = run_experiment(cfg)
        assert len(records) == 4 * 3
        keys = [(r.cell_index, r.seed_index) for r in records]
        assert keys == sorted(keys)
        assert [r.n for r in records[:6]] == [30] * 6

    def test_rerun_byte_identical(self, tmp_path):
        cfg = tiny_config(n_seeds=2)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run_sweep_to_dir(cfg, d1)
        run_sweep_to_dir(cfg, d2)
        assert (d1 / "records.csv").read_bytes() == (d2 / "records.csv").read_bytes()
        assert (d1 / "summary.json").read_bytes() == (d2 / "summary.json").read_bytes()

    def test_master_seed_changes_output(self, tmp_path):
        r1, _ = run_experiment(tiny_config(master_seed=1))
        r2, _ = run_experiment(tiny_config(master_seed=2))
        assert r1[0].csv_row() != r2[0].csv_row()

    def test_parallel_matches_serial(self, tmp_path):
        cfg = tiny_config(n_values=[30, 50], n_seeds=2)
        d1, d2 = tmp_path / "serial", tmp_path / "par"
        run_sweep_to_dir(cfg, d1, workers=1)
        run_sweep_to_dir(cfg, d2, workers=2)
        assert (d1 / "records.csv").read_bytes() == (d2 / "records.csv").read_bytes()
        assert (d1 / "summary.json").read_bytes() == (d2 / "summary.json").read_bytes()

    @pytest.mark.parametrize("workers, runs, pool_sizes", [(64, 2, [2]), (3, 4, [3]), (5, 1, [])])
    def test_pool_no_larger_than_the_grid(self, monkeypatch, workers, runs, pool_sizes):
        # a pool starts all its workers at once; this one starts none and maps in-process
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        records, _ = run_experiment(tiny_config(n_seeds=runs), workers=workers)
        assert [r.seed_index for r in records] == list(range(runs))
        assert sizes == pool_sizes

    def test_import_leaves_the_pool_unloaded(self):
        # only a sweep with workers > 1 builds a pool; every other call skips its modules
        src = str(Path(experiment.__file__).parents[1])
        code = ("import sys, bbnet, bbnet.cli; "
                "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "[]"

    def test_horizon_covers_c_of_n(self):
        # c(N) = 10 for N=100 but t_max_steps=4: simulate_cell stretches the run,
        # judges all of it, and the record scores that run and that verdict
        cfg = tiny_config(n_values=[100], t_max_steps=4)
        records, _ = run_experiment(cfg)
        assert records[0].report.c_of_n == 10
        _, _, traj, stat = experiment.simulate_cell(cfg, 0, 0)
        assert traj.last_t == 10
        assert stat == detect_stationarity(traj.infected_density, cfg.stat_window, cfg.stat_tol)
        assert (records[0].report.t_s, records[0].report.rho_hat) == (stat.t_s, stat.rho_hat)


class TestRecordsCsv:
    def test_header_and_shape(self):
        records, _ = run_experiment(tiny_config())
        buf = io.StringIO()
        write_records_csv(records, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",".join(RECORD_COLUMNS)
        assert len(lines) == 2
        assert len(lines[1].split(",")) == len(RECORD_COLUMNS)

    def test_round_trip_preserves_aggregation(self):
        # records.csv carries 9 decimals, so aggregation agrees to that precision
        cfg = tiny_config(n_values=[30, 60], n_seeds=2)
        records, _ = run_experiment(cfg)
        buf = io.StringIO()
        write_records_csv(records, buf)
        back = read_records_csv(io.StringIO(buf.getvalue()))
        s_back, s_orig = summarize(back), summarize(records)
        assert s_back["per_n"].keys() == s_orig["per_n"].keys()
        for n, group in s_orig["per_n"].items():
            for key, val in group.items():
                assert s_back["per_n"][n][key] == pytest.approx(val, abs=2e-9)

    def test_undetected_stationarity_round_trips(self):
        # window too wide to ever fire: t_s serializes as -1, rho_hat as nan
        cfg = tiny_config(stat_window=100, t_max_steps=20)
        records, _ = run_experiment(cfg)
        assert records[0].report.t_s is None
        assert not records[0].report.condition_met
        buf = io.StringIO()
        write_records_csv(records, buf)
        row = buf.getvalue().splitlines()[1].split(",")
        assert row[7] == "-1"
        assert row[8] == "nan"
        back = read_records_csv(io.StringIO(buf.getvalue()))
        assert back[0].report.t_s is None
        assert back[0].report.rho_hat is None

    def test_reread_rewrites_the_same_bytes(self, tmp_path):
        # nu 0.9 at m 2 clamps rho_theory (2 exp(-1/1.8) > 1); at N 30 the
        # 11-step series is shorter than two windows, so stationarity never
        # fires; a delta 0 cell writes lambda as inf
        cfg = tiny_config(n_values=[30, 400], nu_values=[0.1, 0.9], delta_values=[0.0, 1.0],
                          t_max_steps=10, stat_window=6, stat_tol=0.5)
        run_sweep_to_dir(cfg, tmp_path)
        original = (tmp_path / "records.csv").read_bytes()
        rows = [line.split(",") for line in original.decode().splitlines()[1:]]
        assert {row[9] == "1.000000000" for row in rows} == {True, False}
        assert {row[7] == "-1" for row in rows} == {True, False}
        assert {row[4] == "inf" for row in rows} == {True, False}
        with open(tmp_path / "records.csv") as fh:
            back = read_records_csv(fh)
        buf = io.StringIO()
        write_records_csv(back, buf)
        assert buf.getvalue().encode() == original

    def test_non_numeric_field_names_the_row(self):
        records, _ = run_experiment(tiny_config(n_seeds=2))
        buf = io.StringIO()
        write_records_csv(records, buf)
        # "x" in every column; nan and inf in every column that cannot hold them;
        # tau_E not a number; condition_met neither "true" nor "false"
        bad = [(column, value) for column, header in enumerate(RECORD_COLUMNS)
               for value in ("x", "nan", "inf", "-inf")
               if (header, value) not in (("lambda", "inf"), ("rho_hat", "nan"))]
        for column, value in bad + [(10, "fast"), (12, "TRUE")]:
            lines = buf.getvalue().splitlines()
            row = lines[2].split(",")
            row[column] = value
            lines[2] = ",".join(row)
            with pytest.raises(ParameterError, match=f"row 2, column {RECORD_COLUMNS[column]}:"):
                read_records_csv(io.StringIO("\n".join(lines) + "\n"))

    def test_wrong_header_and_short_row_rejected(self):
        records, _ = run_experiment(tiny_config())
        buf = io.StringIO()
        write_records_csv(records, buf)
        header, row = buf.getvalue().splitlines()
        with pytest.raises(ParameterError, match="unexpected records header: 'N,m'"):
            read_records_csv(io.StringIO(f"N,m\n{row}\n"))
        short = row.rsplit(",", 1)[0]
        with pytest.raises(ParameterError, match=f"row 1 has {len(RECORD_COLUMNS) - 1} columns"):
            read_records_csv(io.StringIO(f"{header}\n{short}\n"))

    def test_shuffled_records_same_summary(self):
        cfg = tiny_config(n_values=[30, 60], n_seeds=3)
        records, _ = run_experiment(cfg)
        buf = io.StringIO()
        write_records_csv(records, buf)
        lines = buf.getvalue().splitlines()
        shuffled = [lines[0]] + lines[1:][::-1]
        back = read_records_csv(io.StringIO("\n".join(shuffled) + "\n"))
        s1 = json.dumps(summarize(back), sort_keys=True)
        s2 = json.dumps(summarize(read_records_csv(io.StringIO(buf.getvalue()))), sort_keys=True)
        assert s1 == s2


class TestSummary:
    def test_summary_echoes_config(self):
        cfg = tiny_config()
        _, summary = run_experiment(cfg)
        assert summary["config"] == cfg.to_dict()
        assert "omega_hat" in summary

    def test_summary_json_deterministic_bytes(self):
        records, summary = run_experiment(tiny_config())
        a, b = io.StringIO(), io.StringIO()
        write_summary_json(summary, a)
        write_summary_json(summarize(records, tiny_config()), b)
        assert a.getvalue() == b.getvalue()

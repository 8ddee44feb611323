"""CLI subcommands: wiring, exit codes, and output formats."""

import hashlib
import io
import json
import math
from contextlib import redirect_stderr

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bbnet import cli, experiment
from bbnet.cli import main
from bbnet.experiment import OMEGA_METHODS
from bbnet.graph import NetworkParams, generate_ba, read_edge_list
from bbnet.machines import ENUM_LENGTH_GUARD, omega_enumerate, omega_monte_carlo
from bbnet.rng import OMEGA_STREAM_TAG, derive_seed, rng_from_seed


# stands for the path of write_config's file in a parametrized command line
CONFIG = object()


def write_config(tmp_path, **overrides):
    cfg = dict(
        n_values=[40],
        m_values=[2],
        nu_values=[0.3],
        delta_values=[1.0],
        rho0=0.2,
        k_max=2,
        t_max=100,
        t_max_steps=30,
        stat_window=3,
        stat_tol=0.05,
        n_seeds=2,
        master_seed=5,
        omega_method="enumerate",
        omega_max_len=18,
    )
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestGenGraph:
    def test_writes_edge_list(self, tmp_path):
        out = tmp_path / "g.edges"
        assert main(["gen-graph", "--n", "30", "--m", "2", "--seed", "9", "--out", str(out)]) == 0
        with open(out) as fh:
            g, params = read_edge_list(fh)
        assert g.n == 30
        assert g.num_edges == 3 + 2 * 27
        assert params.seed == 9

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.edges", tmp_path / "b.edges"
        main(["gen-graph", "--n", "30", "--m", "2", "--seed", "9", "--out", str(a)])
        main(["gen-graph", "--n", "30", "--m", "2", "--seed", "9", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_params_exit_2(self, capsys):
        assert main(["gen-graph", "--n", "1", "--m", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("n,m,m0", [(3, 3, 3), (6, 2, 5), (10, 1, 2)])
    def test_round_trip_any_m0(self, tmp_path, capsys, n, m, m0):
        # the header holds no m0, so gen-graph takes none: each m0 once admitted
        # is refused, and what (n, m) names either reads back or fails m < n
        out = tmp_path / "g.edges"
        with pytest.raises(SystemExit) as exc:
            main(["gen-graph", "--n", str(n), "--m", str(m), "--m0", str(m0), "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --m0" in capsys.readouterr().err
        assert not out.exists()

        code = main(["gen-graph", "--n", str(n), "--m", str(m), "--seed", "7", "--out", str(out)])
        if m >= n:
            assert code == 2 and not out.exists()
            assert f"need m < {n}, got {m}" in capsys.readouterr().err
            return
        assert code == 0
        with open(out) as fh:
            g, params = read_edge_list(fh)
        grown = generate_ba(NetworkParams(n=n, m=m, seed=7))
        assert np.array_equal(g.indptr, grown.indptr)
        assert np.array_equal(g.indices, grown.indices)
        assert (g.n, params.n, params.m, params.seed) == (n, n, m, 7)

    def test_missing_out_dir_exit_1(self, tmp_path, capsys):
        out = tmp_path / "missing" / "g.edges"
        assert main(["gen-graph", "--n", "10", "--m", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "No such file or directory" in err

    def test_node_count_past_key_bound_exit_2_before_growth(self, monkeypatch, capsys):
        # growing 3037000500 nodes would first allocate a 24 GB picks array
        def grow(*args):
            raise AssertionError("the graph grew before n was checked")

        monkeypatch.setattr(cli, "generate_ba", grow)
        assert main(["gen-graph", "--n", "3037000500", "--m", "1"]) == 2
        assert "need n < 3037000500, got 3037000500" in capsys.readouterr().err


class TestOmega:
    def test_enumerate_matches_module(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["omega", "--config", str(cfg)]) == 0
        rec = json.loads(capsys.readouterr().out)
        expected = omega_enumerate(18, "", 100, k_max=2)
        assert rec == expected.to_record()
        assert rec["method"] == "enumeration" and rec["stderr"] == 0.0

    def test_monte_carlo_record(self, tmp_path, capsys):
        # the sweep's own omega stream: derived from master_seed (5 in write_config), or --seed
        cfg = write_config(tmp_path, omega_method="monte-carlo", omega_samples=2000, t_max=50)
        for words, master_seed in (([], 5), (["--seed", "3"], 3)):
            assert main(["omega", "--config", str(cfg), *words]) == 0
            rec = json.loads(capsys.readouterr().out)
            rng = rng_from_seed(derive_seed(master_seed, OMEGA_STREAM_TAG, 0))
            assert rec == omega_monte_carlo(2000, "", 50, rng, k_max=2).to_record()
            assert rec["method"] == "monte-carlo" and rec["params"]["n_samples"] == 2000

    def test_guard_exit_2(self, tmp_path, capsys):
        assert main(["omega", "--config", str(write_config(tmp_path, omega_max_len=30))]) == 2
        assert capsys.readouterr().err == "error: need omega_max_len < 27, got 30\n"

    @pytest.mark.parametrize(
        "overrides",
        [dict(omega_method="monte-carlo", k_max=0), dict(k_max=0),
         dict(omega_max_len=5, t_max=0), dict(omega_max_len=5, w="2"), dict(omega_max_len=27)],
        ids=["mc-k-max-0", "enum-k-max-0", "short-t-max-0", "short-w-2", "enum-guard"],
    )
    def test_bad_estimator_argument_exit_2(self, tmp_path, monkeypatch, capsys, overrides):
        def no_omega(config):
            raise AssertionError("omega estimated for an invalid config")

        monkeypatch.setattr(cli, "estimate_omega", no_omega)
        assert main(["omega", "--config", str(write_config(tmp_path, **overrides))]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize(
        "words",
        [["--config", CONFIG, "--method", "enumerate"], ["--config", CONFIG, "--max-len", "18"],
         ["--config", CONFIG, "--samples", "500"], ["--config", CONFIG, "--t-max", "50"],
         ["--config", CONFIG, "--k-max", "2"], ["--config", CONFIG, "--w", "101"],
         ["--method", "enumerate"], ["--seed", "3"]],
        ids=["method", "max-len", "samples", "t-max", "k-max", "w", "method-no-config",
             "no-config"],
    )
    def test_removed_flag_or_no_config_exits_2_before_omega(self, tmp_path, monkeypatch,
                                                            words):
        def no_omega(config):
            raise AssertionError("omega estimated from a refused command line")

        monkeypatch.setattr(cli, "estimate_omega", no_omega)
        cfg = str(write_config(tmp_path))
        with pytest.raises(SystemExit) as exc:
            main(["omega", *(cfg if word is CONFIG else word for word in words)])
        assert exc.value.code == 2


class TestSimulate:
    def test_nu_zero_first_row(self, tmp_path, capsys):
        cfg = write_config(tmp_path, nu_values=[0.0], rho0=0.5, t_max_steps=5, t_max=50,
                           master_seed=4)
        out = tmp_path / "traj.csv"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,infected_density,best_carrier_density,max_displayed"
        assert lines[2].startswith("1,0.000000000,")

    def test_config_file_drives_run(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_text().count("\n") == 30 + 2  # header + rows 0..30

    def test_writes_and_judges_the_run_the_sweep_scored(self, tmp_path, capsys):
        # t_max_steps 4 < c(100) = 10: the run, as the sweep scores it, is 10 steps long
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(dict(
            n_values=[100], m_values=[3], nu_values=[0.25], delta_values=[1.0],
            t_max_steps=4, stat_window=2, stat_tol=0.05, t_max=200,
        )))
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        verdict = capsys.readouterr().err.strip()
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep")]) == 0
        record = (tmp_path / "sweep" / "records.csv").read_text().splitlines()
        row = dict(zip(record[0].split(","), record[1].split(",")))
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == list(range(11))
        assert verdict == "stationary at t=4, rho_hat=0.267142857"
        assert verdict == f"stationary at t={row['t_s']}, rho_hat={row['rho_hat']}"
        tau_e = sum(float(r[1]) for r in rows[1:11]) / 10  # rows t0 = 1 .. c(N) = 10
        assert f"{tau_e:.9f}" == row["tau_E"] == "0.219000000"

    def test_reports_a_run_too_short_for_stationarity(self, tmp_path, capsys):
        # 50 steps < 2 * stat_window: the detector cannot fire
        cfg = write_config(tmp_path, n_values=[100], stat_window=100, t_max_steps=50, t0=1)
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == "stationarity not detected within the run\n"
        # max(t_max_steps, c(100) = 10) + 1 rows
        assert len(out.read_text().splitlines()[1:]) == 51

    def test_seed_overrides_master_seed(self, tmp_path):
        # the default config has master_seed 5, so --seed 11 must run as master_seed 11
        (tmp_path / "seeded").mkdir()
        seeded = write_config(tmp_path / "seeded", master_seed=11)
        cfg = write_config(tmp_path)
        a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
        assert main(["simulate", "--config", str(seeded), "--out", str(a)]) == 0
        assert main(["simulate", "--config", str(cfg), "--seed", "11", "--out", str(b)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(c)]) == 0
        assert a.read_bytes() == b.read_bytes() != c.read_bytes()

    @pytest.mark.parametrize(
        "words",
        [["--config", CONFIG, "--n", "40"], ["--config", CONFIG, "--m", "2"],
         ["--config", CONFIG, "--nu", "0"], ["--config", CONFIG, "--delta", "1"],
         ["--config", CONFIG, "--rho0", "0.5"], ["--config", CONFIG, "--steps", "5"],
         ["--config", CONFIG, "--t-max", "50"], ["--config", CONFIG, "--k-max", "2"],
         ["--config", CONFIG, "--w", "101"], ["--config", CONFIG, "--reimitation"],
         ["--seed", "5"]],
        ids=["n", "m", "nu", "delta", "rho0", "steps", "t-max", "k-max", "w", "reimitation",
             "no-config"],
    )
    def test_removed_flag_or_no_config_exits_2_before_any_run(self, tmp_path, monkeypatch,
                                                              words):
        def no_run(*args):
            raise AssertionError("a cell ran from a refused command line")

        monkeypatch.setattr(cli, "simulate_cell", no_run)
        cfg = str(write_config(tmp_path))
        with pytest.raises(SystemExit) as exc:
            main(["simulate", *(cfg if word is CONFIG else word for word in words)])
        assert exc.value.code == 2


class TestOutput:
    @pytest.mark.parametrize(
        "words,overrides",
        [(["gen-graph", "--n", "30", "--m", "2", "--seed", "9"], {}),
         (["omega", "--config", CONFIG], dict(omega_max_len=12, t_max=50)),
         (["omega", "--config", CONFIG, "--seed", "3"],
          dict(omega_method="monte-carlo", omega_samples=500, t_max=50)),
         (["simulate", "--config", CONFIG], {})],
        ids=["gen-graph", "omega-enumerate", "omega-monte-carlo", "simulate"],
    )
    def test_stdout_matches_out_file(self, tmp_path, capsys, words, overrides):
        cfg = str(write_config(tmp_path, **overrides))
        argv = [cfg if word is CONFIG else word for word in words]
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 0
        to_file = capsys.readouterr()
        assert to_file.out == ""
        assert main(argv) == 0
        to_stdout = capsys.readouterr()
        assert to_stdout.out.encode() == out.read_bytes()
        assert to_stdout.err == to_file.err


class TestSweepReport:
    def test_sweep_twice_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["sweep", "--config", str(cfg), "--out", str(d1)]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(d2)]) == 0
        assert (d1 / "records.csv").read_bytes() == (d2 / "records.csv").read_bytes()
        assert (d1 / "summary.json").read_bytes() == (d2 / "summary.json").read_bytes()

    def test_sweep_summary_is_strict_json(self, tmp_path):
        # a delta 0 cell writes lambda as inf, and summary.json stays strict JSON
        cfg = write_config(tmp_path, delta_values=[0.0, 1.0])
        d = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(d)]) == 0
        rows = [line.split(",") for line in (d / "records.csv").read_text().splitlines()[1:]]
        assert {row[4] == "inf" for row in rows} == {True, False}

        def refuse(constant):
            raise AssertionError(f"summary.json holds {constant}")

        summary = json.loads((d / "summary.json").read_text(), parse_constant=refuse)
        assert summary["n_records"] == len(rows)

    def test_report_is_not_a_subcommand(self, tmp_path, monkeypatch, capsys):
        # summary.json has one writer, the sweep
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["report", "--records", "records.csv"])
        assert exc.value.code == 2
        assert "invalid choice: 'report'" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_gen_graph_with_the_timings_seed_writes_each_run_graph(self, tmp_path):
        # SHA-256 of graph_<cell>_<seed>.edges as `sweep --emit-graphs` wrote
        # them for this config, before (N, m, seed) named every graph
        emitted = {
            (0, 0): "c4fd24bcea6cc7943dacf470dca8f6eb0ff58fe0e54ceec149cab576bc3c60df",
            (0, 1): "3948e644f1f3b32d1f0322cd4184f5cd047f059af448027f24f4c7fe043993a1",
            (1, 0): "137cf0f167a72def76de46763666d31b5b8b34271e9b774e1c2601efc02f33f6",
            (1, 1): "fed8d6a71387c00422cbb50ac904ed5d115c5b54eb9d8f4a31abd2996490779e",
        }
        cfg = write_config(tmp_path, m_values=[1, 3])
        d = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(d)]) == 0
        assert sorted(p.name for p in d.iterdir()) == ["records.csv", "summary.json",
                                                       "timings.csv"]
        lines = (d / "timings.csv").read_text().splitlines()
        assert lines[0] == "cell_index,seed_index,N,seed,duration_s,version"
        digests = {}
        for line in lines[1:]:
            cell, seed_index, n, seed = map(int, line.split(",")[:4])
            assert seed == derive_seed(5, cell, seed_index)
            m = (1, 3)[cell]
            out = tmp_path / f"graph_{cell}_{seed_index}.edges"
            assert main(["gen-graph", "--n", str(n), "--m", str(m), "--seed", str(seed),
                         "--out", str(out)]) == 0
            digests[cell, seed_index] = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digests == emitted

    def test_seed_override_changes_bytes(self, tmp_path):
        cfg = write_config(tmp_path)
        d1, d2 = tmp_path / "s1", tmp_path / "s2"
        main(["sweep", "--config", str(cfg), "--out", str(d1)])
        main(["sweep", "--config", str(cfg), "--seed", "99", "--out", str(d2)])
        assert (d1 / "records.csv").read_bytes() != (d2 / "records.csv").read_bytes()

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["sweep", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides",
        [dict(n_values=[1e2]), dict(m_values=[True]), dict(m_values=[40]), dict(t0=7),
         dict(omega_max_len=27), dict(w=["01"]), dict(w=["0", "1"]), dict(rho0=True),
         dict(c_exponent=True), dict(stat_tol=True), dict(nu_values=[True]),
         dict(delta_values=[True]), dict(stat_tol=float("inf"))],
        ids=["float-N", "bool-m", "m-ge-N", "t0-ge-c", "enum-guard", "w-list", "w-list-of-bits",
             "bool-rho0", "bool-c_exponent", "bool-stat_tol", "bool-nu", "bool-delta",
             "stat_tol-inf"],
    )
    def test_bad_config_exit_2_before_omega(self, tmp_path, monkeypatch, capsys, overrides):
        def no_omega(config):
            raise AssertionError("omega estimated for an invalid config")

        monkeypatch.setattr(experiment, "estimate_omega", no_omega)
        cfg = write_config(tmp_path, **overrides)
        out = tmp_path / "x"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2_before_omega(self, tmp_path, monkeypatch, capsys, workers):
        def no_omega(config):
            raise AssertionError("omega estimated for a refused worker count")

        monkeypatch.setattr(experiment, "estimate_omega", no_omega)
        cfg = write_config(tmp_path)
        out = tmp_path / "x"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--workers", workers]) == 2
        assert f"need workers >= 1, got {workers}" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_config_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        cfg.write_bytes(b"\xff\xfe" + cfg.read_bytes())
        out = tmp_path / "x"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config is not valid JSON:")
        assert not out.exists()

    def test_unknown_config_key_exit_2(self, tmp_path):
        cfg = write_config(tmp_path)
        data = json.loads(cfg.read_text())
        data["mystery"] = 1
        cfg.write_text(json.dumps(data))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2


def ints(least, most):
    """(valid, refused) values of an integer field whose range starts at
    ``least``: [least, most], then below it, a bool, a whole float, NaN and inf."""
    return (st.integers(least, most),
            st.sampled_from([least - 1, True, float(least), math.nan, math.inf]))


def reals(least, most):
    """(valid, refused) values of a real field in [least, most]: the range with
    its ends, then past each end, a bool, NaN and the infinities."""
    return (st.floats(least, most),
            st.sampled_from([least - 0.25, most + 0.25, False, math.nan, math.inf, -math.inf]))


def grid(kind):
    """(valid, refused) values of a grid list of ``kind``: one or two valid
    entries, then an empty list, refused entries, or a bare entry."""
    valid, refused = kind
    return (st.lists(valid, min_size=1, max_size=2),
            st.one_of(st.just([]), st.lists(refused, min_size=1, max_size=2), valid))


# Every field of ExperimentConfig, drawn small: N <= 64, t_max <= 50 and
# omega_samples <= 500 keep a sweep of up to 32 runs in tens of milliseconds,
# so these three and t_max_steps are always given; the others may take their
# defaults. Values in range may still break a rule between fields (m >= N, t0 >= c(N)).
GIVEN_FIELDS = dict(
    n_values=grid(ints(2, 64)),
    m_values=grid(ints(1, 6)),
    nu_values=grid(reals(0, 1)),
    delta_values=grid(reals(0, 1)),
    t_max=ints(1, 50),
    t_max_steps=ints(1, 40),
    omega_samples=ints(1, 500),
)
DEFAULTED_FIELDS = dict(
    rho0=reals(0, 1),
    c_exponent=reals(0, 1),
    k_max=ints(1, 6),
    w=(st.text(alphabet="01", max_size=3), st.sampled_from(["012", ["01"], 1])),
    t0=ints(0, 8),
    stat_window=ints(2, 12),
    stat_tol=reals(0, 0.1),
    n_seeds=ints(1, 2),
    master_seed=(st.integers(), st.sampled_from([True, 1.0])),
    omega_method=(st.sampled_from(OMEGA_METHODS), st.sampled_from(["guess", 1])),
    omega_max_len=(st.integers(0, 14), st.sampled_from([-1, ENUM_LENGTH_GUARD + 1, True])),
    reimitation=(st.booleans(), st.sampled_from([1, "true", None])),
    imitate_infected_only=(st.booleans(), st.sampled_from([0, "false", None])),
)
CONFIG_FIELDS = {**GIVEN_FIELDS, **DEFAULTED_FIELDS}


class TestEveryConfigThatLoadsRuns:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_sweep_runs_or_refuses_in_one_line(self, tmp_path_factory, data):
        # a config either sweeps to its three files or is refused before the first run
        values = data.draw(st.fixed_dictionaries(
            {k: valid for k, (valid, _) in GIVEN_FIELDS.items()},
            optional={k: valid for k, (valid, _) in DEFAULTED_FIELDS.items()}))
        for name in data.draw(st.lists(st.sampled_from(sorted(CONFIG_FIELDS)), max_size=2,
                                       unique=True)):
            values[name] = data.draw(CONFIG_FIELDS[name][1])
        d = tmp_path_factory.mktemp("config")
        cfg = d / "config.json"
        cfg.write_text(json.dumps(values))
        out = d / "out"
        with redirect_stderr(io.StringIO()) as err:
            code = main(["sweep", "--config", str(cfg), "--out", str(out)])
        if code == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            assert not (out / "records.csv").exists()
            return
        assert code == 0
        config = experiment.ExperimentConfig.from_json_file(cfg)
        runs = len(config.cells()) * config.n_seeds
        assert len((out / "records.csv").read_text().splitlines()) == 1 + runs
        assert json.loads((out / "summary.json").read_text())["n_records"] == runs
        timings = [line.split(",") for line in (out / "timings.csv").read_text().splitlines()]
        assert timings[0][:4] == ["cell_index", "seed_index", "N", "seed"]
        assert [int(row[3]) for row in timings[1:]] == [
            derive_seed(config.master_seed, int(row[0]), int(row[1])) for row in timings[1:]]


class TestUsage:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen-graph", "--n", "10", "--m", "1", "--frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [["gen-graph", "--n", "10", "--m", "2", "--m0", "5"],
         ["sweep", "--config", "config.json", "--emit-graphs"]],
        ids=["m0", "emit-graphs"],
    )
    def test_flags_beside_the_graph_header_exit_2(self, tmp_path, monkeypatch, argv):
        # a graph is named by "N m seed" alone, so no flag may grow or write another
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert not any(tmp_path.iterdir())

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

"""CLI subcommands: wiring, exit codes, and output formats."""

import json

import numpy as np
import pytest

from bbnet import cli, experiment
from bbnet.cli import main
from bbnet.graph import NetworkParams, generate_ba, read_edge_list
from bbnet.machines import omega_enumerate


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

    def test_one_node_seed_exit_2(self, capsys):
        assert main(["gen-graph", "--n", "10", "--m", "1", "--m0", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("n,m,m0", [(3, 3, 3), (6, 2, 5), (10, 1, 2)])
    def test_round_trip_any_m0(self, tmp_path, n, m, m0):
        # the header holds no m0, so every admitted m0 must read back
        out = tmp_path / "g.edges"
        assert main(["gen-graph", "--n", str(n), "--m", str(m), "--m0", str(m0),
                     "--seed", "7", "--out", str(out)]) == 0
        with open(out) as fh:
            g, params = read_edge_list(fh)
        grown = generate_ba(NetworkParams(n=n, m=m, m0=m0, seed=7))
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
        assert "need 0 <= n <= 3037000499" in capsys.readouterr().err


class TestOmega:
    def test_enumerate_matches_module(self, capsys):
        assert main(["omega", "--method", "enumerate", "--max-len", "18",
                     "--t-max", "100", "--k-max", "2"]) == 0
        rec = json.loads(capsys.readouterr().out)
        expected = omega_enumerate(18, "", 100, k_max=2)
        assert rec["method"] == "enumeration"
        assert rec["value"] == pytest.approx(expected.value, rel=1e-12)
        assert rec["stderr"] == 0.0

    def test_monte_carlo_record(self, capsys):
        assert main(["omega", "--method", "monte-carlo", "--samples", "2000",
                     "--t-max", "50", "--k-max", "2", "--seed", "3"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["method"] == "monte-carlo"
        assert 0.0 < rec["value"] < 1.0
        assert rec["params"]["n_samples"] == 2000

    def test_guard_exit_2(self, capsys):
        assert main(["omega", "--method", "enumerate", "--max-len", "30"]) == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--method", "monte-carlo", "--k-max", "0"],
            ["--method", "enumerate", "--k-max", "0"],
            ["--method", "enumerate", "--max-len", "5", "--t-max", "0"],
            ["--method", "enumerate", "--max-len", "5", "--w", "2"],
        ],
        ids=["mc-k-max-0", "enum-k-max-0", "short-t-max-0", "short-w-2"],
    )
    def test_bad_estimator_argument_exit_2(self, capsys, flags):
        assert main(["omega", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


class TestSimulate:
    def test_nu_zero_first_row(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = main(["simulate", "--n", "40", "--m", "2", "--nu", "0", "--delta", "1",
                     "--rho0", "0.5", "--steps", "5", "--t-max", "50", "--seed", "4",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,infected_density,best_carrier_density,max_displayed"
        assert lines[2].startswith("1,0.000000000,")

    def test_config_file_drives_run(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_text().count("\n") == 30 + 2  # header + rows 0..30


class TestSweepReport:
    def test_sweep_twice_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["sweep", "--config", str(cfg), "--out", str(d1)]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(d2)]) == 0
        assert (d1 / "records.csv").read_bytes() == (d2 / "records.csv").read_bytes()
        assert (d1 / "summary.json").read_bytes() == (d2 / "summary.json").read_bytes()

    def test_report_reaggregates(self, tmp_path):
        cfg = write_config(tmp_path)
        d = tmp_path / "out"
        main(["sweep", "--config", str(cfg), "--out", str(d)])
        rep_dir = tmp_path / "rep"
        assert main(["report", "--records", str(d / "records.csv"),
                     "--out", str(rep_dir)]) == 0
        summary = json.loads((rep_dir / "summary.json").read_text())
        full = json.loads((d / "summary.json").read_text())
        assert summary["per_n"] == full["per_n"]

    def test_emit_graphs_writes_edge_lists(self, tmp_path):
        cfg = write_config(tmp_path)
        d = tmp_path / "with_graphs"
        assert main(["sweep", "--config", str(cfg), "--out", str(d), "--emit-graphs"]) == 0
        files = sorted(p.name for p in d.glob("graph_*.edges"))
        assert files == ["graph_0_0.edges", "graph_0_1.edges"]
        with open(d / "graph_0_0.edges") as fh:
            g, params = read_edge_list(fh)
        assert g.n == 40
        assert g.num_edges == 3 + 2 * 37

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
         dict(delta_values=[True])],
        ids=["float-N", "bool-m", "m-ge-N", "t0-ge-c", "enum-guard", "w-list", "w-list-of-bits",
             "bool-rho0", "bool-c_exponent", "bool-stat_tol", "bool-nu", "bool-delta"],
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

    def test_report_bad_row_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        d = tmp_path / "out"
        main(["sweep", "--config", str(cfg), "--out", str(d)])
        good = (d / "records.csv").read_text().splitlines()
        # N not a number; condition_met neither "true" nor "false"
        for column, value in ((0, "forty"), (12, "TRUE")):
            lines = list(good)
            row = lines[1].split(",")
            row[column] = value
            lines[1] = ",".join(row)
            (d / "records.csv").write_text("\n".join(lines) + "\n")
            assert main(["report", "--records", str(d / "records.csv"),
                         "--out", str(tmp_path / "r")]) == 2
            assert "row 1" in capsys.readouterr().err

    def test_non_utf8_config_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        cfg.write_bytes(b"\xff\xfe" + cfg.read_bytes())
        out = tmp_path / "x"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config is not valid JSON:")
        assert not out.exists()

    def test_non_utf8_records_exit_2(self, tmp_path, capsys):
        records = tmp_path / "records.csv"
        records.write_bytes(b"\xff\xfe" + ",".join(experiment.RECORD_COLUMNS).encode() + b"\n")
        out = tmp_path / "r"
        assert main(["report", "--records", str(records), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot decode records:")
        assert not out.exists()

    def test_unknown_config_key_exit_2(self, tmp_path):
        cfg = write_config(tmp_path)
        data = json.loads(cfg.read_text())
        data["mystery"] = 1
        cfg.write_text(json.dumps(data))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2


class TestUsage:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen-graph", "--n", "10", "--m", "1", "--frobnicate"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

"""Tests of the benchmark itself: span arithmetic, the gate, patching, verdicts.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import compare
import gate
import run
import spans

import bbnet.graph
import bbnet.machines
from bbnet import cli

ROOT = Path(__file__).resolve().parent.parent

TINY_SWEEP = {
    "n_values": [60], "m_values": [2], "nu_values": [0.2], "delta_values": [1.0],
    "rho0": 0.2, "k_max": 3, "t_max": 100, "t_max_steps": 40, "stat_window": 5,
    "stat_tol": 0.05, "n_seeds": 2, "master_seed": 7, "omega_samples": 500,
}


def _sweep(tmp_path: Path, name: str) -> Path:
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY_SWEEP))
    out = tmp_path / name
    assert cli.main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    return out


def _trace(names, parent, start, end, counters=None, installed=None):
    return {
        "names": names,
        "name_id": np.asarray([names.index(n) for n, _ in parent]),
        "parent": np.asarray([p for _, p in parent]),
        "start": np.asarray(start, dtype=float),
        "end": np.asarray(end, dtype=float),
        "counters": {**dict.fromkeys(spans.COUNTER_NAMES, 0), **(counters or {})},
        "installed": installed if installed is not None else sorted(
            {n for meta in spans.PER_LAYER.values() for n in meta[2]}),
    }


def test_self_time_of_nested_spans():
    # root [0,10] > a [1,5] > b [2,3]; root > c [6,9]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 6.0])
    end = np.array([10.0, 5.0, 3.0, 9.0])
    assert spans.self_times(parent, start, end).tolist() == [3.0, 3.0, 1.0, 3.0]


def test_layer_self_times_and_unattributed_add_up_to_wall():
    names = [spans.ROOT, "experiment.run_cell_seed", "machines.population_fitness", "machines.run",
             "dynamics.step"]
    t = _trace(
        names,
        [(spans.ROOT, -1), ("experiment.run_cell_seed", 0), ("machines.population_fitness", 1),
         ("machines.run", 2), ("dynamics.step", 1), ("dynamics.step", 1)],
        start=[0.0, 0.5, 1.0, 1.5, 4.0, 5.0],
        end=[8.0, 7.0, 3.0, 2.5, 4.5, 5.25],
        counters={"memo_lookups": 4, "interpreter_steps": 10, "budget_steps": 9,
                  "budget_exhausted": 1},
    )
    m = spans.layer_metrics(t)
    layers = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layers + m["unattributed_s"] == pytest.approx(m["traced_wall_s"]) == 8.0
    assert m["unattributed_s"] == 1.5
    assert m["experiment.self_s"] == 6.5 - 2.0 - 0.75
    assert m["machines.interpreter_s"] == 1.0 and m["machines.population_fitness_self_s"] == 1.0
    assert m["dynamics.steps"] == 2 and m["dynamics.step_us"] == pytest.approx(375_000)
    assert m["machines.memo_hit_ratio"] == 0.75 and m["machines.budget_step_share"] == 0.9


def test_missing_entry_point_is_reported_missing_not_zero():
    t = _trace([spans.ROOT], [(spans.ROOT, -1)], [0.0], [1.0], installed=["dynamics.step"])
    m = spans.layer_metrics(t)
    assert "machines.interpreter_calls" not in m and "machines.memo_hit_ratio" not in m
    assert m["dynamics.steps"] == 0


def test_merge_keeps_parents_within_each_part():
    a = _trace([spans.ROOT, "machines.run"], [(spans.ROOT, -1), ("machines.run", 0)], [0, 1], [4, 2],
               counters={"memo_lookups": 1})
    b = _trace([spans.ROOT, "machines.omega_enumerate", "machines.run"],
               [(spans.ROOT, -1), ("machines.omega_enumerate", 0), ("machines.run", 1)],
               [10, 11, 12], [13, 12.5, 12.25], counters={"memo_lookups": 2})
    merged = spans.merge([a, b])
    assert merged["parent"].tolist() == [-1, 0, -1, 2, 3]
    assert merged["counters"]["memo_lookups"] == 3
    m = spans.layer_metrics(merged)
    assert m["traced_wall_s"] == 7.0 and m["machines.interpreter_calls"] == 2
    assert m["machines.omega_enum_self_s"] == 1.25


def test_gate_catches_a_flipped_byte_in_records(tmp_path):
    out = _sweep(tmp_path, "out")
    pins = {"tiny": {name: gate.sha256(out / name) for name in ("records.csv", "summary.json")}}
    args = ("tiny", gate.DEFAULT_SEED, out, [60], 2)
    assert all(ok for _, ok, _ in gate.check_sweep(*args, pins=pins))

    data = bytearray((out / "records.csv").read_bytes())
    i = data.rindex(b".") + 1  # a digit of the last float
    data[i] = ord("1") if data[i] != ord("1") else ord("2")
    (out / "records.csv").write_bytes(bytes(data))
    failed = [name for name, ok, _ in gate.check_sweep(*args, pins=pins) if not ok]
    assert failed == ["pinned_records.csv"]


def test_gate_catches_a_broken_schema_at_any_seed(tmp_path):
    out = _sweep(tmp_path, "out")
    lines = (out / "records.csv").read_text().splitlines()
    (out / "records.csv").write_text("\n".join(lines[:-1]) + "\n")
    failed = [name for name, ok, _ in gate.check_sweep("tiny", 12345, out, [60], 2) if not ok]
    assert failed == ["records_rows"]


def test_gate_catches_a_wrong_enumeration_numerator():
    enum = {"numerator": gate.ENUM_NUMERATOR, "value": gate.ENUM_NUMERATOR / 2 ** 18, "max_len": 18}
    value = 0.43
    mc = {"value": value, "stderr": (value * (1 - value) / 50_000) ** 0.5, "n_samples": 50_000}
    assert all(ok for _, ok, _ in gate.check_halting_mass(3, mc, enum))
    wrong = dict(enum, numerator=gate.ENUM_NUMERATOR - 1, value=(gate.ENUM_NUMERATOR - 1) / 2 ** 18)
    failed = [name for name, ok, _ in gate.check_halting_mass(3, mc, wrong) if not ok]
    assert failed == ["enum_numerator"]


def test_tracing_keeps_outputs_and_uninstall_restores(tmp_path):
    originals = {name: getattr(bbnet.graph, name) for name in spans.ENTRY_POINTS["graph"]}
    plain = _sweep(tmp_path, "plain")
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert "experiment.generate_ba" in spans.patched_names()
        assert "machines._cached_outcome" in spans.patched_names()
        root = tracer.open(spans.ROOT)
        traced = _sweep(tmp_path, "traced")
        g = bbnet.graph.generate_ba(bbnet.graph.NetworkParams(n=50, m=2, seed=1))
        tracer.close(root)
    finally:
        tracer.uninstall()
    tracer.dump(tmp_path / "spans.npz")
    m = spans.layer_metrics(spans.load(tmp_path / "spans.npz"))
    layers = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layers + m["unattributed_s"] == pytest.approx(m["traced_wall_s"], abs=1e-9)
    assert m["experiment.runs"] == TINY_SWEEP["n_seeds"]
    assert spans.patched_names() == []
    assert {n: getattr(bbnet.graph, n) for n in originals} == originals
    for name in ("records.csv", "summary.json"):
        assert (plain / name).read_bytes() == (traced / name).read_bytes()
    assert tracer.counters["edges_grown"] >= g.num_edges
    assert {"experiment.run_cell_seed", "machines.population_fitness"} <= set(tracer.names)


def test_untraced_pass_runs_unpatched(tmp_path):
    tracer = spans.Tracer()
    tracer.install()  # patched here must not reach the child's fresh interpreter
    try:
        result, error = run._spawn(ROOT, "halting_mass", "enum", 0, False, tmp_path / "enum")
    finally:
        tracer.uninstall()
    assert error == ""
    assert result["patched"] == []
    traced, error = run._spawn(ROOT, "halting_mass", "enum", 0, True, tmp_path / "traced")
    assert error == "" and "machines.run" in traced["patched"]


def test_gate_catches_a_flipped_byte_in_the_edge_list(tmp_path):
    g = bbnet.graph.generate_ba(bbnet.graph.NetworkParams(n=200, m=2, seed=0))
    path = tmp_path / "graph.edges"
    with open(path, "w") as fh:
        bbnet.graph.write_edge_list(g, fh, 2, 0)
    pins = {"topology": {"diameter": 4, "graph.edges": gate.sha256(path)}}
    args = (gate.DEFAULT_SEED, 200, 2, g, g, 3.0, 4, path)
    assert all(ok for name, ok, _ in gate.check_topology(*args, pins=pins))

    data = bytearray(path.read_bytes())
    data[-2] = ord("1") if data[-2] != ord("1") else ord("2")
    path.write_bytes(bytes(data))
    failed = [name for name, ok, _ in gate.check_topology(*args, pins=pins) if not ok]
    assert failed == ["pinned_graph.edges"]


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "topology",
         "--root", str(tmp_path)], capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""


@pytest.mark.parametrize("parent, change, expected", [
    ([10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0], [9.0] * 10, "improved"),
    # a wide-spread parent does not hide a change that is worse in every pair
    ([10.0, 14.0, 8.0, 12.0, 9.0, 13.0, 7.0, 11.0, 10.0, 15.0],
     [15.0, 19.0, 13.0, 17.0, 14.0, 18.0, 12.0, 16.0, 15.0, 20.0], "worse"),
    ([10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0],
     [10.0, 10.2, 9.8, 10.1, 10.0, 9.9, 10.1, 10.0, 9.9, 10.1], "unchanged"),
    ([10.0] * 10, [12.0] * 10, "worse"),
    ([10.0, 14.0, 8.0, 12.0, 9.0, 13.0, 7.0, 11.0, 10.0, 15.0], [10.0] * 10, "unresolved"),
])
def test_compare_verdicts(parent, change, expected):
    assert compare.verdict(parent, change, "lower", 0.1)["verdict"] == expected


def test_compare_refuses_a_gain_when_the_change_fails_more_checks(tmp_path, capsys):
    def record(path, wall, failed):
        metrics = {"wall_ref": wall, "setup_s": 0.3, "peak_rss_mb": 60.0}
        with open(path, "w") as fh:
            for seed in range(10):
                result = {"correct": failed == 0, "attempted": 20, "failed": failed,
                          "metrics": {k: {"value": v, "unit": run.END_TO_END[k]}
                                      for k, v in metrics.items()}}
                fh.write(json.dumps({"workload": "topology", "seed": seed, "trace": 0,
                                     "result": result}) + "\n")

    record(tmp_path / "parent.jsonl", 300.0, 0)
    record(tmp_path / "change.jsonl", 200.0, 0)
    compare.report(tmp_path / "parent.jsonl", tmp_path / "change.jsonl")
    assert "improved" in capsys.readouterr().out
    record(tmp_path / "change.jsonl", 200.0, 1)
    compare.report(tmp_path / "parent.jsonl", tmp_path / "change.jsonl")
    out = capsys.readouterr().out
    assert "improved" not in out
    assert out.splitlines()[1].split() == ["topology", "failed", "0", "10"]


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _) in spans.PER_LAYER.items()
    ]
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS)

"""Correctness gate: every benchmark pass must produce right outputs.

At ``DEFAULT_SEED`` the outputs are pinned exactly (artifact and edge-list
SHA-256, Omega values, diameter). At any seed the checks that do not depend on the seed
hold: schema and row counts, stationarity, the Monte-Carlo/enumeration
bracket, the Barabasi-Albert edge identity, the degree exponent band and
the edge-list round trip.

A check is ``(name, ok, detail)``. Each failed check counts against the
run's ``failed`` total.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

DEFAULT_SEED = 0

# The records.csv schema documented in the README; fixed, not read from bbnet.
RECORD_COLUMNS = (
    "N,m,nu,delta,lambda,C,c_of_N,t_s,rho_hat,rho_theory,tau_E,omega_hat,"
    "condition_met,c_best,c_bar_isolated,eeac_proxy"
).split(",")

# Recorded at DEFAULT_SEED from the commit that introduced the benchmark.
PINS = {
    "headline": {
        "records.csv": "a6dc1352637e012eb0469046efb913ff01a990ffa6e794d832bbfcd3869bdc10",
        "summary.json": "6a6630233bd2dba08f8ff60a3320c19bcc6cc66693a87e280b06915778a6f2ef",
    },
    "prevalence": {
        "records.csv": "df6a4cf7878506f8b31084d8bbe3d2725d04e872319d633dc474c6ccef8b8e4a",
        "summary.json": "feac3c8fab7de4afa08ab84e11ec4e528b0c53c97dc3c28935101b924ec5c8ed",
    },
    "halting_mass": {"mc_value": 0.42848, "mc_stderr": 0.002213074285242138},
    "topology": {
        "diameter": 9,
        "graph.edges": "5a0cc5d6e93e9c54cccfc372a38b00f03bba59fc834b045b4ec31792e68ec5c5",
    },
}

# Exact numerator of the enumerated halting mass over 2**18 (k_max=6,
# t_max=1000, empty input). Enumeration takes no seed, so it holds at every seed.
ENUM_NUMERATOR = 87248


def check(name: str, ok: bool, detail: str = "") -> tuple[str, bool, str]:
    return (name, bool(ok), detail)


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_sweep(
    workload: str,
    seed: int,
    out_dir: Path,
    n_values: list[int],
    n_rows: int,
    pins: dict = PINS,
) -> list[tuple[str, bool, str]]:
    """Schema, row counts, pinned bytes at the default seed and, for
    ``prevalence``, that stationarity fired with a positive prevalence."""
    out_dir = Path(out_dir)
    records_path, summary_path = out_dir / "records.csv", out_dir / "summary.json"
    if not (records_path.is_file() and summary_path.is_file()):
        return [check("artifacts_written", False, f"missing records.csv or summary.json in {out_dir}")]
    out = [check("artifacts_written", True)]
    with open(records_path, newline="") as fh:
        rows = list(csv.reader(fh))
    out.append(check("records_header", rows[:1] == [RECORD_COLUMNS], str(rows[:1])))
    body = rows[1:]
    out.append(check("records_rows", len(body) == n_rows, f"{len(body)} rows, expected {n_rows}"))
    out.append(check(
        "records_width", all(len(r) == len(RECORD_COLUMNS) for r in body), "16 fields per row"
    ))
    try:
        summary = json.loads(summary_path.read_text())
        per_n = summary["per_n"]
        ok = summary["n_records"] == n_rows and sorted(per_n, key=int) == [str(n) for n in sorted(n_values)]
        detail = f"n_records={summary['n_records']}, per_n={sorted(per_n)}"
    except (ValueError, KeyError, TypeError) as exc:
        ok, detail = False, f"unreadable summary.json: {exc}"
    out.append(check("summary_schema", ok, detail))
    if workload == "prevalence":
        col = {name: i for i, name in enumerate(RECORD_COLUMNS)}
        fired = [r for r in body if len(r) == len(RECORD_COLUMNS) and int(r[col["t_s"]]) >= 0]
        positive = [r for r in fired if float(r[col["rho_hat"]]) > 0.0]
        out.append(check(
            "stationarity_fired", len(body) > 0 and len(positive) == len(body),
            f"{len(positive)} of {len(body)} runs stationary with rho_hat > 0",
        ))
    if seed == DEFAULT_SEED:
        for name in ("records.csv", "summary.json"):
            got, want = sha256(out_dir / name), pins[workload][name]
            out.append(check(f"pinned_{name}", got == want, f"sha256 {got}, pinned {want}"))
    return out


def check_halting_mass(
    seed: int, mc: dict, enum: dict, pins: dict = PINS
) -> list[tuple[str, bool, str]]:
    """Monte-Carlo estimate against the exact enumerated lower bound."""
    out = [
        check("enum_numerator", enum["numerator"] == ENUM_NUMERATOR,
              f"{enum['numerator']}, expected {ENUM_NUMERATOR}"),
        check("enum_value", enum["value"] == enum["numerator"] / 2 ** enum["max_len"],
              f"{enum['value']!r}"),
        check("mc_above_enum_bound", mc["value"] >= enum["value"] - 4 * mc["stderr"],
              f"mc {mc['value']} +- {mc['stderr']} vs enumeration {enum['value']}"),
        check("mc_stderr", math.isclose(
            mc["stderr"], math.sqrt(mc["value"] * (1 - mc["value"]) / mc["n_samples"])
        ), f"{mc['stderr']!r}"),
    ]
    if seed == DEFAULT_SEED:
        pin = pins["halting_mass"]
        out.append(check(
            "pinned_mc", (mc["value"], mc["stderr"]) == (pin["mc_value"], pin["mc_stderr"]),
            f"{mc['value']!r} +- {mc['stderr']!r}, pinned {pin['mc_value']!r} +- {pin['mc_stderr']!r}",
        ))
    return out


def check_topology(
    seed: int, n: int, m: int, g, g_read, gamma_hat: float, diameter: int, edges_path: Path,
    pins: dict = PINS,
) -> list[tuple[str, bool, str]]:
    """Barabasi-Albert identities and the edge-list round trip; at the default
    seed, the diameter and the bytes of the written edge list."""
    m0 = m + 1
    edges = m0 * (m0 - 1) // 2 + m * (n - m0)
    out = [
        check("edge_identity", g.num_edges == edges, f"{g.num_edges} edges, expected {edges}"),
        check("min_degree", int(g.degrees.min()) == m, f"min degree {int(g.degrees.min())}"),
        check("gamma_band", 2.6 <= gamma_hat <= 3.4, f"gamma_hat {gamma_hat}"),
        check("round_trip", g_read.n == g.n
              and g_read.indptr.tolist() == g.indptr.tolist()
              and g_read.indices.tolist() == g.indices.tolist(), "indptr/indices after read"),
        check("diameter_positive", diameter >= 1, f"diameter {diameter}"),
    ]
    if seed == DEFAULT_SEED:
        pin = pins["topology"]
        out.append(check("pinned_diameter", diameter == pin["diameter"],
                         f"{diameter}, pinned {pin['diameter']}"))
        got = sha256(edges_path)
        out.append(check("pinned_graph.edges", got == pin["graph.edges"],
                         f"sha256 {got}, pinned {pin['graph.edges']}"))
    return out

"""Command-line experiment runner.

Subcommands: gen-graph, omega, simulate, sweep, report. Exit code 0 on
success, 2 on usage or configuration errors, 1 on I/O failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import AbstractContextManager, nullcontext
from dataclasses import replace
from pathlib import Path
from typing import TextIO

from .errors import ParameterError
from .experiment import (
    ExperimentConfig,
    estimate_omega,
    read_records_csv,
    run_sweep_to_dir,
    simulate_cell,
    summarize,
    write_summary_json,
)
from .graph import NetworkParams, generate_ba, write_edge_list


def _load_config(path: str, seed_override: int | None) -> ExperimentConfig:
    config = ExperimentConfig.from_json_file(path)
    return config if seed_override is None else replace(config, master_seed=seed_override)


def _output(path: str | None) -> AbstractContextManager[TextIO]:
    """The --out file opened for writing, or stdout (left open on exit)."""
    return open(path, "w") if path else nullcontext(sys.stdout)


def _cmd_gen_graph(args: argparse.Namespace) -> int:
    params = NetworkParams(n=args.n, m=args.m, m0=args.m0, seed=args.seed)
    g = generate_ba(params)
    with _output(args.out) as fh:
        write_edge_list(g, fh, args.m, args.seed)
    return 0


def _cmd_omega(args: argparse.Namespace) -> int:
    """The config's omega, the one its sweep compares tau_E with."""
    est = estimate_omega(_load_config(args.config, args.seed))
    line = json.dumps(est.to_record(), sort_keys=True)
    with _output(args.out) as fh:
        print(line, file=fh)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    """Write the run a sweep scores for (cell 0, seed 0), and print its stationarity verdict."""
    _, _, traj, stat = simulate_cell(_load_config(args.config, args.seed), 0, 0)
    with _output(args.out) as fh:
        traj.to_csv(fh)
    if stat.fired:
        print(f"stationary at t={stat.t_s}, rho_hat={stat.rho_hat:.9f}", file=sys.stderr)
    else:
        print("stationarity not detected within the run", file=sys.stderr)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args.config, args.seed)
    out_dir = args.out or "."
    run_sweep_to_dir(config, out_dir, workers=args.workers, emit_graphs=args.emit_graphs)
    print(f"wrote {Path(out_dir) / 'records.csv'} and summary.json", file=sys.stderr)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    with open(args.records) as fh:
        records = read_records_csv(fh)
    summary = summarize(records)
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "summary.json", "w") as fh:
        write_summary_json(summary, fh)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bbnet",
        description="Busy-beaver populations on scale-free networks under SIS imitation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config_run = argparse.ArgumentParser(add_help=False)
    config_run.add_argument("--config", type=str, required=True)
    config_run.add_argument("--seed", type=int, default=None, help="override master_seed")
    config_run.add_argument("--out", type=str, default=None)

    p = sub.add_parser("gen-graph", help="emit a Barabasi-Albert graph as an edge list")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--m0", type=int, default=-1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_gen_graph)

    p = sub.add_parser("omega", parents=[config_run],
                       help="estimate a config's halting probability, as its sweep does")
    p.set_defaults(func=_cmd_omega)

    p = sub.add_parser("simulate", parents=[config_run],
                       help="run cell 0 of a config file, emit trajectory CSV")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", parents=[config_run],
                       help="run the full experiment grid from a config file")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--emit-graphs", action="store_true", dest="emit_graphs",
                   help="also write graph_<cell>_<seed>.edges per run")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report", help="re-aggregate an existing records.csv")
    p.add_argument("--records", type=str, required=True)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

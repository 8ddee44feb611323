"""Command-line experiment runner.

Subcommands: gen-graph, omega, simulate, sweep, report. Exit code 0 on
success, 2 on usage or configuration errors, 1 on I/O failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .analysis import detect_stationarity
from .errors import ParameterError
from .experiment import (
    OMEGA_METHODS,
    ExperimentConfig,
    read_records_csv,
    run_sweep_to_dir,
    simulate_cell,
    summarize,
    write_summary_json,
)
from .graph import NetworkParams, generate_ba, write_edge_list
from .machines import K_MAX_DEFAULT, T_MAX_DEFAULT, omega_enumerate, omega_monte_carlo
from .rng import rng_from_seed


def _load_config(path: str, seed_override: int | None) -> ExperimentConfig:
    config = ExperimentConfig.from_json_file(path)
    if seed_override is not None:
        config.master_seed = seed_override
    return config


def _cmd_gen_graph(args: argparse.Namespace) -> int:
    params = NetworkParams(n=args.n, m=args.m, m0=args.m0, seed=args.seed)
    g = generate_ba(params)
    if args.out:
        with open(args.out, "w") as fh:
            write_edge_list(g, fh, args.m, args.seed)
    else:
        write_edge_list(g, sys.stdout, args.m, args.seed)
    return 0


def _cmd_omega(args: argparse.Namespace) -> int:
    if args.method == "enumerate":
        est = omega_enumerate(args.max_len, args.w, args.t_max, args.k_max)
    else:
        rng = rng_from_seed(args.seed)
        est = omega_monte_carlo(args.samples, args.w, args.t_max, rng, args.k_max)
    line = json.dumps(est.to_record(), sort_keys=True)
    if args.out:
        Path(args.out).write_text(line + "\n")
    else:
        print(line)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    """Run the first cell of the config (or of the flags) with seed index 0."""
    if args.config:
        cfg = _load_config(args.config, args.seed)
    else:
        cfg = ExperimentConfig(
            n_values=[args.n], m_values=[args.m],
            nu_values=[args.nu], delta_values=[args.delta],
            rho0=args.rho0, k_max=args.k_max, t_max=args.t_max,
            w=args.w, t_max_steps=args.steps, reimitation=args.reimitation,
            master_seed=args.seed if args.seed is not None else 0,
        )
    _, _, traj = simulate_cell(cfg, 0, 0, cfg.t_max_steps)
    if args.out:
        with open(args.out, "w") as fh:
            traj.to_csv(fh)
    else:
        traj.to_csv(sys.stdout)
    stat = detect_stationarity(traj.infected_density, cfg.stat_window, cfg.stat_tol)
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
    defaults = {f.name: f.default for f in fields(ExperimentConfig)}

    p = sub.add_parser("gen-graph", help="emit a Barabasi-Albert graph as an edge list")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--m0", type=int, default=-1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_gen_graph)

    p = sub.add_parser("omega", help="estimate the halting probability")
    p.add_argument("--method", choices=OMEGA_METHODS, required=True)
    p.add_argument("--max-len", type=int, default=defaults["omega_max_len"], dest="max_len")
    p.add_argument("--samples", type=int, default=defaults["omega_samples"])
    p.add_argument("--t-max", type=int, default=T_MAX_DEFAULT, dest="t_max")
    p.add_argument("--k-max", type=int, default=K_MAX_DEFAULT, dest="k_max")
    p.add_argument("--w", type=str, default="")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_omega)

    p = sub.add_parser("simulate", help="run one simulation cell, emit trajectory CSV")
    p.add_argument("--config", type=str, default=None)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--nu", type=float, default=0.2)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--rho0", type=float, default=defaults["rho0"])
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--t-max", type=int, default=1000, dest="t_max")
    p.add_argument("--k-max", type=int, default=K_MAX_DEFAULT, dest="k_max")
    p.add_argument("--w", type=str, default="")
    p.add_argument("--reimitation", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="run the full experiment grid from a config file")
    p.add_argument("--config", type=str, required=True)
    p.add_argument("--seed", type=int, default=None, help="override master_seed")
    p.add_argument("--out", type=str, default=None)
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

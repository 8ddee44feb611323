"""Compare two result sets of the benchmark: a parent tree against a change.

    # ten alternating pairs per workload, same benchmark code on both trees
    python3 perfbench/compare.py pairs --parent ../parent --change . \\
        --workload headline --workload prevalence --pairs 10 --out results/
    # the verdicts, from two files written by run.py --record
    python3 perfbench/compare.py report results/parent.jsonl results/change.jsonl

For every workload the report prints each side's failed checks; for every
end-to-end metric, each side's median and quartiles, the fraction of pairs
(same seed) the change wins, and a verdict. A metric is *worse* when the
change's median is worse than the parent's by more than the bound in
BENCHMARK.json; *improved* only when the change wins at least 9/10 of the
pairs, the medians differ by more than the parent's interquartile range and
the change fails no more checks than the parent; *unresolved* when either
side's spread is wider than the bound (unless every change run beats every
parent run); otherwise *unchanged*. Runs last BENCHMARK.json's
``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = BENCH_DIR.parent / "BENCHMARK.json"
WIN_SHARE = 0.9
FIRST_PAIR_SEED = 100  # pair i runs seed FIRST_PAIR_SEED + i on both trees


def load_results(path: Path) -> dict[tuple[str, int], dict]:
    """(workload, seed) -> metric values and failed checks of one recorded untraced run."""
    out = {}
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        if rec["trace"] == 0:
            result = rec["result"]
            values = {k: v["value"] for k, v in result["metrics"].items()}
            out[(rec["workload"], rec["seed"])] = {"values": values, "failed": result["failed"]}
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            more_failures: bool = False) -> dict:
    """Pairwise comparison of one metric; ``parent[i]`` and ``change[i]`` share a seed.
    ``more_failures``: the change failed more checks than the parent, so no gain counts."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gap = sign * (p_med - c_med)  # > 0 when the change is better
    spread = max((p_q3 - p_q1) / abs(p_med), (c_q3 - c_q1) / abs(c_med))
    if better == "lower":
        every_run_better = max(change) < min(parent)
    else:
        every_run_better = min(change) > max(parent)
    if -gap > bound * abs(p_med):
        word = "worse"
    elif wins >= WIN_SHARE * len(parent) and gap > p_q3 - p_q1 and not more_failures:
        word = "improved"
    elif spread > bound and not every_run_better:
        word = "unresolved"
    else:
        word = "unchanged"
    return {"parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
            "win_frac": wins / len(parent), "verdict": word}


def report(parent_path: Path, change_path: Path) -> int:
    spec = json.loads(SPEC.read_text())
    parent, change = load_results(parent_path), load_results(change_path)
    print(f"{'workload':14}{'metric':13}{'parent q1/med/q3':>30}{'change q1/med/q3':>30}"
          f"{'wins':>7}  verdict")
    for workload in sorted({w for w, _ in [*parent, *change]}):
        run_seeds = sorted({s for w, s in [*parent, *change] if w == workload})
        # A run that left no record (it crashed) counts as one failed check.
        p_failed = sum(parent[(workload, s)]["failed"] if (workload, s) in parent else 1
                       for s in run_seeds)
        c_failed = sum(change[(workload, s)]["failed"] if (workload, s) in change else 1
                       for s in run_seeds)
        seeds = [s for s in run_seeds if (workload, s) in parent and (workload, s) in change]
        print(f"{workload:14}{'failed':13}{p_failed:>30}{c_failed:>30}")
        if not seeds:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [parent[(workload, s)]["values"][name] for s in seeds]
            c = [change[(workload, s)]["values"][name] for s in seeds]
            v = verdict(p, c, metric["better"], metric["bound"], c_failed > p_failed)
            fmt = "/".join(f"{x:.4g}" for x in v["parent"]), "/".join(f"{x:.4g}" for x in v["change"])
            print(f"{workload:14}{name:13}{fmt[0]:>30}{fmt[1]:>30}{v['win_frac']:>7.2f}  "
                  f"{v['verdict']} ({len(seeds)} pairs)")
    return 0


def pairs(parent: Path, change: Path, workloads: list[str], n_pairs: int, out: Path) -> int:
    """Alternate which tree runs first, one seed per pair, same benchmark code."""
    out.mkdir(parents=True, exist_ok=True)
    seconds = json.loads(SPEC.read_text())["run_seconds"]
    sides = [("parent", parent), ("change", change)]
    for i in range(n_pairs):
        seed = FIRST_PAIR_SEED + i
        for workload in workloads:
            for label, tree in (sides if i % 2 == 0 else sides[::-1]):
                cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds), "--root", str(tree),
                       "--record", str(out / f"{label}.jsonl")]
                proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
                if proc.returncode != 0:
                    print(f"{label} {workload} seed {seed}: exit {proc.returncode}",
                          file=sys.stderr)
    return report(out / "parent.jsonl", out / "change.jsonl")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="Compare parent and change benchmark results.")
    sub = p.add_subparsers(dest="command", required=True)
    r = sub.add_parser("report", help="verdicts from two --record files")
    r.add_argument("parent", type=Path)
    r.add_argument("change", type=Path)
    q = sub.add_parser("pairs", help="run alternating pairs, then report")
    q.add_argument("--parent", type=Path, required=True)
    q.add_argument("--change", type=Path, required=True)
    q.add_argument("--workload", action="append", required=True)
    q.add_argument("--pairs", type=int, default=10)
    q.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    if args.command == "report":
        return report(args.parent, args.change)
    return pairs(args.parent.resolve(), args.change.resolve(), args.workload, args.pairs,
                 args.out)


if __name__ == "__main__":
    sys.exit(main())

"""bbnet benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload headline --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Each pass runs in fresh interpreters (the interpreter memo is process-wide,
so a warm second pass would measure what users never see). Passes repeat
until ``--seconds`` have passed, at least ``MIN_PASSES`` times, and every
time metric is the median over passes. ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics of spans.py instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every check passed; it is 2, with no result printed, when the
tree has no bbnet source to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy

import gate
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
SCRATCH = CHECKOUT / ".perfbench_tmp"

MIN_PASSES = 3  # untraced passes per run; a traced run makes at least one pair
CHILD_TIMEOUT_S = 150
# Reference-kernel time that setup_s is scaled to (the kernel's median on an
# idle core of a 2-vCPU Intel Xeon VM), so set-up is reported at one CPU speed.
REF_NOMINAL_S = 0.010

END_TO_END = {
    "wall_ref": "ref",  # wall_s / ref_s, summed over a pass's parts
    "setup_s": "s",  # setup_raw_s at the nominal reference-kernel speed
    "peak_rss_mb": "MB",  # high-water resident set of the pass
}
# Printed beside the end-to-end metrics but not in the result object: on a
# shared host they carry the CPU-speed drift that wall_ref divides out.
RAW = {
    "wall_s": "s",  # first call into bbnet -> artifacts written
    "cpu_s": "s",  # user + sys over the wall_s interval
    "setup_raw_s": "s",  # process start -> bbnet imported and inputs ready
}


def _read_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(root: Path, seed: int) -> dict:
    """Where and what was measured; load is filled in at start and end."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _read_commit(root),
        "src_sha256": source_digest(root / "src" / "bbnet"),
        "seed": seed,
        "loadavg_start": list(os.getloadavg()),
    }


def source_digest(src: Path) -> str:
    """SHA-256 over the package sources, for trees that are not git checkouts."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _spawn(root: Path, workload: str, part: str, seed: int, trace: bool,
           workdir: Path) -> tuple[dict | None, str]:
    """Run one part in a fresh interpreter; returns its result or an error."""
    workdir.mkdir(parents=True)
    out = workdir / "result.json"
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--root", str(root),
           "--workload", workload, "--part", part, "--seed", str(seed),
           "--trace", str(int(trace)), "--workdir", str(workdir), "--out", str(out),
           "--spawned-at", repr(perf_counter())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"{workload}/{part} timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0 or not out.is_file():
        return None, f"{workload}/{part} exited {proc.returncode}: {proc.stderr[-2000:]}"
    return json.loads(out.read_text()), ""


def run_pass(root: Path, workload: str, seed: int, trace: bool, workdir: Path) -> dict:
    """All parts of one pass; timings add up over parts, peak RSS is the max."""
    result = {"wall_s": 0.0, "cpu_s": 0.0, "wall_ref": 0.0, "peak_rss_mb": 0.0, "setup": [],
              "checks": [], "traces": [], "ok": True}
    outputs = {}
    for part in workloads.WORKLOADS[workload]:
        child, error = _spawn(root, workload, part, seed, trace, workdir / part)
        if child is None:
            result["checks"].append(gate.check("pass_completed", False, error))
            result["ok"] = False
            return result
        result["wall_s"] += child["wall_s"]
        result["cpu_s"] += child["cpu_s"]
        result["wall_ref"] += child["wall_s"] / child["ref_s"]
        result["peak_rss_mb"] = max(result["peak_rss_mb"], child["peak_rss_mb"])
        result["setup"].append((child["setup_s"], child["setup_ref_s"]))
        result["checks"] += [tuple(c) for c in child["checks"]]
        outputs[part] = child["outputs"]
        if trace:
            result["traces"].append(spans.load(Path(child["spans"])))
    result["checks"].append(gate.check("pass_completed", True))
    result["checks"] += workloads.pass_checks(workload, seed, outputs)
    return result


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Passes of one workload until ``seconds`` have passed; medians per metric."""
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH))
    try:
        setups, checks, untraced, traced = [], [], [], []
        started = perf_counter()
        n = 0
        while True:
            # Traced runs alternate which kind of pass goes first.
            kinds = ((False, True) if n % 2 == 0 else (True, False)) if trace else (False,)
            for kind in kinds:
                p = run_pass(root, workload, seed, kind, tmp / f"pass{n}-{int(kind)}")
                checks += p["checks"]
                if p["ok"]:
                    setups += p["setup"]
                    (traced if kind else untraced).append(p)
            n += 1
            enough = n >= (1 if trace else MIN_PASSES)
            if enough and perf_counter() - started >= seconds:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics: dict[str, float] = {}
    if trace:
        per_pass = [spans.layer_metrics(spans.merge(p["traces"])) for p in traced]
        counts = [{k: v for k, v in m.items() if spans.PER_LAYER[k][0] == "count"} for m in per_pass]
        checks.append(gate.check("trace_counts_repeat", all(c == counts[0] for c in counts),
                                 "exact counts equal across traced passes"))
        if per_pass:
            # One pass (the median by traced wall time), so its self times add up.
            per_pass.sort(key=lambda m: m["traced_wall_s"])
            metrics.update(per_pass[(len(per_pass) - 1) // 2])
        if traced and untraced:
            traced_wall = statistics.median(p["wall_s"] for p in traced)
            untraced_wall = statistics.median(p["wall_s"] for p in untraced)
            metrics["trace_overhead_frac"] = traced_wall / untraced_wall - 1.0
    elif untraced:
        for name in ("wall_ref", "peak_rss_mb", "wall_s", "cpu_s"):
            metrics[name] = statistics.median([p[name] for p in untraced])
        metrics["setup_s"] = statistics.median(raw * REF_NOMINAL_S / ref for raw, ref in setups)
        metrics["setup_raw_s"] = statistics.median(raw for raw, _ in setups)
    return {"metrics": metrics, "checks": checks, "passes": len(untraced) + len(traced),
            "walls": [p["wall_s"] for p in untraced]}


def _units(trace: bool) -> dict[str, str]:
    return {k: v[0] for k, v in spans.PER_LAYER.items()} if trace else {**END_TO_END, **RAW}


def report(workload: str, measured: dict, trace: bool) -> dict:
    """Print the human-readable lines and return the result object."""
    checks = measured["checks"]
    failed = [c for c in checks if not c[1]]
    units = _units(trace)
    walls = " ".join(f"{w:.4g}" for w in measured["walls"])
    print(f"# {workload}: {measured['passes']} passes; untraced wall_s per pass: {walls}")
    for name, value in measured["metrics"].items():
        print(f"{name} {value:.6g} {units[name]}")
    missing = [name for name in units if name not in measured["metrics"]]
    if missing:
        print(f"missing {' '.join(missing)}")
    frac = len(failed) / len(checks) if checks else 1.0
    print(f"failed_frac {frac:.6g} ({len(failed)} of {len(checks)} checks)")
    for name, _, detail in failed:
        print(f"FAILED {name}: {detail}")
    return {
        "correct": not failed and bool(checks),
        "attempted": max(len(checks), 1),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in measured["metrics"].items()
                    if k not in RAW},
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=gate.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--root", type=Path, default=CHECKOUT,
                   help="tree whose src/bbnet is measured (default: this checkout)")
    p.add_argument("--record", type=Path, default=None,
                   help="append the stamped result as one JSON line to this file")
    args = p.parse_args(argv)

    root = args.root.resolve()
    if not (root / "src" / "bbnet" / "__init__.py").is_file() or not (
        root / "configs" / "headline.json"
    ).is_file():
        print(f"error: no bbnet source (src/bbnet, configs/headline.json) under {root}",
              file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results, measured = {}, {}
    for name in names:
        st = stamp(root, args.seed)
        measured[name] = measure(root, name, args.seed, args.seconds, bool(args.trace))
        st["loadavg_end"] = list(os.getloadavg())
        results[name] = report(name, measured[name], bool(args.trace))
        print("stamp " + json.dumps(st, sort_keys=True))
        if args.record:
            with open(args.record, "a") as fh:
                fh.write(json.dumps({"workload": name, "seed": args.seed, "trace": args.trace,
                                     "stamp": st, "result": results[name]}) + "\n")
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
    elif not args.trace:
        _print_table(results, measured)
    return 0 if all(r["correct"] for r in results.values()) else 1


def _print_table(results: dict, measured: dict) -> None:
    units = _units(False)
    print("workload".ljust(14) + "".join(f"{c} [{u}]".rjust(18) for c, u in units.items())
          + "failed_frac".rjust(14))
    for name, r in results.items():
        cells = "".join(
            (f"{measured[name]['metrics'][c]:.6g}" if c in measured[name]["metrics"] else "-").rjust(18)
            for c in units
        )
        print(name.ljust(14) + cells + f"{r['failed'] / r['attempted']:.3g}".rjust(14))


if __name__ == "__main__":
    sys.exit(main())

"""One part of one benchmark pass, in a fresh interpreter.

Started by run.py; not meant to be run by hand. Set-up (``setup_s``) runs
from the moment the parent spawned this process until bbnet is imported and
the part's inputs are ready; the timed region (``wall_s``, ``cpu_s``) is the
part's ``work``. A fixed reference kernel is timed right after set-up
(``setup_ref_s``) and again after the work (``ref_s`` is the mean of the
two). The result goes to ``--out`` as JSON; its ``patched`` lists the bbnet
names a tracer wraps in this interpreter (none in an untraced pass).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

REF_REPS = 15


def reference_s() -> float:
    """Median time of a fixed kernel: an interpreter loop in the style of
    ``machines.run`` and a numpy gather-and-reduce in the style of
    ``dynamics.step``.

    On a shared host the CPU speed a process gets drifts by tens of percent
    over minutes. Dividing a pass's wall time by this kernel's time, taken in
    the same process around the work, removes most of that drift.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    values = rng.random(200_000)
    index = rng.integers(0, len(values), len(values))
    starts = np.arange(0, len(values), 6)
    times = []
    for _ in range(REF_REPS):
        t0 = perf_counter()
        tape, pos, state = bytearray(4096), 2048, 0
        for _ in range(15_000):
            idx = 2 * state + tape[pos]
            tape[pos] = idx & 1
            pos = (pos + (1 if idx & 2 else -1)) & 4095
            state = (state + idx) % 3
        for _ in range(2):
            np.maximum.reduceat(values[index], starts)
        times.append(perf_counter() - t0)
    return median(times)


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--root", type=Path, required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--part", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    sys.path.insert(0, str(args.root / "src"))
    import bbnet  # noqa: F401  (the import is part of set-up)

    import spans
    import workloads

    part = workloads.make_part(args.workload, args.part, args.root, args.workdir, args.seed)
    part.prepare()
    # perf_counter is CLOCK_MONOTONIC on Linux, shared with the parent.
    result = {"setup_s": perf_counter() - args.spawned_at}
    ref_before = result["setup_ref_s"] = reference_s()

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    result["patched"] = spans.patched_names()

    cpu0 = _cpu_s()
    t0 = perf_counter()
    root = tracer.open(spans.ROOT) if tracer else None
    part.work()
    if tracer:
        tracer.close(root)
    result["wall_s"] = perf_counter() - t0
    result["cpu_s"] = _cpu_s() - cpu0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["ref_s"] = (ref_before + reference_s()) / 2

    result["checks"] = part.checks()
    result["outputs"] = part.outputs()
    if tracer:
        trace_path = args.workdir / "spans.npz"
        tracer.dump(trace_path)
        result["spans"] = str(trace_path)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

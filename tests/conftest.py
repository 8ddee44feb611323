"""Shared test plumbing: acceptance-criterion verdicts for the summary, every
raw program encoding, and a reader for trajectory CSVs."""

import numpy as np

from bbnet.dynamics import Trajectory
from bbnet.errors import ParameterError
from bbnet.machines import encoding_length, table_bits

_criterion_results: list[tuple[int, str, str]] = []


def record_criterion(number: int, description: str, status: str = "PASS") -> None:
    _criterion_results.append((number, description, status))
    print(f"ACCEPTANCE {number} {status}: {description}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_results:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, status in sorted(_criterion_results):
        terminalreporter.write_line(f"criterion {number}: {status} - {description}")


def iter_encodings(k_max, max_len):
    """Yield (k, table_int, encoding_length, header_variants) of every raw
    encoding with |p| <= max_len: each table integer of each state count,
    one by one, with no two decoding to the same table merged."""
    for k in range(1, k_max + 1):
        length = encoding_length(k)
        if length <= max_len:
            # k == k_max is reachable both as (k_max-1) ones + zero and as k_max ones.
            for t_int in range(1 << table_bits(k)):
                yield k, t_int, length, 2 if k == k_max else 1


def trajectory_from_csv(inp):
    """Parse the CSV that ``Trajectory.to_csv`` writes; blank lines are skipped."""
    header = inp.readline().strip()
    if header != "t,infected_density,best_carrier_density,max_displayed":
        raise ParameterError(f"unexpected trajectory header: {header!r}")
    inf, best, mx = [], [], []
    for line in inp:
        line = line.strip()
        if not line:
            continue
        _, a, b, c = line.split(",")
        inf.append(float(a))
        best.append(float(b))
        mx.append(int(c))
    return Trajectory(np.array(inf), np.array(best), np.array(mx, dtype=np.int64))

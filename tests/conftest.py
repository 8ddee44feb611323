"""Shared test plumbing: acceptance-criterion verdicts for the summary, every
raw program encoding, machine tables written from the program format, path
and star graphs, a graph's neighbour rows and edges, and a reader for
trajectory CSVs."""

from fractions import Fraction

import numpy as np

from bbnet.dynamics import Trajectory
from bbnet.errors import ParameterError
from bbnet.graph import Graph
from bbnet.machines import HALT, _Input, encoding_length, run, table_bits

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


def kraft_sum(k_max):
    """Sum of 2^-|p| over every encoding with k <= k_max, as an exact fraction.

    A k < k_max header is k - 1 ones and a zero; k_max is reached both that
    way and as k_max ones. The code is complete when this is exactly 1.
    """
    return sum(
        Fraction((2 if k == k_max else 1) << table_bits(k), 1 << encoding_length(k))
        for k in range(1, k_max + 1)
    )


# A machine table as the tests write it: (k, entries), where
# entries[2 * state + read_bit] = (write bit, move bit (1 = right), next state or HALT).


def read_table(bits, k):
    """The (k, entries) table of the 2k entries next in a bit iterator, read as the format says.

    Each entry is a write bit, a move bit and b = ceil(log2(k + 1))
    next-state bits, MSB first, holding v; the next state is v mod (k + 1),
    where k means HALT.
    """
    b = 0
    while (1 << b) < k + 1:
        b += 1
    entries = []
    for _ in range(2 * k):
        write, move = next(bits), next(bits)
        v = 0
        for _ in range(b):
            v = 2 * v + next(bits)
        nxt = v % (k + 1)
        entries.append((write, move, HALT if nxt == k else nxt))
    return k, tuple(entries)


def table_from_int(k, t_int):
    """The (k, entries) table whose table bits the integer ``t_int`` holds, MSB first."""
    return read_table(map(int, format(t_int, f"0{table_bits(k)}b")), k)


def program_table(bits):
    """The (k, entries) table of a program bit string: k is the state count of its length,
    and the table is what follows the k header bits."""
    k = 1
    while encoding_length(k) < len(bits):
        k += 1
    assert encoding_length(k) == len(bits), bits
    return read_table(map(int, bits[k:]), k)


def rows_of(table):
    """The interpreter rows of a (k, entries) table: (write, -1 or +1, 2 * next state)."""
    _, entries = table
    return tuple((write, 2 * move - 1, 2 * nxt) for write, move, nxt in entries)


def outcome(table, w, t_max):
    """``run`` on a (k, entries) table with input w and budget t_max."""
    return run(rows_of(table), _Input(w, t_max))


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n):
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def neighbors(g, i):
    """Node i's row of the CSR graph ``g``: its neighbours, ascending."""
    return g.indices[g.indptr[i]:g.indptr[i + 1]]


def edges_oracle(g):
    """The edges (u, v) of ``g`` with u < v in lexicographic order, by a per-row walk."""
    return [(u, int(v)) for u in range(g.n) for v in neighbors(g, u) if u < v]


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

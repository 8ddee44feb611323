"""Barabasi-Albert scale-free graphs and topology diagnostics.

Graphs are grown by preferential attachment: a complete seed clique on m0
nodes, then each new node attaches to m distinct existing nodes chosen with
probability proportional to current degree. The grown graph is immutable and
stored in CSR form (indptr/indices) so simulation code can share it read-only
across runs. Only this module reads the CSR arrays; the dynamics step and the
diameter's frontier BFS walk rows through one primitive, ``Graph.gather``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

import numpy as np

from .errors import ParameterError, check_int
from .rng import rng_from_seed


# _from_half_edges sorts the keys a * n + b < n * n, which fit int64 while
# n * n <= 2**63. NetworkParams and Graph.from_edges check a node count
# against it before anything N-sized exists.
_MAX_NODES = math.isqrt(2**63)


@dataclass(frozen=True)
class NetworkParams:
    """Parameters of the preferential-attachment growth process.

    m0 defaults to m + 1, the smallest clique in which every seed node
    already has degree >= m. seed takes any integer; it is masked to 64 bits.
    """

    n: int
    m: int
    m0: int = -1
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_int("n", self.n, 2, _MAX_NODES + 1))
        object.__setattr__(self, "m", check_int("m", self.m, 1))
        # no bound of its own: -1 stands for m + 1, and the range has the two rules below
        m0 = check_int("m0", self.m0, -math.inf)
        object.__setattr__(self, "m0", self.m + 1 if m0 == -1 else m0)
        object.__setattr__(self, "seed", check_int("seed", self.seed, -math.inf))
        if not (self.m <= self.m0 <= self.n):
            raise ParameterError(
                f"need m <= m0 <= n, got m={self.m}, m0={self.m0}, n={self.n}"
            )
        if self.m0 < 2:
            raise ParameterError(
                f"need m0 >= 2 (a one-node seed has no degree to attach to), got m0={self.m0}"
            )


class Graph:
    """Immutable simple undirected graph in CSR form.

    adjacency lists are sorted by neighbor id; edges are stored twice
    (once per endpoint).
    """

    __slots__ = ("n", "indptr", "indices")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray):
        self.n = n
        self.indptr = indptr
        self.indices = indices

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an edge list; rejects ids of a non-integer
        dtype, self-loops, ids outside 0..n-1 and duplicates, in that order.

        Zero rows in any shape are no edges. Whole floats and bools are refused,
        as by ``check_int``; a list is searched for bools element by element,
        as numpy makes them ints. The other checks are one reduction each; the
        first bad edge is found on failure.
        """
        n = check_int("n", n, 0, _MAX_NODES + 1)
        rows = edges if isinstance(edges, np.ndarray) else list(edges)
        e = np.asarray(rows)
        e = np.empty((0, 2), dtype=np.int64) if e.shape[:1] == (0,) else e
        if e.ndim != 2 or e.shape[1] != 2:
            raise ParameterError(f"edges must be (u, v) pairs, got shape {e.shape}")
        if rows is not edges and any(isinstance(x, (bool, np.bool_)) for r in rows for x in r):
            raise ParameterError("node ids must be integers, got a bool")
        if e.dtype.kind not in "iu":
            raise ParameterError(f"node ids must be integers, got dtype {e.dtype}")
        u, v = e.T
        if (u == v).any():
            raise ParameterError(f"self-loop at node {u[u == v][0]}")
        if len(e) and (e.min() < 0 or e.max() >= n):
            bad = np.flatnonzero(((e < 0) | (e >= n)).any(axis=1))[0]
            raise ParameterError(f"edge ({u[bad]},{v[bad]}) outside 0..{n - 1}")
        g = cls._from_half_edges(n, [e.astype(np.int64, copy=False).T])
        # A duplicate edge is the same neighbour twice in one sorted row:
        # slot i repeats slot i - 1, and no row starts at i.
        repeat = np.zeros(len(g.indices) + 1, dtype=bool)
        repeat[1:-1] = g.indices[1:] == g.indices[:-1]
        repeat[g.indptr] = False
        if repeat.any():
            i = int(repeat.argmax())
            row = int(np.searchsorted(g.indptr, i, side="right")) - 1
            raise ParameterError(f"duplicate edge ({row}, {g.indices[i]})")
        return g

    @classmethod
    def _from_half_edges(cls, n: int, blocks: Sequence[tuple[np.ndarray, np.ndarray]]) -> "Graph":
        """The graph of the edges (u[i], v[i]) of every block (u, v).

        Sorting the keys a * n + b orders the half-edges by row, then by
        neighbour, in one pass. Both directions' keys of every block are
        written into one array, which the sort and ``key % n`` then turn into
        ``indices`` in place. A node occurs there once per edge: its count there is its degree.
        """
        key = np.empty(2 * sum(len(u) for u, _ in blocks), dtype=np.int64)
        lo = 0
        for u, v in blocks:
            for a, b in ((u, v), (v, u)):
                part = key[lo:lo + len(a)]
                np.multiply(a, n, out=part)
                part += b
                lo += len(a)
        key.sort()
        np.remainder(key, n, out=key)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(key, minlength=n), out=indptr[1:])
        return cls(n, indptr, key)

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def num_edges(self) -> int:
        return len(self.indices) // 2

    def gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Neighbours of ``rows``, row after row, and where each row starts.

        ``nbrs`` lists the neighbours of ``rows[0]``, then of ``rows[1]``,
        and so on; the neighbours of ``rows[k]`` start at ``nbrs[offsets[k]]``.
        An empty row adds nothing.
        """
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        offsets = np.cumsum(lengths) - lengths
        slots = np.repeat(starts - offsets, lengths)
        slots += np.arange(len(slots))
        return self.indices[slots], offsets


@dataclass(frozen=True)
class DegreeFit:
    """Power-law exponent fitted to the degree CCDF by log-log regression.

    gamma_hat estimates the density exponent (CCDF slope magnitude + 1); it
    must exceed 1, so a flat CCDF, which no power law has, is refused."""

    gamma_hat: float

    def __post_init__(self) -> None:
        if not self.gamma_hat > 1:
            raise ParameterError(f"fitted exponent must exceed 1, got {self.gamma_hat}")


# Nodes in the first segment of BA growth, and the fewest after a duplicate pick.
_SEGMENT = 64
# The most nodes in one segment: a segment's draws and _pool_nodes' arrays
# stay bounded however large the graph.
_SEGMENT_CAP = 1 << 14


def _pool_nodes(q: np.ndarray, picks: np.ndarray, m0: int, start: int,
                raw: np.ndarray) -> np.ndarray:
    """Node ids at the BA pool positions ``q``.

    The pool is the edge-list multiset of Batagelj & Brandes ("Efficient
    generation of large random networks", PRE 71, 2005): m0 - 1 entries for
    each seed node, then a block of 2m entries for each new node j, which are
    j's m picks in the order it accepted them and then j itself m times. A pick
    of a node before ``start`` is read from ``picks`` (row j - m0). A pick of a
    node j >= ``start`` is still the pool position it drew,
    ``raw[(j - start) * m + o]``, and is resolved in turn; each such hop lands
    on an earlier position, so every chain ends.
    """
    m = picks.shape[1]
    base = m0 * (m0 - 1)
    q = q.copy()
    node = np.empty_like(q)
    todo = np.arange(len(q))
    while len(todo):
        p = q[todo]
        j, o = np.divmod(p - base, 2 * m)
        j += m0
        in_seed = p < base
        is_self = ~in_seed & (o >= m)
        node[todo[in_seed]] = p[in_seed] // (m0 - 1)
        node[todo[is_self]] = j[is_self]
        pick = ~(in_seed | is_self)
        done = pick & (j < start)
        node[todo[done]] = picks[j[done] - m0, o[done]]
        chain = pick & (j >= start)
        q[todo[chain]] = raw[(j[chain] - start) * m + o[chain]]
        todo = todo[chain]
    return node


def generate_ba(params: NetworkParams, rng: np.random.Generator | None = None) -> Graph:
    """Grow a Barabasi-Albert graph.

    Starts from a complete graph on m0 >= 2 nodes; each subsequent node picks
    m distinct targets by sampling uniformly from a flat multiset in which
    every node id is repeated once per unit of degree (duplicates within one
    node's picks are rejected and redrawn). Deterministic given the seed.

    Node i draws from a pool of m0(m0-1) + 2m(i-m0) entries whatever it picks,
    so the first m draws of a whole segment of nodes are taken in one
    ``rng.integers`` call over those bounds and resolved to node ids by index
    arithmetic (``_pool_nodes``). At the first node of a segment whose picks
    repeat a node, the Generator is rewound to the segment's start, the draws
    up to and including that node's first m are taken again, and the node
    finishes with one draw at a time. The graph and the Generator's final
    state are the same as drawing one pick at a time.
    """
    if rng is None:
        rng = rng_from_seed(params.seed)
    n, m, m0 = params.n, params.m, params.m0
    base = m0 * (m0 - 1)
    picks = np.empty((n - m0, m), dtype=np.int64)
    start, length = m0, _SEGMENT
    while start < n:
        stop = min(start + length, n)
        saved = rng.bit_generator.state
        bounds = np.repeat(base + 2 * m * np.arange(start - m0, stop - m0, dtype=np.int64), m)
        raw = rng.integers(0, bounds)
        seg = _pool_nodes(raw, picks, m0, start, raw).reshape(-1, m)
        ordered = np.sort(seg, axis=1)
        dup = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
        if not len(dup):
            picks[start - m0:stop - m0] = seg
            start, length = stop, min(2 * length, _SEGMENT_CAP)
            continue
        d = start + int(dup[0])
        picks[start - m0:d - m0] = seg[:d - start]
        rng.bit_generator.state = saved
        rng.integers(0, bounds[:(d - start + 1) * m])
        chosen = list(dict.fromkeys(seg[d - start].tolist()))
        while len(chosen) < m:
            q = rng.integers(0, bounds[(d - start) * m], size=1)
            t = int(_pool_nodes(q, picks, m0, d, raw)[0])
            if t not in chosen:
                chosen.append(t)
        picks[d - m0] = chosen
        start, length = d + 1, max(_SEGMENT, length // 2)

    return Graph._from_half_edges(n, [
        np.triu_indices(m0, 1),
        (picks.ravel(), np.repeat(np.arange(m0, n, dtype=np.int64), m)),
    ])


def degree_ccdf(g: Graph) -> list[tuple[int, float]]:
    """Complementary CDF of the degree sequence: (k, fraction of nodes with degree >= k)."""
    if g.n == 0:
        raise ParameterError("empty graph")
    ks, counts = np.unique(g.degrees, return_counts=True)
    tail = np.cumsum(counts[::-1])[::-1]
    return [(int(k), float(t) / g.n) for k, t in zip(ks, tail)]


def fit_power_law(ccdf: Sequence[tuple[int, float]], k_min: int) -> DegreeFit:
    """Least-squares line through (log k, log CCDF(k)) for k >= k_min.

    gamma_hat = 1 + |slope|, mapping the CCDF slope back to the density
    exponent. Requires at least 5 usable points.
    """
    k_min = check_int("k_min", k_min, 1)
    pts = [(k, f) for k, f in ccdf if k >= k_min and f > 0]
    if len(pts) < 5:
        raise ParameterError(f"need >= 5 CCDF points with k >= {k_min}, got {len(pts)}")
    logk, logf = np.log(np.array(pts, dtype=float)).T
    slope, _ = np.polyfit(logk, logf, 1)
    return DegreeFit(gamma_hat=1.0 + abs(float(slope)))


def _bfs_distances(g: Graph, src: int) -> np.ndarray:
    """Hops from ``src`` to every node (-1 if unreachable), one frontier per level.

    A level keeps the frontier's neighbours not yet reached, once each: every
    copy of a node writes its position into ``slot`` and the copy whose write
    landed stays. A level so costs its frontier's half-edges, with no sort and
    no N-sized scan.
    """
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[src] = 0
    slot = np.empty(g.n, dtype=np.int64)
    frontier = np.array([src], dtype=np.int64)
    depth = 0
    while len(frontier):
        depth += 1
        nbrs, _ = g.gather(frontier)
        new = nbrs[dist[nbrs] < 0]
        idx = np.arange(len(new))
        slot[new] = idx
        frontier = new[slot[new] == idx]
        dist[frontier] = depth
    return dist


def approx_diameter(g: Graph) -> int:
    """Double-sweep BFS diameter estimate.

    BFS from node 0 finds a farthest node u; BFS from u finds a farthest
    node v; a final BFS from v completes the sweep. The result is a lower
    bound on the true diameter, reported as an estimate.
    """
    if g.n == 0:
        raise ParameterError("empty graph")
    d0 = _bfs_distances(g, 0)
    if (d0 < 0).any():
        raise ParameterError("graph is not connected")
    u = int(np.argmax(d0))
    d1 = _bfs_distances(g, u)
    v = int(np.argmax(d1))
    d2 = _bfs_distances(g, v)
    return int(max(d1.max(), d2.max()))


# Half-edge slots per block of write_edge_list, so at most that many edges:
# what it holds besides its output stays bounded whatever the graph's size.
_WRITE_CHUNK = 1 << 16


def _id_text(ids: np.ndarray, width: int) -> str:
    """``ids`` in decimal, each followed by ``' '`` at an even position and by
    ``'\n'`` at an odd one, so consecutive pairs make "u v" rows.

    Every id lies in 0..10**width - 1 and below ``_MAX_NODES`` < 2**32, so
    uint32 holds it exactly. Its digits are taken by repeated ``// 10`` into
    a (ids, width + 1) byte matrix; one mask drops the leading zeros.
    """
    x = ids.astype(np.uint32)
    cells = np.empty((len(x), width + 1), dtype=np.uint8)
    cells[0::2, width] = ord(" ")
    cells[1::2, width] = ord("\n")
    rest = x
    for col in range(width - 1, -1, -1):
        q = rest // 10
        cells[:, col] = rest - q * 10 + ord("0")
        rest = q
    # column col is a leading zero of every id below 10**(width - 1 - col);
    # the last digit and the separator are always kept
    floors = np.zeros(width + 1, dtype=np.uint32)
    floors[:width - 1] = 10 ** np.arange(width - 1, 0, -1, dtype=np.uint32)
    return cells[x[:, None] >= floors].tobytes().decode("ascii")


def _header_params(n: int, m: int, seed: int) -> NetworkParams:
    """The params of an edge-list header "n m seed", for writer and reader alike:
    the header holds no m0, so they carry m0 = min(m + 1, n)."""
    m = check_int("m", m, -math.inf)  # the type before m + 1; NetworkParams has the range
    return NetworkParams(n=n, m=m, m0=min(m + 1, n), seed=seed)


def write_edge_list(g: Graph, out: TextIO, m: int, seed: int) -> None:
    """Emit the bit-exact edge-list format: header "N m seed", then "u v" rows.

    The header passes ``_header_params`` before anything is written, so every
    file written reads back. Rows have u < v in lexicographic order: the upper
    half of the CSR rows, ``_WRITE_CHUNK`` half-edge slots at a time, each
    block formatted by ``_id_text`` at once."""
    p = _header_params(g.n, m, seed)
    out.write(f"{p.n} {p.m} {p.seed}\n")
    width = len(str(g.n - 1))
    slots = len(g.indices)
    for lo in range(0, slots, _WRITE_CHUNK):
        hi = min(lo + _WRITE_CHUNK, slots)
        first = int(np.searchsorted(g.indptr, lo, side="right")) - 1
        last = int(np.searchsorted(g.indptr, hi, side="left"))
        # rows first..last-1 hold the slots lo..hi-1; their bounds
        # clipped to [lo, hi] give each row's share
        lengths = np.diff(np.clip(g.indptr[first:last + 1], lo, hi))
        rows = np.repeat(np.arange(first, last, dtype=np.int64), lengths)
        nbrs = g.indices[lo:hi]
        upper = rows < nbrs
        out.write(_id_text(np.column_stack((rows[upper], nbrs[upper])).ravel(), width))


def read_edge_list(inp: TextIO) -> tuple[Graph, NetworkParams]:
    """Parse the edge-list format written by write_edge_list; blank lines are skipped.

    The header is checked by ``_header_params``. ``np.loadtxt`` parses the body
    straight from the stream; an empty body is zero rows, which
    ``Graph.from_edges`` reads as no edges."""
    try:
        header = inp.readline().split()
    except UnicodeDecodeError as exc:
        raise ParameterError(f"cannot decode edge list: {exc}") from None
    if len(header) != 3:
        raise ParameterError("edge-list header must be 'N m seed'")
    try:
        n, m, seed = map(int, header)
    except ValueError:
        raise ParameterError(f"edge-list header fields must be integers, got {header}") from None
    params = _header_params(n, m, seed)
    try:
        with warnings.catch_warnings():
            # an empty or all-blank body is no edges, not a warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            edges = np.loadtxt(inp, dtype=np.int64, comments=None, ndmin=2)
    except UnicodeDecodeError as exc:
        raise ParameterError(f"cannot decode edge list: {exc}") from None
    except ValueError as exc:
        raise ParameterError(f"malformed edge-list row: {exc}") from None
    return Graph.from_edges(n, edges), params

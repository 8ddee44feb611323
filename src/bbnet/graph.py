"""Barabasi-Albert scale-free graphs and topology diagnostics.

Graphs are grown by preferential attachment: a complete seed clique on m + 1
nodes, then each new node attaches to m distinct existing nodes chosen with
probability proportional to current degree. (N, m, seed) names the whole
graph, and the edge-list header "N m seed" holds exactly those, so every
file written regrows from its header. A ``Graph`` is CSR (indptr/indices)
with at least one node, and neither its fields nor its arrays can be written, so
runs share it and no consumer re-checks it. Only this module reads the CSR
arrays; the dynamics step and the diameter's BFS walk rows through one
primitive, ``Graph.gather``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import ParameterError, check_int
from .rng import rng_from_seed


# _from_pairs sorts the keys u * n + v < n * n, which fit int64 while
# n * n <= 2**63. NetworkParams and Graph.from_edges check a node count
# against it before anything N-sized exists.
_MAX_NODES = math.isqrt(2**63)

# Nothing the graph layer holds beside a graph's N- and E-sized arrays is
# larger than one block of this many half-edges, however large the graph.
_BLOCK_HALF_EDGES = 1 << 14


def _row_blocks(ends: np.ndarray) -> Iterator[tuple[int, int]]:
    """Runs ``(lo, hi)`` of consecutive rows, in order, where ``ends[i]``
    counts the half-edges of rows 0..i. A run holds at most one block of rows
    and of half-edges, or is one row that alone holds more half-edges."""
    lo = 0
    while lo < len(ends):
        done = int(ends[lo - 1]) if lo else 0
        hi = int(np.searchsorted(ends, done + _BLOCK_HALF_EDGES, side="right"))
        hi = min(max(lo + 1, hi), lo + _BLOCK_HALF_EDGES)
        yield lo, hi
        lo = hi


@dataclass(frozen=True)
class NetworkParams:
    """Parameters of the preferential-attachment growth process.

    Growth starts from an (m + 1)-clique, the smallest in which every seed
    node already has degree >= m, so m < n. seed takes any integer; it is
    masked to 64 bits.
    """

    n: int
    m: int
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_int("n", self.n, 2, _MAX_NODES + 1))
        object.__setattr__(self, "m", check_int("m", self.m, 1, self.n))
        object.__setattr__(self, "seed", check_int("seed", self.seed, -math.inf))


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Graph:
    """Immutable simple undirected graph in CSR form, with at least one node.

    adjacency lists are sorted by neighbor id; edges are stored twice
    (once per endpoint). The CSR arrays are made read-only in place, not copied.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_int("n", self.n, 1))
        self.indptr.flags.writeable = False
        self.indices.flags.writeable = False

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an edge list; rejects ids of a non-integer
        dtype, self-loops, ids outside 0..n-1 and duplicates, in that order.

        Zero rows in any shape are no edges. Whole floats and bools are refused,
        as by ``check_int``; a list is searched for bools element by element,
        as numpy makes them ints. The other checks are one reduction each; the
        first bad edge is found on failure; a node count below 1 is then
        refused, with the message of ``Graph`` itself. ``edges`` is never
        written: the CSR is built in a C-order copy of it.
        """
        n = check_int("n", n, -math.inf, _MAX_NODES + 1)
        rows = edges if isinstance(edges, np.ndarray) else list(edges)
        e = np.array(rows, order="C")
        # (E, 2) lists only: any other shape gets the shape message of _from_rows
        if rows is not edges and e.shape[1:] == (2,) and any(
                isinstance(x, (bool, np.bool_)) for r in rows for x in r):
            raise ParameterError("node ids must be integers, got a bool")
        return cls._from_rows(n, e)

    @classmethod
    def _from_rows(cls, n: int, e: np.ndarray) -> "Graph":
        """``from_edges`` on an array of (u, v) rows that this call may overwrite.

        The checks run on ``e`` as it is, before any cast to int64 could wrap
        an id; an int64 ``e`` then becomes the graph's ``indices``."""
        e = np.empty((0, 2), dtype=np.int64) if e.shape[:1] == (0,) else e
        if e.ndim != 2 or e.shape[1] != 2:
            raise ParameterError(f"edges must be (u, v) pairs, got shape {e.shape}")
        if e.dtype.kind not in "iu":
            raise ParameterError(f"node ids must be integers, got dtype {e.dtype}")
        u, v = e.T
        if (u == v).any():
            raise ParameterError(f"self-loop at node {u[u == v][0]}")
        if len(e) and (e.min() < 0 or e.max() >= n):
            bad = np.flatnonzero(((e < 0) | (e >= n)).any(axis=1))[0]
            raise ParameterError(f"edge ({u[bad]},{v[bad]}) outside 0..{n - 1}")
        check_int("n", n, 1)  # before _from_pairs, whose bincount refuses a negative n bare
        g = cls._from_pairs(n, np.ascontiguousarray(e, dtype=np.int64))
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
    def _from_pairs(cls, n: int, pairs: np.ndarray) -> "Graph":
        """The graph of the edges (u, v) in the rows of ``pairs``, a C-order
        (E, 2) int64 array that becomes its ``indices``.

        Each row (u, v) is rewritten as the keys (u * n + v, v * n + u) of its
        two half-edges, one block of half-edges at a time. Sorting the keys
        orders the half-edges by row, then by neighbour, in one pass;
        ``key % n`` then leaves each half-edge's neighbour in place. A node
        occurs there once per edge: its count there is its degree.
        """
        rows = max(1, _BLOCK_HALF_EDGES // 2)
        for lo in range(0, len(pairs), rows):
            block = pairs[lo:lo + rows]
            u = block[:, 0].copy()
            np.multiply(u, n, out=block[:, 0])
            block[:, 0] += block[:, 1]
            block[:, 1] *= n
            block[:, 1] += u
        key = pairs.reshape(-1)
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

    Starts from a complete graph on m0 = m + 1 nodes; each subsequent node picks
    m distinct targets by sampling uniformly from a flat multiset in which
    every node id is repeated once per unit of degree (duplicates within one
    node's picks are rejected and redrawn). Deterministic given the seed.

    Node i draws from a pool of m0(m0-1) + 2m(i-m0) entries whatever it picks,
    so the first m draws of a whole segment of nodes are taken in one
    ``rng.integers`` call over those bounds and resolved to node ids by index
    arithmetic (``_pool_nodes``). A segment holds at most one block of picks,
    however large the graph. At the first node of a segment whose picks
    repeat a node, the Generator is rewound to the segment's start, the draws
    up to and including that node's first m are taken again, and the node
    finishes with one draw at a time. The graph and the Generator's final
    state are the same as drawing one pick at a time.

    The edges are the rows of one (E, 2) array, allocated first: the seed
    clique's, then each new node's m picks beside its id. ``picks`` is a view
    of that array's first column, and ``Graph._from_pairs`` builds the CSR
    inside it.
    """
    if rng is None:
        rng = rng_from_seed(params.seed)
    n, m = params.n, params.m
    m0 = m + 1
    base = m0 * (m0 - 1)
    clique = base // 2
    pairs = np.empty((clique + m * (n - m0), 2), dtype=np.int64)
    pairs[:clique, 0], pairs[:clique, 1] = np.triu_indices(m0, 1)
    grown = pairs[clique:].reshape(n - m0, m, 2)
    grown[:, :, 1] = np.arange(m0, n, dtype=np.int64)[:, None]
    picks = grown[:, :, 0]
    start, length = m0, _SEGMENT
    while start < n:
        length = min(length, max(1, _BLOCK_HALF_EDGES // m))
        stop = min(start + length, n)
        saved = rng.bit_generator.state
        bounds = np.repeat(base + 2 * m * np.arange(start - m0, stop - m0, dtype=np.int64), m)
        raw = rng.integers(0, bounds)
        seg = _pool_nodes(raw, picks, m0, start, raw).reshape(-1, m)
        ordered = np.sort(seg, axis=1)
        dup = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
        if not len(dup):
            picks[start - m0:stop - m0] = seg
            start, length = stop, 2 * length
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

    return Graph._from_pairs(n, pairs)


def degree_ccdf(g: Graph) -> list[tuple[int, float]]:
    """Complementary CDF of the degree sequence: (k, fraction of nodes with degree >= k)."""
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

    ``queue`` lists the nodes reached so far, level after level. A level's
    rows are gathered through ``_row_blocks``, one block of half-edges at a
    time, so what a level holds besides the N-sized arrays stays bounded.
    A block keeps its neighbours not yet reached, once each: every copy of a
    node writes its position into ``slot`` and the copy whose write landed
    stays. It marks them in ``dist`` before the next block runs, so a node
    joins the next level once. A level so costs its frontier's half-edges,
    with no sort and no N-sized scan.
    """
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[src] = 0
    slot = np.empty(g.n, dtype=np.int64)
    queue = np.empty(g.n, dtype=np.int64)
    queue[0] = src
    head, tail, depth = 0, 1, 0
    while head < tail:
        depth += 1
        level = queue[head:tail]
        ends = g.indptr[level + 1] - g.indptr[level]
        np.cumsum(ends, out=ends)
        head = tail
        for lo, hi in _row_blocks(ends):
            nbrs, _ = g.gather(level[lo:hi])
            new = nbrs[dist[nbrs] < 0]
            idx = np.arange(len(new))
            slot[new] = idx
            new = new[slot[new] == idx]
            dist[new] = depth
            queue[tail:tail + len(new)] = new
            tail += len(new)
    return dist


def approx_diameter(g: Graph) -> int:
    """Double-sweep BFS diameter estimate.

    BFS from node 0 finds a farthest node u; BFS from u finds a farthest
    node v; a final BFS from v completes the sweep. The result is a lower
    bound on the true diameter, reported as an estimate. The last BFS reaches
    u at the second one's largest distance, so its own largest distance is
    the larger of the two.
    """
    d0 = _bfs_distances(g, 0)
    if (d0 < 0).any():
        raise ParameterError("graph is not connected")
    u = int(np.argmax(d0))
    del d0
    v = int(np.argmax(_bfs_distances(g, u)))
    return int(_bfs_distances(g, v).max())


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


def write_edge_list(g: Graph, out: TextIO, m: int, seed: int) -> None:
    """Emit the bit-exact edge-list format: header "N m seed", then "u v" rows.

    The header passes ``NetworkParams`` before anything is written, so every
    file written reads back, as the params ``generate_ba`` grows the graph
    from. Rows have u < v in lexicographic order: the upper half of the CSR
    rows, taken whole through ``_row_blocks``, each block formatted by
    ``_id_text`` at once."""
    p = NetworkParams(n=g.n, m=m, seed=seed)
    out.write(f"{p.n} {p.m} {p.seed}\n")
    width = len(str(g.n - 1))
    for lo, hi in _row_blocks(g.indptr[1:]):
        lengths = np.diff(g.indptr[lo:hi + 1])
        rows = np.repeat(np.arange(lo, hi, dtype=np.int64), lengths)
        nbrs = g.indices[g.indptr[lo]:g.indptr[hi]]
        upper = rows < nbrs
        out.write(_id_text(np.column_stack((rows[upper], nbrs[upper])).ravel(), width))


def read_edge_list(inp: TextIO) -> tuple[Graph, NetworkParams]:
    """Parse the edge-list format written by write_edge_list; blank lines are skipped.

    The header is checked by ``NetworkParams``, so it accepts exactly the
    headers ``write_edge_list`` writes. ``np.loadtxt`` parses the body
    straight from the stream, and the CSR is built inside the array it returns,
    after the checks of ``Graph.from_edges``; an empty body is zero rows, which
    they read as no edges."""
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
    params = NetworkParams(n=n, m=m, seed=seed)
    try:
        with warnings.catch_warnings():
            # an empty or all-blank body is no edges, not a warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            edges = np.loadtxt(inp, dtype=np.int64, comments=None, ndmin=2)
    except UnicodeDecodeError as exc:
        raise ParameterError(f"cannot decode edge list: {exc}") from None
    except ValueError as exc:
        raise ParameterError(f"malformed edge-list row: {exc}") from None
    return Graph._from_rows(n, edges), params

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
from dataclasses import dataclass, field
from typing import Iterable, Sequence, TextIO

import numpy as np

from .errors import ParameterError
from .rng import rng_from_seed


# _from_half_edges sorts the keys a * n + b < n * n, which fit int64 while
# n * n <= 2**63.
_MAX_NODES = math.isqrt(2**63)


def _check_node_count(n: int) -> None:
    """Refuse a node count that the CSR key cannot hold, before anything N-sized exists."""
    if not 0 <= n <= _MAX_NODES:
        raise ParameterError(f"need 0 <= n <= {_MAX_NODES}, got {n}")


@dataclass(frozen=True)
class NetworkParams:
    """Parameters of the preferential-attachment growth process.

    m0 defaults to m + 1, the smallest clique in which every seed node
    already has degree >= m.
    """

    n: int
    m: int
    m0: int = -1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.m0 == -1:
            object.__setattr__(self, "m0", self.m + 1)
        if self.n < 2:
            raise ParameterError(f"need n >= 2, got {self.n}")
        _check_node_count(self.n)
        if self.m < 1:
            raise ParameterError(f"need m >= 1, got {self.m}")
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
        """Build a graph from an edge list; rejects self-loops and duplicates."""
        e = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
        e = e.reshape(0, 2) if e.shape == (0,) else e
        if e.ndim != 2 or e.shape[1] != 2:
            raise ParameterError(f"edges must be (u, v) pairs, got shape {e.shape}")
        u, v = e.T
        if (u == v).any():
            raise ParameterError(f"self-loop at node {u[u == v][0]}")
        outside = np.flatnonzero(((e < 0) | (e >= n)).any(axis=1))
        if len(outside):
            raise ParameterError(f"edge ({u[outside[0]]},{v[outside[0]]}) outside 0..{n - 1}")
        g = cls._from_half_edges(n, u, v)
        # A duplicate edge is the same neighbour twice in one sorted row.
        rows = g._row_ids()
        dup = np.flatnonzero((np.diff(g.indices) == 0) & (np.diff(rows) == 0))
        if len(dup):
            raise ParameterError(f"duplicate edge ({rows[dup[0]]}, {g.indices[dup[0]]})")
        return g

    @classmethod
    def _from_half_edges(cls, n: int, u: np.ndarray, v: np.ndarray) -> "Graph":
        _check_node_count(n)
        a = np.concatenate([u, v])
        b = np.concatenate([v, u])
        # Sorting a * n + b orders the half-edges by row, then by neighbour,
        # in one pass.
        key = a * np.int64(n) + b
        key.sort()
        degrees = np.bincount(a, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        return cls(n, indptr, key % n)

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

    def _row_ids(self) -> np.ndarray:
        """The row of every half-edge slot of ``indices``."""
        return np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)

    def edges(self) -> np.ndarray:
        """The ``(E, 2)`` int64 array of edges (u, v) with u < v, in
        lexicographic order: the upper half of the CSR rows, row after row."""
        rows = self._row_ids()
        upper = rows < self.indices
        return np.column_stack((rows[upper], self.indices[upper]))


@dataclass(frozen=True)
class DegreeFit:
    """Power-law exponent fitted to the degree CCDF by log-log regression.

    gamma_hat estimates the density exponent (CCDF slope magnitude + 1);
    prefactor_hat is the empirical CCDF amplitude exp(intercept), reported
    but not validated.
    """

    gamma_hat: float
    k_min_used: int
    r2: float
    prefactor_hat: float = field(default=float("nan"))

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

    u, v = np.triu_indices(m0, 1)
    return Graph._from_half_edges(
        n,
        np.concatenate([u, picks.ravel()]),
        np.concatenate([v, np.repeat(np.arange(m0, n, dtype=np.int64), m)]),
    )


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
    pts = [(k, f) for k, f in ccdf if k >= k_min and f > 0]
    if len(pts) < 5:
        raise ParameterError(f"need >= 5 CCDF points with k >= {k_min}, got {len(pts)}")
    logk = np.log(np.array([k for k, _ in pts], dtype=float))
    logf = np.log(np.array([f for _, f in pts], dtype=float))
    slope, intercept = np.polyfit(logk, logf, 1)
    pred = slope * logk + intercept
    ss_res = float(np.sum((logf - pred) ** 2))
    ss_tot = float(np.sum((logf - logf.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return DegreeFit(
        gamma_hat=1.0 + abs(float(slope)),
        k_min_used=k_min,
        r2=r2,
        prefactor_hat=float(np.exp(intercept)),
    )


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


# Edges per write in write_edge_list: the text held at once stays bounded
# whatever the graph's size.
_WRITE_CHUNK = 1 << 16


def write_edge_list(g: Graph, out: TextIO, m: int, seed: int) -> None:
    """Emit the bit-exact edge-list format: header "N m seed", then "u v" rows.

    Rows have u < v and are sorted lexicographically. Each chunk of
    ``_WRITE_CHUNK`` edges is formatted by one ``%`` over its flattened ids.
    """
    out.write(f"{g.n} {m} {seed}\n")
    edges = g.edges()
    for lo in range(0, len(edges), _WRITE_CHUNK):
        part = edges[lo:lo + _WRITE_CHUNK]
        out.write(("%d %d\n" * len(part)) % tuple(part.ravel().tolist()))


def read_edge_list(inp: TextIO) -> tuple[Graph, NetworkParams]:
    """Parse the edge-list format written by write_edge_list; blank lines are skipped.

    The header holds no m0: the params carry m0 = min(m + 1, n), not read from the file."""
    try:
        header, body = inp.readline().split(), inp.read()
    except UnicodeDecodeError as exc:
        raise ParameterError(f"cannot decode edge list: {exc}") from None
    if len(header) != 3:
        raise ParameterError("edge-list header must be 'N m seed'")
    try:
        n, m, seed = map(int, header)
    except ValueError:
        raise ParameterError(f"edge-list header fields must be integers, got {header}") from None
    params = NetworkParams(n=n, m=m, m0=min(m + 1, n), seed=seed)
    try:
        # An all-blank body would make loadtxt warn, so it is read as no edges.
        edges = (np.loadtxt(body.splitlines(), dtype=np.int64, comments=None, ndmin=2)
                 if body.strip() else [])
    except ValueError as exc:
        raise ParameterError(f"malformed edge-list row: {exc}") from None
    return Graph.from_edges(n, edges), params

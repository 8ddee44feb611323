"""Graph construction, degree statistics, and edge-list round trips."""

import dataclasses
import io
import os
import re
import tracemalloc
import warnings
from collections import deque

import numpy as np
import pytest
from conftest import edges_oracle, neighbors, path_graph, star_graph
from hypothesis import given, settings, strategies as st

import bbnet.graph
from bbnet.errors import ParameterError
from bbnet.graph import (
    Graph,
    NetworkParams,
    _bfs_distances,
    approx_diameter,
    degree_ccdf,
    fit_power_law,
    generate_ba,
    read_edge_list,
    write_edge_list,
)
from bbnet.rng import rng_from_seed


def expected_edge_count(params):
    """Edge count forced by the construction: m0(m0-1)/2 + m(n-m0), with m0 = m + 1."""
    m0 = params.m + 1
    return m0 * (m0 - 1) // 2 + params.m * (params.n - m0)


def check_invariants(g):
    """Raises AssertionError if the graph is not simple and symmetric."""
    seen = set()
    for u in range(g.n):
        nbrs = neighbors(g, u)
        assert np.all(np.diff(nbrs) > 0), f"unsorted or duplicate neighbors at {u}"
        assert u not in nbrs, f"self-loop at {u}"
        for v in nbrs:
            seen.add((u, int(v)))
    for u, v in seen:
        assert (v, u) in seen, f"asymmetric edge ({u},{v})"


def _generate_ba_reference(params, rng):
    """BA growth one pick at a time: a Python list pool with one entry per unit
    of degree, one ``rng.integers(0, len(pool))`` call per draw, from a seed
    clique on m0 = m + 1 nodes."""
    n, m = params.n, params.m
    m0 = m + 1
    us, vs = [], []
    for i in range(m0):
        for j in range(i + 1, m0):
            us.append(i)
            vs.append(j)
    pool = [i for i in range(m0) for _ in range(m0 - 1)]
    for new in range(m0, n):
        chosen, taken = [], set()
        while len(chosen) < m:
            t = pool[int(rng.integers(0, len(pool)))]
            if t not in taken:
                taken.add(t)
                chosen.append(t)
        for t in chosen:
            us.append(t)
            vs.append(new)
        pool.extend(chosen)
        pool.extend([new] * m)
    return lexsort_half_edges(n, np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64))


def lexsort_half_edges(n, u, v):
    """The CSR arrays of edges (u[i], v[i]) by a two-key lexsort of both half-edges."""
    a = np.concatenate([u, v])
    b = np.concatenate([v, u])
    indices = b[np.lexsort((b, a))]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(a, minlength=n))])
    return Graph(n, indptr.astype(np.int64), indices.astype(np.int64))


def assert_ba_matches_reference(params):
    """Same CSR arrays and the same final Generator state as the per-pick loop."""
    rng, ref_rng = rng_from_seed(params.seed), rng_from_seed(params.seed)
    g, ref = generate_ba(params, rng), _generate_ba_reference(params, ref_rng)
    assert np.array_equal(g.indptr, ref.indptr)
    assert np.array_equal(g.indices, ref.indices)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def bfs_oracle(g, src):
    """Per-node queue BFS over the neighbour lists."""
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[src] = 0
    q = deque([src])
    while q:
        u = q.popleft()
        for v in neighbors(g, u):
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                q.append(int(v))
    return dist


def diameter_oracle(g):
    """approx_diameter's double sweep on bfs_oracle; None when disconnected."""
    d0 = bfs_oracle(g, 0)
    if (d0 < 0).any():
        return None
    d1 = bfs_oracle(g, int(np.argmax(d0)))
    d2 = bfs_oracle(g, int(np.argmax(d1)))
    return int(max(d1.max(), d2.max()))


def write_oracle(g, m, seed):
    """The edge-list text built with one f-string per edge."""
    rows = "".join(f"{u} {v}\n" for u, v in edges_oracle(g))
    return f"{g.n} {m} {seed}\n{rows}"


def written(g, m, seed):
    buf = io.StringIO()
    write_edge_list(g, buf, m, seed)
    return buf.getvalue()


def from_edges_oracle(n, edges):
    """Per-edge checks with a set of seen pairs; None when the list is rejected."""
    seen = set()
    for u, v in edges:
        key = (min(u, v), max(u, v))
        if u == v or not (0 <= u < n and 0 <= v < n) or key in seen:
            return None
        seen.add(key)
    return sorted(seen)


def random_edge_list(rng, n, p):
    """Each pair joined with probability p, in shuffled order and orientation:
    sparse p leaves isolated nodes and several components."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    rng.shuffle(pairs)
    return [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]


def oracle_graphs():
    """Seeded BA graphs over several (n, m), named with their seed clique's
    m0 = m + 1, random graphs with isolated nodes and several components, then
    a deep path, a star and a complete graph; the star and the complete graph
    reach nodes many times per level."""
    for n, m in [(2, 1), (3, 2), (12, 1), (60, 2), (80, 5), (150, 1), (3000, 2), (4000, 3)]:
        for seed in (0, 1):
            yield f"ba-{n}-{m}-{m + 1}-{seed}", generate_ba(NetworkParams(n=n, m=m, seed=seed))
    rng = np.random.default_rng(2024)
    for n, p in [(1, 0.0), (5, 0.0), (30, 0.04), (60, 0.03), (120, 0.02), (200, 0.05)]:
        for rep in range(3):
            yield f"random-{n}-{p}-{rep}", Graph.from_edges(n, random_edge_list(rng, n, p))
    yield "path-2000", path_graph(2000)
    yield "star-300", star_graph(300)
    yield "complete-60", Graph.from_edges(60, np.column_stack(np.triu_indices(60, 1)))


ORACLE_GRAPHS = list(oracle_graphs())


def assert_from_pairs_matches_lexsort():
    """The keyed sort of _from_pairs against a two-key lexsort, on edge lists
    with repeated pairs, both orientations, isolated nodes and no edges at
    all, then on the edges of every oracle graph."""
    rng = np.random.default_rng(11)
    cases = [(1, [], []), (5, [], []), (2, [0], [1])]
    for _ in range(200):
        n = int(rng.integers(2, 60))
        e = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))
        cases.append((n, e[:, 0], e[:, 1]))
    for name, g in ORACLE_GRAPHS:
        u, v = np.array(edges_oracle(g), dtype=np.int64).reshape(-1, 2).T
        cases.append((g.n, u, v))
    for n, u, v in cases:
        u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
        got = Graph._from_pairs(n, np.column_stack((u, v)))
        expected = lexsort_half_edges(n, u, v)
        assert np.array_equal(got.indptr, expected.indptr)
        assert np.array_equal(got.indices, expected.indices)
        assert got.indices.dtype == np.int64


class TestParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=1, m=1),
            dict(n=10, m=0),
            dict(n=10, m=10),
            dict(n=3, m=5),
            dict(n=2, m=2),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ParameterError):
            NetworkParams(seed=0, **kwargs)

    def test_fields_are_the_header(self):
        # (n, m, seed) name the graph: no other field can grow another one
        assert [f.name for f in dataclasses.fields(NetworkParams)] == ["n", "m", "seed"]

    def test_seed_takes_any_integer(self):
        # numpy's and negative seeds are Python ints, masked to 64 bits by the Generator
        p = NetworkParams(n=50, m=2, seed=np.int64(-3))
        assert type(p.seed) is int and p.seed == -3
        a, b = generate_ba(p), generate_ba(NetworkParams(n=50, m=2, seed=2**64 - 3))
        assert np.array_equal(a.indices, b.indices)

    def test_node_count_past_key_bound(self):
        # the CSR key bound is checked on the params, so generate_ba never sees such an n
        bound = bbnet.graph._MAX_NODES
        assert NetworkParams(n=bound, m=1).n == bound
        with pytest.raises(ParameterError, match=f"need n < {bound + 1}, got {bound + 1}"):
            NetworkParams(n=bound + 1, m=1)


class TestGraphContract:
    """A ``Graph`` is checked once, when made: at least one node, nothing writable."""

    def test_fields_and_arrays_read_only(self):
        edges = np.array([(0, 1), (1, 2), (0, 3)], dtype=np.int32)
        before = edges.copy()
        p = NetworkParams(n=60, m=2, seed=5)
        grown, buf = generate_ba(p), io.StringIO()
        write_edge_list(grown, buf, p.m, p.seed)
        graphs = [grown, Graph.from_edges(4, edges.tolist()),
                  Graph.from_edges(4, edges), read_edge_list(io.StringIO(buf.getvalue()))[0]]
        for g in graphs:
            with pytest.raises(dataclasses.FrozenInstanceError):
                g.n = 3
            for array in (g.indptr, g.indices):
                with pytest.raises(ValueError, match="read-only"):
                    array[1] = 0
        assert edges.flags.writeable and np.array_equal(edges, before)


class TestGenerate:
    def test_n_equals_m0_gives_seed_clique(self):
        g = generate_ba(NetworkParams(n=3, m=2, seed=7))
        assert g.num_edges == 3
        assert edges_oracle(g) == [(0, 1), (0, 2), (1, 2)]

    def test_edge_count_identity_m1(self):
        for seed in range(5):
            g = generate_ba(NetworkParams(n=5, m=1, seed=seed))
            assert g.num_edges == 1 + 1 * 3

    def test_determinism(self):
        p = NetworkParams(n=500, m=2, seed=123)
        assert edges_oracle(generate_ba(p)) == edges_oracle(generate_ba(p))

    def test_different_seeds_differ(self):
        e1 = edges_oracle(generate_ba(NetworkParams(n=200, m=2, seed=1)))
        e2 = edges_oracle(generate_ba(NetworkParams(n=200, m=2, seed=2)))
        assert e1 != e2

    @given(
        n=st.integers(3, 60),
        m=st.integers(1, 4),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_invariants_property(self, n, m, seed):
        if m >= n:
            return
        p = NetworkParams(n=n, m=m, seed=seed)
        g = generate_ba(p)
        check_invariants(g)
        assert g.num_edges == expected_edge_count(p)
        assert int(g.degrees.sum()) == 2 * g.num_edges
        assert int(g.degrees.min()) >= m

    def test_fitted_exponent_midsize(self):
        # tighter [2.6, 3.4] band is exercised at N=1e5 in the acceptance suite
        g = generate_ba(NetworkParams(n=20_000, m=2, seed=5))
        fit = fit_power_law(degree_ccdf(g), k_min=4)
        assert 2.4 <= fit.gamma_hat <= 3.6

    def test_small_n_exponent_spread(self):
        for seed in range(20):
            g = generate_ba(NetworkParams(n=1000, m=1, seed=seed))
            fit = fit_power_law(degree_ccdf(g), k_min=2)
            assert 2.3 <= fit.gamma_hat <= 3.7

    @pytest.mark.slow
    def test_large_n_exponent_all_m(self):
        for m in (1, 2, 3):
            g = generate_ba(NetworkParams(n=100_000, m=m, seed=m))
            fit = fit_power_law(degree_ccdf(g), k_min=2 * m)
            assert 2.6 <= fit.gamma_hat <= 3.4


# (n, m), grown from an (m + 1)-clique: n = m + 1 and n = m + 2, m = 1 and
# m >= 4, where the pool is small beside m, so that many nodes draw again,
# and m near n, where most nodes repeat picks many times, so that a round
# draws several picks and repeats within itself.
BA_ORACLE_CASES = [
    (2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 3), (5, 4), (6, 4),
    (60, 1), (400, 1), (200, 2), (300, 4), (500, 5), (1000, 6), (2000, 2),
    (60, 50), (120, 100), (200, 190), (300, 150),
]


class TestSegmentGrowthMatchesLoop:
    """generate_ba's segment draws against the per-pick loop they replaced."""

    @pytest.mark.parametrize("top", [10, 1000, 1_000_000])
    def test_array_bounds_draw_like_scalar_calls(self, top):
        for seed in range(3):
            for m in (1, 2, 3):
                highs = np.repeat(np.linspace(2, top, 301).astype(np.int64), m)
                rng, ref_rng = rng_from_seed(seed), rng_from_seed(seed)
                batch = rng.integers(0, highs)
                one_by_one = [int(ref_rng.integers(0, int(h))) for h in highs]
                assert batch.tolist() == one_by_one, (
                    "rng.integers(0, highs) no longer gives the scalar draws one bound at a "
                    "time; generate_ba's segment draws rely on it"
                )
                assert rng.bit_generator.state == ref_rng.bit_generator.state, (
                    "rng.integers(0, highs) leaves another Generator state than the scalar draws"
                )

    @pytest.mark.parametrize("n,m", BA_ORACLE_CASES,
                             ids=[f"{n}-{m}-{m + 1}" for n, m in BA_ORACLE_CASES])
    def test_grid(self, n, m):
        for seed in range(3):
            assert_ba_matches_reference(NetworkParams(n=n, m=m, seed=seed))

    def test_long_graph_redraws_at_segment_edges(self, monkeypatch):
        # A segment call resolves the segment's own draws; a repeating node's
        # rounds resolve its missing picks from that node on.
        segments, redrawn = [], []
        resolve = bbnet.graph._pool_nodes

        def spy(q, picks, m0, start, raw):
            if q is raw:
                segments.append((start, start + len(raw) // picks.shape[1] - 1))
            elif not redrawn or redrawn[-1][0] != start:
                redrawn.append((start, segments[-1]))
            return resolve(q, picks, m0, start, raw)

        monkeypatch.setattr(bbnet.graph, "_pool_nodes", spy)
        assert_ba_matches_reference(NetworkParams(n=20_000, m=3, seed=9))
        assert len(segments) > 50
        assert any(d == first for d, (first, _) in redrawn)
        assert any(d == last for d, (_, last) in redrawn)

    def test_dense_graph_finishes_in_rounds(self, monkeypatch):
        # At m = n / 2 most nodes repeat picks. Each of their rounds is one
        # call past the segment calls; one call per draw would make 19,399.
        rounds = []
        resolve = bbnet.graph._pool_nodes

        def spy(q, picks, m0, start, raw):
            if q is not raw:
                rounds.append(len(q))
            return resolve(q, picks, m0, start, raw)

        monkeypatch.setattr(bbnet.graph, "_pool_nodes", spy)
        generate_ba(NetworkParams(n=300, m=150, seed=0))
        assert len(rounds) <= 19_399 // 5

    @given(n=st.integers(2, 250), data=st.data(), seed=st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_property(self, n, data, seed):
        m = data.draw(st.integers(1, n - 1))
        assert_ba_matches_reference(NetworkParams(n=n, m=m, seed=seed))


class TestCcdf:
    def test_k3(self):
        g = generate_ba(NetworkParams(n=3, m=2, seed=0))
        assert degree_ccdf(g) == [(2, 1.0)]

    def test_star(self):
        assert degree_ccdf(star_graph(5)) == [(1, 1.0), (4, 0.2)]

    def test_monotone_and_min_degree_one(self):
        g = generate_ba(NetworkParams(n=300, m=2, seed=9))
        ccdf = degree_ccdf(g)
        fractions = [f for _, f in ccdf]
        assert fractions == sorted(fractions, reverse=True)
        assert ccdf[0] == (2, 1.0)  # every node has degree >= m


class TestFit:
    def test_exact_synthetic_recovers_exponent(self):
        ccdf = [(k, k**-2.0) for k in range(2, 40)]
        fit = fit_power_law(ccdf, k_min=2)
        assert fit.gamma_hat == pytest.approx(3.0, abs=1e-9)

    def test_too_few_points(self):
        with pytest.raises(ParameterError, match="need >= 5 CCDF points"):
            fit_power_law([(2, 1.0), (3, 0.5), (4, 0.2), (5, 0.1)], k_min=2)

    def test_ccdf_tail_slope_near_two(self):
        g = generate_ba(NetworkParams(n=30_000, m=2, seed=3))
        fit = fit_power_law(degree_ccdf(g), k_min=4)
        assert 1.5 <= fit.gamma_hat - 1 <= 2.5


class TestDiameter:
    def test_complete_graph(self):
        g = generate_ba(NetworkParams(n=3, m=2, seed=0))
        assert approx_diameter(g) == 1

    def test_path(self):
        assert approx_diameter(path_graph(5)) == 4

    def test_disconnected_raises(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ParameterError, match="graph is not connected"):
            approx_diameter(g)

    def test_empty_graph_raises(self):
        # no graph without nodes reaches approx_diameter: Graph itself refuses it
        with pytest.raises(ParameterError, match="^need n >= 1, got 0$"):
            Graph.from_edges(0, [])

    def test_growth_with_n(self):
        means = []
        for n in (100, 1000, 10_000):
            ests = [
                approx_diameter(generate_ba(NetworkParams(n=n, m=2, seed=s)))
                for s in range(10)
            ]
            assert max(ests) <= 12
            means.append(np.mean(ests))
        assert means[0] < means[1] < means[2]


class TestEdgeList:
    def test_round_trip_bit_exact(self):
        p = NetworkParams(n=80, m=2, seed=44)
        g = generate_ba(p)
        buf = io.StringIO()
        write_edge_list(g, buf, p.m, p.seed)
        text = buf.getvalue()
        assert text.splitlines()[0] == "80 2 44"

        g2, p2 = read_edge_list(io.StringIO(text))
        assert (p2.n, p2.m, p2.seed) == (80, 2, 44)
        assert edges_oracle(g2) == edges_oracle(g)

        buf2 = io.StringIO()
        write_edge_list(g2, buf2, p2.m, p2.seed)
        assert buf2.getvalue() == text

    @given(n=st.integers(2, 300), data=st.data(), seed=st.integers())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_header_regrows_its_graph(self, n, data, seed):
        # every header the writer accepts reads back as the params it was
        # grown from, so generate_ba of them (deterministic) is the graph read
        p = NetworkParams(n=n, m=data.draw(st.integers(1, n - 1)), seed=seed)
        grown = generate_ba(p)
        g, read = read_edge_list(io.StringIO(written(grown, p.m, p.seed)))
        assert read == p
        assert np.array_equal(grown.indptr, g.indptr)
        assert np.array_equal(grown.indices, g.indices)

    def test_rows_sorted_with_u_less_than_v(self):
        g = generate_ba(NetworkParams(n=50, m=2, seed=1))
        buf = io.StringIO()
        write_edge_list(g, buf, 2, 1)
        rows = [tuple(map(int, line.split())) for line in buf.getvalue().splitlines()[1:]]
        assert rows == sorted(rows)
        assert all(u < v for u, v in rows)

    @pytest.mark.parametrize(
        "n,m,seed,message",
        [(10, 2.5, 0, "need an integer m, got 2.5"), (10, True, 0, "need an integer m, got True"),
         (10, 0, 0, "need m >= 1, got 0"), (10, 2, 1.5, "need an integer seed, got 1.5"),
         (10, 2, "7", "need an integer seed, got '7'"), (1, 1, 0, "need n >= 2, got 1"),
         (3, 5, 0, "need m < 3, got 5")],
        ids=["m-float", "m-bool", "m-zero", "seed-float", "seed-str", "n-one", "m-past-n"],
    )
    def test_write_refuses_a_header_that_does_not_read_back(self, n, m, seed, message):
        g = Graph.from_edges(n, [])  # the header is refused before any row
        buf = io.StringIO()
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            write_edge_list(g, buf, m, seed)
        assert buf.getvalue() == ""

    def test_write_takes_numpy_integers(self):
        g = generate_ba(NetworkParams(n=10, m=2, seed=1))
        assert written(g, np.int64(2), np.uint64(1)) == written(g, 2, 1)

    @pytest.mark.parametrize(
        "edges",
        [[(0, 1.9)], [(0.0, 1.0)], np.array([[0.0, 1.0]]), [("1", "2")],
         np.array([[True, False]]), [(0, 2**70)]],
        ids=["fraction", "whole-floats", "float-array", "digit-strings", "bool-array",
             "past-uint64"],
    )
    def test_from_edges_refuses_non_integer_ids(self, edges):
        # an int64 cast would truncate, parse or overflow on each of these
        message = f"node ids must be integers, got dtype {np.asarray(edges).dtype}"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            Graph.from_edges(3, edges)

    @pytest.mark.parametrize("edges", [[(0, True)], [(0, 1), [1, False]], [(0, np.True_)]],
                             ids=["bool", "in-a-later-row", "numpy-bool"])
    def test_from_edges_refuses_a_bool_in_a_list(self, edges):
        # numpy reads these lists as int64: (0, True) would be the edge (0, 1)
        with pytest.raises(ParameterError, match="^node ids must be integers, got a bool$"):
            Graph.from_edges(3, edges)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.uint64])
    def test_from_edges_takes_every_integer_dtype(self, dtype):
        edges = [(0, 2), (1, 2), (2, 3)]
        g = Graph.from_edges(4, np.array(edges, dtype=dtype))
        assert g.indices.dtype == np.int64 and edges_oracle(g) == edges

    def test_from_edges_checks_range_before_the_cast(self):
        # an unsigned id past int64 would wrap negative if it were cast first
        edges = np.array([[0, 1], [1, 2**63]], dtype=np.uint64)
        message = f"edge (1,{2**63}) outside 0..2"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            Graph.from_edges(3, edges)
        # a list holding 2**63 is float64 or uint64, by numpy version: refused either way
        with pytest.raises(ParameterError):
            Graph.from_edges(3, [(1, 2**63)])

    @pytest.mark.parametrize(
        "edges",
        [[], np.empty(0, dtype=np.int64), np.empty((0, 1), dtype=np.int64), np.empty((0, 1)),
         np.empty((0, 0)), np.empty((0, 2), dtype=np.uint8), iter([])],
        ids=["list", "(0,)", "(0,1)-int", "(0,1)-float", "(0,0)", "(0,2)-uint8", "iterator"],
    )
    def test_zero_rows_in_any_shape_are_no_edges(self, edges):
        g = Graph.from_edges(4, edges)
        assert g.num_edges == 0 and g.indptr.tolist() == [0] * 5

    @pytest.mark.parametrize("edges,shape", [([[], []], (2, 0)), ([(0, 1, 2)], (1, 3)),
                                             ([0, 1], (2,))],
                             ids=["two-empty-rows", "triple", "flat-pair"])
    def test_rows_that_are_not_pairs_refused(self, edges, shape):
        message = f"edges must be (u, v) pairs, got shape {shape}"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            Graph.from_edges(4, edges)

    @pytest.mark.parametrize(
        "edges",
        [np.array([[3, 1], [0, 2], [1, 0]]), np.asfortranarray([[3, 1], [0, 2], [1, 0]]),
         np.array([[3, 1], [0, 2], [1, 0]], dtype=np.uint32), [[3, 1], [0, 2], [1, 0]]],
        ids=["int64-C", "int64-F", "uint32", "list"],
    )
    def test_from_edges_leaves_its_input_unchanged(self, edges):
        # the CSR is sorted inside an array of edge rows; never the caller's
        saved = [list(row) for row in edges] if isinstance(edges, list) else edges.copy()
        g = Graph.from_edges(4, edges)
        assert edges_oracle(g) == [(0, 1), (0, 2), (1, 3)]
        if isinstance(edges, list):
            assert edges == saved
        else:
            assert edges.dtype == saved.dtype and np.array_equal(edges, saved)

    def test_from_edges_rejects_self_loop_and_duplicate(self):
        with pytest.raises(ParameterError):
            Graph.from_edges(3, [(0, 0)])
        with pytest.raises(ParameterError):
            Graph.from_edges(3, [(0, 1), (1, 0)])

    @pytest.mark.parametrize(
        "body",
        [
            "0 1\n2\n",
            "0 1\n1 2 3\n",
            "0 1 2\n1 2 3\n",
            "0 1\n1 2.0\n",
            "0 one\n",
            "0 1\n# a comment\n",
            "0 1\n-1 2\n",
            "0 1\n2 4\n",
            "0 1\n2 2\n",
            "0 1\n1 2\n1 0\n",
        ],
        ids=["one-token", "three-tokens-one-row", "three-tokens-every-row", "float", "word",
             "comment", "negative-id", "id-ge-n", "self-loop", "reversed-duplicate"],
    )
    def test_malformed_body_rejected(self, body):
        with pytest.raises(ParameterError):
            read_edge_list(io.StringIO("4 1 0\n" + body))

    @pytest.mark.parametrize(
        "header,message",
        [
            ("x 2 0", "header fields must be integers"),
            ("3 2.5 0", "header fields must be integers"),
            ("-1 2 0", "need n >= 2, got -1"),
            ("4 1", "edge-list header must be 'N m seed'"),
            ("4 4 0", "need m < 4, got 4"),
        ],
        ids=["word", "float", "negative-n", "two-fields", "m-ge-n"],
    )
    def test_malformed_header_rejected(self, header, message):
        # a bad N or m gets the message of NetworkParams, the rule's owner
        with pytest.raises(ParameterError, match=message):
            read_edge_list(io.StringIO(header + "\n0 1\n"))

    @pytest.mark.parametrize(
        "text",
        [b"\xff\xfe4 1 0\n0 1\n", b"4 1 0\n0 1\n\xff\n",
         # past the first chunk the stream decodes, while loadtxt is parsing
         b"30001 1 0\n" + "".join(f"{i} {i + 1}\n" for i in range(30_000)).encode() + b"\xff\n"],
        ids=["header", "body", "deep-in-body"],
    )
    def test_undecodable_text_rejected(self, text):
        with pytest.raises(ParameterError, match="cannot decode edge list: 'utf-8' codec"):
            read_edge_list(io.TextIOWrapper(io.BytesIO(text), encoding="utf-8"))

    @pytest.mark.parametrize("n", [99999999999999999999, 3037000500],
                             ids=["past-int64", "past-key-bound"])
    def test_node_count_past_key_bound_rejected(self, n):
        # refused before any N-sized array is allocated; 3037000500 nodes
        # would ask bincount for 22.6 GiB
        with pytest.raises(ParameterError, match=f"need n < 3037000500, got {n}"):
            read_edge_list(io.StringIO(f"{n} 1 0\n0 1\n"))
        with pytest.raises(ParameterError, match=f"need n < 3037000500, got {n}"):
            Graph.from_edges(n, [(0, 1)])

    def test_key_bound_is_tight(self):
        bound = bbnet.graph._MAX_NODES
        assert bound * bound - 1 < 2**63 <= (bound + 1) * (bound + 1) - 1

    @pytest.mark.parametrize(
        "body,edges",
        [
            ("\n0 1\n\n\n1 2\n\n", [(0, 1), (1, 2)]),
            ("0\t1\n  1    2  \n2 \t 3\n", [(0, 1), (1, 2), (2, 3)]),
            ("", []),
            ("\n  \n", []),
        ],
        ids=["blank-lines", "tabs-and-spaces", "header-only", "blank-body"],
    )
    def test_whitespace_variants_read(self, body, edges):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g, params = read_edge_list(io.StringIO("4 1 0\n" + body))
        assert (g.n, params.m, params.seed) == (4, 1, 0)
        assert edges_oracle(g) == edges


class TestArrayPathsMatchLoops:
    """The CSR array paths against the per-node and per-edge loops they replaced."""

    @pytest.mark.parametrize("name,g", ORACLE_GRAPHS, ids=[name for name, _ in ORACLE_GRAPHS])
    def test_bfs_edges_and_diameter(self, name, g):
        sources = range(g.n) if g.n <= 300 else np.random.default_rng(g.n).choice(g.n, 12)
        for src in sources:
            assert np.array_equal(_bfs_distances(g, int(src)), bfs_oracle(g, int(src)))
        if g.n >= 2:
            assert written(g, 1, 7) == write_oracle(g, 1, 7)
        else:  # a one-node header does not read back
            with pytest.raises(ParameterError, match="^need n >= 2, got 1$"):
                written(g, 2, 7)
        expected = diameter_oracle(g)
        if expected is None:
            with pytest.raises(ParameterError, match="graph is not connected"):
                approx_diameter(g)
        else:
            assert approx_diameter(g) == expected

    def test_from_pairs_matches_lexsort(self):
        assert_from_pairs_matches_lexsort()

    def test_write_spans_chunks(self):
        g = generate_ba(NetworkParams(n=40_000, m=2, seed=3))
        assert len(g.indices) > 8 * bbnet.graph._BLOCK_HALF_EDGES
        assert written(g, 2, 3) == write_oracle(g, 2, 3)

    @pytest.mark.parametrize("block", [1, 2, 7, 64, 200])
    def test_small_blocks_match_oracles(self, monkeypatch, block):
        # Blocks of one half-edge, of a few and of many, so that block bounds
        # fall inside, at and past rows, key rows, BFS levels and segments;
        # 200 half-edges cap the m = 2 segments at 100 nodes.
        monkeypatch.setattr(bbnet.graph, "_BLOCK_HALF_EDGES", block)
        assert_from_pairs_matches_lexsort()

        lengths = []
        resolve = bbnet.graph._pool_nodes

        def spy(q, picks, m0, start, raw):
            if q is raw:
                lengths.append(len(raw) // picks.shape[1])
            return resolve(q, picks, m0, start, raw)

        monkeypatch.setattr(bbnet.graph, "_pool_nodes", spy)
        assert_ba_matches_reference(NetworkParams(n=6_000, m=2, seed=4))
        cap = max(1, block // 2)
        assert max(lengths) == cap and lengths.count(cap) > 10

        for name, g in ORACLE_GRAPHS:
            for src in {0, g.n // 2, g.n - 1}:
                assert np.array_equal(_bfs_distances(g, src), bfs_oracle(g, src)), (name, src)
            if g.n >= 2:  # test_bfs_edges_and_diameter covers the refused one-node graphs
                assert written(g, 1, 0) == write_oracle(g, 1, 0), name

    def test_write_at_digit_width_boundaries(self):
        # each id one below and at a power of ten, up to the six digits of n - 1
        edges = [(10**k - 1, 10**k) for k in range(1, 6)] + [(0, 1), (0, 100_000)]
        g = Graph.from_edges(100_001, edges)
        assert written(g, 2, 5) == write_oracle(g, 2, 5)
        assert written(g, 2, 5).endswith("\n99999 100000\n")

    @pytest.mark.parametrize("n,edges", [(2, [(0, 1)]), (0, []), (1, []), (5, [])],
                             ids=["two-nodes", "empty", "one-node", "no-edges"])
    def test_write_small_and_edgeless(self, n, edges):
        if n == 0:  # a graph without nodes is refused before there is anything to write
            with pytest.raises(ParameterError, match="^need n >= 1, got 0$"):
                Graph.from_edges(n, edges)
            return
        g = Graph.from_edges(n, edges)
        if n >= 2:
            assert written(g, 1, 9) == write_oracle(g, 1, 9)
        else:  # fewer than two nodes make a header that does not read back
            with pytest.raises(ParameterError, match=f"^need n >= 2, got {n}$"):
                written(g, 1, 9)

    def test_id_text_spans_the_id_range(self):
        top = bbnet.graph._MAX_NODES - 1
        ids = np.array([0, top, top, 0, 7, 10], dtype=np.int64)
        assert bbnet.graph._id_text(ids, 10) == f"0 {top}\n{top} 0\n7 10\n"

    @pytest.mark.parametrize(
        "n,edges,message",
        [
            (4, [(0, 1), (2, 5), (-1, 3)], "edge (2,5) outside 0..3"),
            (4, [(0, 1), (-1, 3), (2, 5)], "edge (-1,3) outside 0..3"),
            (0, [(0, 1)], "edge (0,1) outside 0..-1"),
            (4, [(0, 3), (1, 2), (3, 0), (2, 1)], "duplicate edge (0, 3)"),
            (6, [(3, 5), (1, 2), (5, 3), (4, 5), (5, 4)], "duplicate edge (3, 5)"),
        ],
        ids=["past-n", "negative", "no-nodes", "first-row", "after-empty-rows"],
    )
    def test_from_edges_names_the_first_bad_edge(self, n, edges, message):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            Graph.from_edges(n, edges)

    @pytest.mark.parametrize("n", [0, -1, -(2**40)])
    def test_from_edges_refuses_fewer_than_one_node(self, n):
        # one message for every node count below 1, given after the edge checks
        for edges in ([], np.empty((0, 2), dtype=np.int64)):
            with pytest.raises(ParameterError, match=f"^need n >= 1, got {n}$"):
                Graph.from_edges(n, edges)
        with pytest.raises(ParameterError, match=rf"^edge \(0,1\) outside 0\.\.{n - 1}$"):
            Graph.from_edges(n, [(0, 1)])

    @pytest.mark.parametrize("n,edges", [(4, [(0, 2), (1, 2)]), (7, [(2, 5), (3, 5), (5, 6)])],
                             ids=["rows-0-1", "empty-rows-around"])
    def test_equal_neighbours_across_a_row_start_accepted(self, n, edges):
        # rows 0 and 1 (2 and 3) both end in the same neighbour, with empty rows around
        g = Graph.from_edges(n, edges)
        assert edges_oracle(g) == sorted(edges)

    def test_gather_lists_rows_in_order(self):
        g = Graph.from_edges(7, [(0, 3), (3, 4), (4, 1), (0, 1), (1, 3)])  # 2, 5, 6 isolated
        rows = np.array([2, 1, 5, 3, 6, 0, 1])
        nbrs, offsets = g.gather(rows)
        assert nbrs.tolist() == [x for r in rows for x in neighbors(g, r).tolist()]
        assert offsets.tolist() == [0, 0, 3, 3, 6, 6, 8]
        nbrs, offsets = g.gather(np.array([], dtype=np.int64))
        assert len(nbrs) == len(offsets) == 0

    def test_from_edges_verdict(self):
        rng = np.random.default_rng(7)
        flaws = 0
        for trial in range(300):
            n = int(rng.integers(1, 25))
            edges = random_edge_list(rng, n, 0.2)
            flaw = trial % 5
            if flaw == 1:
                node = int(rng.integers(0, n))
                edges.insert(int(rng.integers(0, len(edges) + 1)), (node, node))
            elif flaw == 2 and edges:
                u, v = edges[int(rng.integers(0, len(edges)))]
                edges.append((v, u) if rng.random() < 0.5 else (u, v))
            elif flaw == 3:
                edges.append((int(rng.integers(0, n)), n + int(rng.integers(0, 3))))
            elif flaw == 4:
                edges.insert(0, (-1 - int(rng.integers(0, 3)), int(rng.integers(0, n))))
            expected = from_edges_oracle(n, edges)
            flaws += expected is None
            if expected is None:
                with pytest.raises(ParameterError):
                    Graph.from_edges(n, edges)
            else:
                g = Graph.from_edges(n, edges)
                assert edges_oracle(g) == expected
                check_invariants(g)
        assert 150 <= flaws <= 240  # both verdicts are well exercised


def traced_peak(call):
    """tracemalloc's peak, in bytes, over one ``call()``; a first call beforehand
    loads what the call loads once per process."""
    call()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """The graph layer's tracemalloc peaks, against the bytes of the CSR
    arrays it builds (N = 2e4, m = 3): no call holds several copies of the graph."""

    @pytest.fixture(scope="class")
    def grown(self):
        g = generate_ba(NetworkParams(n=20_000, m=3, seed=0))
        return g, g.indptr.nbytes + g.indices.nbytes

    def test_from_pairs(self, grown):
        g, csr = grown
        edges = np.array(edges_oracle(g))
        # the copy is the array that becomes indices
        assert traced_peak(lambda: Graph._from_pairs(g.n, edges.copy())) <= 1.5 * csr

    def test_from_edges(self, grown):
        g, csr = grown
        edges = np.array(edges_oracle(g))
        assert edges.dtype == np.int64
        assert traced_peak(lambda: Graph.from_edges(g.n, edges)) <= 1.4 * csr

    def test_read_edge_list(self, grown, tmp_path):
        g, csr = grown
        path = tmp_path / "graph.edges"
        with open(path, "w") as fh:
            write_edge_list(g, fh, 3, 0)

        def read():
            with open(path) as fh:
                return read_edge_list(fh)

        assert traced_peak(read) <= 1.5 * csr

    def test_generate_ba(self, grown):
        _, csr = grown
        assert traced_peak(lambda: generate_ba(NetworkParams(n=20_000, m=3, seed=0))) <= 2.1 * csr

    def test_approx_diameter(self, grown):
        g, csr = grown
        assert traced_peak(lambda: approx_diameter(g)) <= 1.8 * csr

    def test_write_peak_independent_of_n(self):
        peaks = []
        for n in (100_000, 400_000):
            g = generate_ba(NetworkParams(n=n, m=2, seed=0))
            with open(os.devnull, "w") as sink:
                peaks.append(traced_peak(lambda: write_edge_list(g, sink, 2, 0)))
        assert peaks[1] < 1.25 * peaks[0], peaks
        assert max(peaks) <= 2 * 2**20, peaks  # one block of text, not the whole graph

    def test_write_peak_on_empty_rows(self):
        # a long run of empty rows is cut into blocks too
        g = Graph.from_edges(1_000_000, [(0, 999_999), (5, 6)])
        with open(os.devnull, "w") as sink:
            assert traced_peak(lambda: write_edge_list(g, sink, 1, 0)) <= 2**20

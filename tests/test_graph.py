"""Graph construction, degree statistics, and edge-list round trips."""

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bbnet.errors import DisconnectedGraphError, FitError, ParameterError
from bbnet.graph import (
    Graph,
    NetworkParams,
    approx_diameter,
    degree_ccdf,
    fit_power_law,
    generate_ba,
    read_edge_list,
    write_edge_list,
)


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n):
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def expected_edge_count(params):
    """Edge count forced by the construction: m0(m0-1)/2 + m(n-m0)."""
    return params.m0 * (params.m0 - 1) // 2 + params.m * (params.n - params.m0)


def check_invariants(g):
    """Raises AssertionError if the graph is not simple and symmetric."""
    seen = set()
    for u in range(g.n):
        nbrs = g.neighbors(u)
        assert np.all(np.diff(nbrs) > 0), f"unsorted or duplicate neighbors at {u}"
        assert u not in nbrs, f"self-loop at {u}"
        for v in nbrs:
            seen.add((u, int(v)))
    for u, v in seen:
        assert (v, u) in seen, f"asymmetric edge ({u},{v})"


class TestParams:
    def test_default_m0(self):
        p = NetworkParams(n=10, m=3, seed=1)
        assert p.m0 == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=1, m=1),
            dict(n=10, m=0),
            dict(n=10, m=5, m0=4),
            dict(n=3, m=2, m0=5),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ParameterError):
            NetworkParams(seed=0, **kwargs)


class TestGenerate:
    def test_n_equals_m0_gives_seed_clique(self):
        g = generate_ba(NetworkParams(n=3, m=2, m0=3, seed=7))
        assert g.num_edges == 3
        assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 2)]

    def test_edge_count_identity_m1(self):
        for seed in range(5):
            g = generate_ba(NetworkParams(n=5, m=1, m0=2, seed=seed))
            assert g.num_edges == 1 + 1 * 3

    def test_determinism(self):
        p = NetworkParams(n=500, m=2, seed=123)
        assert generate_ba(p).edges() == generate_ba(p).edges()

    def test_different_seeds_differ(self):
        e1 = generate_ba(NetworkParams(n=200, m=2, seed=1)).edges()
        e2 = generate_ba(NetworkParams(n=200, m=2, seed=2)).edges()
        assert e1 != e2

    @given(
        n=st.integers(3, 60),
        m=st.integers(1, 4),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_invariants_property(self, n, m, seed):
        m0 = m + 1
        if m0 > n:
            return
        p = NetworkParams(n=n, m=m, m0=m0, seed=seed)
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


class TestCcdf:
    def test_k3(self):
        g = generate_ba(NetworkParams(n=3, m=2, m0=3, seed=0))
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
        assert fit.r2 == pytest.approx(1.0, abs=1e-9)
        assert fit.prefactor_hat == pytest.approx(1.0, abs=1e-9)

    def test_too_few_points(self):
        with pytest.raises(FitError):
            fit_power_law([(2, 1.0), (3, 0.5), (4, 0.2), (5, 0.1)], k_min=2)

    def test_ccdf_tail_slope_near_two(self):
        g = generate_ba(NetworkParams(n=30_000, m=2, seed=3))
        fit = fit_power_law(degree_ccdf(g), k_min=4)
        assert 1.5 <= fit.gamma_hat - 1 <= 2.5


class TestDiameter:
    def test_complete_graph(self):
        g = generate_ba(NetworkParams(n=3, m=2, m0=3, seed=0))
        assert approx_diameter(g) == 1

    def test_path(self):
        assert approx_diameter(path_graph(5)) == 4

    def test_disconnected_raises(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            approx_diameter(g)

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
        assert g2.edges() == g.edges()

        buf2 = io.StringIO()
        write_edge_list(g2, buf2, p2.m, p2.seed)
        assert buf2.getvalue() == text

    def test_rows_sorted_with_u_less_than_v(self):
        g = generate_ba(NetworkParams(n=50, m=2, seed=1))
        buf = io.StringIO()
        write_edge_list(g, buf, 2, 1)
        rows = [tuple(map(int, line.split())) for line in buf.getvalue().splitlines()[1:]]
        assert rows == sorted(rows)
        assert all(u < v for u, v in rows)

    def test_from_edges_rejects_self_loop_and_duplicate(self):
        with pytest.raises(ParameterError):
            Graph.from_edges(3, [(0, 0)])
        with pytest.raises(ParameterError):
            Graph.from_edges(3, [(0, 1), (1, 0)])

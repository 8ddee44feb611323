"""SIS imitation dynamics: exact small-case oracles and invariants."""

import io
import re
from typing import Sequence

import numpy as np
import pytest
from conftest import neighbors, path_graph, star_graph, trajectory_from_csv

from bbnet.dynamics import EpidemicParams, count_infected_neighbours, run_sim, step
from bbnet.errors import ParameterError
from bbnet.graph import Graph, NetworkParams, approx_diameter, generate_ba
from bbnet.machines import population_fitness, sample_programs
from bbnet.rng import rng_from_seed


def _step_reference(
    g: Graph,
    params: EpidemicParams,
    own: np.ndarray,
    infected: np.ndarray,
    carried: np.ndarray,
    n_inf: np.ndarray,
    u: np.ndarray,
    order: Sequence[int] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scalar implementation used to cross-check the vectorized step.

    Processes nodes in any given order; because every rule reads only the
    time-t snapshot and node i uses only u[i], the order cannot matter.
    Takes ``n_inf`` where ``step`` does but never reads it: it counts each
    node's infected neighbours itself, and returns the next counts made
    node by node.
    """
    n = g.n
    displayed = np.where(infected, carried, own)
    new_infected = infected.copy()
    carried = carried.copy()

    for i in order if order is not None else range(n):
        nbrs = neighbors(g, i)
        if not infected[i]:
            n_inf = int(infected[nbrs].sum())
            p = 1.0 - (1.0 - params.nu) ** n_inf
            if u[i, 0] < p:
                new_infected[i] = True
                if params.imitate_infected_only:
                    vals = [displayed[j] for j in nbrs if infected[j]]
                else:
                    vals = [displayed[j] for j in nbrs]
                carried[i] = max(vals)
        else:
            if u[i, 1] < params.delta:
                new_infected[i] = False
                carried[i] = own[i]
            elif params.reimitation and u[i, 2] < params.nu:
                if len(nbrs) > 0:
                    carried[i] = max(int(carried[i]), int(displayed[nbrs].max()))

    counts = [int(new_infected[neighbors(g, i)].sum()) for i in range(n)]
    return new_infected, carried, np.array(counts, dtype=np.int64)


def check_invariants(g, own, infected, carried, n_inf):
    """Susceptible nodes carry their own value, and n_inf counts infected neighbours."""
    sus = ~infected
    assert np.array_equal(carried[sus], own[sus]), "susceptible nodes must carry their own fitness"
    assert np.array_equal(n_inf, count_infected_neighbours(g, infected)), (
        "n_inf must be each node's number of infected neighbours"
    )


def sampled_fitness(rng, n, t_max):
    """Own fitness of n programs drawn from rng, as a sweep run computes it."""
    return population_fitness(sample_programs(rng, n), "", t_max)


def make_state(g, infected, own, carried=None):
    """``(own, infected, carried, n_inf)`` arrays on ``g``, in the order ``step`` takes them."""
    own = np.asarray(own, dtype=np.int64)
    carried = own.copy() if carried is None else np.asarray(carried, dtype=np.int64)
    infected = np.asarray(infected, dtype=bool)
    return own, infected, carried, count_infected_neighbours(g, infected)


def random_state(rng, g, max_fitness=9, p_infected=0.4):
    n = g.n
    infected = rng.random(n) < p_infected
    own = rng.integers(0, max_fitness + 1, size=n)
    carried = own.copy()
    boost = infected & (rng.random(n) < 0.5)
    carried[boost] = rng.integers(0, max_fitness + 1, size=int(boost.sum()))
    return make_state(g, infected, own, carried)


def random_connected_graph(rng, n):
    edges = {(i, int(rng.integers(0, i))) for i in range(1, n)}
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u != v:
            edges.add((max(u, v), min(u, v)))
    return Graph.from_edges(n, list(edges))


def graph_with_isolated_nodes(rng, n):
    """Random graph whose isolated nodes may sit at any id, the first and last included."""
    isolated = rng.random(n) < 0.3
    if rng.random() < 0.5:
        isolated[0] = True
    if rng.random() < 0.5:
        isolated[-1] = True
    live = np.flatnonzero(~isolated)
    edges = set()
    for _ in range(int(rng.integers(0, 2 * n + 1))):
        if len(live) < 2:
            break
        u, v = rng.choice(live, size=2, replace=False)
        edges.add((int(min(u, v)), int(max(u, v))))
    return Graph.from_edges(n, list(edges))


FLAG_COMBOS = [
    dict(reimitation=r, imitate_infected_only=i) for r in (False, True) for i in (False, True)
]
FLAG_IDS = ["plain", "infected-only", "reimitation", "reimitation-infected-only"]


class TestParams:
    def test_spreading_rate(self):
        assert EpidemicParams(nu=0.2, delta=0.5).spreading_rate == pytest.approx(0.4)
        assert EpidemicParams(nu=1.0, delta=0.0).spreading_rate == np.inf

    @pytest.mark.parametrize(
        "kwargs",
        [dict(nu=-0.1, delta=0.5), dict(nu=1.1, delta=0.5), dict(nu=0.5, delta=1.5),
         dict(nu=0.5, delta=0.5, rho0=0.0), dict(nu=0.5, delta=0.5, rho0=1.5)],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ParameterError):
            EpidemicParams(**kwargs)

    @pytest.mark.parametrize("name", ["nu", "delta", "rho0"])
    @pytest.mark.parametrize("value", ["0.5", True, None, np.True_], ids=repr)
    def test_non_number_refused(self, name, value):
        # "0.5" raised a bare TypeError at the range check; True ran as 1.0
        kwargs = {"nu": 0.5, "delta": 0.5, "rho0": 0.5, name: value}
        with pytest.raises(ParameterError, match=f"^need a real number {name}, got {value!r}$"):
            EpidemicParams(**kwargs)

    def test_numpy_numbers_taken(self):
        params = EpidemicParams(nu=np.float32(0.5), delta=np.int64(1), rho0=1)
        assert params.spreading_rate == 0.5

    @pytest.mark.parametrize("name", ["reimitation", "imitate_infected_only"])
    @pytest.mark.parametrize("value", ["no", 1, 0, 1.0, None, np.int64(1)], ids=repr)
    def test_non_bool_flag_refused(self, name, value):
        kwargs = {"nu": 0.5, "delta": 0.5, name: value}
        with pytest.raises(ParameterError, match=f"^need a bool {name}, got {re.escape(repr(value))}$"):
            EpidemicParams(**kwargs)

    @pytest.mark.parametrize("flag", [False, True, np.False_, np.True_], ids=repr)
    def test_python_and_numpy_bool_flags_taken(self, flag):
        params = EpidemicParams(nu=0.5, delta=0.5, reimitation=flag, imitate_infected_only=flag)
        assert params.reimitation is flag and params.imitate_infected_only is flag


class TestInit:
    """Row 0 of ``run_sim``'s trajectory is the initial condition."""

    def test_all_infected(self):
        g = path_graph(10)
        rng = rng_from_seed(0)
        traj = run_sim(g, np.ones(10, dtype=np.int64), EpidemicParams(nu=0.5, delta=0.5, rho0=1.0),
                       1, rng)
        assert traj.infected_density[0] == 1.0
        assert traj.best_carrier_density[0] == 1.0

    def test_floor_guard_one_infected(self):
        g = path_graph(100)
        rng = rng_from_seed(1)
        traj = run_sim(g, np.ones(100, dtype=np.int64),
                       EpidemicParams(nu=0.5, delta=0.5, rho0=1e-9), 1, rng)
        assert traj.infected_density[0] == 1 / 100

    def test_exact_count(self):
        # every node starts carrying its own value, infected or not
        g = generate_ba(NetworkParams(n=2000, m=2, seed=3))
        rng = rng_from_seed(2)
        own = sampled_fitness(rng, 2000, 100)
        traj = run_sim(g, own, EpidemicParams(nu=0.5, delta=0.5, rho0=0.01), 1, rng)
        assert traj.infected_density[0] == 20 / 2000
        assert traj.best_carrier_density[0] == np.count_nonzero(own == own.max()) / 2000
        assert traj.max_displayed[0] == own.max()

    def test_program_count_mismatch(self):
        with pytest.raises(ParameterError, match="^need 3 fitness values, got 1$"):
            run_sim(path_graph(3), np.ones(1, dtype=np.int64), EpidemicParams(nu=0.5, delta=0.5),
                    1, rng_from_seed(0))

    @pytest.mark.parametrize(
        "own, form",
        [([1.5, 2.7, 3.0], "float64 of shape \\(3,\\)"), (["1", "2", "3"], "<U1 of shape \\(3,\\)"),
         ([True, False, True], "bool of shape \\(3,\\)"),
         (np.ones((3, 2), dtype=np.int64), "int64 of shape \\(3, 2\\)"),
         (np.arange(3, dtype=np.uint64), "uint64 of shape \\(3,\\)"), (7, "int64 of shape \\(\\)")],
        ids=["float", "str", "bool", "2-D", "uint64", "scalar"],
    )
    def test_own_not_an_integer_vector(self, own, form):
        # floats were truncated, strings parsed, bools read as 0/1, and a 2-D
        # own ended in numpy's broadcast ValueError
        with pytest.raises(ParameterError, match=f"^need a 1-D integer own, got {form}$"):
            run_sim(path_graph(3), own, EpidemicParams(nu=0.5, delta=0.5), 1, rng_from_seed(0))

    def test_integer_forms_of_own_run_alike(self):
        g = generate_ba(NetworkParams(n=200, m=2, seed=8))
        own = rng_from_seed(8).integers(0, 50, size=g.n)
        params = EpidemicParams(nu=0.3, delta=0.5, rho0=0.2)
        runs = [run_sim(g, form, params, 20, rng_from_seed(9))
                for form in (own, own.tolist(), list(own), own.astype(np.int32))]
        for traj in runs[1:]:
            assert np.array_equal(traj.infected_density, runs[0].infected_density)
            assert np.array_equal(traj.best_carrier_density, runs[0].best_carrier_density)
            assert np.array_equal(traj.max_displayed, runs[0].max_displayed)

    def test_empty_graph(self):
        # run_sim holds no node-count check: a graph without nodes is refused when made
        with pytest.raises(ParameterError, match="^need n >= 1, got 0$"):
            Graph.from_edges(0, [])


class TestStep:
    @pytest.mark.parametrize("flags", FLAG_COMBOS, ids=FLAG_IDS)
    def test_nu_zero_no_new_infections(self, flags):
        # no node imitates, so every step gathers zero rows
        g = path_graph(50)
        rng = rng_from_seed(5)
        own, infected, carried, n_inf = make_state(g, [True] * 25 + [False] * 25, [1] * 50)
        params = EpidemicParams(nu=0.0, delta=0.3, **flags)
        for _ in range(10):
            nxt, carried, n_inf = step(g, params, own, infected, carried, n_inf,
                                       rng.random((g.n, 3)))
            assert not (nxt & ~infected).any()
            infected = nxt

    def test_star_forced_spread(self):
        # infected center carrying 9; nu=1, delta=0 infects every leaf with 9
        g = star_graph(6)
        own, infected, carried, n_inf = make_state(g, [True] + [False] * 5, [1] * 6,
                                                   [9] + [1] * 5)
        infected, carried, n_inf = step(g, EpidemicParams(nu=1.0, delta=0.0), own, infected,
                                        carried, n_inf, rng_from_seed(0).random((6, 3)))
        assert infected.all()
        assert carried[1:].tolist() == [9] * 5
        check_invariants(g, own, infected, carried, n_inf)

    def test_path3_exact_one_step_distribution(self):
        # center infected; three independent fair flips -> 8 equally likely outcomes
        g = path_graph(3)
        params = EpidemicParams(nu=0.5, delta=0.5)
        rng = rng_from_seed(99)
        n_trials = 100_000
        counts = {}
        own, infected, carried, n_inf = make_state(g, [False, True, False], [3, 7, 5])
        for _ in range(n_trials):
            nxt, _, _ = step(g, params, own, infected, carried, n_inf, rng.random((3, 3)))
            key = tuple(nxt.tolist())
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 8
        expected = n_trials / 8
        sigma = np.sqrt(n_trials * (1 / 8) * (7 / 8))
        for key, c in counts.items():
            assert abs(c - expected) <= 3 * sigma, (key, c)

    def test_step_writes_into_no_input(self):
        g = path_graph(3)
        state = make_state(g, [True, False, True], [1, 5, 1], [9, 5, 4])
        before = [array.copy() for array in state]
        params = EpidemicParams(nu=1.0, delta=0.5, reimitation=True)
        step(g, params, *state, np.full((3, 3), 0.25))
        for array, copy in zip(state, before):
            assert np.array_equal(array, copy)

    def test_infection_copies_neighborhood_max_displayed(self):
        # center gets infected by leaf 2 but copies the best displayed value
        # among ALL neighbors, which is the susceptible leaf 0 showing 9
        g = path_graph(3)
        state = make_state(g, [False, False, True], [9, 8, 1], [9, 8, 6])
        infected, carried, _ = step(g, EpidemicParams(nu=1.0, delta=0.0), *state,
                                    np.zeros((3, 3)))
        assert infected.tolist() == [False, True, True]
        assert carried[1] == 9

    def test_infected_only_variant_restricts_source(self):
        # same setup, but the variant only looks at infected neighbors (value 6)
        g = path_graph(3)
        state = make_state(g, [False, False, True], [9, 8, 1], [9, 8, 6])
        _, carried, _ = step(g, EpidemicParams(nu=1.0, delta=0.0, imitate_infected_only=True),
                             *state, np.zeros((3, 3)))
        assert carried[1] == 6

    def test_infected_only_variant_with_negative_fitness(self):
        # the susceptible neighbour is masked out, not replaced by a value
        # that beats the infected neighbour's -5
        g = path_graph(3)
        state = make_state(g, [True, False, False], [-5, -3, -4])
        _, carried, _ = step(g, EpidemicParams(nu=1.0, delta=0.0, imitate_infected_only=True),
                             *state, np.zeros((3, 3)))
        assert carried.tolist() == [-5, -5, -4]

    def test_cure_resets_to_own(self):
        g = path_graph(2)
        own, infected, carried, n_inf = make_state(g, [True, False], [1, 2], [9, 2])
        infected, carried, n_inf = step(g, EpidemicParams(nu=0.0, delta=1.0), own, infected,
                                        carried, n_inf, np.zeros((2, 3)))
        assert not infected.any()
        assert carried.tolist() == [1, 2]
        check_invariants(g, own, infected, carried, n_inf)

    def test_reimitation_raises_carried_to_closed_neighborhood_max(self):
        g = path_graph(3)
        # both ends infected; node 0 carries 9, node 2 carries 4; center susceptible own 5
        state = make_state(g, [True, False, True], [1, 5, 1], [9, 5, 4])
        params = EpidemicParams(nu=1.0, delta=0.0, reimitation=True)
        _, carried, _ = step(g, params, *state, np.zeros((3, 3)))
        # node 2 sees displayed center 5 > carried 4 -> raises to 5;
        # node 0 sees 5 < carried 9 -> keeps 9 (closed-neighborhood max)
        assert carried[0] == 9
        assert carried[2] == 5


class TestStepRefusals:
    """``step`` refuses a state that does not fit the graph, by its shapes and dtype alone."""

    G = path_graph(4)
    STATE = make_state(G, [False, True, False, False], [1, 2, 3, 4])

    @pytest.mark.parametrize(
        "position, value, message",
        [
            (4, np.zeros((1, 3)), r"need u of shape \(4, 3\), got float64 of shape \(1, 3\)"),
            (4, np.zeros((4, 2)), r"need u of shape \(4, 3\), got float64 of shape \(4, 2\)"),
            (4, np.zeros((4, 3)).tolist(), r"need u of shape \(4, 3\), got list"),
            (1, np.array([0, 1, 0, 0]),
             r"need a bool infected of shape \(4,\), got int64 of shape \(4,\)"),
            (1, np.zeros(5, dtype=bool),
             r"need a bool infected of shape \(4,\), got bool of shape \(5,\)"),
            (1, [False, True, False, False], r"need a bool infected of shape \(4,\), got list"),
            (0, np.ones((4, 1), dtype=np.int64),
             r"need own of shape \(4,\), got int64 of shape \(4, 1\)"),
            (2, np.ones(3, dtype=np.int64),
             r"need carried of shape \(4,\), got int64 of shape \(3,\)"),
            (3, np.ones((2, 2), dtype=np.int64),
             r"need n_inf of shape \(4,\), got int64 of shape \(2, 2\)"),
            (3, np.ones(4), r"need an integer n_inf, got float64 of shape \(4,\)"),
        ],
        ids=["u-one-row", "u-two-columns", "u-list", "infected-int", "infected-long",
             "infected-list", "own-2-D", "carried-short", "n_inf-2-D", "n_inf-float"],
    )
    def test_malformed_state_refused(self, position, value, message):
        # a (1, 3) u gave every node node 0's uniforms, an (N, 2) u ran without
        # reimitation, and an int infected ran with bitwise ~
        args = [*self.STATE, np.zeros((4, 3))]
        args[position] = value
        with pytest.raises(ParameterError, match=f"^{message}$"):
            step(self.G, EpidemicParams(nu=0.5, delta=0.5), *args)


class TestCarriedCounts:
    """``step`` hands on each node's infected-neighbour count instead of recounting it."""

    @pytest.mark.parametrize("flags", FLAG_COMBOS, ids=FLAG_IDS)
    @pytest.mark.parametrize("delta", [0.0, 0.3, 1.0])
    def test_counts_hold_after_every_step(self, delta, flags):
        master = rng_from_seed(606)
        graphs = [graph_with_isolated_nodes(master, 300),
                  generate_ba(NetworkParams(n=300, m=2, seed=6))]
        for g in graphs:
            params = EpidemicParams(nu=0.3, delta=delta, **flags)
            state = random_state(master, g, p_infected=0.3)
            own, state = state[0], state[1:]
            for _ in range(200):
                state = step(g, params, own, *state, master.random((g.n, 3)))
                check_invariants(g, own, *state)

    @pytest.mark.parametrize("flags", FLAG_COMBOS, ids=FLAG_IDS)
    @pytest.mark.parametrize("delta", [0.0, 0.3, 1.0])
    def test_recounting_every_step_gives_the_same_trajectory(self, delta, flags):
        # run_sim's loop, except that each step gets counts made from scratch
        g = generate_ba(NetworkParams(n=400, m=2, seed=10))
        own = rng_from_seed(10).integers(0, 10**6, size=g.n)
        params = EpidemicParams(nu=0.3, delta=delta, rho0=0.2, **flags)
        for seed in range(4):
            traj = run_sim(g, own, params, 60, rng_from_seed(seed))
            rng = rng_from_seed(seed)
            infected = np.zeros(g.n, dtype=bool)
            infected[rng.choice(g.n, size=round(params.rho0 * g.n), replace=False)] = True
            carried = own
            for t in range(1, 61):
                infected, carried, _ = step(g, params, own, infected, carried,
                                            count_infected_neighbours(g, infected),
                                            rng.random((g.n, 3)))
                assert traj.infected_density[t] == np.count_nonzero(infected) / g.n
                best = np.count_nonzero(carried == own.max()) / g.n
                assert traj.best_carrier_density[t] == best
                assert traj.max_displayed[t] == carried.max()

    @pytest.mark.parametrize("infected_only", [False, True], ids=["plain", "infected-only"])
    def test_gathers_only_the_newly_infected_rows(self, infected_only, monkeypatch):
        # at delta = 1 every infected node is cured, so the next counts come
        # from the newly infected rows alone, which the step gathers for their
        # maximum anyway
        gathered = []
        original = Graph.gather

        def gather(g, rows):
            gathered.append(np.array(rows))
            return original(g, rows)

        g = generate_ba(NetworkParams(n=500, m=3, seed=11))
        params = EpidemicParams(nu=0.3, delta=1.0, imitate_infected_only=infected_only)
        own, *state = make_state(g, rng_from_seed(11).random(g.n) < 0.3, np.arange(g.n) % 9)
        monkeypatch.setattr(Graph, "gather", gather)
        rng = rng_from_seed(12)
        spread = 0
        for _ in range(30):
            gathered.clear()
            before = state[0]
            state = step(g, params, own, *state, rng.random((g.n, 3)))
            new_rows = np.flatnonzero(state[0] & ~before)
            want = [new_rows.tolist()] if len(new_rows) else []
            assert [rows.tolist() for rows in gathered] == want
            spread += len(new_rows)
        assert spread > 0


class TestStepCrossCheck:
    def test_vectorized_matches_reference_in_any_order(self):
        master = rng_from_seed(31337)
        for _ in range(40):
            n = int(master.integers(4, 40))
            g = random_connected_graph(master, n)
            state = random_state(master, g)
            params = EpidemicParams(
                nu=float(master.random()),
                delta=float(master.random()),
                rho0=0.5,
                reimitation=bool(master.integers(0, 2)),
                imitate_infected_only=bool(master.integers(0, 2)),
            )
            u = master.random((n, 3))
            vec = step(g, params, *state, u)
            ref = _step_reference(g, params, *state, u)
            perm = _step_reference(g, params, *state, u, order=list(master.permutation(n)))
            for other in (ref, perm):
                assert np.array_equal(vec[0], other[0])
                assert np.array_equal(vec[1], other[1])
                assert np.array_equal(vec[2], other[2])
            check_invariants(g, state[0], *vec)

    def test_isolated_node_is_inert(self):
        # node 3 has no edges: it can never be infected, and if it starts
        # infected it just cures; the segment reductions must not misfire
        g = Graph.from_edges(4, [(0, 1), (1, 2)])
        state = make_state(g, [False, True, False, True], [1, 2, 3, 4], [1, 2, 3, 9])
        params = EpidemicParams(nu=1.0, delta=0.0, reimitation=True)
        u = rng_from_seed(2).random((4, 3))
        vec = step(g, params, *state, u)
        ref = _step_reference(g, params, *state, u)
        assert np.array_equal(vec[0], ref[0])
        assert np.array_equal(vec[1], ref[1])
        assert vec[1][3] == 9  # nothing to imitate, keeps its carried value
        cured = step(g, EpidemicParams(nu=0.0, delta=1.0), *state, u)
        assert cured[1][3] == 4
        check_invariants(g, state[0], *cured)

    def test_trailing_isolated_node_keeps_the_last_half_edge(self):
        # node 3 has no edges and sits after node 2, whose last neighbour
        # (node 1, displaying 7) is the last half-edge of the graph
        g = Graph.from_edges(4, [(0, 2), (1, 2)])
        state = make_state(g, [True, True, False, False], [1, 7, 0, 0])
        params = EpidemicParams(nu=1.0, delta=0.0)
        u = np.zeros((4, 3))
        vec = step(g, params, *state, u)
        ref = _step_reference(g, params, *state, u)
        assert ref[1][2] == 7
        assert vec[1][2] == 7
        assert np.array_equal(vec[0], ref[0])
        assert np.array_equal(vec[1], ref[1])

    @pytest.mark.parametrize("flags", FLAG_COMBOS, ids=FLAG_IDS)
    def test_matches_reference_with_isolated_nodes(self, flags):
        master = rng_from_seed(2718)
        for _ in range(150):
            n = int(master.integers(1, 30))
            g = graph_with_isolated_nodes(master, n)
            state = random_state(master, g, p_infected=float(master.random()))
            params = EpidemicParams(
                nu=float(master.choice([0.0, 1.0, master.random()])),
                delta=float(master.choice([0.0, 1.0, master.random()])),
                **flags,
            )
            u = master.random((n, 3))
            vec = step(g, params, *state, u)
            ref = _step_reference(g, params, *state, u)
            assert np.array_equal(vec[0], ref[0])
            assert np.array_equal(vec[1], ref[1])
            assert np.array_equal(vec[2], ref[2])
            check_invariants(g, state[0], *vec)

    @pytest.mark.parametrize(
        "params",
        [EpidemicParams(nu=0.3, delta=0.4, rho0=0.3, **f) for f in FLAG_COMBOS]
        + [
            EpidemicParams(nu=0.0, delta=0.3, rho0=0.5, reimitation=True),
            EpidemicParams(nu=0.5, delta=1.0, rho0=0.3, reimitation=True),
            EpidemicParams(nu=0.5, delta=0.2, rho0=1.0, reimitation=True,
                           imitate_infected_only=True),
        ],
        ids=FLAG_IDS + ["nu=0", "delta=1", "rho0=1"],
    )
    def test_steps_match_reference_on_ba_graph(self, params):
        # step and the reference are fed the same uniforms from twin
        # Generators, and both follow their own states; spread-out fitness
        # values, so that a wrong maximum rarely ties the right one
        g = generate_ba(NetworkParams(n=1000, m=3, seed=12))
        own = rng_from_seed(12).integers(0, 10**6, size=g.n)
        # run_sim's initial condition: round(rho0 * N) infected, all carrying their own value
        infected = np.zeros(g.n, dtype=bool)
        infected[rng_from_seed(13).choice(g.n, size=round(params.rho0 * g.n), replace=False)] = True
        vec = ref = (infected, own, count_infected_neighbours(g, infected))
        rng, twin = rng_from_seed(14), rng_from_seed(14)
        for _ in range(30):
            vec = step(g, params, own, *vec, rng.random((g.n, 3)))
            ref = _step_reference(g, params, own, *ref, twin.random((g.n, 3)))
            assert np.array_equal(vec[0], ref[0])
            assert np.array_equal(vec[1], ref[1])

    def test_displayed_never_exceeds_global_best(self):
        master = rng_from_seed(424)
        g = generate_ba(NetworkParams(n=200, m=2, seed=9))
        own = sampled_fitness(master, 200, 200)
        params = EpidemicParams(nu=0.6, delta=0.3, rho0=0.3, reimitation=True)
        traj = run_sim(g, own, params, 30, master)
        assert traj.max_displayed.max() <= own.max()


class TestRunSim:
    def test_zero_steps_rejected(self):
        g = path_graph(5)
        with pytest.raises(ParameterError, match="need t_max_steps >= 1, got 0"):
            run_sim(g, np.ones(5, dtype=np.int64), EpidemicParams(nu=0.2, delta=1.0), 0,
                    rng_from_seed(1))

    def test_full_cure_first_step(self):
        g = path_graph(20)
        rng = rng_from_seed(7)
        traj = run_sim(g, np.ones(20, dtype=np.int64), EpidemicParams(nu=0.0, delta=1.0, rho0=0.5),
                       5, rng)
        assert traj.infected_density[0] == 0.5
        assert traj.infected_density[1] == 0.0

    def test_determinism(self):
        g = generate_ba(NetworkParams(n=300, m=2, seed=17))
        own = sampled_fitness(rng_from_seed(17), 300, 100)
        params = EpidemicParams(nu=0.3, delta=0.6, rho0=0.2)
        t1 = run_sim(g, own, params, 50, rng_from_seed(18))
        t2 = run_sim(g, own, params, 50, rng_from_seed(18))
        assert np.array_equal(t1.infected_density, t2.infected_density)
        assert np.array_equal(t1.max_displayed, t2.max_displayed)

    def test_nu_zero_mean_decay(self):
        # no reinfection: E[infected(t)] = infected(0) * (1 - delta)^t
        g = path_graph(200)
        params = EpidemicParams(nu=0.0, delta=0.3, rho0=0.5)
        t_check = 3
        total = 0.0
        n_seeds = 200
        for s in range(n_seeds):
            traj = run_sim(g, np.ones(200, dtype=np.int64), params, t_check, rng_from_seed(800 + s))
            total += traj.infected_density[t_check]
        mean_obs = total / n_seeds
        expected = 0.5 * (1 - params.delta) ** t_check
        # binomial-ish bound on the seed-mean
        sigma = np.sqrt(expected * (1 - expected) / (200 * n_seeds))
        assert abs(mean_obs - expected) <= 4 * sigma

    def test_max_displayed_monotone_no_cure(self):
        g = generate_ba(NetworkParams(n=150, m=2, seed=4))
        own = sampled_fitness(rng_from_seed(4), 150, 200)
        params = EpidemicParams(nu=1.0, delta=0.0, rho0=0.05, reimitation=True)
        traj = run_sim(g, own, params, 30, rng_from_seed(5))
        assert (np.diff(traj.max_displayed) >= 0).all()

    def test_full_diffusion_within_diameter_steps(self):
        # no-cure, always-imitate limit: everyone displays the global max
        g = generate_ba(NetworkParams(n=120, m=2, seed=21))
        d = approx_diameter(g)
        rng = rng_from_seed(22)
        own = sampled_fitness(rng, 120, 200)
        params = EpidemicParams(nu=1.0, delta=0.0, rho0=1.0, reimitation=True)
        traj = run_sim(g, own, params, d, rng)
        assert traj.best_carrier_density[-1] == 1.0

    def test_stationarity_plateau_on_ba(self):
        from bbnet.analysis import detect_stationarity

        g = generate_ba(NetworkParams(n=2000, m=3, seed=6))
        own = sampled_fitness(rng_from_seed(6), 2000, 100)
        traj = run_sim(g, own, EpidemicParams(nu=0.2, delta=1.0, rho0=0.2), 800, rng_from_seed(7))
        stat = detect_stationarity(traj.infected_density, window=100, tol=0.005)
        assert stat.fired and stat.t_s <= 800


class TestTrajectoryCsv:
    def test_round_trip_and_format(self):
        g = path_graph(10)
        traj = run_sim(g, np.ones(10, dtype=np.int64), EpidemicParams(nu=0.0, delta=1.0, rho0=0.5),
                       3, rng_from_seed(9))
        buf = io.StringIO()
        traj.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,infected_density,best_carrier_density,max_displayed"
        assert lines[2].startswith("1,0.000000000,")
        back = trajectory_from_csv(io.StringIO(buf.getvalue()))
        assert np.allclose(back.infected_density, traj.infected_density, atol=1e-9)
        assert np.array_equal(back.max_displayed, traj.max_displayed)

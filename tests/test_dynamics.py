"""SIS imitation dynamics: exact small-case oracles and invariants."""

import io
from typing import Sequence

import numpy as np
import pytest
from conftest import neighbors, trajectory_from_csv

from bbnet.dynamics import (
    EpidemicParams,
    SimState,
    _apply_rules,
    init_state,
    run_sim,
    step,
)
from bbnet.errors import ParameterError
from bbnet.graph import Graph, NetworkParams, approx_diameter, generate_ba
from bbnet.machines import population_fitness, sample_programs
from bbnet.rng import rng_from_seed


def _step_reference(
    state: SimState,
    g: Graph,
    params: EpidemicParams,
    u: np.ndarray,
    order: Sequence[int] | None = None,
) -> SimState:
    """Scalar implementation used to cross-check the vectorized step.

    Processes nodes in any given order; because every rule reads only the
    time-t snapshot and node i uses only u[i], the order cannot matter.
    """
    n = g.n
    infected = state.infected
    displayed = np.where(infected, state.carried, state.own)
    new_infected = infected.copy()
    carried = state.carried.copy()

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
                carried[i] = state.own[i]
            elif params.reimitation and u[i, 2] < params.nu:
                if len(nbrs) > 0:
                    carried[i] = max(int(carried[i]), int(displayed[nbrs].max()))

    return SimState(
        infected=new_infected,
        own=state.own,
        carried=carried,
        infected_count=int(new_infected.sum()),
    )


def check_invariants(state):
    """The ``SimState`` invariants: the infected count, and susceptible nodes carry their own value."""
    assert state.infected_count == int(state.infected.sum())
    sus = ~state.infected
    assert np.array_equal(state.carried[sus], state.own[sus]), (
        "susceptible nodes must carry their own fitness"
    )


def sampled_fitness(rng, n, t_max):
    """Own fitness of n programs drawn from rng, as a sweep run computes it."""
    return population_fitness(sample_programs(rng, n), "", t_max)


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n):
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def make_state(infected, own, carried=None):
    infected = np.asarray(infected, dtype=bool)
    own = np.asarray(own, dtype=np.int64)
    carried = own.copy() if carried is None else np.asarray(carried, dtype=np.int64)
    return SimState(
        infected=infected,
        own=own,
        carried=carried,
        infected_count=int(infected.sum()),
    )


def random_state(rng, n, max_fitness=9, p_infected=0.4):
    infected = rng.random(n) < p_infected
    own = rng.integers(0, max_fitness + 1, size=n)
    carried = own.copy()
    boost = infected & (rng.random(n) < 0.5)
    carried[boost] = rng.integers(0, max_fitness + 1, size=int(boost.sum()))
    return make_state(infected, own, carried)


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


class TestInit:
    def test_all_infected(self):
        g = path_graph(10)
        rng = rng_from_seed(0)
        s = init_state(g, np.ones(10, dtype=np.int64), EpidemicParams(nu=0.5, delta=0.5, rho0=1.0), rng)
        assert s.infected_count == 10
        check_invariants(s)

    def test_floor_guard_one_infected(self):
        g = path_graph(100)
        rng = rng_from_seed(1)
        s = init_state(g, np.ones(100, dtype=np.int64), EpidemicParams(nu=0.5, delta=0.5, rho0=1e-9), rng)
        assert s.infected_count == 1

    def test_exact_count(self):
        g = generate_ba(NetworkParams(n=2000, m=2, seed=3))
        rng = rng_from_seed(2)
        own = sampled_fitness(rng, 2000, 100)
        s = init_state(g, own, EpidemicParams(nu=0.5, delta=0.5, rho0=0.01), rng)
        assert s.infected_count == 20
        check_invariants(s)

    def test_program_count_mismatch(self):
        with pytest.raises(ParameterError):
            init_state(path_graph(3), np.ones(1, dtype=np.int64), EpidemicParams(nu=0.5, delta=0.5),
                       rng_from_seed(0))


class TestStep:
    def test_nu_zero_no_new_infections(self):
        g = path_graph(50)
        rng = rng_from_seed(5)
        state = make_state([True] * 25 + [False] * 25, [1] * 50)
        for _ in range(10):
            nxt = step(state, g, EpidemicParams(nu=0.0, delta=0.3), rng)
            assert not (nxt.infected & ~state.infected).any()
            state = nxt

    def test_star_forced_spread(self):
        # infected center carrying 9; nu=1, delta=0 infects every leaf with 9
        g = star_graph(6)
        state = make_state([True] + [False] * 5, [1] * 6, [9] + [1] * 5)
        nxt = step(state, g, EpidemicParams(nu=1.0, delta=0.0), rng_from_seed(0))
        assert nxt.infected_count == 6
        assert nxt.carried[1:].tolist() == [9] * 5
        check_invariants(nxt)

    def test_path3_exact_one_step_distribution(self):
        # center infected; three independent fair flips -> 8 equally likely outcomes
        g = path_graph(3)
        params = EpidemicParams(nu=0.5, delta=0.5)
        rng = rng_from_seed(99)
        n_trials = 100_000
        counts = {}
        base = make_state([False, True, False], [3, 7, 5])
        for _ in range(n_trials):
            nxt = step(base, g, params, rng)
            key = tuple(nxt.infected.tolist())
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 8
        expected = n_trials / 8
        sigma = np.sqrt(n_trials * (1 / 8) * (7 / 8))
        for key, c in counts.items():
            assert abs(c - expected) <= 3 * sigma, (key, c)

    def test_infection_copies_neighborhood_max_displayed(self):
        # center gets infected by leaf 2 but copies the best displayed value
        # among ALL neighbors, which is the susceptible leaf 0 showing 9
        g = path_graph(3)
        state = make_state([False, False, True], [9, 8, 1], [9, 8, 6])
        nxt = _apply_rules(state, g, EpidemicParams(nu=1.0, delta=0.0),
                           np.zeros((3, 3)))
        assert nxt.infected.tolist() == [False, True, True]
        assert nxt.carried[1] == 9

    def test_infected_only_variant_restricts_source(self):
        # same setup, but the variant only looks at infected neighbors (value 6)
        g = path_graph(3)
        state = make_state([False, False, True], [9, 8, 1], [9, 8, 6])
        nxt = _apply_rules(
            state, g, EpidemicParams(nu=1.0, delta=0.0, imitate_infected_only=True),
            np.zeros((3, 3)),
        )
        assert nxt.carried[1] == 6

    def test_infected_only_variant_with_negative_fitness(self):
        # the susceptible neighbour is masked out, not replaced by a value
        # that beats the infected neighbour's -5
        g = path_graph(3)
        state = make_state([True, False, False], [-5, -3, -4])
        nxt = _apply_rules(
            state, g, EpidemicParams(nu=1.0, delta=0.0, imitate_infected_only=True),
            np.zeros((3, 3)),
        )
        assert nxt.carried.tolist() == [-5, -5, -4]

    def test_cure_resets_to_own(self):
        g = path_graph(2)
        state = make_state([True, False], [1, 2], [9, 2])
        nxt = _apply_rules(state, g, EpidemicParams(nu=0.0, delta=1.0), np.zeros((2, 3)))
        assert not nxt.infected.any()
        assert nxt.carried.tolist() == [1, 2]
        check_invariants(nxt)

    def test_reimitation_raises_carried_to_closed_neighborhood_max(self):
        g = path_graph(3)
        # both ends infected; node 0 carries 9, node 2 carries 4; center susceptible own 5
        state = make_state([True, False, True], [1, 5, 1], [9, 5, 4])
        params = EpidemicParams(nu=1.0, delta=0.0, reimitation=True)
        nxt = _apply_rules(state, g, params, np.zeros((3, 3)))
        # node 2 sees displayed center 5 > carried 4 -> raises to 5;
        # node 0 sees 5 < carried 9 -> keeps 9 (closed-neighborhood max)
        assert nxt.carried[0] == 9
        assert nxt.carried[2] == 5


class TestStepCrossCheck:
    def test_vectorized_matches_reference_in_any_order(self):
        master = rng_from_seed(31337)
        for _ in range(40):
            n = int(master.integers(4, 40))
            g = random_connected_graph(master, n)
            state = random_state(master, n)
            params = EpidemicParams(
                nu=float(master.random()),
                delta=float(master.random()),
                rho0=0.5,
                reimitation=bool(master.integers(0, 2)),
                imitate_infected_only=bool(master.integers(0, 2)),
            )
            u = master.random((n, 3))
            vec = _apply_rules(state, g, params, u)
            ref = _step_reference(state, g, params, u)
            perm = _step_reference(state, g, params, u, order=list(master.permutation(n)))
            for other in (ref, perm):
                assert np.array_equal(vec.infected, other.infected)
                assert np.array_equal(vec.carried, other.carried)
            check_invariants(vec)

    def test_isolated_node_is_inert(self):
        # node 3 has no edges: it can never be infected, and if it starts
        # infected it just cures; the segment reductions must not misfire
        g = Graph.from_edges(4, [(0, 1), (1, 2)])
        state = make_state([False, True, False, True], [1, 2, 3, 4], [1, 2, 3, 9])
        params = EpidemicParams(nu=1.0, delta=0.0, reimitation=True)
        u = rng_from_seed(2).random((4, 3))
        vec = _apply_rules(state, g, params, u)
        ref = _step_reference(state, g, params, u)
        assert np.array_equal(vec.infected, ref.infected)
        assert np.array_equal(vec.carried, ref.carried)
        assert vec.carried[3] == 9  # nothing to imitate, keeps its carried value
        cured = _apply_rules(state, g, EpidemicParams(nu=0.0, delta=1.0), u)
        assert cured.carried[3] == 4
        check_invariants(cured)

    def test_trailing_isolated_node_keeps_the_last_half_edge(self):
        # node 3 has no edges and sits after node 2, whose last neighbour
        # (node 1, displaying 7) is the last half-edge of the graph
        g = Graph.from_edges(4, [(0, 2), (1, 2)])
        state = make_state([True, True, False, False], [1, 7, 0, 0])
        params = EpidemicParams(nu=1.0, delta=0.0)
        u = np.zeros((4, 3))
        vec = _apply_rules(state, g, params, u)
        ref = _step_reference(state, g, params, u)
        assert ref.carried[2] == 7
        assert vec.carried[2] == 7
        assert np.array_equal(vec.infected, ref.infected)
        assert np.array_equal(vec.carried, ref.carried)

    @pytest.mark.parametrize("flags", FLAG_COMBOS, ids=FLAG_IDS)
    def test_matches_reference_with_isolated_nodes(self, flags):
        master = rng_from_seed(2718)
        for _ in range(150):
            n = int(master.integers(1, 30))
            g = graph_with_isolated_nodes(master, n)
            state = random_state(master, n, p_infected=float(master.random()))
            params = EpidemicParams(
                nu=float(master.choice([0.0, 1.0, master.random()])),
                delta=float(master.choice([0.0, 1.0, master.random()])),
                **flags,
            )
            u = master.random((n, 3))
            vec = _apply_rules(state, g, params, u)
            ref = _step_reference(state, g, params, u)
            assert np.array_equal(vec.infected, ref.infected)
            assert np.array_equal(vec.carried, ref.carried)
            check_invariants(vec)

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
        # step draws its uniforms from one Generator; the reference is fed
        # the same uniforms from a twin, and both follow their own states
        # spread-out fitness values, so that a wrong maximum rarely ties the right one
        g = generate_ba(NetworkParams(n=1000, m=3, seed=12))
        own = rng_from_seed(12).integers(0, 10**6, size=g.n)
        state = init_state(g, own, params, rng_from_seed(13))
        ref = state
        rng, twin = rng_from_seed(14), rng_from_seed(14)
        for _ in range(30):
            state = step(state, g, params, rng)
            ref = _step_reference(ref, g, params, twin.random((g.n, 3)))
            assert np.array_equal(state.infected, ref.infected)
            assert np.array_equal(state.carried, ref.carried)
            assert state.infected_count == ref.infected_count

    def test_displayed_never_exceeds_global_best(self):
        master = rng_from_seed(424)
        g = generate_ba(NetworkParams(n=200, m=2, seed=9))
        own = sampled_fitness(master, 200, 200)
        params = EpidemicParams(nu=0.6, delta=0.3, rho0=0.3, reimitation=True)
        state = init_state(g, own, params, master)
        best = int(state.own.max())
        for _ in range(30):
            state = step(state, g, params, master)
            assert int(state.carried.max()) <= best
            assert state.infected_count + int((~state.infected).sum()) == 200


class TestRunSim:
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
        state = init_state(g, own, params, rng)
        best = int(state.own.max())
        for _ in range(d):
            state = step(state, g, params, rng)
        assert (state.carried == best).all()

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

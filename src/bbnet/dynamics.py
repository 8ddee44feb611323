"""Synchronous SIS imitation dynamics on a fixed graph.

Each node owns a fixed fitness value (the busy-beaver score of its machine)
and displays either that value (while susceptible) or a carried value copied
from neighbors (while infected). One step applies three rules to the time-t
snapshot, giving one communication round:

(a) a susceptible node with n infected neighbors becomes infected with
    probability 1 - (1 - nu)^n and copies the largest value displayed in its
    neighborhood (all neighbors by default; only infected neighbors when
    ``imitate_infected_only`` is set);
(b) an infected node is cured with probability delta and reverts to its own
    value;
(c) with ``reimitation`` on, a node that stays infected raises its carried
    value to the largest displayed in its closed neighborhood with
    probability nu.

Every node consumes exactly three uniforms per step, in node-id order and
then rule order (a, b, c), whether or not each rule applies. That keeps the
stream layout independent of the state, so a run is a pure function of
(seed, inputs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from .errors import ParameterError
from .graph import Graph


@dataclass(frozen=True)
class EpidemicParams:
    """SIS rates and initial condition.

    delta = 0 is admitted for the no-cure limit case (the pure
    imitation-of-the-fittest protocol); the spreading rate is then infinite
    and prevalence formulas do not apply.
    """

    nu: float
    delta: float
    rho0: float = 0.1
    reimitation: bool = False
    imitate_infected_only: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.nu <= 1.0:
            raise ParameterError(f"need 0 <= nu <= 1, got {self.nu}")
        if not 0.0 <= self.delta <= 1.0:
            raise ParameterError(f"need 0 <= delta <= 1, got {self.delta}")
        if not 0.0 < self.rho0 <= 1.0:
            raise ParameterError(f"need 0 < rho0 <= 1, got {self.rho0}")

    @property
    def spreading_rate(self) -> float:
        """lambda = nu / delta (inf when delta = 0)."""
        return self.nu / self.delta if self.delta > 0 else float("inf")


@dataclass
class SimState:
    """Population snapshot at step t (arrays indexed by node id)."""

    t: int
    infected: np.ndarray  # bool
    own: np.ndarray  # int64, fixed at init
    carried: np.ndarray  # int64, meaningful while infected
    infected_count: int

    def displayed(self) -> np.ndarray:
        return np.where(self.infected, self.carried, self.own)

    def check_invariants(self) -> None:
        assert self.infected_count == int(self.infected.sum())
        sus = ~self.infected
        assert np.array_equal(self.carried[sus], self.own[sus]), (
            "susceptible nodes must carry their own fitness"
        )


@dataclass
class Trajectory:
    """Per-step series; row t is the state after t steps (row 0 = initial)."""

    infected_density: np.ndarray
    best_carrier_density: np.ndarray
    max_displayed: np.ndarray

    @property
    def last_t(self) -> int:
        return len(self.infected_density) - 1

    def to_csv(self, out: TextIO) -> None:
        out.write("t,infected_density,best_carrier_density,max_displayed\n")
        for t in range(len(self.infected_density)):
            out.write(
                f"{t},{self.infected_density[t]:.9f},"
                f"{self.best_carrier_density[t]:.9f},{int(self.max_displayed[t])}\n"
            )

    @classmethod
    def from_csv(cls, inp: TextIO) -> "Trajectory":
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
        return cls(np.array(inf), np.array(best), np.array(mx, dtype=np.int64))


def init_state(
    g: Graph, own: np.ndarray, params: EpidemicParams, rng: np.random.Generator
) -> SimState:
    """Give each node its own fitness and infect a random initial set.

    ``own[i]`` is node i's fitness. Exactly max(1, round(rho0 * N)) nodes are
    infected, chosen uniformly without replacement; an infected node
    initially carries its own value.
    """
    if g.n < 1:
        raise ParameterError("empty graph")
    own = np.asarray(own, dtype=np.int64)
    if len(own) != g.n:
        raise ParameterError(f"need {g.n} fitness values, got {len(own)}")
    n_init = max(1, round(params.rho0 * g.n))
    infected = np.zeros(g.n, dtype=bool)
    infected[rng.choice(g.n, size=n_init, replace=False)] = True
    return SimState(
        t=0,
        infected=infected,
        own=own,
        carried=own.copy(),
        infected_count=int(n_init),
    )


def _segment_reduce(ufunc, values: np.ndarray, g: Graph, fill) -> np.ndarray:
    """Per-node reduction of ``values[neighbor]`` over adjacency rows."""
    degrees = g.degrees
    if len(g.indices) == 0:
        return np.full(g.n, fill, dtype=values.dtype)
    starts = np.minimum(g.indptr[:-1], len(g.indices) - 1)
    out = ufunc.reduceat(values[g.indices], starts)
    out[degrees == 0] = fill  # reduceat misreports empty rows
    return out


def _apply_rules(
    state: SimState, g: Graph, params: EpidemicParams, u: np.ndarray
) -> SimState:
    """One synchronous update given the (n, 3) uniform matrix."""
    infected = state.infected
    displayed = state.displayed()

    n_inf = _segment_reduce(np.add, infected.astype(np.int64), g, 0)
    nbr_max_all = _segment_reduce(np.maximum, displayed, g, -1)
    if params.imitate_infected_only:
        masked = np.where(infected, displayed, -1)
        nbr_max_target = _segment_reduce(np.maximum, masked, g, -1)
    else:
        nbr_max_target = nbr_max_all

    p_infect = 1.0 - (1.0 - params.nu) ** n_inf
    new_inf = (~infected) & (u[:, 0] < p_infect)
    cured = infected & (u[:, 1] < params.delta)

    carried = state.carried.copy()
    carried[cured] = state.own[cured]
    carried[new_inf] = nbr_max_target[new_inf]
    if params.reimitation:
        stays = infected & ~cured
        upd = stays & (u[:, 2] < params.nu)
        carried[upd] = np.maximum(carried[upd], nbr_max_all[upd])

    now_infected = (infected & ~cured) | new_inf
    return SimState(
        t=state.t + 1,
        infected=now_infected,
        own=state.own,
        carried=carried,
        infected_count=int(now_infected.sum()),
    )


def step(state: SimState, g: Graph, params: EpidemicParams, rng: np.random.Generator) -> SimState:
    """Advance one communication round (see module docstring for the rules)."""
    u = rng.random((g.n, 3))
    return _apply_rules(state, g, params, u)


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
    displayed = state.displayed()
    infected = state.infected
    new_infected = infected.copy()
    carried = state.carried.copy()

    for i in order if order is not None else range(n):
        nbrs = g.neighbors(i)
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
        t=state.t + 1,
        infected=new_infected,
        own=state.own,
        carried=carried,
        infected_count=int(new_infected.sum()),
    )


def _record(state: SimState, global_best: int) -> tuple[float, float, int]:
    displayed = state.displayed()
    n = len(displayed)
    return (
        state.infected_count / n,
        float(np.count_nonzero(displayed == global_best)) / n,
        int(displayed.max()),
    )


def run_sim(
    g: Graph,
    own: np.ndarray,
    params: EpidemicParams,
    t_max_steps: int,
    rng: np.random.Generator,
) -> Trajectory:
    """Initialize and run t_max_steps rounds, recording one row per step.

    Row 0 is the initial condition; row t is the state after round t.
    """
    if t_max_steps < 1:
        raise ParameterError(f"need t_max_steps >= 1, got {t_max_steps}")
    state = init_state(g, own, params, rng)
    global_best = int(state.own.max())

    inf = np.empty(t_max_steps + 1)
    best = np.empty(t_max_steps + 1)
    mx = np.empty(t_max_steps + 1, dtype=np.int64)
    inf[0], best[0], mx[0] = _record(state, global_best)
    for t in range(1, t_max_steps + 1):
        state = step(state, g, params, rng)
        inf[t], best[t], mx[t] = _record(state, global_best)
    return Trajectory(inf, best, mx)

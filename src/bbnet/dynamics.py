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
(seed, inputs). The state is two arrays, ``infected`` and ``carried``; a
susceptible node carries its own value, so ``carried`` is what every node
displays. ``step`` maps one snapshot and its uniforms to the next, and
``run_sim`` starts a run and draws the uniforms.

A step reads only the adjacency rows it needs, each fetched with
``Graph.gather``. Infected-neighbour counts are pushed from the infected
rows with one ``bincount``. The neighbourhood maximum is taken only over the
rows of nodes that imitate this step: the newly infected and, with
``reimitation``, the re-imitating. Rows may be empty anywhere. The
per-node oracle that the step is checked against, ``_step_reference``,
lives in ``tests/test_dynamics.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .errors import ParameterError, check_int
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


def _neighbor_max(g: Graph, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Largest ``values[j]`` over the neighbours j of each of ``rows``.

    Every row must be non-empty: ``reduceat`` reads an empty row as the
    first neighbour of the next one.
    """
    nbrs, offsets = g.gather(rows)
    return np.maximum.reduceat(values[nbrs], offsets)


def step(
    g: Graph, params: EpidemicParams, own: np.ndarray, infected: np.ndarray,
    carried: np.ndarray, u: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One synchronous round given the (n, 3) uniform matrix ``u``.

    Takes the time-t ``(infected, carried)`` and returns the new pair as
    fresh arrays; writes into none of its inputs.
    """
    infected_nbrs, _ = g.gather(np.flatnonzero(infected))
    n_inf = np.bincount(infected_nbrs, minlength=g.n)
    # (1 - nu)**k looked up per node from a table of every count present:
    # the same bits as raising per node, at a fraction of the cost.
    survive = (1.0 - params.nu) ** np.arange(int(n_inf.max(initial=0)) + 1)
    p_infect = 1.0 - survive[n_inf]
    new_inf = (~infected) & (u[:, 0] < p_infect)
    cured = infected & (u[:, 1] < params.delta)
    new_carried = np.where(cured, own, carried)

    # Neighbour maxima only over the rows that imitate, of the values
    # displayed at time t (carried). A newly infected node has an infected
    # neighbour, so its row is not empty, and masking the susceptible with
    # the int64 minimum leaves a real value to copy.
    new_rows = np.flatnonzero(new_inf)
    if len(new_rows):
        source = carried
        if params.imitate_infected_only:
            source = np.where(infected, source, np.iinfo(np.int64).min)
        new_carried[new_rows] = _neighbor_max(g, new_rows, source)
    if params.reimitation:
        upd = infected & ~cured & (u[:, 2] < params.nu) & (g.degrees > 0)
        upd_rows = np.flatnonzero(upd)
        if len(upd_rows):
            nbr_max = _neighbor_max(g, upd_rows, carried)
            new_carried[upd_rows] = np.maximum(new_carried[upd_rows], nbr_max)

    return (infected & ~cured) | new_inf, new_carried


def run_sim(
    g: Graph,
    own: np.ndarray,
    params: EpidemicParams,
    t_max_steps: int,
    rng: np.random.Generator,
) -> Trajectory:
    """Infect a random initial set and run t_max_steps rounds, one row per step.

    ``own[i]`` is node i's fitness. Exactly max(1, round(rho0 * N)) nodes
    start infected, chosen uniformly without replacement, and every node
    starts carrying its own value. Each round draws an (N, 3) uniform matrix
    from ``rng``. Row 0 is the initial condition; row t is the state after
    round t.
    """
    t_max_steps = check_int("t_max_steps", t_max_steps, 1)
    n = g.n
    if n < 1:
        raise ParameterError("empty graph")
    own = np.asarray(own, dtype=np.int64)
    if len(own) != n:
        raise ParameterError(f"need {n} fitness values, got {len(own)}")
    infected = np.zeros(n, dtype=bool)
    infected[rng.choice(n, size=max(1, round(params.rho0 * n)), replace=False)] = True
    carried = own  # step writes into none of its inputs, so sharing is safe
    global_best = own.max()

    inf = np.empty(t_max_steps + 1)
    best = np.empty(t_max_steps + 1)
    mx = np.empty(t_max_steps + 1, dtype=np.int64)
    for t in range(t_max_steps + 1):
        if t > 0:
            infected, carried = step(g, params, own, infected, carried, rng.random((n, 3)))
        inf[t] = np.count_nonzero(infected) / n
        best[t] = np.count_nonzero(carried == global_best) / n
        mx[t] = carried.max()
    return Trajectory(inf, best, mx)

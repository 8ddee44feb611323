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
(seed, inputs). The state is three arrays: ``infected``, ``carried`` and
``n_inf``. A susceptible node carries its own value, so ``carried`` is what
every node displays; ``n_inf`` is each node's number of infected
neighbours. ``step`` maps one snapshot and its uniforms to the next, and
``run_sim`` starts a run and draws the uniforms.

A step reads only the adjacency rows it needs, each fetched with
``Graph.gather``. The neighbourhood maximum is taken only over the rows of
nodes that imitate this step: the newly infected and, with
``reimitation``, the re-imitating. The counts are carried from step to
step. A step pushes counts with ``bincount`` from the newly infected rows,
which it has already gathered for their maximum, and adds those pushed
from the rows of the nodes that stay infected. At delta = 1 no node stays
infected, so there the newly infected rows are the only rows a step
gathers. ``count_infected_neighbours`` makes the counts from scratch, for
the initial state. Rows may be empty anywhere. The per-node oracle that the
step is checked against, ``_step_reference``, lives in
``tests/test_dynamics.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .errors import ParameterError, check_int, check_real
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
        for name in ("nu", "delta", "rho0"):
            check_real(name, getattr(self, name))
        for name in ("reimitation", "imitate_infected_only"):
            value = getattr(self, name)
            if not isinstance(value, (bool, np.bool_)):
                raise ParameterError(f"need a bool {name}, got {value!r}")
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


def count_infected_neighbours(g: Graph, infected: np.ndarray) -> np.ndarray:
    """Each node's number of infected neighbours, counted from the infected rows."""
    nbrs, _ = g.gather(np.flatnonzero(infected))
    return np.bincount(nbrs, minlength=g.n)


def _form(value: object) -> str:
    """An array's dtype and shape, or another value's type, for a refusal message."""
    if hasattr(value, "dtype") and hasattr(value, "shape"):
        return f"{value.dtype} of shape {value.shape}"
    return type(value).__name__


def _check_state(
    n: int, own: np.ndarray, infected: np.ndarray, carried: np.ndarray, n_inf: np.ndarray,
    u: np.ndarray,
) -> None:
    """Refuse a state or uniform matrix that does not fit an n-node graph.

    Reads attributes only, so it costs the same at every n.
    """
    if getattr(u, "shape", None) != (n, 3):
        raise ParameterError(f"need u of shape ({n}, 3), got {_form(u)}")
    if getattr(infected, "dtype", None) != np.bool_ or infected.shape != (n,):
        raise ParameterError(f"need a bool infected of shape ({n},), got {_form(infected)}")
    for name, array in (("own", own), ("carried", carried), ("n_inf", n_inf)):
        if getattr(array, "shape", None) != (n,):
            raise ParameterError(f"need {name} of shape ({n},), got {_form(array)}")
    if n_inf.dtype.kind not in "iu":
        raise ParameterError(f"need an integer n_inf, got {_form(n_inf)}")


def step(
    g: Graph, params: EpidemicParams, own: np.ndarray, infected: np.ndarray,
    carried: np.ndarray, n_inf: np.ndarray, u: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One synchronous round given the (n, 3) uniform matrix ``u``.

    Takes the time-t ``(infected, carried, n_inf)``, where ``n_inf`` must be
    exactly ``count_infected_neighbours(g, infected)``, and returns the new
    triple as fresh arrays; writes into none of its inputs. Raises
    ``ParameterError`` when ``u`` is not ``(n, 3)``, ``infected`` is not a
    bool ``(n,)`` array, ``own``, ``carried`` or ``n_inf`` is not ``(n,)``,
    or ``n_inf`` is not an integer array. The values of ``n_inf`` are not
    checked, since that would cost a pass over the array.
    """
    _check_state(g.n, own, infected, carried, n_inf, u)
    # (1 - nu)**k looked up per node from a table of every count present:
    # the same bits as raising per node, at a fraction of the cost.
    survive = (1.0 - params.nu) ** np.arange(int(n_inf.max(initial=0)) + 1)
    p_infect = 1.0 - survive[n_inf]
    new_inf = (~infected) & (u[:, 0] < p_infect)
    cured = infected & (u[:, 1] < params.delta)
    stays = infected & ~cured
    new_carried = np.where(cured, own, carried)

    # Neighbour maxima only over the rows that imitate, of the values
    # displayed at time t (carried). A newly infected node has an infected
    # neighbour, so its row is not empty, and masking the susceptible with
    # the int64 minimum leaves a real value to copy. reduceat needs every
    # row non-empty: it reads an empty row as the next row's first value.
    # Zero rows give empty gathers and zero counts. The counts for the next
    # step start from the newly infected rows.
    new_rows = np.flatnonzero(new_inf)
    new_nbrs, offsets = g.gather(new_rows)
    source = carried
    if params.imitate_infected_only:
        source = np.where(infected, source, np.iinfo(np.int64).min)
    new_carried[new_rows] = np.maximum.reduceat(source[new_nbrs], offsets)
    next_n_inf = np.bincount(new_nbrs, minlength=g.n)
    if params.reimitation:
        upd_rows = np.flatnonzero(stays & (u[:, 2] < params.nu) & (g.degrees > 0))
        nbrs, offsets = g.gather(upd_rows)
        nbr_max = np.maximum.reduceat(carried[nbrs], offsets)
        new_carried[upd_rows] = np.maximum(new_carried[upd_rows], nbr_max)

    # The nodes infected after this step are those that stay infected plus
    # the newly infected, whose counts are made above. The rows of the nodes
    # that stay are gathered only when some do: at delta = 1 none do.
    if stays.any():
        next_n_inf += count_infected_neighbours(g, stays)
    return stays | new_inf, new_carried, next_n_inf


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
    starts carrying its own value. Their infected-neighbour counts are made
    once, with ``count_infected_neighbours``; from then on each ``step``
    hands the next counts on. Each round draws an (N, 3) uniform matrix
    from ``rng``. Row 0 is the initial condition; row t is the state after
    round t; a ``Graph`` has a node to infect. Raises ``ParameterError``
    unless ``own`` is a 1-D integer array (or list) of N values.
    """
    t_max_steps = check_int("t_max_steps", t_max_steps, 1)
    n = g.n
    own = np.asarray(own)
    if own.ndim != 1 or own.dtype.kind not in "iu" or not np.can_cast(own.dtype, np.int64):
        raise ParameterError(f"need a 1-D integer own, got {_form(own)}")
    own = own.astype(np.int64, copy=False)
    if len(own) != n:
        raise ParameterError(f"need {n} fitness values, got {len(own)}")
    infected = np.zeros(n, dtype=bool)
    infected[rng.choice(n, size=max(1, round(params.rho0 * n)), replace=False)] = True
    carried = own  # step writes into none of its inputs, so sharing is safe
    n_inf = count_infected_neighbours(g, infected)
    global_best = own.max()

    inf = np.empty(t_max_steps + 1)
    best = np.empty(t_max_steps + 1)
    mx = np.empty(t_max_steps + 1, dtype=np.int64)
    for t in range(t_max_steps + 1):
        if t > 0:
            infected, carried, n_inf = step(
                g, params, own, infected, carried, n_inf, rng.random((n, 3))
            )
        inf[t] = np.count_nonzero(infected) / n
        best[t] = np.count_nonzero(carried == global_best) / n
        mx[t] = carried.max()
    return Trajectory(inf, best, mx)

"""Stationarity detection, prevalence, and the emergence condition.

The phase-transition condition compares the average diffusion density over
the window [t0, c(N)] against the estimated halting probability of the
program distribution. Emergent complexity is tracked by an explicitly
labeled proxy: integer bit length stands in for algorithmic complexity,
which is not computable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_CEILING, Decimal, localcontext
from typing import Sequence

import numpy as np

from .dynamics import Trajectory
from .errors import ParameterError, check_int, check_real


@dataclass(frozen=True)
class StationarityResult:
    """First detection step and the mean density over the tail after it."""

    t_s: int | None
    rho_hat: float | None

    @property
    def fired(self) -> bool:
        return self.t_s is not None


@dataclass(frozen=True)
class EmergenceReport:
    """Condition verdict and emergent-complexity proxy for one run.

    rho_theory is the mean-field value clamped to 1 (it exceeds 1 for large
    m*lambda). eeac_proxy is tau_e * (c_best - c_bar_isolated), in bits.
    """

    tau_e: float
    omega_hat: float
    condition_met: bool
    c_of_n: int
    rho_theory: float
    eeac_proxy: float
    c_best: int
    c_bar_isolated: float
    t_s: int | None = None
    rho_hat: float | None = None


def theoretical_prevalence(m: int, lam: float) -> float:
    """Mean-field stationary prevalence 2*exp(-1/(m*lambda)).

    Depends on (m, lambda) only through the product m*lambda; can exceed 1
    outside the small-m*lambda regime (callers clamp for reporting).
    """
    m = check_int("m", m, 1)
    check_real("lambda", lam)
    if not lam > 0:
        raise ParameterError(f"need lambda > 0, got {lam}")
    return 2.0 * math.exp(-1.0 / (m * lam))


def detect_stationarity(
    series: Sequence[float], window: int = 100, tol: float = 0.002
) -> StationarityResult:
    """Two-window mean comparison.

    Fires at the first t >= 2*window where the last two window means differ
    by at most tol; rho_hat is the mean from t to the end of the series
    (falling back to the last window when the tail is empty). Returns a
    non-result if the detector never fires. The means are cumsum differences,
    so a gap equal to tol in exact arithmetic is decided by their rounding.
    Pins A and D of tests/test_byte_identity.py rest on that: a run in each
    fires at t = 9, though its exact gap at t = 8 already equals tol.
    """
    window = check_int("window", window, 2)
    check_real("tol", tol)
    if not 0 < tol < math.inf:
        raise ParameterError(f"need finite tol > 0, got {tol}")
    s = np.asarray(series, dtype=float)
    n = len(s)
    if n < 2 * window:
        return StationarityResult(None, None)
    cum = np.concatenate([[0.0], np.cumsum(s)])
    ts = np.arange(2 * window, n + 1)
    recent = (cum[ts] - cum[ts - window]) / window
    earlier = (cum[ts - window] - cum[ts - 2 * window]) / window
    hits = np.flatnonzero(np.abs(recent - earlier) <= tol)
    if len(hits) == 0:
        return StationarityResult(None, None)
    t_s = int(ts[hits[0]])
    rho_hat = float(s[t_s:].mean()) if t_s < n else float(recent[hits[0]])
    return StationarityResult(t_s, rho_hat)


def c_of_N(n: int, c_exponent: float) -> int:
    """Cycle bound ceil(N^C) for 0 < C <= 1, with C taken as written.

    C is the decimal ``repr(float(C))`` shows: 0.1 is 1/10, so
    ``c_of_N(2**30, 0.1)`` is 8. N^C is rounded up from 60 significant digits.
    """
    n = check_int("N", n, 1)
    check_real("C", c_exponent)
    if not 0.0 < c_exponent <= 1.0:
        raise ParameterError(f"need 0 < C <= 1, got {c_exponent}")
    with localcontext() as ctx:
        ctx.prec = 60
        x = Decimal(n) ** Decimal(repr(float(c_exponent)))
        return int(x.to_integral_value(rounding=ROUND_CEILING))


def measure_tau_E(traj: Trajectory, t0: int, c_n: int) -> float:
    """Mean infected density over steps t0..c_n inclusive."""
    t0, c_n = check_int("t0", t0, 0), check_int("c_n", c_n, 0)
    if t0 >= c_n:
        raise ParameterError(f"need 0 <= t0 < c_n, got t0={t0}, c_n={c_n}")
    if c_n > traj.last_t:
        raise ParameterError(
            f"window end {c_n} beyond trajectory (last step {traj.last_t})"
        )
    return float(traj.infected_density[t0 : c_n + 1].mean())


def complexity_proxy(x: int) -> int:
    """Bit length of a natural number: 0 for 0, else floor(log2 x) + 1."""
    return check_int("x", x, 0).bit_length()


def emergence_report(
    traj: Trajectory,
    omega_hat: float,
    m: int,
    lam: float,
    n: int,
    c_exponent: float,
    t0: int,
    own_fitness: Sequence[int],
    stationarity: StationarityResult,
) -> EmergenceReport:
    """Assemble the per-run condition verdict and emergence proxy.

    The condition also requires the stationarity detector to have fired
    within c(N): a detector that fired later (or not at all) invalidates
    condition_met. c_bar_isolated is the mean complexity_proxy of the own
    scores, taken once per distinct score.
    """
    c_n = c_of_N(n, c_exponent)
    tau_e = measure_tau_E(traj, t0, c_n)
    condition = tau_e > omega_hat and stationarity.fired and stationarity.t_s <= c_n

    rho_raw = 0.0 if lam == 0 else theoretical_prevalence(m, lam)
    c_best = complexity_proxy(traj.max_displayed[c_n])
    values, counts = np.unique(own_fitness, return_counts=True)
    c_bar = sum(complexity_proxy(v) * int(c) for v, c in zip(values, counts)) / len(own_fitness)
    return EmergenceReport(
        tau_e=tau_e,
        omega_hat=omega_hat,
        condition_met=condition,
        c_of_n=c_n,
        rho_theory=min(rho_raw, 1.0),
        eeac_proxy=tau_e * (c_best - c_bar),
        c_best=c_best,
        c_bar_isolated=c_bar,
        t_s=stationarity.t_s,
        rho_hat=stationarity.rho_hat,
    )

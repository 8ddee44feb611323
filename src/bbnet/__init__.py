"""bbnet: busy-beaver populations on scale-free networks under SIS imitation.

A deterministic, seedable simulation laboratory: Barabasi-Albert graphs,
randomly generated bounded Turing machines with a prefix-free encoding,
synchronous SIS imitation-of-the-fittest dynamics, and the analysis layer
that evaluates the diffusion-vs-halting-mass condition and an emergent
complexity proxy across population-size sweeps.
"""

__version__ = "0.1.0"

from .analysis import (
    EmergenceReport,
    StationarityResult,
    c_of_N,
    complexity_proxy,
    detect_stationarity,
    emergence_report,
    measure_tau_E,
    theoretical_prevalence,
)
from .dynamics import (
    EpidemicParams,
    Trajectory,
    count_infected_neighbours,
    run_sim,
    step,
)
from .errors import ParameterError
from .experiment import ExperimentConfig, RunRecord, run_experiment, run_sweep_to_dir
from .graph import (
    DegreeFit,
    Graph,
    NetworkParams,
    approx_diameter,
    degree_ccdf,
    fit_power_law,
    generate_ba,
)
from .machines import (
    K_MAX_DEFAULT,
    T_MAX_DEFAULT,
    OmegaEstimate,
    omega_enumerate,
    omega_monte_carlo,
    population_fitness,
    sample_programs,
)
from .rng import derive_seed, rng_from_seed

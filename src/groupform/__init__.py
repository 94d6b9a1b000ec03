"""Group-formation dynamics on discrete tori.

Occupied cells repel their neighbors proportionally to neighbor size and
merge on collision; this package evolves such states, detects steady
states and cycles, sweeps steady-state group-size densities over random
initial conditions, and validates a solvable one-step variant against
its closed forms.
"""

__version__ = "0.1.0"

from .dynamics import step, step_oracle
from .lattice import LatticeState, TorusShape, load_state
from .montecarlo import (
    GroupHistogram,
    GridPointStats,
    SampleResult,
    SweepConfig,
    SweepResult,
    bernoulli_state,
    measure,
    mix_seed,
    run_sample,
    run_sweep,
    sample_grid_point,
    sample_points,
)
from .primitive import analytic_densities, simulate_primitive
from .steady import OutcomeKind, TrajectoryOutcome, default_max_steps, evolve

__all__ = [
    "GroupHistogram",
    "GridPointStats",
    "LatticeState",
    "OutcomeKind",
    "SampleResult",
    "SweepConfig",
    "SweepResult",
    "TorusShape",
    "TrajectoryOutcome",
    "analytic_densities",
    "bernoulli_state",
    "default_max_steps",
    "evolve",
    "load_state",
    "measure",
    "mix_seed",
    "run_sample",
    "run_sweep",
    "sample_grid_point",
    "sample_points",
    "simulate_primitive",
    "step",
    "step_oracle",
]

"""Pseudospectral solver and property-check harness for a chemotaxis
system with logistic growth on periodic boxes.

The model: cells u and a chemoattractant v on [-L, L)^dim with

    u_t = lap(u) - chi * div(u * grad(v)) + u * (a - b * u)
    0   = lap(v) + u - v

v is eliminated through the Helmholtz resolvent (I - lap)^(-1), u is
advanced by a third-order exponential integrator, and a harness runs
scenario files that check qualitative predictions (growth envelopes,
comparison bounds, equilibrium stability, front speeds) against runs.
"""

# harness stamps reports with the package version, so define it before
# the submodule imports below pull harness in
__version__ = "0.1.0"

from .grid import (
    Field,
    Grid,
    NonFiniteFieldError,
    make_grid,
    to_spectral,
)
from .harness import Report, run, run_experiment, sweep
from .icfactory import ICSpec, realize
from .params import Params
from .reference import RegimeReport, classify, upper_envelope
from .scenario import (
    Scenario,
    ScenarioError,
    bundled_scenario_names,
    bundled_scenario_path,
    load_scenario,
    scenario_from_dict,
)
from .stepper import BlowupError, NegativityError, State, StepControl, StepperError, initial_state, step

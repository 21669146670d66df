"""Distributed formation coordination of fixed-wing swarms.

Constant-speed unicycle drones follow parallel straight lines while a
lateral oscillation layer spends surplus speed: drones that are ahead
in path parameter widen a sinusoidal weave, which slows their average
progress until the formation agrees. Agreement runs over a spanning
tree with a saturated, non-negative consensus input on sliding-window
averaged path parameters, so no drone ever needs to speed up.

The package provides the building blocks (guiding vector field,
oscillation scheduling, consensus) plus a deterministic lock-step
simulator, the scenario documents that hold each drone's line, and a
CLI.
"""

__version__ = "0.1.0"

from .consensus import (
    ConsensusRun,
    SaturationParams,
    WindowAverager,
    integrate_consensus,
    lyapunov_value,
    sat,
)
from .graph import DEMO_TREE_EDGES, Graph, TreeCheck
from .oscillation import (
    OscillationConfig,
    amplitude_schedule,
    average_parametric_velocity,
    average_parametric_velocity_closed_form,
    complete_elliptic_e,
    epsilon,
    fit_k_a,
    gamma,
    gamma_ddot,
    gamma_dot,
    schedule_operands,
)
from .scenario import (
    Scenario,
    ScenarioError,
    apply_overrides,
    build_scenario,
    load_mapping,
    validate_mapping,
)
from .sim import SimulationResult, run
from .vehicle import wrap_angle

__all__ = [
    "__version__",
    "ConsensusRun",
    "SaturationParams",
    "WindowAverager",
    "integrate_consensus",
    "lyapunov_value",
    "sat",
    "DEMO_TREE_EDGES",
    "Graph",
    "TreeCheck",
    "OscillationConfig",
    "amplitude_schedule",
    "average_parametric_velocity",
    "average_parametric_velocity_closed_form",
    "complete_elliptic_e",
    "epsilon",
    "fit_k_a",
    "gamma",
    "gamma_ddot",
    "gamma_dot",
    "schedule_operands",
    "Scenario",
    "ScenarioError",
    "apply_overrides",
    "build_scenario",
    "load_mapping",
    "validate_mapping",
    "SimulationResult",
    "run",
    "wrap_angle",
]

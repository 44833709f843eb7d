"""Monocular pursuit guidance simulator.

Five guidance methods for a camera-only quadrotor pursuing a spherical
aerial target, a desk-scale vehicle/perception simulation to run them in,
a Monte-Carlo experiment harness, and a competition-style mission layer.
"""

from .config import SimConfig, load_config
from .engagement import EngagementResult, FailureReason, run_engagement
from .geometry import CameraIntrinsics, LosSample, Pose, Vec3
from .guidance import GuidanceCommand, GuidanceMethod, GuidanceParams
from .harness import (
    AggregateRow,
    ExperimentConfig,
    aggregate,
    classify_hit,
    full_matrix,
    run_matrix,
    run_trial,
)
from .mission import Arena, MissionMode, Scenario, run_mission
from .targets import PathKind, TargetPathSpec, build_path
from .trajectory import Trajectory, Waypoint

__all__ = [
    "AggregateRow",
    "Arena",
    "CameraIntrinsics",
    "EngagementResult",
    "ExperimentConfig",
    "FailureReason",
    "GuidanceCommand",
    "GuidanceMethod",
    "GuidanceParams",
    "LosSample",
    "MissionMode",
    "PathKind",
    "Pose",
    "Scenario",
    "SimConfig",
    "TargetPathSpec",
    "Trajectory",
    "Vec3",
    "Waypoint",
    "aggregate",
    "build_path",
    "classify_hit",
    "full_matrix",
    "load_config",
    "run_engagement",
    "run_matrix",
    "run_mission",
    "run_trial",
]

__version__ = "0.1.0"

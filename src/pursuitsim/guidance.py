"""Pursuit guidance command generation.

Three direct-command laws share the same structure: a lateral acceleration
proportional to closing velocity times LOS rotation rate, differing in how
the lateral axis is actuated (roll angle vs. yaw rate vs. a blend). Every
engagement starts with a fixed window of plain velocity commands along the
LOS before the selected law takes over.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

from .geometry import LosSample, Vec3, ZERO3, body_heading, camera_to_body


class GuidanceMethod(str, enum.Enum):
    TPN = "tpn"
    PN_HEADING = "pn-heading"
    HYBRID = "hybrid"
    LOS_TRAJ = "los-traj"
    FORECAST_TRAJ = "forecast-traj"

    @property
    def is_trajectory(self) -> bool:
        return self in (GuidanceMethod.LOS_TRAJ, GuidanceMethod.FORECAST_TRAJ)


class GuidanceMode(str, enum.Enum):
    INIT = "init"
    PN = "pn"
    HEADING_CONTROL = "heading-control"


@dataclass
class GuidanceParams:
    pn_gain: float = 3.0            # N, dimensionless, must exceed 2
    kp_yaw: float = 1.2             # 1/s
    k_heading: float = 0.35         # rad, hybrid mode switch threshold
    suppression: float = 0.2        # hybrid cross-coupling factor
    init_duration: float = 2.0      # s of straight LOS velocity guidance
    max_accel: float = 8.0          # m/s^2 command clamp
    max_yaw_rate: float = 1.5       # rad/s command clamp
    dropout_hold: float = 0.2       # s to hold the last command after losing sight
    dropout_decay: float = 0.2      # s of linear decay to zero after the hold

    def validate(self) -> None:
        if self.pn_gain <= 2.0:
            raise ValueError("PN gain must be > 2")
        if not (0.0 < self.suppression <= 1.0):
            raise ValueError("suppression factor must be in (0, 1]")
        if self.max_accel <= 0.0 or self.max_yaw_rate <= 0.0:
            raise ValueError("command clamps must be positive")


@dataclass(frozen=True)
class GuidanceCommand:
    accel_body: Vec3               # m/s^2, x forward / y left / z up
    yaw_rate: float                # rad/s
    mode: GuidanceMode

    @staticmethod
    def zero(mode: GuidanceMode = GuidanceMode.PN) -> "GuidanceCommand":
        return GuidanceCommand(ZERO3, 0.0, mode)


@dataclass
class GuidanceState:
    prev_los: Optional[LosSample] = None
    last_mode: GuidanceMode = GuidanceMode.INIT
    last_command: GuidanceCommand = field(default_factory=GuidanceCommand.zero)
    time_since_detection: float = math.inf


def closing_velocity(uav_vel_world: Vec3, los_world_unit: Vec3) -> float:
    """Own-velocity component along the LOS; the pursuer cannot observe the
    target's velocity, so this is the monocular-consistent closing estimate."""
    return uav_vel_world.dot(los_world_unit)


def _clamp_command(accel: Vec3, yaw_rate: float, p: GuidanceParams) -> tuple[Vec3, float]:
    yaw_rate = min(p.max_yaw_rate, max(-p.max_yaw_rate, yaw_rate))
    return accel.clamp_norm(p.max_accel), yaw_rate


def los_accel(los: LosSample, v_closing: float, p: GuidanceParams, mount_pitch: float = 0.0) -> Vec3:
    """Desired acceleration N * Vc * phi_dot along the LOS rotation direction,
    in body axes for a camera tilted up by `mount_pitch` rad. Zero when the
    sample has no valid rate or the closing velocity is not positive (the
    intercept conditions assume Vc > 0; a sign-flipped command would diverge)."""
    if not los.valid_rate:
        return ZERO3
    vc = max(v_closing, 0.0)
    if vc == 0.0 or los.phi_dot == 0.0:
        return ZERO3
    a_cam = los.n_unit.scale(p.pn_gain * vc * los.phi_dot)
    return camera_to_body(a_cam, mount_pitch)


def tpn_command(
    los: LosSample, v_closing: float, p: GuidanceParams, mount_pitch: float = 0.0
) -> GuidanceCommand:
    """True PN: the full lateral acceleration is flown via roll/thrust; yaw
    is left alone."""
    accel = los_accel(los, v_closing, p, mount_pitch)
    accel, yaw_rate = _clamp_command(accel, 0.0, p)
    return GuidanceCommand(accel, yaw_rate, GuidanceMode.PN)


def pn_heading_command(
    los: LosSample, a_los_body: Vec3, p: GuidanceParams, mount_pitch: float = 0.0
) -> GuidanceCommand:
    """PN on the forward/vertical axes; the lateral axis is flown by yawing
    toward the target."""
    r_body = camera_to_body(los.r, mount_pitch)
    heading = body_heading(r_body)
    accel = Vec3(a_los_body.x, 0.0, a_los_body.z)
    accel, yaw_rate = _clamp_command(accel, p.kp_yaw * heading, p)
    return GuidanceCommand(accel, yaw_rate, GuidanceMode.HEADING_CONTROL)


def hybrid_command(
    los: LosSample, a_los_body: Vec3, p: GuidanceParams, mount_pitch: float = 0.0
) -> GuidanceCommand:
    """Blend of the two: full PN with a suppressed yaw trim while the target
    is near the image center, heading control with suppressed lateral
    acceleration once it drifts past k_heading."""
    r_body = camera_to_body(los.r, mount_pitch)
    heading = body_heading(r_body)
    if abs(heading) < p.k_heading:
        accel = a_los_body
        yaw_rate = p.suppression * p.kp_yaw * heading
        mode = GuidanceMode.PN
    else:
        accel = Vec3(a_los_body.x, p.suppression * a_los_body.y, 0.0)
        yaw_rate = p.kp_yaw * heading
        mode = GuidanceMode.HEADING_CONTROL
    accel, yaw_rate = _clamp_command(accel, yaw_rate, p)
    return GuidanceCommand(accel, yaw_rate, mode)


def init_velocity(los_world_unit: Optional[Vec3], desired_speed: float) -> Vec3:
    """Velocity command for the initialization window: straight along the
    current LOS, or zero while there is nothing to look at (the init timer
    keeps running either way)."""
    if los_world_unit is None:
        return ZERO3
    return los_world_unit.scale(desired_speed)


def dropout_scale(time_since_detection: float, p: GuidanceParams) -> float:
    """Command retention factor after losing sight: hold, then linear decay."""
    if time_since_detection <= p.dropout_hold:
        return 1.0
    over = time_since_detection - p.dropout_hold
    if over >= p.dropout_decay:
        return 0.0
    return 1.0 - over / p.dropout_decay

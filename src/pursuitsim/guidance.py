"""Pursuit guidance command generation.

Three direct-command laws share the same structure: a lateral acceleration
proportional to closing velocity times LOS rotation rate, differing in how
the lateral axis is actuated (roll angle vs. yaw rate vs. a blend). Every
engagement starts with a fixed window of plain velocity commands along the
LOS before the selected law takes over.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

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


@dataclass
class GuidanceParams:
    pn_gain: float = 3.0            # N, dimensionless, must exceed 2
    kp_yaw: float = 1.2             # 1/s
    k_heading: float = 0.35         # rad, hybrid mode switch threshold
    suppression: float = 0.2        # hybrid cross-coupling factor
    init_duration: float = 2.0      # s of straight LOS velocity guidance
    max_accel: float = 8.0          # m/s^2 command clamp
    dropout_hold: float = 0.2       # s to hold the last command after losing sight
    dropout_decay: float = 0.2      # s of linear decay to zero after the hold

    def validate(self) -> None:
        if not self.pn_gain > 2.0:
            raise ValueError("PN gain must be > 2")
        if not (0.0 < self.suppression <= 1.0):
            raise ValueError("suppression factor must be in (0, 1]")
        if not self.max_accel > 0.0:
            raise ValueError("guidance.max_accel must be positive")
        if not (self.init_duration >= 0.0 and self.dropout_hold >= 0.0 and self.dropout_decay >= 0.0):
            raise ValueError("guidance.init_duration, guidance.dropout_hold and guidance.dropout_decay must be >= 0")


class GuidanceCommand(NamedTuple):
    accel_body: Vec3               # m/s^2, x forward / y left / z up
    yaw_rate: float                # rad/s, limited only by vehicle.MAX_YAW_RATE


def closing_velocity(uav_vel_world: Vec3, los_world_unit: Vec3) -> float:
    """Own-velocity component along the LOS; the pursuer cannot observe the
    target's velocity, so this is the monocular-consistent closing estimate."""
    return uav_vel_world.dot(los_world_unit)


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
    return GuidanceCommand(los_accel(los, v_closing, p, mount_pitch).clamp_norm(p.max_accel), 0.0)


def pn_heading_command(
    los: LosSample, a_los_body: Vec3, p: GuidanceParams, mount_pitch: float = 0.0
) -> GuidanceCommand:
    """PN on the forward/vertical axes; the lateral axis is flown by yawing
    toward the target."""
    heading = body_heading(camera_to_body(los.r, mount_pitch))
    accel = Vec3(a_los_body.x, 0.0, a_los_body.z)
    return GuidanceCommand(accel.clamp_norm(p.max_accel), p.kp_yaw * heading)


def hybrid_command(
    los: LosSample, a_los_body: Vec3, p: GuidanceParams, mount_pitch: float = 0.0
) -> GuidanceCommand:
    """Blend of the two: full PN with a suppressed yaw trim while the target
    is near the image center, heading control with suppressed lateral
    acceleration once it drifts past k_heading."""
    heading = body_heading(camera_to_body(los.r, mount_pitch))
    if abs(heading) < p.k_heading:
        accel = a_los_body
        yaw_rate = p.suppression * p.kp_yaw * heading
    else:
        accel = Vec3(a_los_body.x, p.suppression * a_los_body.y, 0.0)
        yaw_rate = p.kp_yaw * heading
    return GuidanceCommand(accel.clamp_norm(p.max_accel), yaw_rate)


def init_velocity(los_world_unit: Vec3, desired_speed: float) -> Vec3:
    """Velocity command for the initialization window: straight along the
    current LOS."""
    return los_world_unit.scale(desired_speed)


def dropout_scale(time_since_detection: float, p: GuidanceParams) -> float:
    """Command retention factor after losing sight: hold, then linear decay."""
    if time_since_detection <= p.dropout_hold:
        return 1.0
    over = time_since_detection - p.dropout_hold
    if over >= p.dropout_decay:
        return 0.0
    return 1.0 - over / p.dropout_decay

"""Cascaded pose/velocity controllers and desk-scale quadrotor dynamics.

The dynamics model is a point mass with a first-order attitude lag and a
yaw-rate integrator: enough to reproduce the failure mechanism that matters
for pursuit (lag between a commanded lateral acceleration and the airframe
actually achieving it) without a rotor-level model. The lag time constant is
the single knob controlling that fidelity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import Pose, Vec3, ZERO3, body_z_axis, rot_z, wrap_angle
from .trajectory import Waypoint

GRAVITY = 9.81


def at_rest(position: Vec3, yaw: float = 0.0) -> Pose:
    """A level vehicle at rest at `position`, heading `yaw`."""
    return Pose(position, ZERO3, 0.0, 0.0, yaw)


@dataclass(frozen=True)
class AttitudeCommand:
    roll: float
    pitch: float
    yaw_rate: float
    thrust: float  # normalized 0..1


# The cascade's gains: the paper varies the guidance method, the UAV speed
# and the target path, never the loops that fly them.
POSITION_KP = 1.2        # 1/s, position error -> velocity reference
VELOCITY_KP = 5.0        # 1/s, velocity error -> acceleration
VELOCITY_KI = 0.3        # 1/s^2
INTEGRATOR_LIMIT = 2.0   # m, per-axis clamp of the velocity-error integral
YAW_KP = 1.5             # 1/s, trajectory yaw tracking


@dataclass
class VehicleParams:
    tau_attitude: float = 0.15   # s, first-order roll/pitch lag
    drag: float = 0.3            # 1/s linear drag coefficient
    tilt_limit_deg: float = 35.0
    hover_thrust: float = 0.5    # normalized thrust that balances gravity
    max_yaw_rate: float = 2.0    # rad/s actuation limit

    @property
    def tilt_limit(self) -> float:
        return math.radians(self.tilt_limit_deg)

    @property
    def thrust_scale(self) -> float:
        """Mass-normalized thrust acceleration per unit of normalized thrust."""
        return GRAVITY / self.hover_thrust

    def validate(self) -> None:
        if not self.tau_attitude > 0.0:
            raise ValueError("vehicle.tau_attitude must be positive")
        if not 0.0 < self.hover_thrust <= 1.0:
            raise ValueError("vehicle.hover_thrust must be in (0, 1]")
        if not 0.0 < self.tilt_limit_deg < 90.0:
            raise ValueError("vehicle.tilt_limit_deg must be in (0, 90)")
        if not self.drag >= 0.0:
            raise ValueError("vehicle.drag must be >= 0")
        if not self.max_yaw_rate > 0.0:
            raise ValueError("vehicle.max_yaw_rate must be positive")


class VectorPid:
    """Independent PI loop per axis with a clamped integrator."""

    def __init__(self, kp: float, ki: float, integrator_limit: float):
        self.kp = kp
        self.ki = ki
        self.integrator_limit = integrator_limit
        self._integral = [0.0, 0.0, 0.0]

    def step(self, error: Vec3, dt: float) -> Vec3:
        out = [0.0, 0.0, 0.0]
        err = (error.x, error.y, error.z)
        lim = self.integrator_limit
        for i in range(3):
            self._integral[i] = min(lim, max(-lim, self._integral[i] + err[i] * dt))
            out[i] = self.kp * err[i] + self.ki * self._integral[i]
        return Vec3(out[0], out[1], out[2])


class PoseController:
    """Position loop: tracking-point error -> velocity reference, a
    proportional term plus the feedforward velocity."""

    def step(self, tracking: Waypoint, ff_vel: Vec3, pose: Pose) -> Vec3:
        return (tracking.position - pose.position).scale(POSITION_KP) + ff_vel


class VelocityController:
    """Velocity loop: velocity reference -> attitude + thrust command.

    The desired world acceleration (feedback + feedforward + gravity
    compensation) is decomposed into roll/pitch in the current yaw frame.
    When the tilt limit clips the lateral demand, thrust is recomputed so the
    vertical balance is preserved.
    """

    def __init__(self, params: VehicleParams):
        self.params = params
        self.pid = VectorPid(VELOCITY_KP, VELOCITY_KI, INTEGRATOR_LIMIT)

    def step(
        self, v_ref: Vec3, a_ff: Vec3, yaw_rate: float, pose: Pose, dt: float
    ) -> AttitudeCommand:
        error = v_ref - pose.velocity
        a_des = self.pid.step(error, dt) + a_ff
        a_total = Vec3(a_des.x, a_des.y, a_des.z + GRAVITY)

        ax, ay, _ = rot_z(pose.yaw).apply_inverse(a_total)
        az = max(a_total.z, 0.5)  # thrust cannot pull down

        mag = math.sqrt(ax * ax + ay * ay + az * az)
        lim = self.params.tilt_limit
        s_lim = math.sin(lim)
        roll = -math.asin(min(s_lim, max(-s_lim, ay / mag)))
        cos_roll = math.cos(roll)
        pitch = -math.asin(min(s_lim, max(-s_lim, ax / (mag * cos_roll))))
        thrust_accel = az / (math.cos(pitch) * cos_roll)
        thrust = min(1.0, max(0.0, thrust_accel / self.params.thrust_scale))
        return AttitudeCommand(roll=roll, pitch=pitch, yaw_rate=yaw_rate, thrust=thrust)


MAX_DYNAMICS_DT = 0.02


def dynamics_step(pose: Pose, cmd: AttitudeCommand, dt: float, params: VehicleParams) -> Pose:
    """Semi-implicit Euler step of the lagged point-mass model."""
    if not (0.0 < dt <= MAX_DYNAMICS_DT):
        raise ValueError(f"dt must be in (0, {MAX_DYNAMICS_DT}]")
    alpha = 1.0 - math.exp(-dt / params.tau_attitude)
    roll = pose.roll + (cmd.roll - pose.roll) * alpha
    pitch = pose.pitch + (cmd.pitch - pose.pitch) * alpha
    rate_lim = params.max_yaw_rate
    yaw_rate = min(rate_lim, max(-rate_lim, cmd.yaw_rate))
    yaw = wrap_angle(pose.yaw + yaw_rate * dt)

    # thrust along the body z axis, in world coordinates for the new attitude
    zx, zy, zz = body_z_axis(roll, pitch, yaw)
    t = cmd.thrust * params.thrust_scale

    vx, vy, vz = pose.velocity
    k = params.drag
    vx += (t * zx - k * vx) * dt
    vy += (t * zy - k * vy) * dt
    vz += (t * zz - GRAVITY - k * vz) * dt
    px, py, pz = pose.position
    return Pose(Vec3(px + vx * dt, py + vy * dt, pz + vz * dt), Vec3(vx, vy, vz), roll, pitch, yaw)


def ideal_dynamics_step(
    pose: Pose, accel_world: Vec3, yaw_rate: float, dt: float, params: VehicleParams
) -> Pose:
    """Perfect acceleration tracking: the double-integrator limit used to
    check guidance-law properties without controller/attitude lag."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    rate_lim = params.max_yaw_rate
    yaw_rate = min(rate_lim, max(-rate_lim, yaw_rate))
    yaw = wrap_angle(pose.yaw + yaw_rate * dt)
    new_vel = pose.velocity + accel_world.scale(dt)
    return Pose(pose.position + new_vel.scale(dt), new_vel, 0.0, 0.0, yaw)

"""Cascaded pose/velocity controllers and desk-scale quadrotor dynamics.

The dynamics model is a point mass with a first-order attitude lag and a
yaw-rate integrator: enough to reproduce the failure mechanism that matters
for pursuit (lag between a commanded lateral acceleration and the airframe
actually achieving it) without a rotor-level model. The lag time constant,
`TAU_ATTITUDE`, sets that fidelity.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .geometry import Pose, Vec3, body_z_axis, wrap_angle
from .trajectory import Waypoint

GRAVITY = 9.81


def at_rest(position: Vec3, yaw: float = 0.0) -> Pose:
    """A level vehicle at rest at `position`, heading `yaw`."""
    return Pose(*position, 0.0, 0.0, 0.0, 0.0, 0.0, yaw)


class AttitudeCommand(NamedTuple):
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


# The airframe: the paper varies the UAV's speed, never the vehicle itself.
TAU_ATTITUDE = 0.15   # s, first-order roll/pitch lag
DRAG = 0.3            # 1/s linear drag coefficient
TILT_LIMIT = math.radians(35.0)  # rad, roll/pitch command clamp
HOVER_THRUST = 0.5    # normalized thrust that balances gravity
THRUST_SCALE = GRAVITY / HOVER_THRUST  # m/s^2 per unit of normalized thrust
MAX_YAW_RATE = 2.0    # rad/s actuation limit


def mount_pitch(speed: float) -> float:
    """Camera mount tilt up, rad, for a UAV cruising at `speed`: the one
    canceling the steady-state nose-down pitch at that speed, so a level
    target stays near the image center."""
    return math.atan2(DRAG * speed, GRAVITY)


class VectorPid:
    """Independent PI loop per axis with a clamped integrator."""

    def __init__(self, kp: float, ki: float, integrator_limit: float):
        self.kp = kp
        self.ki = ki
        self.integrator_limit = integrator_limit
        self._ix = self._iy = self._iz = 0.0

    def step(self, ex: float, ey: float, ez: float, dt: float) -> tuple[float, float, float]:
        kp, ki, lim = self.kp, self.ki, self.integrator_limit
        ix = self._ix = min(lim, max(-lim, self._ix + ex * dt))
        iy = self._iy = min(lim, max(-lim, self._iy + ey * dt))
        iz = self._iz = min(lim, max(-lim, self._iz + ez * dt))
        return kp * ex + ki * ix, kp * ey + ki * iy, kp * ez + ki * iz


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

    def __init__(self):
        self.pid = VectorPid(VELOCITY_KP, VELOCITY_KI, INTEGRATOR_LIMIT)
        # computed once: they depend only on the airframe
        self.sin_tilt_limit = math.sin(TILT_LIMIT)
        self.thrust_scale = THRUST_SCALE

    def step(
        self, v_ref: Vec3, a_ff: Vec3, yaw_rate: float, pose: Pose, dt: float
    ) -> AttitudeCommand:
        vx, vy, vz = pose.vx, pose.vy, pose.vz
        ox, oy, oz = self.pid.step(v_ref.x - vx, v_ref.y - vy, v_ref.z - vz, dt)
        # the desired acceleration plus gravity compensation
        x, y, z = ox + a_ff.x, oy + a_ff.y, oz + a_ff.z + GRAVITY

        # into the yaw frame: rot_z(yaw).apply_inverse's first two rows, written out
        c, s = math.cos(pose.yaw), math.sin(pose.yaw)
        ax = c * x + s * y + 0.0 * z
        ay = -s * x + c * y + 0.0 * z
        az = max(z, 0.5)  # thrust cannot pull down

        mag = math.sqrt(ax * ax + ay * ay + az * az)
        s_lim = self.sin_tilt_limit
        roll = -math.asin(min(s_lim, max(-s_lim, ay / mag)))
        cos_roll = math.cos(roll)
        pitch = -math.asin(min(s_lim, max(-s_lim, ax / (mag * cos_roll))))
        thrust_accel = az / (math.cos(pitch) * cos_roll)
        thrust = min(1.0, max(0.0, thrust_accel / self.thrust_scale))
        return AttitudeCommand(roll, pitch, yaw_rate, thrust)


MAX_DYNAMICS_DT = 0.02


class StepConstants(NamedTuple):
    """What the step functions read of the airframe, computed once per step
    size by `of`; a test may `_replace` any of them."""

    dt: float
    alpha: float         # the attitude lag's blend per step, 1 - exp(-dt / tau)
    thrust_scale: float
    drag: float
    max_yaw_rate: float

    @classmethod
    def of(cls, dt: float) -> "StepConstants":
        if not (0.0 < dt <= MAX_DYNAMICS_DT):
            raise ValueError(f"dt must be in (0, {MAX_DYNAMICS_DT}]")
        alpha = 1.0 - math.exp(-dt / TAU_ATTITUDE)
        return cls(dt, alpha, THRUST_SCALE, DRAG, MAX_YAW_RATE)


def dynamics_step(s: Pose, cmd: AttitudeCommand, k: StepConstants) -> Pose:
    """Semi-implicit Euler step of the lagged point-mass model."""
    px, py, pz, vx, vy, vz, roll, pitch, yaw = s
    dt, alpha, rate_lim = k.dt, k.alpha, k.max_yaw_rate
    roll = roll + (cmd.roll - roll) * alpha
    pitch = pitch + (cmd.pitch - pitch) * alpha
    yaw_rate = min(rate_lim, max(-rate_lim, cmd.yaw_rate))
    yaw = wrap_angle(yaw + yaw_rate * dt)

    # thrust along the body z axis, in world coordinates for the new attitude
    zx, zy, zz = body_z_axis(roll, pitch, yaw)
    t = cmd.thrust * k.thrust_scale

    drag = k.drag
    vx += (t * zx - drag * vx) * dt
    vy += (t * zy - drag * vy) * dt
    vz += (t * zz - GRAVITY - drag * vz) * dt
    return Pose(px + vx * dt, py + vy * dt, pz + vz * dt, vx, vy, vz, roll, pitch, yaw)


def ideal_dynamics_step(s: Pose, accel_world: Vec3, yaw_rate: float, k: StepConstants) -> Pose:
    """Perfect acceleration tracking: the double-integrator limit used to
    check guidance-law properties without controller/attitude lag."""
    dt, rate_lim = k.dt, k.max_yaw_rate
    yaw_rate = min(rate_lim, max(-rate_lim, yaw_rate))
    yaw = wrap_angle(s.yaw + yaw_rate * dt)
    ax, ay, az = accel_world
    vx, vy, vz = s.vx + ax * dt, s.vy + ay * dt, s.vz + az * dt
    return Pose(s.px + vx * dt, s.py + vy * dt, s.pz + vz * dt, vx, vy, vz, 0.0, 0.0, yaw)

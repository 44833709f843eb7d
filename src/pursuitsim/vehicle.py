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
from typing import NamedTuple

from .geometry import Pose, Vec3, body_z_axis, wrap_angle
from .trajectory import Waypoint

GRAVITY = 9.81

# The vehicle state that the simulation loops carry from step to step:
# (px, py, pz, vx, vy, vz, roll, pitch, yaw). `pose_of` gives the `Pose` that
# controllers, guidance and perception read, on the ticks that read one.
State = tuple[float, float, float, float, float, float, float, float, float]


def at_rest(position: Vec3, yaw: float = 0.0) -> State:
    """A level vehicle at rest at `position`, heading `yaw`."""
    x, y, z = position
    return (x, y, z, 0.0, 0.0, 0.0, 0.0, 0.0, yaw)


def pose_of(s: State) -> Pose:
    """The state as a `Pose`."""
    return Pose(Vec3(s[0], s[1], s[2]), Vec3(s[3], s[4], s[5]), s[6], s[7], s[8])


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

    def __init__(self, params: VehicleParams):
        self.pid = VectorPid(VELOCITY_KP, VELOCITY_KI, INTEGRATOR_LIMIT)
        # computed once: they depend only on the config
        self.sin_tilt_limit = math.sin(params.tilt_limit)
        self.thrust_scale = params.thrust_scale

    def step(
        self, v_ref: Vec3, a_ff: Vec3, yaw_rate: float, pose: Pose, dt: float
    ) -> AttitudeCommand:
        vx, vy, vz = pose.velocity
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
        return AttitudeCommand(roll=roll, pitch=pitch, yaw_rate=yaw_rate, thrust=thrust)


MAX_DYNAMICS_DT = 0.02


class StepConstants(NamedTuple):
    """What `dynamics_step` reads of the config, computed once per vehicle
    and step size by `of`."""

    dt: float
    alpha: float         # the attitude lag's blend per step, 1 - exp(-dt / tau)
    thrust_scale: float
    drag: float
    max_yaw_rate: float

    @classmethod
    def of(cls, params: VehicleParams, dt: float) -> "StepConstants":
        if not (0.0 < dt <= MAX_DYNAMICS_DT):
            raise ValueError(f"dt must be in (0, {MAX_DYNAMICS_DT}]")
        alpha = 1.0 - math.exp(-dt / params.tau_attitude)
        return cls(dt, alpha, params.thrust_scale, params.drag, params.max_yaw_rate)


def dynamics_step(s: State, cmd: AttitudeCommand, k: StepConstants) -> State:
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
    return (px + vx * dt, py + vy * dt, pz + vz * dt, vx, vy, vz, roll, pitch, yaw)


def ideal_dynamics_step(
    s: State, accel_world: Vec3, yaw_rate: float, dt: float, params: VehicleParams
) -> State:
    """Perfect acceleration tracking: the double-integrator limit used to
    check guidance-law properties without controller/attitude lag."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    rate_lim = params.max_yaw_rate
    yaw_rate = min(rate_lim, max(-rate_lim, yaw_rate))
    yaw = wrap_angle(s[8] + yaw_rate * dt)
    ax, ay, az = accel_world
    vx, vy, vz = s[3] + ax * dt, s[4] + ay * dt, s[5] + az * dt
    return (s[0] + vx * dt, s[1] + vy * dt, s[2] + vz * dt, vx, vy, vz, 0.0, 0.0, yaw)

"""Cascaded pose/velocity controllers and desk-scale quadrotor dynamics.

The dynamics model is a point mass with a first-order attitude lag and a
yaw-rate integrator: enough to reproduce the failure mechanism that matters
for pursuit (lag between a commanded lateral acceleration and the airframe
actually achieving it) without a rotor-level model. The lag time constant is
the single knob controlling that fidelity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .geometry import Pose, Vec3, ZERO3, attitude_rotation, rot_z, wrap_angle
from .trajectory import Waypoint

GRAVITY = 9.81


@dataclass(frozen=True)
class UavState:
    pose: Pose
    angular_rates: Vec3  # roll/pitch/yaw rates, rad/s
    clock: float

    @staticmethod
    def at_rest(position: Vec3, yaw: float = 0.0) -> "UavState":
        return UavState(Pose(position, ZERO3, 0.0, 0.0, yaw), ZERO3, 0.0)


@dataclass(frozen=True)
class AttitudeCommand:
    roll: float
    pitch: float
    yaw_rate: float
    thrust: float  # normalized 0..1


@dataclass
class PidGains:
    kp: float
    ki: float = 0.0
    kd: float = 0.0


@dataclass
class ControllerGains:
    position: PidGains = field(default_factory=lambda: PidGains(kp=1.2))
    velocity: PidGains = field(default_factory=lambda: PidGains(kp=5.0, ki=0.3))
    ff_weight: float = 1.0
    yaw_kp: float = 1.5          # trajectory yaw tracking
    integrator_limit: float = 2.0

    def validate(self) -> None:
        if self.position.kp <= 0.0 or self.velocity.kp <= 0.0:
            raise ValueError("proportional gains must be positive")


@dataclass
class VehicleParams:
    tau_attitude: float = 0.15   # s, first-order roll/pitch lag
    drag: float = 0.3            # 1/s linear drag coefficient
    tilt_limit_deg: float = 35.0
    hover_thrust: float = 0.5    # normalized thrust that balances gravity
    max_yaw_rate: float = 2.0    # rad/s actuation limit
    gains: ControllerGains = field(default_factory=ControllerGains)

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
        self.gains.validate()


def mount_pitch_for_speed(speed: float, params: VehicleParams) -> float:
    """Camera mount tilt (up) canceling the steady-state nose-down pitch at
    the given forward speed, so a level target stays near the image center."""
    return math.atan2(params.drag * speed, GRAVITY)


class VectorPid:
    """Independent PID per axis with a clamped integrator."""

    def __init__(self, gains: PidGains, integrator_limit: float):
        self.gains = gains
        self.integrator_limit = integrator_limit
        self._integral = [0.0, 0.0, 0.0]
        self._prev_error: Vec3 | None = None

    def step(self, error: Vec3, dt: float) -> Vec3:
        g = self.gains
        out = [0.0, 0.0, 0.0]
        err = (error.x, error.y, error.z)
        prev = self._prev_error
        for i in range(3):
            p = g.kp * err[i]
            self._integral[i] += err[i] * dt
            lim = self.integrator_limit
            self._integral[i] = min(lim, max(-lim, self._integral[i]))
            d = 0.0
            if g.kd != 0.0 and prev is not None:
                d = g.kd * (err[i] - prev[i]) / dt
            out[i] = p + g.ki * self._integral[i] + d
        self._prev_error = err
        return Vec3(out[0], out[1], out[2])


class PoseController:
    """Position loop: tracking-point error -> velocity reference."""

    def __init__(self, gains: ControllerGains):
        self.gains = gains
        self.pid = VectorPid(gains.position, gains.integrator_limit)

    def step(self, tracking: Waypoint, ff_vel: Vec3, state: UavState, dt: float) -> Vec3:
        error = tracking.position - state.pose.position
        return self.pid.step(error, dt) + ff_vel.scale(self.gains.ff_weight)


class VelocityController:
    """Velocity loop: velocity reference -> attitude + thrust command.

    The desired world acceleration (feedback + feedforward + gravity
    compensation) is decomposed into roll/pitch in the current yaw frame.
    When the tilt limit clips the lateral demand, thrust is recomputed so the
    vertical balance is preserved.
    """

    def __init__(self, gains: ControllerGains, params: VehicleParams):
        self.gains = gains
        self.params = params
        self.pid = VectorPid(gains.velocity, gains.integrator_limit)

    def step(
        self, v_ref: Vec3, a_ff: Vec3, yaw_rate: float, state: UavState, dt: float
    ) -> AttitudeCommand:
        error = v_ref - state.pose.velocity
        a_des = self.pid.step(error, dt) + a_ff.scale(self.gains.ff_weight)
        a_total = Vec3(a_des.x, a_des.y, a_des.z + GRAVITY)

        ax, ay, _ = rot_z(state.pose.yaw).apply_inverse(a_total)
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


def dynamics_step(
    state: UavState, cmd: AttitudeCommand, dt: float, params: VehicleParams
) -> UavState:
    """Semi-implicit Euler step of the lagged point-mass model."""
    if not (0.0 < dt <= MAX_DYNAMICS_DT):
        raise ValueError(f"dt must be in (0, {MAX_DYNAMICS_DT}]")
    pose = state.pose
    alpha = 1.0 - math.exp(-dt / params.tau_attitude)
    roll = pose.roll + (cmd.roll - pose.roll) * alpha
    pitch = pose.pitch + (cmd.pitch - pose.pitch) * alpha
    rate_lim = params.max_yaw_rate
    yaw_rate = min(rate_lim, max(-rate_lim, cmd.yaw_rate))
    yaw = wrap_angle(pose.yaw + yaw_rate * dt)

    # thrust along the body z axis, in world coordinates for the new attitude
    rot = attitude_rotation(roll, pitch, yaw)
    t = cmd.thrust * params.thrust_scale
    tx, ty, tz = t * rot.m02, t * rot.m12, t * rot.m22

    vel = pose.velocity
    k = params.drag
    ax = tx - k * vel.x
    ay = ty - k * vel.y
    az = tz - GRAVITY - k * vel.z
    new_vel = Vec3(vel.x + ax * dt, vel.y + ay * dt, vel.z + az * dt)
    new_pos = Vec3(
        pose.position.x + new_vel.x * dt,
        pose.position.y + new_vel.y * dt,
        pose.position.z + new_vel.z * dt,
    )
    rates = Vec3((roll - pose.roll) / dt, (pitch - pose.pitch) / dt, yaw_rate)
    return UavState(
        Pose(new_pos, new_vel, roll, pitch, yaw), rates, state.clock + dt
    )


def ideal_dynamics_step(
    state: UavState, accel_world: Vec3, yaw_rate: float, dt: float, params: VehicleParams
) -> UavState:
    """Perfect acceleration tracking: the double-integrator limit used to
    check guidance-law properties without controller/attitude lag."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    pose = state.pose
    rate_lim = params.max_yaw_rate
    yaw_rate = min(rate_lim, max(-rate_lim, yaw_rate))
    yaw = wrap_angle(pose.yaw + yaw_rate * dt)
    vel = pose.velocity
    new_vel = Vec3(vel.x + accel_world.x * dt, vel.y + accel_world.y * dt, vel.z + accel_world.z * dt)
    new_pos = Vec3(
        pose.position.x + new_vel.x * dt,
        pose.position.y + new_vel.y * dt,
        pose.position.z + new_vel.z * dt,
    )
    return UavState(
        Pose(new_pos, new_vel, 0.0, 0.0, yaw), Vec3(0.0, 0.0, yaw_rate), state.clock + dt
    )

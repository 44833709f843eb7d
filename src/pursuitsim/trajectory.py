"""Timed waypoint trajectories, their generation, and tracking cursors.

Trajectories are immutable once built. Replanning happens from the cursor's
lookahead point: a fresh segment is generated starting there and stitched
onto the flown prefix, keeping the commanded path position-continuous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .geometry import Vec3, ZERO3

# The planner's steps: a replan every 1/REPLAN_HZ generates HORIZON seconds
# of waypoints WAYPOINT_DT apart, stitched on at the cursor's lookahead
# point, 1/REPLAN_HZ + LOOKAHEAD_BUFFER ahead of the tracking point.
HORIZON = 2.0            # s, generated trajectory length
WAYPOINT_DT = 0.1        # s, waypoint discretization
REPLAN_HZ = 10.0
LOOKAHEAD_BUFFER = 0.05  # s on top of one replan period


@dataclass(frozen=True)
class Waypoint:
    position: Vec3
    yaw: float


class Trajectory:
    """Waypoints with strictly increasing timestamps starting at 0."""

    def __init__(self, times: Sequence[float], waypoints: Sequence[Waypoint]):
        if len(times) != len(waypoints):
            raise ValueError("times and waypoints must pair up")
        if len(waypoints) < 2:
            raise ValueError("a trajectory needs at least 2 waypoints")
        for a, b in zip(times, times[1:]):
            if b <= a:
                raise ValueError("timestamps must be strictly increasing")
        self.times = list(times)
        self.waypoints = list(waypoints)

    def __len__(self) -> int:
        return len(self.waypoints)

    def velocity_at(self, index: int) -> Vec3:
        """Feedforward velocity: finite difference toward the next waypoint."""
        if index >= len(self.waypoints) - 1:
            return ZERO3
        dt = self.times[index + 1] - self.times[index]
        dp = self.waypoints[index + 1].position - self.waypoints[index].position
        return dp.scale(1.0 / dt)


def _timeline(horizon: float, dt: float) -> list[float]:
    n = int(math.floor(horizon / dt + 1e-9))
    times = [i * dt for i in range(n + 1)]
    if times[-1] < horizon - 1e-9:
        times.append(horizon)
    if len(times) < 2:
        times = [0.0, horizon]
    return times


def gen_los_accel_trajectory(
    start: Waypoint, v0: Vec3, accel: Vec3, horizon: float, dt: float
) -> Trajectory:
    """Constant-acceleration kinematic rollout from the replanning point.

    p(t) = p0 + v0 t + 1/2 a t^2, v(t) = v0 + a t, sampled at the trajectory
    discretization; yaw faces the velocity direction.
    """
    if horizon <= 0.0 or dt <= 0.0:
        raise ValueError("horizon and dt must be positive")
    times = _timeline(horizon, dt)
    waypoints = []
    for t in times:
        pos = start.position + v0.scale(t) + accel.scale(0.5 * t * t)
        vel = v0 + accel.scale(t)
        yaw = math.atan2(vel.y, vel.x) if vel.norm() > 1e-9 else start.yaw
        waypoints.append(Waypoint(pos, yaw))
    return Trajectory(times, waypoints)


class NoClosingVelocityError(ValueError):
    """Forecasting is undefined without a positive closing component."""


MIN_CLOSING_SPEED = 0.1  # m/s


def forecast_target(
    d0: float, d1: float, los0: Vec3, los1: Vec3, t0: float, t1: float, uav_vel: Vec3
) -> tuple[Vec3, float, Vec3]:
    """Straight-line target forecast from two range+bearing fixes: ranges
    d0, d1 and LOS directions los0, los1 (unit, world axes, measured from
    the vehicle) taken at t0 < t1, with the vehicle's velocity uav_vel.

    Returns (target velocity, time to collision along the current LOS,
    collision point in vehicle-relative coordinates):

        v_target    = (d1*los1 - d0*los0) / (t1 - t0)
        t_collision = d1 / <v_uav, los1>
        p_collision = v_target * t_collision + d1*los1
    """
    if t1 <= t0:
        raise ValueError("t1 must exceed t0")
    if d0 <= 0.0 or d1 <= 0.0:
        raise ValueError("ranges must be positive")
    closing = uav_vel.dot(los1)
    if closing <= MIN_CLOSING_SPEED:
        raise NoClosingVelocityError(f"closing speed {closing:.3f} m/s along the LOS")
    p1 = los1.scale(d1)
    p0 = los0.scale(d0)
    v_target = (p1 - p0).scale(1.0 / (t1 - t0))
    t_collision = d1 / closing
    p_collision = v_target.scale(t_collision) + p1
    return v_target, t_collision, p_collision


def gen_forecast_trajectory(
    start: Waypoint, p_collision: Vec3, t_collision: float, dt: float
) -> Trajectory:
    """Straight constant-speed line reaching p_collision at t_collision."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    delta = p_collision - start.position
    dist = delta.norm()
    if dist < 1e-12:
        # degenerate replan onto the current position: hold in place
        hold = Waypoint(start.position, start.yaw)
        return Trajectory([0.0, dt], [hold, hold])
    if t_collision <= dt:
        raise ValueError("t_collision must exceed one discretization step")
    direction = delta.scale(1.0 / dist)
    speed = dist / t_collision
    yaw = math.atan2(direction.y, direction.x)
    times = _timeline(t_collision, dt)
    waypoints = [Waypoint(start.position + direction.scale(speed * t), yaw) for t in times]
    return Trajectory(times, waypoints)


def cursor_step(traj: Trajectory, now: float, min_index: int = 0) -> tuple[int, int]:
    """`(tracking_index, lookahead_index)` into `traj` at trajectory time `now`.

    The tracking point is the earliest waypoint not yet passed, selected by
    time progression (never by Euclidean proximity, which self-intersecting
    paths would capture); min_index keeps the cursor monotone across calls.
    The lookahead point sits 1/REPLAN_HZ + LOOKAHEAD_BUFFER later and is the
    point new segments are stitched from, clamped to the trajectory end.
    """
    times = traj.times
    last = len(times) - 1
    idx = min_index
    while idx < last and times[idx] < now:
        idx += 1
    target_time = times[idx] + (1.0 / REPLAN_HZ + LOOKAHEAD_BUFFER)
    look = idx
    while look < last and times[look] < target_time:
        look += 1
    return idx, look


STITCH_TOL = 1e-6  # m


def stitch(old: Trajectory, new: Trajectory, at_index: int) -> Trajectory:
    """Truncate `old` at the lookahead waypoint and append `new` there.

    `new` must start where old.waypoints[at_index] sits (within tolerance);
    the result keeps old's timeline up to the stitch and re-bases new's
    timestamps to continue it.
    """
    if not (0 <= at_index < len(old.waypoints)):
        raise ValueError("stitch index out of range")
    gap = (new.waypoints[0].position - old.waypoints[at_index].position).norm()
    if gap > STITCH_TOL:
        raise ValueError(f"new trajectory starts {gap:.2e} m away from the stitch point")
    stitch_time = old.times[at_index]
    times = old.times[: at_index + 1]
    waypoints = old.waypoints[: at_index + 1]
    offset = stitch_time - new.times[0]
    times = times + [t + offset for t in new.times[1:]]
    waypoints = waypoints + new.waypoints[1:]
    return Trajectory(times, waypoints)

"""Closed-loop single-engagement simulation.

One engagement couples the target path, the synthetic perception pipeline,
the selected guidance method, the cascaded controllers, and the vehicle
dynamics at their own rates (dynamics fastest, controllers next, perception
slowest), then judges the run against the first-pass hit conditions.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple, Optional, Union

from .config import RulesConfig, SimConfig, TrajectoryConfig
from .geometry import (
    CameraIntrinsics,
    LosSample,
    Pose,
    Vec3,
    ZERO3,
    body_to_world,
    camera_to_world,
    los_rate,
    pixel_to_los,
    wrap_angle,
    world_point_to_camera,
)
from .guidance import (
    GuidanceCommand,
    GuidanceMethod,
    closing_velocity,
    dropout_scale,
    hybrid_command,
    init_velocity,
    los_accel,
    pn_heading_command,
    tpn_command,
)
from .perception import (
    DepthEstimate,
    Detection,
    MovingAverageFilter,
    SegmentationImage,
    centroid,
    estimate_depth,
    render_sphere,
)
from .targets import TargetPath, TargetState
from .trajectory import (
    NoClosingVelocityError,
    Trajectory,
    TrajectoryCursor,
    Waypoint,
    cursor_step,
    forecast_target,
    gen_forecast_trajectory,
    gen_los_accel_trajectory,
    stitch,
)
from .vehicle import (
    GRAVITY,
    YAW_KP,
    AttitudeCommand,
    PoseController,
    State,
    StepConstants,
    VelocityController,
    at_rest,
    dynamics_step,
    ideal_dynamics_step,
    pose_of,
)


class FailureReason(str, enum.Enum):
    TIMEOUT = "timeout"
    OUT_OF_BOUNDS = "out_of_bounds"
    FOV_LOSS = "fov_loss"
    CRASH = "crash"


class TracePoint(NamedTuple):
    t: float
    uav_pos: Vec3
    target_pos: Vec3
    target_radius: float
    detected: bool
    phi_dot: float = 0.0  # latest valid LOS rate, rad/s

    @property
    def surface_dist(self) -> float:
        """UAV center to target surface, m."""
        return (self.uav_pos - self.target_pos).norm() - self.target_radius


@dataclass
class EngagementResult:
    """A trial's record: `HitMonitor` judges the first six fields,
    `run_engagement` adds the LOS-rate summary and the trace, and
    `harness.run_trial` the seed."""

    hit: bool
    failure_reason: Optional[FailureReason]
    duration: float           # pursuit clock at the terminal event
    min_miss_distance: float  # least surface distance over the judged steps, m
    end_time: float
    bounds_center: Vec3       # the bounds box's anchor, as the trial was judged
    phi_dot_handoff: float = 0.0  # first valid LOS rate at/after handoff
    phi_dot_final: float = 0.0    # mean |LOS rate| over the last 0.5 s before the end
    trace: Optional[list[TracePoint]] = None
    seed: Optional[int] = None    # the trial seed that built the target path


class HitMonitor:
    """The one judge of a trial: `update` takes one `TracePoint`'s fields per
    dynamics step, in order, and returns the judged `EngagementResult` at the
    first terminal event; `timeout` ends a run that reaches its last point
    without one. The pursuit clock starts at handoff, and the box is centred
    on `bounds_center`, which `run_engagement` computes once per trial;
    `harness.classify_hit` replays a trace through this class. `crashed`
    reads velocities, which a trace does not hold, so only the live loop
    applies it, before each update."""

    def __init__(self, rules: RulesConfig, bounds_center: Vec3, handoff_time: float):
        self.rules = rules
        self.center = bounds_center
        self.half = (rules.bounds_x / 2.0, rules.bounds_y / 2.0, rules.bounds_z / 2.0)  # the box's half-extents
        self.handoff = handoff_time
        self.t = 0.0  # of the last update
        self.last_seen: float = -math.inf
        self.min_miss: float = math.inf
        self.over_accel = 0.0  # how long acceleration has been above the crash limit, s
        self.crash_limit = rules.crash_accel_g * GRAVITY  # m/s^2

    def _result(self, hit: bool, reason: Optional[FailureReason], t: float) -> EngagementResult:
        duration = t - self.handoff
        return EngagementResult(hit, reason, max(duration, 0.0) if hit else duration, self.min_miss, t, self.center)

    def crashed(self, t: float, s: State, before: State, dt: float) -> Optional[EngagementResult]:
        """A non-finite state `s`, or acceleration |v - v_before| / dt over the
        step from the state `before` above `crash_accel_g` held longer than
        `crash_sustain`."""
        px, py, pz, vx, vy, vz, _, _, _ = s
        finite = math.isfinite
        if not (finite(px) and finite(py) and finite(pz) and finite(vx) and finite(vy) and finite(vz)):
            return self._result(False, FailureReason.CRASH, t)
        ax, ay, az = vx - before[3], vy - before[4], vz - before[5]
        if math.sqrt(ax * ax + ay * ay + az * az) / dt > self.crash_limit:
            self.over_accel += dt
            if self.over_accel > self.rules.crash_sustain:
                return self._result(False, FailureReason.CRASH, t)
        else:
            self.over_accel = 0.0
        return None

    def update(self, t: float, px: float, py: float, pz: float, tx: float, ty: float, tz: float,
               radius: float, detected: bool) -> Optional[EngagementResult]:
        """One step: the UAV at (px, py, pz) and the target's centre at
        (tx, ty, tz), as a `TracePoint` holds them."""
        r = self.rules
        self.t = t
        if detected:
            self.last_seen = t
        # TracePoint.surface_dist, written out
        dx, dy, dz = px - tx, py - ty, pz - tz
        surface_dist = math.sqrt(dx * dx + dy * dy + dz * dz) - radius
        if surface_dist < self.min_miss:
            self.min_miss = surface_dist
        duration = t - self.handoff

        if duration >= r.pursuit_timeout:
            return self._result(False, FailureReason.TIMEOUT, t)
        if surface_dist <= r.hit_radius:
            return self._result(True, None, t)
        cx, cy, cz = self.center
        hx, hy, hz = self.half
        if abs(px - cx) > hx or abs(py - cy) > hy or abs(pz - cz) > hz:
            return self._result(False, FailureReason.OUT_OF_BOUNDS, t)
        if t - max(self.last_seen, self.handoff) > r.fov_loss_timeout:
            return self._result(False, FailureReason.FOV_LOSS, t)
        return None

    def timeout(self) -> EngagementResult:
        return self._result(False, FailureReason.TIMEOUT, self.t)


@dataclass
class PerceptionFrame:
    """One perception tick. A detected frame holds its tick's pixels until the
    first read of `d_center` or `depth_valid` estimates its depth."""

    detected: bool
    detection: Optional[Detection] = None
    sample: Optional[LosSample] = None
    _depth: Union[DepthEstimate, Callable[[], DepthEstimate]] = DepthEstimate.invalid()

    def _estimate(self) -> DepthEstimate:
        if callable(self._depth):
            self._depth = self._depth()
        return self._depth

    @property
    def d_center(self) -> float:
        return self._estimate().d_center

    @property
    def depth_valid(self) -> bool:
        return self._estimate().valid


def camera_view(
    target: TargetState,
    pose: Pose,
    mount_pitch: float,
    k: CameraIntrinsics,
    bias_pitch: float = 0.0,
    bias_yaw: float = 0.0,
) -> tuple[SegmentationImage, Optional[Detection]]:
    """Render one target as the camera sees it and find its blob.

    The bias angles are a fault on the true camera orientation that the
    estimator does not know about: the estimate keeps using `mount_pitch`.
    """
    p_cam = world_point_to_camera(target.position, pose, mount_pitch + bias_pitch)
    if bias_yaw != 0.0:
        cy, sy = math.cos(bias_yaw), math.sin(bias_yaw)
        p_cam = Vec3(cy * p_cam.x - sy * p_cam.z, p_cam.y, sy * p_cam.x + cy * p_cam.z)
    seg = render_sphere(p_cam, target.radius, k)
    return seg, centroid(seg)


def _yaw_rate_toward(wp: Waypoint, uav: Pose) -> float:
    return YAW_KP * wrap_angle(wp.yaw - uav.yaw)


class Pilot:
    """The vehicle front end: one setpoint per control tick, flown through
    the cascaded position (P) and velocity (PI) loops into `dynamics_step`.

    Setpoints are a world velocity, a tracked waypoint with its feedforward
    velocity, or a world acceleration. The velocity reference carries over
    between setpoints, so an acceleration keeps integrating from whatever
    the last velocity or waypoint setpoint left.
    """

    def __init__(self, cfg: SimConfig):
        self.params = cfg.vehicle
        self.step = StepConstants.of(self.params, cfg.rates.dt)
        self.dt_ctrl = cfg.rates.control_dt
        self.pose_ctl = PoseController()
        self.vel_ctl = VelocityController(self.params)
        self.v_ref = ZERO3
        self.cmd = AttitudeCommand(0.0, 0.0, 0.0, self.params.hover_thrust)

    def velocity(self, v: Vec3, yaw_rate: float, uav: Pose) -> None:
        self.v_ref = v
        self.cmd = self.vel_ctl.step(v, ZERO3, yaw_rate, uav, self.dt_ctrl)

    def waypoint(self, wp: Waypoint, v_ff: Vec3, uav: Pose) -> None:
        yaw_rate = _yaw_rate_toward(wp, uav)
        self.v_ref = self.pose_ctl.step(wp, v_ff, uav)
        self.cmd = self.vel_ctl.step(self.v_ref, ZERO3, yaw_rate, uav, self.dt_ctrl)

    def accel(self, a_world: Vec3, yaw_rate: float, v_limit: float, uav: Pose) -> None:
        # integrated into the velocity reference, plus a feedforward term
        self.v_ref = (self.v_ref + a_world.scale(self.dt_ctrl)).clamp_norm(v_limit)
        self.cmd = self.vel_ctl.step(self.v_ref, a_world, yaw_rate, uav, self.dt_ctrl)

    def fly(self, uav: State) -> State:
        return dynamics_step(uav, self.cmd, self.step)


class IdealPilot:
    """Perfect acceleration tracking (`ideal_dynamics_step`) behind the same
    setpoints as `Pilot`: velocities and waypoints become a world acceleration
    bounded by the guidance `max_accel`; accelerations pass straight through."""

    WAYPOINT_KP = 2.5
    WAYPOINT_KV = 3.0
    VELOCITY_TAU = 0.3  # s, first-order tracking of a velocity setpoint

    def __init__(self, cfg: SimConfig):
        self.params = cfg.vehicle
        self.dt = cfg.rates.dt
        self.max_accel = cfg.guidance.max_accel
        self.a_world = ZERO3
        self.yaw_rate = 0.0

    def velocity(self, v: Vec3, yaw_rate: float, uav: Pose) -> None:
        self.a_world = (v - uav.velocity).scale(1.0 / self.VELOCITY_TAU).clamp_norm(self.max_accel)
        self.yaw_rate = yaw_rate

    def waypoint(self, wp: Waypoint, v_ff: Vec3, uav: Pose) -> None:
        a = (wp.position - uav.position).scale(self.WAYPOINT_KP) + (v_ff - uav.velocity).scale(self.WAYPOINT_KV)
        self.a_world = a.clamp_norm(self.max_accel)
        self.yaw_rate = _yaw_rate_toward(wp, uav)

    def accel(self, a_world: Vec3, yaw_rate: float, v_limit: float, uav: Pose) -> None:
        self.a_world = a_world
        self.yaw_rate = yaw_rate

    def fly(self, uav: State) -> State:
        return ideal_dynamics_step(uav, self.a_world, self.yaw_rate, self.dt, self.params)


@dataclass
class PlanTrack:
    """A timed plan flown from sim time `start`: plan time is `t - start`,
    and `index` keeps the tracking point from moving backwards. Trajectory
    guidance and the mission's search and recovery plans fly one each."""

    plan: Trajectory
    start: float
    tcfg: TrajectoryConfig
    index: int = 0

    def cursor(self, t: float) -> TrajectoryCursor:
        return cursor_step(self.plan, t - self.start, self.tcfg.replan_hz, self.tcfg.lookahead_buffer, self.index)

    def fly(self, t: float, uav: Pose, pilot: Union[Pilot, IdealPilot]) -> None:
        """Advance `index` to the tracking point at `t` and set it as the waypoint."""
        cur = self.cursor(t)
        self.index = cur.tracking_index
        pilot.waypoint(cur.tracking_point, cur.tracking_velocity, uav)


class PerceptionPipeline:
    """Camera view -> LOS ray and rate for one target; depth waits for a read."""

    def __init__(self, cfg: SimConfig, mount_pitch: float, target_diameter: float):
        self.k = cfg.camera.intrinsics()
        self.mount_pitch = mount_pitch
        self.target_diameter = target_diameter
        self._prev: Optional[LosSample] = None  # of the last detected frame

    def observe(self, t: float, target: TargetState, uav_pose: Pose) -> PerceptionFrame:
        seg, det = camera_view(target, uav_pose, self.mount_pitch, self.k)
        if det is None:
            return PerceptionFrame(False)
        ray = pixel_to_los(det.centroid[0], det.centroid[1], self.k)
        if self._prev is not None and t > self._prev.t:
            phi_dot, n_unit, valid = los_rate(self._prev.r, ray, t - self._prev.t)
        else:
            phi_dot, n_unit, valid = 0.0, ZERO3, False
        self._prev = LosSample(ray, t, phi_dot, n_unit, valid)
        return PerceptionFrame(True, det, self._prev,
                               partial(estimate_depth, seg, det, self.k, self.target_diameter))


class DirectGuide:
    """TPN, PN with heading control, or hybrid: a body command recomputed on
    each detected frame after handoff and held, scaled by the dropout policy,
    between frames."""

    def __init__(self, cfg: SimConfig, method: GuidanceMethod, mount_pitch: float, uav_speed: float):
        self.method = method
        self.gp = cfg.guidance
        self.mount_pitch = mount_pitch
        self.v_limit = max(2.0 * uav_speed, 6.0)
        self.command = GuidanceCommand.zero()

    def see(self, frame: PerceptionFrame, los_world: Vec3, uav: Pose, pursuing: bool) -> None:
        if not pursuing:
            return
        los, gp, mp = frame.sample, self.gp, self.mount_pitch
        v_c = closing_velocity(uav.velocity, los_world)
        if self.method == GuidanceMethod.TPN:
            self.command = tpn_command(los, v_c, gp, mp)
        else:
            law = pn_heading_command if self.method == GuidanceMethod.PN_HEADING else hybrid_command
            self.command = law(los, los_accel(los, v_c, gp, mp), gp, mp)

    def replan(self, k: int, t: float, s: State, fresh: bool) -> None:
        pass

    def steer(self, t: float, uav: Pose, pilot: Union[Pilot, IdealPilot], scale: float) -> None:
        cmd = self.command
        a_world = body_to_world(cmd.accel_body.scale(scale), uav)
        pilot.accel(a_world, cmd.yaw_rate * scale, self.v_limit, uav)


class TrajectoryGuide:
    """LOS-trajectory or forecast-trajectory: smooths the detected frames
    from t = 0, replans a segment at `replan_hz` from the tracked plan's
    lookahead point and stitches it on, and tracks the plan's cursor.

    Without a fresh detection the plan is held. A forecast needs two fixes
    (smoothed range and LOS); every attempt becomes the next reference fix,
    also one whose forecast is rejected.
    """

    def __init__(self, cfg: SimConfig, method: GuidanceMethod, mount_pitch: float):
        self.tcfg = cfg.trajectory
        self.pn_gain = cfg.guidance.pn_gain
        self.dynamics_hz = cfg.rates.dynamics_hz
        self.mount_pitch = mount_pitch
        self.forecast = method == GuidanceMethod.FORECAST_TRAJ
        window = cfg.perception.filter_window
        self._f_ray = MovingAverageFilter(window)
        self._f_phi = MovingAverageFilter(window)
        self._f_n = MovingAverageFilter(window)
        self._f_depth = MovingAverageFilter(window)
        self.ray_f: Vec3 = ZERO3
        self.phi_f: float = 0.0
        self.n_f: Vec3 = ZERO3
        self.d_f: float = 0.0
        self.track: Optional[PlanTrack] = None
        self.mark = -1
        self.last_fix: Optional[tuple[float, float, Vec3]] = None  # t, d_f, los world

    def see(self, frame: PerceptionFrame, los_world: Vec3, uav: Pose, pursuing: bool) -> None:
        los = frame.sample
        self.ray_f = self._f_ray.step(los.r)
        if los.valid_rate:
            self.phi_f = self._f_phi.step(los.phi_dot)
            self.n_f = self._f_n.step(los.n_unit)
        if self.forecast and frame.depth_valid:
            self.d_f = self._f_depth.step(frame.d_center)

    def replan(self, k: int, t: float, s: State, fresh: bool) -> None:
        mark = int((k * self.tcfg.replan_hz) // self.dynamics_hz)
        if mark == self.mark:
            return
        self.mark = mark
        if not fresh:
            return
        uav = pose_of(s)
        track = self.track
        if track is None:
            start, v0 = Waypoint(uav.position, uav.yaw), uav.velocity
        else:
            cur = track.cursor(t)
            start, v0 = cur.lookahead_point, track.plan.velocity_at(cur.lookahead_index)
        # None only while no frame was seen, which a hold without limit allows
        los_world = None if self.ray_f == ZERO3 else camera_to_world(self.ray_f, uav, self.mount_pitch).unit()
        if self.forecast:
            seg = self._forecast(t, start, los_world, uav)
        else:
            seg = self._los_segment(start, v0, los_world, uav)
        if seg is None:
            return
        if track is None:
            self.track = PlanTrack(seg, t, self.tcfg)
        else:
            track.plan = stitch(track.plan, seg, cur.lookahead_index)

    def _los_segment(self, start: Waypoint, v0: Vec3, los_world: Optional[Vec3], pose: Pose) -> Trajectory:
        v_c = 0.0 if los_world is None else max(0.0, closing_velocity(pose.velocity, los_world))
        a_cam = self.n_f.scale(self.pn_gain * v_c * self.phi_f)
        a_world = camera_to_world(a_cam, pose, self.mount_pitch)
        return gen_los_accel_trajectory(start, v0, a_world, self.tcfg.horizon, self.tcfg.dt)

    def _forecast(self, t: float, start: Waypoint, los_world: Vec3, uav: Pose) -> Optional[Trajectory]:
        if self.d_f <= 0.0:  # no range yet
            return None
        last, self.last_fix = self.last_fix, (t, self.d_f, los_world)
        if last is None:
            return None
        t0, d0, los0 = last
        try:
            _, t_coll, p_rel = forecast_target(d0, self.d_f, los0, los_world, t0, t, uav.velocity)
        except NoClosingVelocityError:
            return None
        if t_coll <= self.tcfg.dt:
            return None
        # cap far-future collision times so segments stay bounded
        return gen_forecast_trajectory(start, uav.position + p_rel, min(t_coll, 10.0), self.tcfg.dt)

    def steer(self, t: float, uav: Pose, pilot: Union[Pilot, IdealPilot], scale: float) -> None:
        if self.track is None:
            pilot.velocity(ZERO3, 0.0, uav)
        else:
            self.track.fly(t, uav, pilot)


_FINAL_PHI_WINDOW = 0.5  # s


def run_engagement(
    method: GuidanceMethod,
    uav_speed: float,
    path: TargetPath,
    cfg: SimConfig,
    ideal_dynamics: bool = False,
    record_trace: bool = False,
) -> EngagementResult:
    cfg.validate()
    rules = cfg.rules
    gp = cfg.guidance
    mount_pitch = cfg.camera.mount_pitch(uav_speed, cfg.vehicle)

    radius = path.radius
    pipeline = PerceptionPipeline(cfg, mount_pitch, 2.0 * radius)
    pilot = IdealPilot(cfg) if ideal_dynamics else Pilot(cfg)
    if method.is_trajectory:
        guide: Union[DirectGuide, TrajectoryGuide] = TrajectoryGuide(cfg, method, mount_pitch)
    else:
        guide = DirectGuide(cfg, method, mount_pitch, uav_speed)

    rates = cfg.rates
    dt = rates.dt

    handoff = gp.init_duration
    horizon = handoff + rules.pursuit_timeout + 0.25
    bounds_center = _path_bounds_center(path, horizon)
    monitor = HitMonitor(rules, bounds_center, handoff)
    seen_window = 2.0 / rates.perception_hz  # a step counts as in sight this soon after a detection

    uav = at_rest(ZERO3, yaw=0.0)
    init_cmd_vel = ZERO3
    last_seen = -math.inf
    since_seen = math.inf
    cmd_scale = 0.0

    phi_handoff: Optional[float] = None
    phi_log: list[tuple[float, float]] = []
    phi_last = 0.0
    trace: Optional[list[TracePoint]] = [] if record_trace else None

    # `uav` is the flat vehicle state; the ticks that read a `Pose` build one
    for k, t, perception_due, control_due in rates.ticks(horizon):
        pursuing = t >= handoff
        if perception_due or control_due:
            pose = pose_of(uav)

        # ---- perception + guidance tick -------------------------------
        if perception_due:
            frame = pipeline.observe(t, path.sample(t), pose)
            if frame.detected:
                last_seen = t
                sample = frame.sample
                if sample.valid_rate:
                    phi_last = sample.phi_dot
                    phi_log.append((t, phi_last))
                    if pursuing and phi_handoff is None:
                        phi_handoff = sample.phi_dot
                los_world = camera_to_world(sample.r, pose, mount_pitch).unit()
                if not pursuing:
                    init_cmd_vel = init_velocity(los_world, uav_speed)
                guide.see(frame, los_world, pose, pursuing)
            # the frame, and any pixels it holds, ends with this tick
            del frame
            since_seen = t - last_seen
            cmd_scale = dropout_scale(since_seen, gp)

        if pursuing:
            guide.replan(k, t, uav, fresh=since_seen <= gp.dropout_hold)

        # ---- control tick ----------------------------------------------
        if control_due:
            if pursuing:
                guide.steer(t, pose, pilot, cmd_scale)
            else:
                pilot.velocity(init_cmd_vel if since_seen <= gp.dropout_hold else ZERO3, 0.0, pose)

        # ---- dynamics ---------------------------------------------------
        before = uav
        uav = pilot.fly(uav)
        t_next = (k + 1) * dt

        # ---- judge the step --------------------------------------------
        result = monitor.crashed(t_next, uav, before, dt)
        if result is not None:
            break
        tx, ty, tz = path.position_at(t_next)
        detected = (t_next - last_seen) < seen_window
        if trace is not None:
            trace.append(TracePoint(t_next, Vec3(uav[0], uav[1], uav[2]), Vec3(tx, ty, tz), radius,
                                    detected, phi_last))
        result = monitor.update(t_next, uav[0], uav[1], uav[2], tx, ty, tz, radius, detected)
        if result is not None:
            break
    else:
        result = monitor.timeout()  # the horizon ran out without a terminal event

    final_phis = [abs(p) for (tt, p) in phi_log if tt >= result.end_time - _FINAL_PHI_WINDOW]
    phi_final = sum(final_phis) / len(final_phis) if final_phis else 0.0
    return replace(result, phi_dot_handoff=phi_handoff if phi_handoff is not None else 0.0,
                   phi_dot_final=phi_final, trace=trace)


def _path_bounds_center(path: TargetPath, horizon: float) -> Vec3:
    """The bounds box's anchor: the center of the axis-aligned bounding box of
    the path at t = i * span / 64, i = 0..64, over one period (or `horizon`)."""
    span = path.period if path.period is not None else horizon
    xs, ys, zs = zip(*(path.position_at(span * i / 64) for i in range(65)))
    return Vec3((min(xs) + max(xs)) / 2.0, (min(ys) + max(ys)) / 2.0, (min(zs) + max(zs)) / 2.0)

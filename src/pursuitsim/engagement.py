"""Closed-loop single-engagement simulation.

One engagement couples the target path, the synthetic perception pipeline,
the selected guidance method, the cascaded controllers, and the vehicle
dynamics at their own rates (dynamics fastest, controllers next, perception
slowest), then judges the run against the first-pass hit conditions.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Optional, Union

from .config import RulesConfig, SimConfig
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
    GuidanceMethod,
    GuidanceState,
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
    Waypoint,
    cursor_step,
    forecast_target,
    ForecastInputs,
    gen_forecast_trajectory,
    gen_los_accel_trajectory,
    stitch,
)
from .vehicle import (
    GRAVITY,
    AttitudeCommand,
    ControllerGains,
    PoseController,
    UavState,
    VelocityController,
    dynamics_step,
    ideal_dynamics_step,
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


@dataclass(frozen=True)
class Verdict:
    hit: bool
    reason: Optional[FailureReason]
    time: float
    duration: float  # pursuit clock at the terminal event


class HitMonitor:
    """Incremental judge of the four first-pass hit conditions.

    Fed chronologically; returns a Verdict at the first terminal event.
    The pursuit clock starts at guidance handoff; the in-bounds box is
    anchored on the target path's bounding-box center.
    """

    def __init__(self, rules: RulesConfig, bounds_center: Vec3, handoff_time: float):
        self.rules = rules
        self.center = bounds_center
        self.handoff = handoff_time
        self.last_seen: float = -math.inf
        self.min_miss: float = math.inf

    def update(self, t: float, uav_pos: Vec3, surface_dist: float, detected: bool) -> Optional[Verdict]:
        r = self.rules
        if detected:
            self.last_seen = t
        if surface_dist < self.min_miss:
            self.min_miss = surface_dist
        duration = t - self.handoff

        if surface_dist <= r.hit_radius:
            if duration < r.pursuit_timeout:
                return Verdict(True, None, t, max(duration, 0.0))
            return Verdict(False, FailureReason.TIMEOUT, t, duration)
        if duration >= r.pursuit_timeout:
            return Verdict(False, FailureReason.TIMEOUT, t, duration)
        d = uav_pos - self.center
        if abs(d.x) > r.bounds_x / 2.0 or abs(d.y) > r.bounds_y / 2.0 or abs(d.z) > r.bounds_z / 2.0:
            return Verdict(False, FailureReason.OUT_OF_BOUNDS, t, duration)
        if t - max(self.last_seen, self.handoff) > r.fov_loss_timeout:
            return Verdict(False, FailureReason.FOV_LOSS, t, duration)
        return None


@dataclass
class PerceptionFrame:
    """One perception tick. The depth is the pipeline's estimate, or the call
    that makes it on the first read of `d_center` or `depth_valid`: a frame
    holds its tick's pixels until then."""

    t: float
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


def _yaw_rate_toward(wp: Waypoint, uav: UavState, gains: ControllerGains) -> float:
    return gains.yaw_kp * wrap_angle(wp.yaw - uav.pose.yaw)


class Pilot:
    """The vehicle front end: one setpoint per control tick, flown through
    the cascaded pose/velocity PID loops into `dynamics_step`.

    Setpoints are a world velocity, a tracked waypoint with its feedforward
    velocity, or a world acceleration. The velocity reference carries over
    between setpoints, so an acceleration keeps integrating from whatever
    the last velocity or waypoint setpoint left.
    """

    def __init__(self, cfg: SimConfig):
        self.params = cfg.vehicle
        self.dt = cfg.rates.dt
        self.dt_ctrl = cfg.rates.control_dt
        self.pose_ctl = PoseController(self.params.gains)
        self.vel_ctl = VelocityController(self.params.gains, self.params)
        self.v_ref = ZERO3
        self.cmd = AttitudeCommand(0.0, 0.0, 0.0, self.params.hover_thrust)

    def velocity(self, v: Vec3, yaw_rate: float, uav: UavState) -> None:
        self.v_ref = v
        self.cmd = self.vel_ctl.step(v, ZERO3, yaw_rate, uav, self.dt_ctrl)

    def waypoint(self, wp: Waypoint, v_ff: Vec3, uav: UavState) -> None:
        yaw_rate = _yaw_rate_toward(wp, uav, self.params.gains)
        self.v_ref = self.pose_ctl.step(wp, v_ff, uav, self.dt_ctrl)
        self.cmd = self.vel_ctl.step(self.v_ref, ZERO3, yaw_rate, uav, self.dt_ctrl)

    def accel(self, a_world: Vec3, yaw_rate: float, v_limit: float, uav: UavState) -> None:
        # integrated into the velocity reference, plus a feedforward term
        self.v_ref = (self.v_ref + a_world.scale(self.dt_ctrl)).clamp_norm(v_limit)
        self.cmd = self.vel_ctl.step(self.v_ref, a_world, yaw_rate, uav, self.dt_ctrl)

    def fly(self, uav: UavState) -> UavState:
        return dynamics_step(uav, self.cmd, self.dt, self.params)


class IdealPilot:
    """Perfect acceleration tracking (`ideal_dynamics_step`) behind the same
    setpoints as `Pilot`: velocities and waypoints become a world acceleration
    bounded by the guidance `max_accel`; accelerations pass straight through."""

    WAYPOINT_KP = 2.5
    WAYPOINT_KV = 3.0

    def __init__(self, cfg: SimConfig):
        self.params = cfg.vehicle
        self.dt = cfg.rates.dt
        self.tau = cfg.rules.ideal_velocity_tau
        self.max_accel = cfg.guidance.max_accel
        self.a_world = ZERO3
        self.yaw_rate = 0.0

    def velocity(self, v: Vec3, yaw_rate: float, uav: UavState) -> None:
        self.a_world = (v - uav.pose.velocity).scale(1.0 / self.tau).clamp_norm(self.max_accel)
        self.yaw_rate = yaw_rate

    def waypoint(self, wp: Waypoint, v_ff: Vec3, uav: UavState) -> None:
        pose = uav.pose
        a = (wp.position - pose.position).scale(self.WAYPOINT_KP) + (v_ff - pose.velocity).scale(self.WAYPOINT_KV)
        self.a_world = a.clamp_norm(self.max_accel)
        self.yaw_rate = _yaw_rate_toward(wp, uav, self.params.gains)

    def accel(self, a_world: Vec3, yaw_rate: float, v_limit: float, uav: UavState) -> None:
        self.a_world = a_world
        self.yaw_rate = yaw_rate

    def fly(self, uav: UavState) -> UavState:
        return ideal_dynamics_step(uav, self.a_world, self.yaw_rate, self.dt, self.params)


class PerceptionPipeline:
    """Camera view -> LOS/rate -> depth for one target, plus the flat
    moving-average smoothing whose outputs feed trajectory-based guidance.

    Depth is estimated each frame only for `forecast-traj`, the one method
    that reads `d_f`; otherwise only when a caller reads the frame's depth.
    """

    def __init__(self, cfg: SimConfig, mount_pitch: float, target_diameter: float, method: GuidanceMethod):
        self.k = cfg.camera.intrinsics()
        self.mount_pitch = mount_pitch
        self.target_diameter = target_diameter
        self._ranging = method == GuidanceMethod.FORECAST_TRAJ
        window = cfg.perception.filter_window
        self._f_phi = MovingAverageFilter(window)
        self._f_n = MovingAverageFilter(window)
        self._f_ray = MovingAverageFilter(window)
        self._f_depth = MovingAverageFilter(window)
        self._prev_ray: Optional[Vec3] = None
        self._prev_t: float = 0.0
        self.phi_f: float = 0.0
        self.n_f: Vec3 = ZERO3
        self.ray_f: Vec3 = ZERO3
        self.d_f: float = 0.0

    def observe(self, t: float, target: TargetState, uav_pose: Pose) -> PerceptionFrame:
        seg, det = camera_view(target, uav_pose, self.mount_pitch, self.k)
        if det is None:
            return PerceptionFrame(t, False)
        ray = pixel_to_los(det.centroid[0], det.centroid[1], self.k)
        if self._prev_ray is not None and t > self._prev_t:
            phi_dot, n_unit, valid = los_rate(self._prev_ray, ray, t - self._prev_t)
        else:
            phi_dot, n_unit, valid = 0.0, ZERO3, False
        sample = LosSample(ray, t, phi_dot, n_unit, valid)
        frame = PerceptionFrame(t, True, det, sample,
                                partial(estimate_depth, seg, det, self.k, self.target_diameter))

        self.ray_f = self._f_ray.step(ray)
        if valid:
            self.phi_f = self._f_phi.step(phi_dot)
            self.n_f = self._f_n.step(n_unit)
        if self._ranging and frame.depth_valid:
            self.d_f = self._f_depth.step(frame.d_center)
        self._prev_ray = ray
        self._prev_t = t
        return frame


@dataclass
class EngagementResult:
    hit: bool
    failure_reason: Optional[FailureReason]
    duration: float
    min_miss_distance: float
    completed: bool           # False when the simulator crashed
    phi_dot_handoff: float    # first valid LOS rate at/after handoff
    phi_dot_final: float      # mean |LOS rate| over the last 0.5 s before the end
    end_time: float
    trace: Optional[list[TracePoint]] = None


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

    target0 = path.sample(0.0)
    pipeline = PerceptionPipeline(cfg, mount_pitch, 2.0 * target0.radius, method)
    pilot = IdealPilot(cfg) if ideal_dynamics else Pilot(cfg)

    rates = cfg.rates
    dt = rates.dt
    replan_hz = cfg.trajectory.replan_hz

    handoff = gp.init_duration
    horizon = handoff + rules.pursuit_timeout + 0.25
    monitor = HitMonitor(rules, _path_bounds_center(path, horizon), handoff)

    uav = UavState.at_rest(ZERO3, yaw=0.0)
    v_ref_limit = max(2.0 * uav_speed, 6.0)
    init_cmd_vel = ZERO3
    gstate = GuidanceState()
    cmd_scale = 0.0

    traj: Optional[Trajectory] = None
    traj_start = 0.0
    cursor_min = 0
    last_fix: Optional[tuple[float, float, Vec3]] = None  # t, d_center, los world

    phi_handoff: Optional[float] = None
    phi_log: list[tuple[float, float]] = []
    trace: Optional[list[TracePoint]] = [] if record_trace else None

    crash_time = 0.0
    verdict: Optional[Verdict] = None
    t_next = 0.0
    replan_mark = -1

    for k, t, perception_due, control_due in rates.ticks(horizon):
        pursuing = t >= handoff

        # ---- perception + guidance tick -------------------------------
        if perception_due:
            target = path.sample(t)
            # the frame, and any pixels it holds, ends with this tick
            sample = pipeline.observe(t, target, uav.pose).sample
            if sample is not None:
                gstate.time_since_detection = 0.0
                gstate.prev_los = sample
                if sample.valid_rate:
                    phi_log.append((t, sample.phi_dot))
                    if pursuing and phi_handoff is None:
                        phi_handoff = sample.phi_dot
                los_world = camera_to_world(sample.r, uav.pose, mount_pitch).unit()
                if not pursuing:
                    init_cmd_vel = init_velocity(los_world, uav_speed)
                elif not method.is_trajectory:
                    v_c = closing_velocity(uav.pose.velocity, los_world)
                    a_body = los_accel(sample, v_c, gp, mount_pitch)
                    if method == GuidanceMethod.TPN:
                        gstate.last_command = tpn_command(sample, v_c, gp, mount_pitch)
                    elif method == GuidanceMethod.PN_HEADING:
                        gstate.last_command = pn_heading_command(sample, a_body, gp, mount_pitch)
                    else:
                        gstate.last_command = hybrid_command(sample, a_body, gp, mount_pitch)
                    gstate.last_mode = gstate.last_command.mode
            else:
                gstate.time_since_detection = t - (gstate.prev_los.t if gstate.prev_los else -math.inf)
            cmd_scale = dropout_scale(gstate.time_since_detection, gp) if gstate.prev_los else 0.0

        # ---- trajectory replanning ------------------------------------
        if method.is_trajectory and pursuing:
            rm = int((k * replan_hz) // rates.dynamics_hz)
            if rm != replan_mark:
                replan_mark = rm
                traj, traj_start, cursor_min, last_fix = _replan(
                    method, traj, traj_start, cursor_min, last_fix, t, uav, pipeline, cfg,
                    fresh=gstate.time_since_detection <= gp.dropout_hold,
                )

        # ---- control tick ----------------------------------------------
        if control_due:
            if not pursuing:
                stale = gstate.time_since_detection > gp.dropout_hold
                pilot.velocity(ZERO3 if stale else init_cmd_vel, 0.0, uav)
            elif not method.is_trajectory:
                cmd = gstate.last_command
                a_world = body_to_world(cmd.accel_body.scale(cmd_scale), uav.pose)
                pilot.accel(a_world, cmd.yaw_rate * cmd_scale, v_ref_limit, uav)
            elif traj is not None:
                cur = cursor_step(traj, t - traj_start, replan_hz, cfg.trajectory.lookahead_buffer, cursor_min)
                cursor_min = cur.tracking_index
                pilot.waypoint(cur.tracking_point, cur.tracking_velocity, uav)
            else:
                pilot.velocity(ZERO3, 0.0, uav)

        # ---- dynamics ---------------------------------------------------
        v_before = uav.pose.velocity
        uav = pilot.fly(uav)
        t_next = (k + 1) * dt

        # ---- safety + outcome checks -----------------------------------
        pos = uav.pose.position
        vel = uav.pose.velocity
        if not (pos.is_finite() and vel.is_finite()):
            verdict = Verdict(False, FailureReason.CRASH, t_next, t_next - handoff)
            break
        accel_mag = (vel - v_before).norm() / dt
        if accel_mag > rules.crash_accel_g * GRAVITY:
            crash_time += dt
            if crash_time > rules.crash_sustain:
                verdict = Verdict(False, FailureReason.CRASH, t_next, t_next - handoff)
                break
        else:
            crash_time = 0.0

        target = path.sample(t_next)
        surface_dist = (pos - target.position).norm() - target.radius
        last_seen = gstate.prev_los.t if gstate.prev_los is not None else -math.inf
        detected_now = (t_next - last_seen) < (2.0 / rates.perception_hz)
        if trace is not None:
            phi_dot = phi_log[-1][1] if phi_log else 0.0
            trace.append(TracePoint(t_next, pos, target.position, target.radius, detected_now, phi_dot))
        verdict = monitor.update(t_next, pos, surface_dist, detected_now)
        if verdict is not None:
            break

    if verdict is None:
        # ran off the end of the horizon without any terminal event
        verdict = Verdict(False, FailureReason.TIMEOUT, t_next, t_next - handoff)

    final_phis = [abs(p) for (tt, p) in phi_log if tt >= verdict.time - _FINAL_PHI_WINDOW]
    phi_final = sum(final_phis) / len(final_phis) if final_phis else 0.0
    return EngagementResult(
        hit=verdict.hit,
        failure_reason=verdict.reason,
        duration=verdict.duration,
        min_miss_distance=monitor.min_miss,
        completed=verdict.reason != FailureReason.CRASH,
        phi_dot_handoff=phi_handoff if phi_handoff is not None else 0.0,
        phi_dot_final=phi_final,
        end_time=verdict.time,
        trace=trace,
    )


def _path_bounds_center(path: TargetPath, horizon: float) -> Vec3:
    if path.period is not None:
        span = path.period
    else:
        span = horizon
    n = 64
    xs = ys = zs = 0.0
    lo = [math.inf] * 3
    hi = [-math.inf] * 3
    for i in range(n + 1):
        p = path.sample(span * i / n).position
        lo[0] = min(lo[0], p.x); hi[0] = max(hi[0], p.x)
        lo[1] = min(lo[1], p.y); hi[1] = max(hi[1], p.y)
        lo[2] = min(lo[2], p.z); hi[2] = max(hi[2], p.z)
    return Vec3((lo[0] + hi[0]) / 2.0, (lo[1] + hi[1]) / 2.0, (lo[2] + hi[2]) / 2.0)


def _replan(
    method: GuidanceMethod,
    traj: Optional[Trajectory],
    traj_start: float,
    cursor_min: int,
    last_fix: Optional[tuple[float, float, Vec3]],
    t: float,
    uav: UavState,
    pipeline: PerceptionPipeline,
    cfg: SimConfig,
    fresh: bool,
) -> tuple[Optional[Trajectory], float, int, Optional[tuple[float, float, Vec3]]]:
    """Generate the next trajectory segment from the lookahead point and
    stitch it on. Without a fresh detection the previous plan is held."""
    tcfg = cfg.trajectory
    if not fresh:
        return traj, traj_start, cursor_min, last_fix

    if traj is None:
        start = Waypoint(uav.pose.position, uav.pose.yaw, uav.pose.velocity.norm())
        v0 = uav.pose.velocity
        stitch_idx = None
    else:
        cur = cursor_step(traj, t - traj_start, tcfg.replan_hz, tcfg.lookahead_buffer, cursor_min)
        start = cur.lookahead_point
        v0 = traj.velocity_at(cur.lookahead_index)
        stitch_idx = cur.lookahead_index

    if method == GuidanceMethod.LOS_TRAJ:
        v_c = max(0.0, _closing_along_filtered(pipeline, uav))
        a_cam = pipeline.n_f.scale(cfg.guidance.pn_gain * v_c * pipeline.phi_f)
        a_world = camera_to_world(a_cam, uav.pose, pipeline.mount_pitch)
        seg = gen_los_accel_trajectory(start, v0, a_world, tcfg.horizon, tcfg.dt)
    else:
        if pipeline.d_f <= 0.0 or pipeline.ray_f.norm() == 0.0:
            return traj, traj_start, cursor_min, last_fix
        los_world = camera_to_world(pipeline.ray_f, uav.pose, pipeline.mount_pitch).unit()
        fix = (t, pipeline.d_f, los_world)
        if last_fix is None or t - last_fix[0] <= 1e-9:
            return traj, traj_start, cursor_min, fix
        try:
            _, t_coll, p_rel = forecast_target(
                ForecastInputs(
                    d0=last_fix[1], d1=fix[1],
                    los0=last_fix[2], los1=fix[2],
                    t0=last_fix[0], t1=fix[0],
                    uav_vel=uav.pose.velocity,
                )
            )
        except NoClosingVelocityError:
            return traj, traj_start, cursor_min, fix
        if t_coll <= tcfg.dt:
            return traj, traj_start, cursor_min, fix
        p_world = uav.pose.position + p_rel
        # cap far-future collision times so segments stay bounded
        seg = gen_forecast_trajectory(start, p_world, min(t_coll, 10.0), tcfg.dt)
        last_fix = fix

    if traj is None or stitch_idx is None:
        return seg, t, 0, last_fix
    return stitch(traj, seg, stitch_idx), traj_start, cursor_min, last_fix


def _closing_along_filtered(pipeline: PerceptionPipeline, uav: UavState) -> float:
    ray = pipeline.ray_f
    if ray.norm() == 0.0:
        return 0.0
    los_world = camera_to_world(ray, uav.pose, pipeline.mount_pitch).unit()
    return closing_velocity(uav.pose.velocity, los_world)

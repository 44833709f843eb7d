import dataclasses
import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pursuitsim import engagement
from pursuitsim.config import SimConfig
from pursuitsim.engagement import (
    DirectGuide,
    FailureReason,
    HitMonitor,
    PerceptionPipeline,
    TracePoint,
    TrajectoryGuide,
    camera_view,
    run_engagement,
)
from pursuitsim.geometry import Vec3, ZERO3, camera_to_world
from pursuitsim.guidance import GuidanceCommand, GuidanceMethod
from pursuitsim.harness import ExperimentConfig, run_trial
from pursuitsim.perception import estimate_depth
from pursuitsim.targets import PathKind, StationaryPath, TargetState
from pursuitsim.vehicle import at_rest, pose_of

MOUNT_PITCH = 0.1
STATE = (0.0, 0.0, 2.0, 3.0, 0.0, 0.0, 0.0, 0.05, 0.1)  # the flat vehicle state
POSE = pose_of(STATE)
ON_AXIS = Vec3(0.0, 0.0, 1.0)


def make_guide(method: GuidanceMethod):
    if method.is_trajectory:
        return TrajectoryGuide(SimConfig(), method, MOUNT_PITCH)
    return DirectGuide(SimConfig(), method, MOUNT_PITCH, 3.0)


def see(guide, frame, pursuing=True):
    los_world = camera_to_world(frame.sample.r, POSE, MOUNT_PITCH).unit()
    guide.see(frame, los_world, POSE, pursuing)


def crossing_frames(pipeline):
    """Two frames of a target crossing left to right ahead of the vehicle."""
    return [pipeline.observe(i / 30.0, TargetState(Vec3(12.0, 1.5 - 0.3 * i, 2.5), 0.5), POSE)
            for i in range(2)]


class TestPerceptionPerMethod:
    @pytest.mark.parametrize("method", list(GuidanceMethod))
    def test_depth_is_estimated_only_for_forecast_traj(self, monkeypatch, method):
        calls = []
        real = engagement.estimate_depth

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(engagement, "estimate_depth", counted)
        sim = SimConfig()
        sim.rules = dataclasses.replace(sim.rules, pursuit_timeout=1.0)
        res = run_engagement(method, 3.0, StationaryPath(Vec3(15.0, 0.0, 0.0), 0.5), sim)
        assert res.phi_dot_handoff != 0.0  # the target was in view
        if method == GuidanceMethod.FORECAST_TRAJ:
            assert calls
        else:
            assert not calls

    @pytest.mark.parametrize("method", list(GuidanceMethod))
    def test_frame_depth_equals_direct_estimate(self, method):
        # whatever the method's guide reads of the frame, its depth is the
        # direct estimate, and the forecast guide's range filter starts there
        pipeline = PerceptionPipeline(SimConfig(), MOUNT_PITCH, 1.0)
        target = TargetState(Vec3(12.0, 1.5, 2.5), 0.5)
        frame = pipeline.observe(0.0, target, POSE)
        guide = make_guide(method)
        see(guide, frame)
        seg, det = camera_view(target, POSE, MOUNT_PITCH, pipeline.k)
        direct = estimate_depth(seg, det, pipeline.k, 1.0)
        assert frame.detected and direct.valid
        assert (frame.d_center, frame.depth_valid) == (direct.d_center, direct.valid)
        if method == GuidanceMethod.FORECAST_TRAJ:
            assert guide.d_f == direct.d_center

    def test_undetected_frame_has_no_depth(self):
        pipeline = PerceptionPipeline(SimConfig(), MOUNT_PITCH, 1.0)
        frame = pipeline.observe(0.0, TargetState(Vec3(-12.0, 0.0, 2.0), 0.5), POSE)
        assert not frame.detected
        assert (frame.d_center, frame.depth_valid) == (0.0, False)


class TestDirectGuide:
    def test_frames_before_handoff_leave_the_command_at_zero(self):
        frames = crossing_frames(PerceptionPipeline(SimConfig(), MOUNT_PITCH, 1.0))
        assert frames[1].sample.valid_rate and frames[1].sample.phi_dot != 0.0
        guide = make_guide(GuidanceMethod.TPN)
        for frame in frames:
            see(guide, frame, pursuing=False)
        assert guide.command == GuidanceCommand.zero()
        see(guide, frames[1])
        assert guide.command.accel_body.norm() > 0.0


class TestTrajectoryGuide:
    def test_smooths_frames_before_handoff(self):
        frames = crossing_frames(PerceptionPipeline(SimConfig(), MOUNT_PITCH, 1.0))
        guide = make_guide(GuidanceMethod.LOS_TRAJ)
        for frame in frames:
            see(guide, frame, pursuing=False)
        r0, r1 = frames[0].sample.r, frames[1].sample.r
        assert guide.ray_f == Vec3((r0.x + r1.x) / 2.0, (r0.y + r1.y) / 2.0, 1.0)
        assert guide.phi_f == frames[1].sample.phi_dot

    @pytest.mark.parametrize("cause", ["no-closing-velocity", "collision-within-dt"])
    def test_rejected_forecast_still_becomes_the_reference_fix(self, monkeypatch, cause):
        guide = make_guide(GuidanceMethod.FORECAST_TRAJ)
        guide.ray_f, guide.d_f = ON_AXIS, 10.0
        guide.replan(0, 0.0, STATE, fresh=True)  # the first fix has nothing to pair with
        assert guide.track is None and guide.last_fix[:2] == (0.0, 10.0)

        if cause == "no-closing-velocity":
            uav, guide.d_f = STATE[:3] + (0.0, 0.0, 0.0) + STATE[6:], 9.0
        else:  # 1 cm away at about 3 m/s
            uav, guide.d_f = STATE, 0.01
        guide.replan(20, 0.1, uav, fresh=True)
        assert guide.track is None and guide.last_fix[:2] == (0.1, guide.d_f)

        forecasts = []
        real = engagement.forecast_target

        def spy(d0, d1, los0, los1, t0, t1, uav_vel):
            forecasts.append((t0, d0, t1, d1))
            return real(d0, d1, los0, los1, t0, t1, uav_vel)

        monkeypatch.setattr(engagement, "forecast_target", spy)
        rejected_d, guide.d_f = guide.d_f, 9.4
        guide.replan(40, 0.2, STATE, fresh=True)
        assert guide.track is not None
        assert forecasts == [(0.1, rejected_d, 0.2, 9.4)]

    def test_plan_is_held_without_a_fresh_detection_but_the_mark_advances(self):
        guide = make_guide(GuidanceMethod.LOS_TRAJ)
        guide.ray_f, guide.n_f, guide.phi_f = ON_AXIS, Vec3(1.0, 0.0, 0.0), 0.2
        guide.replan(0, 0.0, STATE, fresh=True)
        plan = guide.track.plan
        assert plan is not None and guide.mark == 0
        guide.replan(20, 0.1, STATE, fresh=False)
        assert guide.track.plan is plan and guide.mark == 1
        # a detection later in the same replan period waits for the next one
        guide.replan(21, 0.105, STATE, fresh=True)
        assert guide.track.plan is plan
        guide.replan(40, 0.2, STATE, fresh=True)
        assert guide.track.plan is not plan and guide.mark == 2


class TestCrashRule:
    """TPN at 3 m/s on a stationary target 10 m ahead: its take-off exceeds a
    0.05 g crash limit from the first step."""

    @pytest.mark.parametrize("rules, outcome", [
        ({"crash_accel_g": 0.05, "crash_sustain": 0.1}, (False, FailureReason.CRASH, 0.1)),
        ({"crash_accel_g": 0.05, "crash_sustain": 0.0}, (False, FailureReason.CRASH, 0.005)),
        ({}, (True, None, 3.45)),
    ], ids=["sustained-over-limit", "any-step-over-limit", "defaults"])
    def test_outcome(self, rules, outcome):
        sim = SimConfig()
        sim.rules = dataclasses.replace(sim.rules, **rules)
        res = run_engagement(GuidanceMethod.TPN, 3.0, StationaryPath(Vec3(10.0, 0.0, 0.0), 0.5), sim)
        assert (res.hit, res.failure_reason, res.end_time) == outcome

    def test_non_finite_state_is_a_crash(self):
        monitor = HitMonitor(SimConfig().rules, ZERO3, 2.0)
        state = at_rest(Vec3(float("nan"), 0.0, 0.0))
        result = monitor.crashed(0.005, state, at_rest(ZERO3), 0.005)
        assert (result.hit, result.failure_reason, result.end_time) == (False, FailureReason.CRASH, 0.005)
        assert monitor.crashed(0.005, STATE, STATE, 0.005) is None

    def test_acceleration_is_the_step_from_the_velocity_before(self):
        sim = SimConfig()
        monitor = HitMonitor(dataclasses.replace(sim.rules, crash_sustain=0.0), ZERO3, 2.0)
        # 3 m/s in one 5 ms step is 600 m/s^2, over the default 10 g
        assert monitor.crashed(0.005, STATE, STATE, 0.005) is None
        result = monitor.crashed(0.005, STATE, at_rest(ZERO3), 0.005)
        assert (result.hit, result.failure_reason) == (False, FailureReason.CRASH)


coords = st.floats(-1e3, 1e3)
points = st.builds(Vec3, coords, coords, coords)


@settings(max_examples=300, deadline=None)
@given(points, points, st.floats(0.01, 5.0))
def test_monitor_surface_distance_is_the_trace_points(uav, target, radius):
    point = TracePoint(2.5, uav, target, radius, True)
    monitor = HitMonitor(SimConfig().rules, ZERO3, 2.0)
    monitor.update(2.5, *uav, *target, radius, True)
    assert monitor.min_miss == point.surface_dist


def test_perfbench_tracer_wraps_the_engagement():
    """perfbench's tracer wraps engagement names by attribute; a renamed or
    moved name fails here, not only in the traced benchmark."""
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
    try:
        import tracer
    finally:
        sys.path.pop(0)
    sim = SimConfig()
    sim.rules = dataclasses.replace(sim.rules, pursuit_timeout=1.0)
    trials = [ExperimentConfig(GuidanceMethod.TPN, 3.0, PathKind.STRAIGHT, 0.5),
              ExperimentConfig(GuidanceMethod.LOS_TRAJ, 3.0, PathKind.STRAIGHT, 0.5),
              ExperimentConfig(GuidanceMethod.TPN, 3.0, PathKind.STRAIGHT, 0.5, ideal_dynamics=True)]
    spans = tracer.Tracer()
    spans.install()
    try:
        for cfg in trials:
            run_trial(cfg, 1, sim)
    finally:
        spans.uninstall()
    calls = spans.aggregates()["calls"]
    for name in ("engagement.run", "perception.render", "perception.observe", "trajectory.cursor",
                 "trajectory.replan", "vehicle.dynamics", "vehicle.control", "engagement.monitor"):
        assert calls.get(name, 0) > 0, name

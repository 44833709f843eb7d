import copy
import dataclasses
import math
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
    Flight,
    HitMonitor,
    PerceptionPipeline,
    TracePoint,
    TrajectoryGuide,
    camera_view,
    largest_blob,
    run_engagement,
)
from pursuitsim.geometry import CAMERA, CameraIntrinsics, Pose, Vec3, ZERO3, camera_to_world
from pursuitsim.guidance import GuidanceCommand, GuidanceMethod
from pursuitsim.harness import ExperimentConfig, run_trial, trial_seed
from pursuitsim.mission import ValidityGate, validate_detection
from pursuitsim.perception import estimate_depth
from pursuitsim.targets import PathKind, StationaryPath, TargetPathSpec, TargetState, build_path
from pursuitsim.vehicle import at_rest

MOUNT_PITCH = 0.1
POSE = Pose(0.0, 0.0, 2.0, 3.0, 0.0, 0.0, 0.0, 0.05, 0.1)
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
        pipeline = PerceptionPipeline(MOUNT_PITCH, 1.0)
        target = TargetState(Vec3(12.0, 1.5, 2.5), 0.5)
        frame = pipeline.observe(0.0, target, POSE)
        guide = make_guide(method)
        see(guide, frame)
        seg, det = camera_view(target, POSE, MOUNT_PITCH, pipeline.k)
        direct = estimate_depth(seg, det, pipeline.k, 1.0)
        assert frame.detected and direct is not None
        assert (frame.d_center, frame.depth_valid) == (direct, True)
        if method == GuidanceMethod.FORECAST_TRAJ:
            assert guide.d_f == direct

    def test_undetected_frame_has_no_depth(self):
        pipeline = PerceptionPipeline(MOUNT_PITCH, 1.0)
        frame = pipeline.observe(0.0, TargetState(Vec3(-12.0, 0.0, 2.0), 0.5), POSE)
        assert not frame.detected
        assert (frame.d_center, frame.depth_valid) == (0.0, False)


def exhaustive_blob(targets, pose, mount_pitch, k, bias_pitch=0.0, bias_yaw=0.0):
    """`camera_view` on every target, keeping the first with the most pixels."""
    best = None
    for target in targets:
        _, det = camera_view(target, pose, mount_pitch, k, bias_pitch, bias_yaw)
        if det is not None and (best is None or det.pixel_count > best.pixel_count):
            best = det
    return best


def _window_area(seg):
    u0, v0, u1, v1 = seg.window
    return (u1 - u0) * (v1 - v0)


def _frame_area(k):
    return float(k.width * k.height)


def _passes_area_gate(det, k, fraction):
    return validate_detection(det, ValidityGate(min_bbox_area_fraction=fraction), k.width, k.height, task=1)


SMALL_CAMERA = CameraIntrinsics.from_hfov(math.radians(90.0), 64, 48)
LEVEL = Pose(0.0, 0.0, 2.0, *ZERO3, 0.0, 0.0, 0.0)  # camera along world +x at zero mount pitch
_angles = st.floats(-0.6, 0.6)


@st.composite
def _frames(draw):
    """A pose, a camera, up to six targets around the vehicle (some copies of
    an earlier one, whose blobs tie) and the mount and fault angles."""
    pose = Pose(*draw(st.tuples(*[st.floats(-5.0, 5.0)] * 3)), *ZERO3,
                draw(_angles), draw(_angles), draw(st.floats(-math.pi, math.pi)))
    targets = []
    for _ in range(draw(st.integers(0, 6))):
        if targets and draw(st.booleans()):
            targets.append(draw(st.sampled_from(targets)))
            continue
        offset = Vec3(*draw(st.tuples(st.floats(-12.0, 12.0), st.floats(-12.0, 12.0), st.floats(-4.0, 4.0))))
        targets.append(TargetState(pose.position + offset, draw(st.floats(0.05, 1.5))))
    bias = st.just(0.0) | st.floats(-0.7, 0.7)
    k = draw(st.sampled_from([CAMERA, SMALL_CAMERA]))
    return targets, pose, draw(_angles), k, draw(bias), draw(bias)


class TestLargestBlob:
    @settings(deadline=None)
    @given(_frames())
    def test_equals_the_exhaustive_search(self, frame):
        assert largest_blob(*frame) == exhaustive_blob(*frame)

    def test_mirrored_tie_goes_to_the_first_target(self):
        # mirrored about the optical axis, the two blobs have the same pixel
        # count; the left one's window is a column wider, so it renders first
        right, left = TargetState(Vec3(3.0, -3.075, 2.0), 0.5), TargetState(Vec3(3.0, 3.075, 2.0), 0.5)
        (seg_r, det_r), (seg_l, det_l) = (camera_view(t, LEVEL, 0.0, CAMERA) for t in (right, left))
        assert det_r.pixel_count == det_l.pixel_count and det_r != det_l
        assert _window_area(seg_r) < _window_area(seg_l)
        for targets, first in (([right, left], det_r), ([left, right], det_l)):
            assert largest_blob(targets, LEVEL, 0.0, CAMERA) == first
            assert exhaustive_blob(targets, LEVEL, 0.0, CAMERA) == first

    def test_behind_off_frame_and_outbid_targets_are_not_rendered(self, monkeypatch):
        renders = []
        real = engagement.render_sphere

        def counted(*args):
            renders.append(args[0])
            return real(*args)

        near, far = TargetState(Vec3(6.0, 0.0, 2.0), 0.5), TargetState(Vec3(20.0, 1.0, 2.0), 0.3)
        behind, beside = TargetState(Vec3(-6.0, 0.0, 2.0), 0.5), TargetState(Vec3(1.0, 15.0, 2.0), 0.5)
        targets = [behind, far, beside, near]
        assert [camera_view(t, LEVEL, 0.0, CAMERA)[1] is None for t in targets] == [True, False, True, False]
        expected = exhaustive_blob(targets, LEVEL, 0.0, CAMERA)
        monkeypatch.setattr(engagement, "render_sphere", counted)
        assert largest_blob(targets, LEVEL, 0.0, CAMERA) == expected
        assert renders == [Vec3(0.0, 0.0, 6.0)]  # near's camera-frame centre

    def test_camera_inside_a_target_sees_the_full_frame(self):
        inside = TargetState(Vec3(0.2, 0.1, 2.0), 0.5)
        ahead = TargetState(Vec3(1.5, 0.0, 2.0), 1.0)  # fills the frame from outside
        for targets in ([ahead, inside], [inside, ahead], [TargetState(Vec3(8.0, 0.0, 2.0), 0.5), inside]):
            det = largest_blob(targets, LEVEL, 0.0, CAMERA)
            assert det == exhaustive_blob(targets, LEVEL, 0.0, CAMERA)
            assert det.pixel_count == CAMERA.width * CAMERA.height

    @settings(deadline=None)
    @given(_frames(), st.floats(0.0, 0.01))
    def test_area_floor_drops_only_frames_the_gate_rejects(self, frame, fraction):
        k = frame[3]
        floorless, floored = largest_blob(*frame), largest_blob(*frame, fraction)
        if floored is None:
            assert floorless is None or not _passes_area_gate(floorless, k, fraction)
        else:
            assert floored == floorless

    def test_frame_below_the_area_floor_is_not_rendered(self, monkeypatch):
        renders = []
        real = engagement.render_sphere

        def counted(*args):
            renders.append(args[0])
            return real(*args)

        targets = [TargetState(Vec3(30.0, 0.0, 2.0), 0.3), TargetState(Vec3(40.0, 2.0, 2.5), 0.3)]
        expected = exhaustive_blob(targets, LEVEL, 0.0, CAMERA)
        top = max(_window_area(camera_view(t, LEVEL, 0.0, CAMERA)[0]) for t in targets) / _frame_area(CAMERA)
        monkeypatch.setattr(engagement, "render_sphere", counted)
        # at the largest window's share nothing can pass; just below it, the search is unchanged
        assert largest_blob(targets, LEVEL, 0.0, CAMERA, 0.0, 0.0, top) is None
        assert renders == []
        assert largest_blob(targets, LEVEL, 0.0, CAMERA, 0.0, 0.0, math.nextafter(top, 0.0)) == expected
        assert expected is not None and len(renders) > 0

    def test_a_window_under_the_floor_can_hold_the_largest_blob(self):
        # the blob clipped by the frame's right edge has the smaller window but more pixels
        clipped, whole = TargetState(Vec3(6.0, -7.0, 2.0), 0.5), TargetState(Vec3(5.0, -1.0, 1.0), 0.5)
        (seg_c, det_c), (seg_w, det_w) = (camera_view(t, LEVEL, 0.0, CAMERA) for t in (clipped, whole))
        assert _window_area(seg_c) < _window_area(seg_w) and det_c.pixel_count > det_w.pixel_count
        floor = _window_area(seg_c) / _frame_area(CAMERA)
        assert largest_blob([clipped, whole], LEVEL, 0.0, CAMERA, 0.0, 0.0, floor) == det_c

    @pytest.mark.parametrize("bias_pitch", [0.0, 0.1])
    def test_yaw_fault(self, bias_pitch):
        targets = [TargetState(Vec3(9.0, y, 2.0), 0.5) for y in (-4.0, -1.0, 2.0, 5.0)]
        bias_yaw = math.radians(30.0)
        det = largest_blob(targets, LEVEL, 0.05, CAMERA, bias_pitch, bias_yaw)
        assert det is not None and det != largest_blob(targets, LEVEL, 0.05, CAMERA, bias_pitch)
        assert det == exhaustive_blob(targets, LEVEL, 0.05, CAMERA, bias_pitch, bias_yaw)


class TestDirectGuide:
    def test_frames_before_handoff_leave_the_command_at_zero(self):
        frames = crossing_frames(PerceptionPipeline(MOUNT_PITCH, 1.0))
        assert frames[1].sample.valid_rate and frames[1].sample.phi_dot != 0.0
        guide = make_guide(GuidanceMethod.TPN)
        for frame in frames:
            see(guide, frame, pursuing=False)
        assert guide.command == GuidanceCommand(ZERO3, 0.0)
        see(guide, frames[1])
        assert guide.command.accel_body.norm() > 0.0


class TestTrajectoryGuide:
    def test_smooths_frames_before_handoff(self):
        frames = crossing_frames(PerceptionPipeline(MOUNT_PITCH, 1.0))
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
        guide.replan(0, 0.0, POSE, fresh=True)  # the first fix has nothing to pair with
        assert guide.track is None and guide.last_fix[:2] == (0.0, 10.0)

        if cause == "no-closing-velocity":
            uav, guide.d_f = POSE._replace(vx=0.0), 9.0
        else:  # 1 cm away at about 3 m/s
            uav, guide.d_f = POSE, 0.01
        guide.replan(20, 0.1, uav, fresh=True)
        assert guide.track is None and guide.last_fix[:2] == (0.1, guide.d_f)

        forecasts = []
        real = engagement.forecast_target

        def spy(d0, d1, los0, los1, t0, t1, uav_vel):
            forecasts.append((t0, d0, t1, d1))
            return real(d0, d1, los0, los1, t0, t1, uav_vel)

        monkeypatch.setattr(engagement, "forecast_target", spy)
        rejected_d, guide.d_f = guide.d_f, 9.4
        guide.replan(40, 0.2, POSE, fresh=True)
        assert guide.track is not None
        assert forecasts == [(0.1, rejected_d, 0.2, 9.4)]

    def test_plan_is_held_without_a_fresh_detection_but_the_mark_advances(self):
        guide = make_guide(GuidanceMethod.LOS_TRAJ)
        guide.ray_f, guide.n_f, guide.phi_f = ON_AXIS, Vec3(1.0, 0.0, 0.0), 0.2
        guide.replan(0, 0.0, POSE, fresh=True)
        plan = guide.track.plan
        assert plan is not None and guide.mark == 0
        guide.replan(20, 0.1, POSE, fresh=False)
        assert guide.track.plan is plan and guide.mark == 1
        # a detection later in the same replan period waits for the next one
        guide.replan(21, 0.105, POSE, fresh=True)
        assert guide.track.plan is plan
        guide.replan(40, 0.2, POSE, fresh=True)
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
        assert monitor.crashed(0.005, POSE, POSE, 0.005) is None

    def test_acceleration_is_the_step_from_the_velocity_before(self):
        sim = SimConfig()
        monitor = HitMonitor(dataclasses.replace(sim.rules, crash_sustain=0.0), ZERO3, 2.0)
        # 3 m/s in one 5 ms step is 600 m/s^2, over the default 10 g
        assert monitor.crashed(0.005, POSE, POSE, 0.005) is None
        result = monitor.crashed(0.005, POSE, at_rest(ZERO3), 0.005)
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


def _finish(flight, ticks):
    """`run_engagement`'s loop from wherever `flight` stands: the judged
    result with the trace, and the LOS-rate record the summary reads, as
    they are when the trial ends."""
    for k, t, perception_due, control_due in ticks:
        flight.tick(k, t, perception_due, control_due)
        result = flight.step(k)
        if result is not None:
            break
    else:
        result = flight.monitor.timeout()
    return dataclasses.replace(result, trace=list(flight.trace)), flight.phi_handoff, list(flight.phi_log)


@pytest.mark.parametrize("ideal", [False, True], ids=["dynamics", "ideal-dynamics"])
@pytest.mark.parametrize("method", list(GuidanceMethod), ids=lambda m: m.value)
def test_flight_copied_at_handoff_finishes_as_the_original(method, ideal):
    """A `Flight` holds all of a trial's state: a deep copy taken after the
    handoff tick ends exactly as the original, and both end as
    `run_engagement` does, although before each finishes another trial runs
    that never sees its target."""
    sim = SimConfig()
    cfg = ExperimentConfig(method, 3.0, PathKind.KNOT, 0.5, ideal_dynamics=ideal)
    behind = StationaryPath(Vec3(-10.0, 0.0, 0.0), 0.5)
    for index in (0, 1):
        seed = trial_seed(1, cfg, index)
        path = build_path(TargetPathSpec(cfg.path_kind, cfg.target_fraction * cfg.uav_speed, seed=seed))
        whole = run_engagement(method, cfg.uav_speed, path, sim, ideal, record_trace=True)
        flight = Flight(method, cfg.uav_speed, path, sim, ideal, record_trace=True)
        ticks = sim.rates.ticks(flight.horizon)
        for k, t, perception_due, control_due in ticks:
            flight.tick(k, t, perception_due, control_due)
            assert flight.step(k) is None, "the trial must outlast the handoff tick"
            if t >= flight.handoff:
                break
        copied = copy.deepcopy(flight)
        rest = list(ticks)
        ends = []
        for f in (copied, flight):
            assert run_engagement(method, cfg.uav_speed, behind, sim, ideal).failure_reason == FailureReason.FOV_LOSS
            ends.append(_finish(f, rest))
        assert ends[0] == ends[1]
        result, phi_handoff, _ = ends[1]
        assert whole.phi_dot_handoff == (0.0 if phi_handoff is None else phi_handoff)
        assert dataclasses.replace(whole, phi_dot_handoff=0.0, phi_dot_final=0.0) == result

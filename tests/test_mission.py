import hashlib
import importlib.util
import io
import json
import math
import os
import sys

import pytest

from pursuitsim import mission
from pursuitsim.config import SimConfig
from pursuitsim.geometry import Vec3, ZERO3
from pursuitsim.mission import (
    BALL_SLOW_AFTER,
    BALL_SLOW_SPEED,
    Arena,
    BalloonSpec,
    BalloonTask,
    BallPath,
    BallSpec,
    FaultSpec,
    MissionMode,
    MissionParams,
    MissionSimulator,
    MissionState,
    Scenario,
    ValidityGate,
    lawnmower_legs,
    lawnmower_plan,
    load_scenario,
    los_angles,
    recovery_stitch,
    run_mission,
    square_search_plan,
    task1_step,
    task2_step,
    validate_detection,
)
from pursuitsim.perception import Detection
from pursuitsim.vehicle import at_rest


SIM = SimConfig()


class TestLawnmower:
    def test_leg_count_for_tuned_sweep(self):
        legs = lawnmower_legs(Arena(), 6.0)
        assert len(legs) == math.ceil(40 / 6) == 7

    def test_all_waypoints_at_altitude(self):
        plan = lawnmower_plan(Arena(), 6.0, 2.4, 2.0)
        cruise = [wp for wp in plan.waypoints if abs(wp.position.z - 2.4) < 1e-9]
        # everything except takeoff/landing endpoints flies the set altitude
        assert len(cruise) >= len(plan.waypoints) - 2

    def test_coverage(self):
        # every arena point must lie within half a sweep of some leg offset
        arena = Arena()
        sweep = 6.0
        legs = lawnmower_legs(arena, sweep)
        for i in range(401):
            y = arena.width * i / 400
            assert min(abs(y - leg) for leg in legs) <= sweep / 2 + 1e-9

    def test_reverse_pass_is_shifted(self):
        plan = lawnmower_plan(Arena(), 6.0, 2.4, 2.0)
        ys = {round(wp.position.y, 6) for wp in plan.waypoints}
        legs = lawnmower_legs(Arena(), 6.0)
        for leg in legs:
            assert round(leg, 6) in ys
            if leg + 3.0 <= 40.0:
                assert round(leg + 3.0, 6) in ys

    def test_degenerate_single_leg(self):
        legs = lawnmower_legs(Arena(), 40.0)
        assert len(legs) == 1

    def test_invalid_sweep(self):
        # checked once, at load: the planner trusts a validated scenario
        for sweep_width in (0.0, 40.5):
            with pytest.raises(ValueError, match="sweep width"):
                Scenario(task=1, sweep_width=sweep_width).validate()


class TestSquareSearch:
    def test_constant_altitude_and_yaw(self):
        plan = square_search_plan(Arena(), 11.0, 1.0)
        for wp in plan.waypoints:
            assert wp.position.z == 11.0
            assert wp.yaw == 0.0

    def test_centered_and_closed(self):
        arena = Arena()
        plan = square_search_plan(arena, 11.0, 1.0, side=12.0)
        xs = [wp.position.x for wp in plan.waypoints]
        ys = [wp.position.y for wp in plan.waypoints]
        assert abs((max(xs) + min(xs)) / 2 - arena.center.x) < 1e-6
        assert abs((max(ys) + min(ys)) / 2 - arena.center.y) < 1e-6
        first, last = plan.waypoints[0], plan.waypoints[-1]
        assert (first.position - last.position).norm() < 1e-9

    def test_must_clear_ceiling(self):
        # checked once, at load: the planner trusts a validated scenario
        ball = BallSpec(center=Vec3(50.0, 20.0, 12.5))
        with pytest.raises(ValueError, match="clear the Task 1 ceiling"):
            Scenario(task=2, arena=Arena(ceiling=5.0), ball=ball, square_altitude=4.0).validate()

    def test_side_up_to_the_arena_width_loads(self):
        ball = BallSpec(center=Vec3(50.0, 20.0, 12.5))
        Scenario(task=2, arena=Arena(width=40.0), ball=ball, square_side=40.0).validate()
        with pytest.raises(ValueError, match="fit in the arena"):
            Scenario(task=2, arena=Arena(width=40.0), ball=ball, square_side=math.nextafter(40.0, 41.0)).validate()


class TestValidityGate:
    def make_det(self, bbox, centroid):
        return Detection(centroid=centroid, pixel_count=10, bbox=bbox)

    def test_area_rule(self):
        gate = ValidityGate(min_bbox_area_fraction=0.01)
        det = self.make_det((0, 0, 59, 59), (30.0, 30.0))  # 60x60 on 680x480
        assert 3600 / (680 * 480) > 0.01
        assert validate_detection(det, gate, 680, 480, task=1)

    def test_bottom_exclusion_for_task2(self):
        gate = ValidityGate(min_bbox_area_fraction=0.0)
        det = self.make_det((0, 0, 99, 99), (50.0, 0.85 * 480))
        assert not validate_detection(det, gate, 680, 480, task=2)
        assert validate_detection(det, gate, 680, 480, task=1)

    def test_exact_threshold_rejected(self):
        frac = 3600 / (680.0 * 480.0)
        gate = ValidityGate(min_bbox_area_fraction=frac)
        det = self.make_det((0, 0, 59, 59), (30.0, 30.0))
        assert not validate_detection(det, gate, 680, 480, task=1)


class TestRecoveryStitch:
    def plan(self):
        return lawnmower_plan(Arena(), 6.0, 2.4, 2.0)

    def test_climb_leg_height(self):
        plan = self.plan()
        current = Vec3(30.0, 3.0, 1.8)
        stitched, n_rec = recovery_stitch(current, Vec3(25.0, 3.0, 2.4), plan, 40, 2.0)
        climb = stitched.waypoints[1].position - stitched.waypoints[0].position
        assert abs(climb.z - 1.5) < 1e-12
        assert climb.x == 0.0 and climb.y == 0.0

    def test_degenerate_current_at_pause_point(self):
        plan = self.plan()
        p = Vec3(25.0, 3.0, 2.4)
        stitched, _ = recovery_stitch(p, p, plan, 40, 2.0)
        assert (stitched.waypoints[0].position - p).norm() < 1e-12
        assert abs(stitched.waypoints[1].position.z - (p.z + 1.5)) < 1e-12
        assert (stitched.waypoints[2].position - p).norm() < 1e-12

    def test_resumes_from_pause_index(self):
        plan = self.plan()
        idx = 37
        stitched, n_rec = recovery_stitch(Vec3(30, 3, 2.0), Vec3(25, 3, 2.4), plan, idx, 2.0)
        assert stitched.waypoints[n_rec].position == plan.waypoints[idx].position
        assert stitched.waypoints[-1].position == plan.waypoints[-1].position


class TestTask1StateMachine:
    def params(self):
        return MissionParams()

    def level_los(self, up_deg, horiz_deg):
        up = math.radians(up_deg)
        horiz = math.radians(horiz_deg)
        return Vec3(
            math.cos(up) * math.cos(horiz), math.cos(up) * math.sin(horiz), math.sin(up)
        )

    def test_converged_angles_trigger_attack(self):
        state = MissionState(mode=MissionMode.ADJUST)
        state.last_seen = 0.0
        los = self.level_los(13.0, 2.0)  # within 5 deg of the 10 deg target, horiz ok
        task1_step(state, los, at_rest(ZERO3), self.params(), 1.0)
        assert state.mode == MissionMode.ATTACK

    def test_large_horizontal_angle_keeps_adjusting(self):
        state = MissionState(mode=MissionMode.ADJUST)
        state.last_seen = 0.0
        cmd = task1_step(state, self.level_los(10.0, 20.0), at_rest(ZERO3), self.params(), 1.0)
        assert state.mode == MissionMode.ADJUST
        assert cmd.yaw_rate > 0.0  # target to the left -> yaw left

    def test_descends_when_target_appears_too_low(self):
        state = MissionState(mode=MissionMode.ADJUST)
        state.last_seen = 0.0
        cmd = task1_step(state, self.level_los(0.0, 0.0), at_rest(ZERO3), self.params(), 1.0)
        assert cmd.velocity_world.z < 0.0
        assert cmd.velocity_world.x == 0.0 and cmd.velocity_world.y == 0.0

    def test_lost_sight_beyond_timeout_recovers_without_attack(self):
        p = self.params()
        state = MissionState(mode=MissionMode.ADJUST)
        state.last_seen = 0.0
        task1_step(state, None, at_rest(ZERO3), p, p.adjust_timeout + 0.5)
        assert state.mode == MissionMode.RECOVER

    def test_attack_flies_the_los_then_times_out(self):
        p = self.params()
        state = MissionState(mode=MissionMode.ATTACK, mode_entered=0.0)
        state.last_seen = 0.0
        state.last_los_world = Vec3(1.0, 0.0, 0.2).unit()
        cmd = task1_step(state, None, at_rest(ZERO3), p, 0.5)
        assert abs(cmd.velocity_world.norm() - p.attack_speed) < 1e-9
        task1_step(state, None, at_rest(ZERO3), p, p.hold_after_loss + 0.6)
        assert state.mode == MissionMode.RECOVER


class TestTask2StateMachine:
    def test_forward_component_is_zero(self):
        state = MissionState(mode=MissionMode.ADJUST)
        state.last_seen = 0.0
        los = Vec3(1.0, 0.2, 0.1).unit()
        cmd = task2_step(state, los, at_rest(ZERO3), MissionParams(), 0.0)
        assert abs(cmd.velocity_world.x) < 1e-12
        assert cmd.velocity_world.y > 0.0 and cmd.velocity_world.z > 0.0

    def test_loss_enters_wait_then_resumes_on_redetect(self):
        p = MissionParams()
        state = MissionState(mode=MissionMode.ADJUST)
        state.last_seen = 0.0
        task2_step(state, None, at_rest(ZERO3), p, 1.0)
        assert state.mode == MissionMode.WAIT
        # re-detection at 30 s resumes alignment, resetting the wait clock
        task2_step(state, Vec3(1, 0, 0), at_rest(ZERO3), p, 30.0)
        assert state.mode == MissionMode.ADJUST

    def test_wait_timeout_returns_to_global_plan(self):
        p = MissionParams()
        state = MissionState(mode=MissionMode.WAIT, mode_entered=0.0)
        task2_step(state, None, at_rest(ZERO3), p, p.wait_timeout + 1.0)
        assert state.mode == MissionMode.GLOBAL_PLAN


class TestLosAngles:
    def test_level_forward(self):
        up, horiz = los_angles(Vec3(1.0, 0.0, 0.0))
        assert up == 0.0 and horiz == 0.0

    def test_up_and_left(self):
        up, horiz = los_angles(Vec3(1.0, 1.0, math.sqrt(2.0)))
        assert abs(up - math.pi / 4) < 1e-12
        assert abs(horiz - math.pi / 4) < 1e-12


class TestScenarioFile:
    def test_round_trip(self, tmp_path):
        data = {
            "task": 1,
            "arena": {"length": 60.0, "width": 30.0, "ceiling": 5.0},
            "balloons": [{"anchor": [20.0, 3.0, 2.2]}, {"anchor": [40.0, 9.0, 1.8], "radius": 0.25}],
            "faults": [{"kind": "gimbal_offset", "yaw_deg": 35.0}],
            "search": {"sweep_width": 6.0, "altitude": 2.4, "speed": 2.0},
            "gate": {"min_bbox_area_fraction": 0.004},
            "params": {"attack_speed": 2.5},
            "duration": 30.0,
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        sc = load_scenario(str(path))
        assert sc.task == 1
        assert sc.arena.length == 60.0
        assert len(sc.balloons) == 2
        assert sc.balloons[1].radius == 0.25
        assert sc.faults[0].yaw_deg == 35.0
        assert sc.params.attack_speed == 2.5
        assert sc.sweep_width == 6.0


class TestClosedLoopMission:
    def test_task1_identify_adjust_attack_pop(self):
        sc = Scenario(
            task=1, arena=Arena(),
            balloons=[BalloonSpec(anchor=Vec3(25.0, 3.0, 2.2))],
            duration=45.0,
        )
        res = run_mission(sc, SIM)
        assert res.pops == 1
        assert res.misses == 0
        kinds = [ev.event for ev in res.events]
        assert "registered" in kinds and "pop" in kinds
        modes = [(ev.data.get("from"), ev.data.get("to")) for ev in res.events if ev.event == "mode"]
        assert ("global_plan", "adjust") in modes
        assert ("adjust", "attack") in modes
        assert ("attack", "recover") in modes

    def test_event_log_jsonl(self):
        sc = Scenario(
            task=1, arena=Arena(),
            balloons=[BalloonSpec(anchor=Vec3(25.0, 3.0, 2.2))],
            duration=30.0,
        )
        res = run_mission(sc, SIM)
        buf = io.StringIO()
        res.write_events_jsonl(buf)
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == len(res.events)
        for line in lines:
            record = json.loads(line)
            assert "t" in record and "event" in record

    def test_camera_latency_delays_registration(self):
        def run(faults):
            sc = Scenario(
                task=1, arena=Arena(length=30.0),
                balloons=[BalloonSpec(anchor=Vec3(33.0, 6.0, 2.4))],
                faults=faults,
                params=MissionParams(adjust_timeout=2.0),
                duration=25.0,
            )
            return run_mission(sc, SIM)

        clean = run([])
        delayed = run([FaultSpec(kind="camera_latency", delay=0.1)])
        t_clean = next(ev.t for ev in clean.events if ev.event == "registered")
        t_delayed = next(ev.t for ev in delayed.events if ev.event == "registered")
        assert t_delayed >= t_clean + 0.08
        # registered mid-turn with a tight adjust budget: the first attempt
        # recovers without ever reaching Attack
        modes = [(ev.data.get("from"), ev.data.get("to")) for ev in delayed.events if ev.event == "mode"]
        first_adjust_exit = next(m for m in modes if m[0] == "adjust")
        assert first_adjust_exit == ("adjust", "recover")

    def test_downdraft_fault_displaces_balloon(self):
        """The take-off climbs past a low balloon next to the start point: the
        downdraft kicks it once, and both balloons still pop."""
        res = run_mission(_golden_scenarios()["downdraft_kick"], SIM)
        kicks = [(round(ev.t, 3), ev.data) for ev in res.events if ev.event == "downdraft"]
        assert kicks == [(0.26, {"balloon": 0})]
        assert res.pops == 2


def _task1(balloons, faults=()) -> BalloonTask:
    sc = Scenario(task=1, arena=Arena(), balloons=balloons, faults=list(faults))
    return BalloonTask(MissionSimulator(sc, SIM))


class TestBalloonTether:
    def test_resting_balloon_stays_on_its_anchor(self):
        anchor = Vec3(25.0, 3.0, 2.2)
        task = _task1([BalloonSpec(anchor=anchor)], [FaultSpec(kind="downdraft")])
        state, uav = MissionState(), at_rest(Vec3(2.0, 2.0, 2.0))
        for k in range(2000):
            task.after_step(k * 0.005, uav, state)
            b = task.balloons[0]
            assert b.offset == ZERO3 and b.offset_vel == ZERO3 and b.position == anchor

    def test_kicked_balloon_position_follows_its_offset(self):
        anchor = Vec3(2.0, 2.8, 0.3)
        task = _task1([BalloonSpec(anchor=anchor)], [FaultSpec(kind="downdraft", impulse=2.0)])
        state, over, away = MissionState(), at_rest(Vec3(2.0, 2.0, 1.4)), at_rest(Vec3(9.0, 2.0, 1.4))
        for k in range(2000):
            task.after_step(k * 0.005, over if k == 0 else away, state)
            b = task.balloons[0]
            assert b.position == anchor + b.offset
            assert 0.0 < b.offset.norm() <= 0.5
        assert [ev.event for ev in task.mission.result.events] == ["downdraft"]


def _golden_scenarios():
    balloon = BalloonSpec(anchor=Vec3(25.0, 3.0, 2.2))
    return {
        # criterion 7
        "nominal": Scenario(task=1, arena=Arena(), balloons=[balloon], duration=45.0),
        "gimbal": Scenario(
            task=1, arena=Arena(), balloons=[balloon],
            faults=[FaultSpec(kind="gimbal_offset", yaw_deg=35.0)], duration=80.0,
        ),
        # TestClosedLoopMission
        "latency": Scenario(
            task=1, arena=Arena(length=30.0), balloons=[BalloonSpec(anchor=Vec3(33.0, 6.0, 2.4))],
            faults=[FaultSpec(kind="camera_latency", delay=0.1)],
            params=MissionParams(adjust_timeout=2.0), duration=25.0,
        ),
        "downdraft": Scenario(
            task=1, arena=Arena(), balloons=[balloon],
            faults=[FaultSpec(kind="downdraft", impulse=2.0)], duration=60.0,
        ),
        # the vehicle never flies over "downdraft"'s balloon; this low one
        # beside the start point is under the take-off climb
        "downdraft_kick": Scenario(
            task=1, arena=Arena(), balloons=[BalloonSpec(anchor=Vec3(2.0, 2.8, 0.3)), balloon],
            faults=[FaultSpec(kind="downdraft", impulse=2.0)], duration=45.0,
        ),
        # several balloons in one frame: one behind the take-off, one off the
        # frame across the arena, the rest along the first legs
        "task1_five": Scenario(
            task=1, arena=Arena(),
            balloons=[balloon, BalloonSpec(anchor=Vec3(1.0, 9.0, 2.0)), BalloonSpec(anchor=Vec3(30.0, 36.0, 1.8)),
                      BalloonSpec(anchor=Vec3(45.0, 7.5, 2.4)), BalloonSpec(anchor=Vec3(12.0, 18.0, 2.0))],
            duration=50.0,
        ),
        # the camera's pitch and yaw faults, with up to two blobs in a frame
        "gimbal_four": Scenario(
            task=1, arena=Arena(),
            balloons=[balloon, BalloonSpec(anchor=Vec3(8.0, 6.0, 2.0)), BalloonSpec(anchor=Vec3(40.0, 30.0, 1.8)),
                      BalloonSpec(anchor=Vec3(35.0, 4.5, 2.5))],
            faults=[FaultSpec(kind="gimbal_offset", yaw_deg=30.0, pitch_deg=-4.0)], duration=60.0,
        ),
        # a long search under a one-second camera latency: frames captured
        # in the search are still in the queue when the registration comes
        "latency_search": Scenario(
            task=1, arena=Arena(length=70.0, width=14.0), balloons=[BalloonSpec(anchor=Vec3(33.73, 7.66, 2.04))],
            faults=[FaultSpec(kind="camera_latency", delay=1.0)], duration=40.0,
        ),
        # criterion 8
        "task2": Scenario(
            task=2, arena=Arena(),
            ball=BallSpec(center=Vec3(70.0, 14.0, 12.5), speed=6.0, width=40.0, height=6.0,
                          phase=3 * math.pi / 2),
            gate=ValidityGate(min_bbox_area_fraction=5e-6, bottom_exclusion_fraction=0.30),
            duration=20.0, square_altitude=11.0,
        ),
    }


# (pops, misses, final mode, sha256 of the event log plus the repr of
# command_log, pops, misses, min_ball_distance and final_mode)
GOLDEN = {
    "nominal": (1, 0, "global_plan", "1dc7963b7c3965f04aac5aca71c02b9038de5b04a20d457cd26363755027e898"),
    "gimbal": (1, 1, "global_plan", "a5de0a323ca2e66fdc79b621d1080c01197c735bcd709488e228c1d2f293c3c4"),
    "latency": (0, 0, "adjust", "98196bde05681b1c97fd52559ea7e82f429623b9f9932e7adda9678b0ac9aaab"),
    "downdraft": (1, 0, "global_plan", "1dc7963b7c3965f04aac5aca71c02b9038de5b04a20d457cd26363755027e898"),
    "downdraft_kick": (2, 0, "global_plan", "f0bd0c879c2b3176f60b51a7e888cfd83f8a7154f3cd59e79a499dec7c913dd9"),
    "task1_five": (2, 0, "global_plan", "bfdac1ff4d9a77272c2a57832938c3158a95bbaa0ae7db59b18afb06d775a302"),
    "gimbal_four": (2, 1, "global_plan", "769b5889aaa98fdd58146e5d98e9355a2022249e433f9aac0f2374fd8f22e01f"),
    "latency_search": (1, 0, "global_plan", "5796d860166a0c683962f05962c12871cb632c4088817450fe810b9202a606eb"),
    "task2": (0, 0, "adjust", "b36e0480836c07cdca6a354909d7d7585a53e79e7a908f8d34df9441fbe5f332"),
}


def _digest_update(digest, res) -> None:
    buf = io.StringIO()
    res.write_events_jsonl(buf)
    digest.update(buf.getvalue().encode())
    digest.update(repr((res.command_log, res.pops, res.misses, res.min_ball_distance, res.final_mode)).encode())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_mission_output_is_pinned(name):
    """Every output of nine fixed missions, byte for byte."""
    res = run_mission(_golden_scenarios()[name], SIM)
    digest = hashlib.sha256()
    _digest_update(digest, res)
    assert (res.pops, res.misses, res.final_mode, digest.hexdigest()) == GOLDEN[name]


PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_perfbench_mission_outputs_are_pinned():
    """Every output of the benchmark's 72 mission scenarios (seeds 1-3,
    rounds 0-3), hashed in order as `test_mission_output_is_pinned` does.
    About 11 s on a 2-core VM (Python 3.11.7, numpy 2.4.6)."""
    saved = list(sys.path)
    sys.path.insert(0, PERFBENCH)
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(PERFBENCH, "run.py"))
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
    finally:
        sys.path[:] = saved
    digest = hashlib.sha256()
    for seed in (1, 2, 3):
        for r in range(4):
            for _, sc in bench.mission_round(seed, r):
                _digest_update(digest, run_mission(sc, SIM))
    assert digest.hexdigest() == "be62d61248628c7e2b4ef90906e964823e493477a2fcf07cb2c22425ea00c833"


def test_recovery_frames_are_not_read(monkeypatch):
    """A frame consumed in RECOVER reaches neither `_observe` nor
    `largest_blob`; every other perception tick's frame reaches both."""
    observed, searched = [], []
    real_observe, real_blob = MissionSimulator._observe, mission.largest_blob

    def observe(self, uav, targets, bias, mode, mount_pitch):
        observed.append(mode)
        return real_observe(self, uav, targets, bias, mode, mount_pitch)

    def blob(*args):
        searched.append(args)
        return real_blob(*args)

    monkeypatch.setattr(MissionSimulator, "_observe", observe)
    monkeypatch.setattr(mission, "largest_blob", blob)
    sc = _golden_scenarios()["nominal"]
    res = run_mission(sc, SIM)
    # a mode event at t holds from the tick at t on; without latency each tick reads its own frame
    changes = [(ev.t, ev.data["to"]) for ev in res.events if ev.event == "mode"]
    modes = []
    for _, t, perception_due, _ in SIM.rates.ticks(sc.duration):
        if perception_due:
            modes.append(([m for at, m in changes if at <= t] or ["global_plan"])[-1])
    read = [m for m in modes if m != "recover"]
    assert len(read) < len(modes)
    assert [m.value for m in observed] == read
    assert len(searched) == len(observed)


def test_pop_outside_an_attack_does_not_hide_the_next_miss():
    """A 5 cm balloon at the start point pops during take-off, outside any
    attack; the gimbal-faulted attack on the other balloon is still a miss."""
    sc = _golden_scenarios()["gimbal"]
    sc.balloons.append(BalloonSpec(anchor=Vec3(2.0, 2.0, 1.2), radius=0.05))
    res = run_mission(sc, SIM)
    assert (res.pops, res.misses) == (2, 1)
    misses = [ev for ev in res.events if ev.event == "miss"]
    assert [round(ev.t, 3) for ev in misses] == [18.645]


def test_ball_slows_down_without_a_jump():
    """The ball flies its figure-8 at `speed` until `BALL_SLOW_AFTER` and at
    `BALL_SLOW_SPEED` from then on; no scenario runs that long."""
    spec = BallSpec(center=Vec3(50.0, 20.0, 12.5))
    ball = BallPath(spec)

    def ground_speed(t, h=0.01):
        return (ball.sample(t + h).position - ball.sample(t).position).norm() / h

    for t in (0.0, 7.3, 250.0, BALL_SLOW_AFTER - 0.01):
        assert ground_speed(t) == pytest.approx(spec.speed, rel=0.01)
    for t in (BALL_SLOW_AFTER, BALL_SLOW_AFTER + 7.3, BALL_SLOW_AFTER + 250.0):
        assert ground_speed(t) == pytest.approx(BALL_SLOW_SPEED, rel=0.01)
    eps = 1e-6
    jump = (ball.sample(BALL_SLOW_AFTER + eps).position - ball.sample(BALL_SLOW_AFTER - eps).position).norm()
    assert jump <= 2.0 * eps * spec.speed * 1.01


def test_perfbench_tracer_wraps_the_mission():
    """perfbench's tracer wraps mission names by attribute; a renamed or
    moved name fails here, not only in the traced benchmark."""
    sys.path.insert(0, PERFBENCH)
    try:
        import tracer
    finally:
        sys.path.pop(0)
    spans = tracer.Tracer()
    spans.install()
    try:
        sc = Scenario(task=1, arena=Arena(), balloons=[BalloonSpec(anchor=Vec3(12.0, 3.0, 2.2))], duration=10.0)
        res = run_mission(sc, SIM)
    finally:
        spans.uninstall()
    assert any(ev.event == "registered" for ev in res.events)
    calls = spans.aggregates()["calls"]
    # the renders and moments `largest_blob` makes count as the mission's
    for name in ("mission.run", "mission.frame", "mission.state_machine", "trajectory.cursor",
                 "perception.render", "perception.moments"):
        assert calls.get(name, 0) > 0, name

"""Competition-style mission layer: arena, search planners, terminal guidance.

Task 1 sweeps the arena with a lawnmower pattern, registers balloon
detections through a validity gate, aligns with a two-angle Adjust state,
flies down the LOS to pop, and recovers to the registration point for a
second attempt after a miss. Task 2 searches from a square loop, aligns
laterally/vertically with the moving ball's path, and waits in place between
passes.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from typing import IO, Optional, Union

from .config import SimConfig, from_dict
from .geometry import (
    Pose,
    Vec3,
    ZERO3,
    body_heading,
    camera_to_world,
    pixel_to_los,
    rot_z,
)
from .perception import Detection
from .engagement import Pilot, PlanTrack, camera_view
from .engagement import cursor_step, dynamics_step  # noqa: F401  unused; perfbench/tracer.py wraps them by name here
from .targets import PeriodicCurvePath, TargetState, fig8_shape
from .trajectory import Trajectory, Waypoint
from .vehicle import at_rest, pose_of


@dataclass
class Arena:
    length: float = 100.0  # x extent, m
    width: float = 40.0    # y extent, m
    ceiling: float = 5.0   # Task 1 altitude cap, m

    def validate(self) -> None:
        if self.length <= 0.0 or self.width <= 0.0:
            raise ValueError("arena extents must be positive")

    @property
    def center(self) -> Vec3:
        return Vec3(self.length / 2.0, self.width / 2.0, 0.0)


class MissionMode(str, enum.Enum):
    GLOBAL_PLAN = "global_plan"
    ADJUST = "adjust"
    ATTACK = "attack"
    WAIT = "wait"
    RECOVER = "recover"


@dataclass
class ValidityGate:
    min_bbox_area_fraction: float = 0.004
    bottom_exclusion_fraction: float = 0.30  # Task 2 only

    def validate(self) -> None:
        for f in (self.min_bbox_area_fraction, self.bottom_exclusion_fraction):
            if not (0.0 <= f < 1.0):
                raise ValueError("gate fractions must be in [0, 1)")


def validate_detection(
    det: Detection, gate: ValidityGate, width: int, height: int, task: int
) -> bool:
    """Area gate (strict >) plus, for Task 2, the bottom-of-image exclusion."""
    min_u, min_v, max_u, max_v = det.bbox
    area = (max_u - min_u + 1) * (max_v - min_v + 1)
    if area / float(width * height) <= gate.min_bbox_area_fraction:
        return False
    if task == 2 and det.centroid[1] >= (1.0 - gate.bottom_exclusion_fraction) * height:
        return False
    return True


# ---------------------------------------------------------------------------
# global search planners
# ---------------------------------------------------------------------------


WAYPOINT_SPACING = 2.0  # m between search-plan waypoints along a leg
RECOVERY_CLIMB = 1.5    # m climbed before a recovery returns to the registration point
TASK1_START = Vec3(2.0, 2.0, 0.0)  # Task 1 takeoff point, m
BALL_SLOW_AFTER = 480.0  # s into the mission, when the Task 2 ball slows
BALL_SLOW_SPEED = 3.0    # m/s, the ball's speed from then on


def _timed_waypoints(points: list[tuple[Vec3, float]], speed: float) -> Trajectory:
    """Chain positions into a trajectory at constant ground speed."""
    waypoints = [Waypoint(pos, yaw) for pos, yaw in points]
    times = [0.0]
    for a, b in zip(waypoints, waypoints[1:]):
        times.append(times[-1] + max((b.position - a.position).norm() / speed, 1e-3))
    return Trajectory(times, waypoints)


def _leg_points(a: Vec3, b: Vec3) -> list[Vec3]:
    dist = (b - a).norm()
    n = max(1, int(math.ceil(dist / WAYPOINT_SPACING)))
    return [a + (b - a).scale(i / n) for i in range(1, n + 1)]


def lawnmower_legs(arena: Arena, sweep_width: float) -> list[float]:
    """Forward-pass leg offsets across the arena width."""
    if sweep_width <= 0.0 or sweep_width > arena.width:
        raise ValueError("sweep width must be in (0, arena width]")
    n = int(math.ceil(arena.width / sweep_width))
    return [min(sweep_width / 2.0 + i * sweep_width, arena.width) for i in range(n)]


def lawnmower_plan(
    arena: Arena,
    sweep_width: float,
    altitude: float,
    speed: float,
    start: Vec3 = ZERO3,
) -> Trajectory:
    """Boustrophedon sweep of the arena at fixed altitude.

    Forward legs run the arena length at the computed offsets; the reverse
    pass is shifted laterally by half the sweep width to halve the effective
    spacing. Takeoff and landing segments complete the plan.
    """
    arena.validate()
    legs_fwd = lawnmower_legs(arena, sweep_width)
    legs_rev = [y + sweep_width / 2.0 for y in legs_fwd if y + sweep_width / 2.0 <= arena.width]

    points: list[tuple[Vec3, float]] = [(start, 0.0)]
    points.append((Vec3(start.x, start.y, altitude), 0.0))  # takeoff

    x_near, x_far = 0.0, arena.length
    x = x_near
    for y in legs_fwd + legs_rev[::-1]:
        yaw = 0.0 if x == x_near else math.pi
        entry = Vec3(x, y, altitude)
        points.append((entry, yaw))
        x_end = x_far if x == x_near else x_near
        for p in _leg_points(entry, Vec3(x_end, y, altitude)):
            points.append((p, yaw))
        x = x_end
    end = points[-1][0]
    points.append((Vec3(end.x, end.y, 0.0), points[-1][1]))  # landing
    return _timed_waypoints(points, speed)


def square_search_plan(
    arena: Arena,
    altitude: float,
    speed: float,
    side: float = 12.0,
) -> Trajectory:
    """Closed square loop at the arena center, yaw fixed along the long side
    so the camera keeps facing the crossing of the target's figure-8."""
    arena.validate()
    if altitude <= arena.ceiling:
        raise ValueError("Task 2 search altitude must clear the Task 1 ceiling")
    c = arena.center
    h = side / 2.0
    corners = [
        Vec3(c.x - h, c.y - h, altitude),
        Vec3(c.x + h, c.y - h, altitude),
        Vec3(c.x + h, c.y + h, altitude),
        Vec3(c.x - h, c.y + h, altitude),
    ]
    points: list[tuple[Vec3, float]] = [(corners[0], 0.0)]
    for a, b in zip(corners, corners[1:] + corners[:1]):
        for p in _leg_points(a, b):
            points.append((p, 0.0))
    return _timed_waypoints(points, speed)


def recovery_stitch(
    current: Vec3,
    pause_point: Vec3,
    plan: Trajectory,
    resume_index: int,
    speed: float,
) -> tuple[Trajectory, int]:
    """Recovery segment: climb, return to the registration point, resume the
    paused plan. Returns the stitched trajectory and the index of its first
    resumed-plan waypoint."""
    points: list[tuple[Vec3, float]] = [(current, 0.0)]
    points.append((Vec3(current.x, current.y, current.z + RECOVERY_CLIMB), 0.0))
    points.append((pause_point, 0.0))
    recovery = _timed_waypoints(points, speed)
    n_recovery = len(recovery.waypoints)

    resume_times = plan.times[resume_index:]
    resume_wps = plan.waypoints[resume_index:]
    t0 = recovery.times[-1]
    gap = (resume_wps[0].position - pause_point).norm()
    times = recovery.times + [t0 + max(gap / speed, 1e-3) + (t - resume_times[0]) for t in resume_times]
    waypoints = recovery.waypoints + list(resume_wps)
    return Trajectory(times, waypoints), n_recovery


# ---------------------------------------------------------------------------
# terminal guidance state machines
# ---------------------------------------------------------------------------


ADJUST_UP_ANGLE = math.radians(10.0)  # desired LOS elevation in Adjust
ANGLE_TOLERANCE = math.radians(5.0)
ADJUST_KP_Z = 1.2    # m/s per rad of elevation error
ADJUST_KP_YAW = 1.2  # rad/s per rad of horizontal angle
TASK2_GAIN = 1.2     # m/s per unit lateral/vertical LOS component


@dataclass
class MissionParams:
    adjust_timeout: float = 6.0    # s without convergence or sight
    attack_speed: float = 2.0      # m/s along the LOS
    hold_after_loss: float = 1.0   # s the Attack keeps flying blind
    wait_timeout: float = 60.0     # s in Wait before resuming the search
    pop_contact: float = 0.65      # m center distance counting as a pop

    def validate(self) -> None:
        for name in ("adjust_timeout", "attack_speed", "hold_after_loss", "wait_timeout", "pop_contact"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"params.{name} must be positive")


@dataclass
class MissionState:
    mode: MissionMode = MissionMode.GLOBAL_PLAN
    mode_entered: float = 0.0
    pause_point: Optional[Vec3] = None
    pause_index: int = 0
    pause_time: float = 0.0  # search-plan time at the pause
    last_seen: float = -math.inf
    last_los_world: Optional[Vec3] = None

    def transition(self, mode: MissionMode, t: float) -> None:
        self.mode = mode
        self.mode_entered = t


@dataclass(frozen=True)
class VelocityCommand:
    velocity_world: Vec3
    yaw_rate: float


def los_angles(r_level: Vec3) -> tuple[float, float]:
    """(upward angle, horizontal angle) of a level-frame LOS direction.

    The level frame is the yaw-aligned horizontal frame: the gimbal holds the
    camera at a preset angle, so the guidance angles are attitude-stabilized
    rather than swinging with braking/accelerating tilt transients."""
    horizontal = math.hypot(r_level.x, r_level.y)
    up = math.atan2(r_level.z, horizontal)
    return up, body_heading(r_level)


def task1_step(
    state: MissionState,
    los_level: Optional[Vec3],
    uav: Pose,
    params: MissionParams,
    t: float,
) -> VelocityCommand:
    """Adjust/Attack velocity command; transitions mutate `state`."""
    if state.mode == MissionMode.ADJUST:
        if los_level is None:
            if t - state.last_seen > params.adjust_timeout:
                state.transition(MissionMode.RECOVER, t)
            return VelocityCommand(ZERO3, 0.0)
        up, horiz = los_angles(los_level)
        up_err = ADJUST_UP_ANGLE - up
        if abs(up_err) <= ANGLE_TOLERANCE and abs(horiz) <= ANGLE_TOLERANCE:
            state.transition(MissionMode.ATTACK, t)
            return VelocityCommand(ZERO3, 0.0)
        if t - state.mode_entered > params.adjust_timeout:
            state.transition(MissionMode.RECOVER, t)
            return VelocityCommand(ZERO3, 0.0)
        # descend to raise the apparent elevation, yaw toward centering
        v_world = Vec3(0.0, 0.0, -ADJUST_KP_Z * up_err)
        return VelocityCommand(v_world, ADJUST_KP_YAW * horiz)

    if state.mode == MissionMode.ATTACK:
        if t - state.last_seen > params.hold_after_loss:
            state.transition(MissionMode.RECOVER, t)
            return VelocityCommand(ZERO3, 0.0)
        los = state.last_los_world
        if los is None:
            return VelocityCommand(ZERO3, 0.0)
        return VelocityCommand(los.scale(params.attack_speed), 0.0)

    return VelocityCommand(ZERO3, 0.0)


def task2_step(
    state: MissionState,
    los_level: Optional[Vec3],
    uav: Pose,
    params: MissionParams,
    t: float,
) -> VelocityCommand:
    """Lateral/vertical alignment with the ball's path; forward velocity 0."""
    if state.mode == MissionMode.ADJUST:
        if los_level is None:
            state.transition(MissionMode.WAIT, t)
            return VelocityCommand(ZERO3, 0.0)
        u = los_level.unit()
        v_level = Vec3(0.0, TASK2_GAIN * u.y, TASK2_GAIN * u.z)
        return VelocityCommand(rot_z(uav.yaw).apply(v_level), 0.0)

    if state.mode == MissionMode.WAIT:
        if los_level is not None:
            state.transition(MissionMode.ADJUST, t)
            return task2_step(state, los_level, uav, params, t)
        if t - state.mode_entered > params.wait_timeout:
            state.transition(MissionMode.GLOBAL_PLAN, t)
        return VelocityCommand(ZERO3, 0.0)

    return VelocityCommand(ZERO3, 0.0)


# ---------------------------------------------------------------------------
# scenario model and closed-loop mission simulation
# ---------------------------------------------------------------------------


@dataclass
class BalloonSpec:
    anchor: Vec3
    radius: float = 0.3  # 60 cm diameter


@dataclass
class BallSpec:
    center: Vec3
    speed: float = 8.0
    radius: float = 0.075      # 15 cm ball
    plane_yaw_deg: float = 0.0  # orientation of the figure-8 plane
    width: float = 10.0
    height: float = 6.0
    phase: float = 0.0


@dataclass
class FaultSpec:
    kind: str                      # gimbal_offset | camera_latency | downdraft
    pitch_deg: float = 0.0
    yaw_deg: float = 0.0
    delay: float = 0.1
    impulse: float = 1.5           # m/s lateral kick for downdraft

    def validate(self) -> None:
        if self.kind not in ("gimbal_offset", "camera_latency", "downdraft"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if not self.delay >= 0.0:
            raise ValueError("fault delay must be >= 0")


@dataclass
class Scenario:
    task: int
    arena: Arena = field(default_factory=Arena)
    balloons: list[BalloonSpec] = field(default_factory=list)
    ball: Optional[BallSpec] = None
    faults: list[FaultSpec] = field(default_factory=list)
    gate: ValidityGate = field(default_factory=ValidityGate)
    params: MissionParams = field(default_factory=MissionParams)
    duration: float = 120.0
    # search parameters (tuned values from the mission design)
    sweep_width: float = 6.0
    search_altitude: float = 2.4
    search_speed: float = 2.0
    square_altitude: float = 11.0
    square_speed: float = 1.0
    square_side: float = 12.0

    def validate(self) -> None:
        self.arena.validate()
        self.gate.validate()
        self.params.validate()
        if self.task not in _TASKS:
            raise ValueError(f"task must be 1 or 2, got {self.task}")
        if self.task == 2 and self.ball is None:
            raise ValueError("a Task 2 scenario needs a ball")
        for fault in self.faults:
            fault.validate()
        if len({f.kind for f in self.faults}) < len(self.faults):
            raise ValueError("at most one fault of each kind")
        if not all(v > 0.0 for v in (self.duration, self.search_speed, self.square_speed, self.square_side)):
            raise ValueError("duration, search speed, square speed and square side must be positive")
        if not all(s.radius > 0.0 for s in [*self.balloons, *([self.ball] if self.ball else [])]):
            raise ValueError("balloon and ball radii must be positive")
        if self.ball is not None and not (self.ball.width > 0.0 and self.ball.height > 0.0):
            raise ValueError("ball width and height must be positive")
        if self.task == 1:
            lawnmower_legs(self.arena, self.sweep_width)  # raises for a width outside (0, arena width]
        elif self.square_altitude <= self.arena.ceiling:
            raise ValueError("Task 2 square altitude must clear the Task 1 ceiling")


# scenario-file "search" group key -> Scenario field
_SEARCH_KEYS = {
    "sweep_width": "sweep_width", "altitude": "search_altitude", "speed": "search_speed",
    "square_altitude": "square_altitude", "square_speed": "square_speed", "square_side": "square_side",
}


def load_scenario(path: str) -> Scenario:
    """Scenario file -> Scenario, with the "search" group mapped onto its fields."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"Scenario: expected an object, got {data!r}")
    search = data.pop("search", {})
    if not isinstance(search, dict):
        raise ValueError(f"Scenario.search: expected an object, got {search!r}")
    for key, value in search.items():
        data[_SEARCH_KEYS.get(key, f"search.{key}")] = value  # from_dict rejects unknown keys
    return from_dict(Scenario, data)


class BallPath:
    """Figure-8 flown by the target carrier, slowing to `BALL_SLOW_SPEED` at `BALL_SLOW_AFTER`."""

    def __init__(self, spec: BallSpec):
        self._path = PeriodicCurvePath(
            fig8_shape(spec.width, spec.height), rot_z(math.radians(spec.plane_yaw_deg)), spec.center,
            spec.speed, spec.radius, spec.phase, 1.0,
        )
        self.speed = spec.speed

    def sample(self, t: float) -> TargetState:
        speed = self.speed
        s = speed * t if t <= BALL_SLOW_AFTER else speed * BALL_SLOW_AFTER + BALL_SLOW_SPEED * (t - BALL_SLOW_AFTER)
        return self._path.sample_arc(s)


@dataclass
class MissionEvent:
    t: float
    event: str
    data: dict


@dataclass
class MissionResult:
    events: list[MissionEvent]
    pops: int
    misses: int
    command_log: list[tuple[float, str, Vec3, float]]  # t, mode, world velocity cmd, uav z
    min_ball_distance: float
    final_mode: str

    def write_events_jsonl(self, fh: IO[str]) -> None:
        for ev in self.events:
            record = {"t": round(ev.t, 4), "event": ev.event, **ev.data}
            fh.write(json.dumps(record, sort_keys=True) + "\n")


@dataclass
class _Balloon:
    spec: BalloonSpec
    offset: Vec3 = ZERO3
    offset_vel: Vec3 = ZERO3
    alive: bool = True
    position: Vec3 = field(init=False)  # anchor + offset, set whenever the offset moves

    def __post_init__(self) -> None:
        self.position = self.spec.anchor + self.offset


class BalloonTask:
    """Task 1: a lawnmower sweep over tethered balloons. After a pop or a
    miss the vehicle climbs, returns to the registration point and resumes."""

    def __init__(self, mission: MissionSimulator):
        sc = mission.sc
        self.mission = mission
        self.params = sc.params
        self.dt = mission.sim.rates.dt
        self.mount_pitch = mission.sim.camera.mount_pitch(sc.search_speed, mission.sim.vehicle)
        plan = lawnmower_plan(sc.arena, sc.sweep_width, sc.search_altitude, sc.search_speed, TASK1_START)
        self.track = PlanTrack(plan, 0.0, mission.sim.trajectory)
        self.rejoin_index = 0  # first resumed-plan waypoint of the recovery plan
        self.balloons = [_Balloon(spec=b) for b in sc.balloons]
        self.downdraft = next((f for f in sc.faults if f.kind == "downdraft"), None)
        self.attack_saw_pop = False

    def targets(self) -> list[TargetState]:
        return [TargetState(b.position, b.spec.radius) for b in self.balloons if b.alive]

    def step(self, state: MissionState, seen: Optional[Vec3], uav: Pose, t: float) -> VelocityCommand:
        return task1_step(state, seen, uav, self.params, t)

    def after_step(self, t: float, uav: Vec3, state: MissionState) -> None:
        """Balloon tethers, the downdraft fault and pops, with the UAV at `uav`."""
        for i, b in enumerate(self.balloons):
            if not b.alive:
                continue
            if self.downdraft is not None:
                d = uav - b.position
                horiz = math.hypot(d.x, d.y)
                if horiz < 1.0 and 0.0 < d.z < 2.0 and b.offset_vel.norm() < 0.1:
                    away = Vec3(-d.x, -d.y, 0.0)
                    away = away.unit() if away.norm() > 1e-6 else Vec3(1.0, 0.0, 0.0)
                    b.offset_vel = b.offset_vel + away.scale(self.downdraft.impulse)
                    self.mission._emit(t, "downdraft", balloon=i)
            # spring-damper back toward the anchor, displacement bounded; skipped at rest, its fixed point
            if b.offset != ZERO3 or b.offset_vel != ZERO3:
                acc = b.offset.scale(-4.0) + b.offset_vel.scale(-1.5)
                b.offset_vel = b.offset_vel + acc.scale(self.dt)
                b.offset = (b.offset + b.offset_vel.scale(self.dt)).clamp_norm(0.5)
                b.position = b.spec.anchor + b.offset
            if (uav - b.position).norm() <= self.params.pop_contact:
                b.alive = False
                self.mission.result.pops += 1
                if state.mode == MissionMode.ATTACK:
                    self.attack_saw_pop = True
                self.mission._emit(t, "pop", balloon=i)
                if state.mode in (MissionMode.ADJUST, MissionMode.ATTACK):
                    state.transition(MissionMode.RECOVER, t)

    def mode_changed(self, old: MissionMode, state: MissionState, t: float, uav: Vec3) -> None:
        """An attack that ends without a pop is a miss; a recovery plans the
        way back to the registration point, from the UAV at `uav`, and clears
        a gimbal fault."""
        mission = self.mission
        if old == MissionMode.ATTACK:
            if not self.attack_saw_pop:
                mission.result.misses += 1
                mission._emit(t, "miss", task=mission.sc.task)
            self.attack_saw_pop = False
        if state.mode == MissionMode.RECOVER:
            # later pauses index into the stitched plan
            plan, self.rejoin_index = recovery_stitch(
                uav, state.pause_point or uav,
                self.track.plan, state.pause_index, mission.sc.search_speed,
            )
            self.track = PlanTrack(plan, t, mission.sim.trajectory)
            mission.gimbal = None


class BallTask:
    """Task 2: a square loop above the moving ball's figure-8. Alignment
    ends in Wait, and a Wait that times out resumes the paused loop."""

    def __init__(self, mission: MissionSimulator):
        sc = mission.sc
        self.mission = mission
        self.params = sc.params
        self.mount_pitch = mission.sim.camera.mount_pitch(sc.square_speed, mission.sim.vehicle)
        plan = square_search_plan(sc.arena, sc.square_altitude, sc.square_speed, sc.square_side)
        self.track = PlanTrack(plan, 0.0, mission.sim.trajectory)
        self.ball = BallPath(sc.ball)
        self.ball_state = self.ball.sample(0.0)  # resampled after each step, read by the next frame

    def targets(self) -> list[TargetState]:
        return [self.ball_state]

    def step(self, state: MissionState, seen: Optional[Vec3], uav: Pose, t: float) -> VelocityCommand:
        return task2_step(state, seen, uav, self.params, t)

    def after_step(self, t: float, uav: Vec3, state: MissionState) -> None:
        result = self.mission.result
        self.ball_state = self.ball.sample(t)
        d = (uav - self.ball_state.position).norm()
        result.min_ball_distance = min(result.min_ball_distance, d)

    def mode_changed(self, old: MissionMode, state: MissionState, t: float, uav: Vec3) -> None:
        if old == MissionMode.WAIT and state.mode == MissionMode.GLOBAL_PLAN:
            # resume the paused search plan where it was left
            self.track.start = t - state.pause_time
            self.track.index = state.pause_index


_TASKS = {1: BalloonTask, 2: BallTask}


class MissionSimulator:
    """Closed-loop Challenge-1 mission run."""

    def __init__(self, scenario: Scenario, sim: SimConfig):
        scenario.validate()
        sim.validate()
        self.sc = scenario
        self.sim = sim
        self.k_cam = sim.camera.intrinsics()
        # filled in as the mission runs
        self.result = MissionResult(events=[], pops=0, misses=0, command_log=[],
                                    min_ball_distance=math.inf, final_mode=MissionMode.GLOBAL_PLAN.value)
        # None once a Task 1 recovery clears it
        self.gimbal = next((f for f in scenario.faults if f.kind == "gimbal_offset"), None)

    def _emit(self, t: float, event: str, **data) -> None:
        self.result.events.append(MissionEvent(t, event, data))

    def run(self) -> MissionResult:
        sc = self.sc
        sim = self.sim
        task = _TASKS[sc.task](self)
        latency = next((f.delay for f in sc.faults if f.kind == "camera_latency"), 0.0)

        pilot = Pilot(sim)
        state = MissionState()
        uav = at_rest(task.track.plan.waypoints[0].position)  # both plans begin at the start pose

        rates = sim.rates
        dt = rates.dt

        los_level: Optional[Vec3] = None
        frame_queue: list[tuple[float, Optional[Vec3], Optional[Vec3], bool]] = []
        logged_mode = state.mode

        # `uav` is the flat vehicle state; the ticks that read a `Pose` build one
        for k, t, perception_due, control_due in rates.ticks(sc.duration):
            if perception_due or control_due:
                pose = pose_of(uav)
            if perception_due:
                frame_queue.append((t, *self._observe(pose, task)))
                los_level, los_world, los_valid = None, None, False
                while frame_queue and frame_queue[0][0] <= t - latency:
                    _, los_level, los_world, los_valid = frame_queue.pop(0)
                if los_level is not None:
                    state.last_seen = t
                    state.last_los_world = los_world
                    if state.mode == MissionMode.GLOBAL_PLAN and los_valid:
                        state.pause_point = pose.position
                        state.pause_index = task.track.index
                        state.pause_time = t - task.track.start
                        state.transition(MissionMode.ADJUST, t)
                        position = [round(c, 3) for c in pose.position]
                        self._emit(t, "registered", task=sc.task, position=position)

            if control_due:
                if state.mode in (MissionMode.GLOBAL_PLAN, MissionMode.RECOVER):
                    task.track.fly(t, pose, pilot)
                    # only Task 1 recovers, and its recovery plan sets the rejoin index
                    if state.mode == MissionMode.RECOVER and task.track.index >= task.rejoin_index:
                        state.transition(MissionMode.GLOBAL_PLAN, t)
                else:
                    stale = (t - state.last_seen) > (2.5 / rates.perception_hz)
                    v_cmd = task.step(state, None if stale else los_level, pose, t)
                    self.result.command_log.append((t, state.mode.value, v_cmd.velocity_world, pose.position.z))
                    pilot.velocity(v_cmd.velocity_world, v_cmd.yaw_rate, pose)

            uav = pilot.fly(uav)
            t_next = (k + 1) * dt
            position = Vec3(uav[0], uav[1], uav[2])
            task.after_step(t_next, position, state)

            # centralized transition bookkeeping: transitions may originate in
            # the perception tick, the state machines, or a pop event
            if state.mode != logged_mode:
                self._emit(t_next, "mode", **{"from": logged_mode.value, "to": state.mode.value})
                task.mode_changed(logged_mode, state, t_next, position)
                logged_mode = state.mode

        self.result.final_mode = state.mode.value
        return self.result

    def _observe(
        self, uav: Pose, task: Union[BalloonTask, BallTask]
    ) -> tuple[Optional[Vec3], Optional[Vec3], bool]:
        """Largest blob this frame -> (LOS level dir, LOS world unit, gate-valid).

        Every live target is rendered on its own; nothing carries over
        between frames or targets. The validity gate qualifies a detection
        for *registration*; once the terminal guidance owns the vehicle, raw
        detections keep feeding it."""
        gimbal = self.gimbal
        bias_pitch = math.radians(gimbal.pitch_deg) if gimbal is not None else 0.0
        bias_yaw = math.radians(gimbal.yaw_deg) if gimbal is not None else 0.0
        best: Optional[Detection] = None
        for target in task.targets():
            _, det = camera_view(target, uav, task.mount_pitch, self.k_cam, bias_pitch, bias_yaw)
            if det is not None and (best is None or det.pixel_count > best.pixel_count):
                best = det
        if best is None:
            return None, None, False
        valid = validate_detection(best, self.sc.gate, self.k_cam.width, self.k_cam.height, self.sc.task)
        ray = pixel_to_los(best.centroid[0], best.centroid[1], self.k_cam)
        los_world = camera_to_world(ray, uav, task.mount_pitch).unit()
        return rot_z(uav.yaw).apply_inverse(los_world), los_world, valid


def run_mission(scenario: Scenario, sim: SimConfig) -> MissionResult:
    return MissionSimulator(scenario, sim).run()

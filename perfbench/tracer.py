"""Span tracer installed around pursuitsim's public functions from outside.

A wrapper goes wherever the caller looks a name up: `engagement` binds
`render_sphere`, `dynamics_step` and the rest at import time, so a wrapper
placed only on the defining module would record nothing. Methods are wrapped
on their class, which every caller shares.

Spans are kept in memory (name index, start, end, parent index) and written
out when the run ends. Aggregates are kept online: calls, inclusive time of
outermost spans per name, and self time (a span's time minus the time of its
child spans).
"""

from __future__ import annotations

import math
import os
import time
from array import array

import numpy as np

from pursuitsim import engagement, harness, mission, perception, targets, trajectory, vehicle

# (owner, attribute, span name). The span name's prefix before the first '.'
# is the layer; the owner is the namespace the caller resolves the name in.
_GEOMETRY = ("pixel_to_los", "los_rate", "camera_to_world", "world_point_to_camera", "body_to_world")
_GUIDANCE = ("closing_velocity", "los_accel", "tpn_command", "pn_heading_command",
             "hybrid_command", "init_velocity", "dropout_scale")
_REPLAN = ("gen_los_accel_trajectory", "gen_forecast_trajectory", "forecast_target", "stitch")

TARGETS = (
    [(engagement, "render_sphere", "perception.render"),
     (engagement, "centroid", "perception.moments"),
     (engagement, "estimate_depth", "perception.moments"),
     (engagement.PerceptionPipeline, "observe", "perception.observe"),
     (perception, "pixel_to_los", "geometry"),
     (mission, "camera_to_world", "geometry"),
     (mission, "body_heading", "geometry")]
    + [(engagement, n, "geometry") for n in _GEOMETRY]
    + [(engagement, n, "guidance") for n in _GUIDANCE]
    + [(engagement, n, "trajectory.replan") for n in _REPLAN]
    + [(engagement, "cursor_step", "trajectory.cursor"),
       (mission, "cursor_step", "trajectory.cursor"),
       (engagement, "dynamics_step", "vehicle.dynamics"),
       (engagement, "ideal_dynamics_step", "vehicle.dynamics"),
       (mission, "dynamics_step", "vehicle.dynamics"),
       (vehicle.PoseController, "step", "vehicle.control"),
       (vehicle.VelocityController, "step", "vehicle.control"),
       (harness, "build_path", "targets.build"),
       (targets.StraightPath, "sample", "targets.sample"),
       (targets.StationaryPath, "sample", "targets.sample"),
       (targets.PeriodicCurvePath, "sample", "targets.sample"),
       (mission.BallPath, "sample", "targets.sample"),
       (harness, "run_engagement", "engagement.run"),
       (engagement.HitMonitor, "update", "engagement.monitor"),
       (mission.MissionSimulator, "run", "mission.run"),
       (mission.MissionSimulator, "_observe", "mission.frame"),
       (mission, "task1_step", "mission.state_machine"),
       (mission, "task2_step", "mission.state_machine")]
)

# Criterion 3's range accuracy: 3% for its 1 m target out to 20 m. Other
# diameters (mission balloons, the Task 2 ball) are outside its table.
# Frames over the bound are counted and reported, not gated: in closed loop
# they occur on some seeds only (see README.md).
DEPTH_CHECK_DIAMETER = 1.0
DEPTH_CHECK_MAX_RANGE = 20.0
DEPTH_CHECK_TOLERANCE = 0.03


class Tracer:
    """Records spans and per-name aggregates for everything it wraps."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: list[list] = []  # [span id, time of child spans]
        self._depth: dict[int, int] = {}
        self.calls: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.depth_worst = 0.0
        self.depth_checked = 0
        self.depth_over_bound = 0
        self.depth_examples: list[str] = []

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def _name_id(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
        return idx

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(self.span_start)
            parent = self._stack[-1][0] if self._stack else -1
            self.span_name.append(nid)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.span_parent.append(parent)
            frame = [sid, 0.0]
            self._stack.append(frame)
            self._depth[nid] = self._depth.get(nid, 0) + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except trajectory.NoClosingVelocityError:
                self.count("trajectory.forecast_rejected")
                raise
            finally:
                end = clock()
                self._stack.pop()
                dur = end - start
                self.span_start[sid] = start
                self.span_end[sid] = end
                depth = self._depth[nid] - 1
                self._depth[nid] = depth
                self.calls[name] = self.calls.get(name, 0) + 1
                if depth == 0:
                    self.inclusive[name] = self.inclusive.get(name, 0.0) + dur
                self.self_time[name] = self.self_time.get(name, 0.0) + dur - frame[1]
                if self._stack:
                    self._stack[-1][1] += dur
            self._observe_result(name, fn.__name__, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe_result(self, name: str, fn_name: str, args: tuple, result) -> None:
        if name == "perception.observe":
            if result.detected:
                self.count("perception.detections")
                self.count("perception.blob_px", result.detection.pixel_count)
                if result.depth_valid:
                    self._check_depth(args, result)
        elif fn_name.startswith("gen_"):
            self.count("trajectory.replans")
        elif fn_name == "stitch":
            self.count("trajectory.stitches")
            self.count("trajectory.stitched_waypoints", len(result))

    def _check_depth(self, args: tuple, frame) -> None:
        """Raw d_center against the true camera-to-target range."""
        pipeline, _t, target, pose = args[:4]
        p, c = target.position, pose.position
        true_range = math.sqrt((p.x - c.x) ** 2 + (p.y - c.y) ** 2 + (p.z - c.z) ** 2)
        k = pipeline.k
        u0, v0, u1, v1 = frame.detection.bbox
        clipped = u0 <= 0 or v0 <= 0 or u1 >= k.width - 1 or v1 >= k.height - 1
        if clipped or true_range > DEPTH_CHECK_MAX_RANGE or 2.0 * target.radius != DEPTH_CHECK_DIAMETER:
            return
        err = abs(frame.d_center - true_range) / true_range
        self.depth_checked += 1
        self.depth_worst = max(self.depth_worst, err)
        if err <= DEPTH_CHECK_TOLERANCE:
            return
        self.depth_over_bound += 1
        if len(self.depth_examples) < 5:
            self.depth_examples.append(
                f"d_center {frame.d_center:.3f} m vs true {true_range:.3f} m "
                f"({100 * err:.2f}%, {frame.detection.pixel_count} px)"
            )

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        self._saved = []
        for owner, attr, name in TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(fn, name))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    # -- output ----------------------------------------------------------------

    def aggregates(self) -> dict:
        return {
            "calls": dict(self.calls),
            "inclusive": dict(self.inclusive),
            "self": dict(self.self_time),
            "counters": dict(self.counters),
            "depth_checked": self.depth_checked,
            "depth_over_bound": self.depth_over_bound,
            "depth_worst": self.depth_worst,
            "depth_examples": list(self.depth_examples),
        }

    def write_spans(self, path: str) -> None:
        """The name table and the span columns (name index, perf_counter start
        and end, parent span index or -1) as one .npz file."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
        )


def merge(into: dict, other: dict) -> dict:
    """Sum two aggregate dicts (worker processes report separately)."""
    for key in ("calls", "inclusive", "self", "counters"):
        for name, v in other[key].items():
            into[key][name] = into[key].get(name, 0) + v
    into["depth_checked"] += other["depth_checked"]
    into["depth_over_bound"] += other["depth_over_bound"]
    into["depth_worst"] = max(into["depth_worst"], other["depth_worst"])
    into["depth_examples"] = (into["depth_examples"] + other["depth_examples"])[:5]
    return into


def empty_aggregates() -> dict:
    return Tracer().aggregates()


def layer_metrics(agg: dict, sim_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics; times and counts are per simulated second."""
    calls, inc, slf, cnt = agg["calls"], agg["inclusive"], agg["self"], agg["counters"]
    per = 1.0 / sim_s if sim_s > 0 else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    renders = calls.get("perception.render", 0)
    detections = cnt.get("perception.detections", 0)
    return {
        "perception.render_calls": (renders * per, "1/sim_s"),
        "perception.render_s": (inc.get("perception.render", 0.0) * per, "s/sim_s"),
        "perception.moments_s": (inc.get("perception.moments", 0.0) * per, "s/sim_s"),
        "perception.blob_px_mean": (ratio(cnt.get("perception.blob_px", 0), detections), "px"),
        "perception.detect_ratio": (ratio(detections, renders), "ratio"),
        "perception.observe_s": (inc.get("perception.observe", 0.0) * per, "s/sim_s"),
        "geometry.calls": (calls.get("geometry", 0) * per, "1/sim_s"),
        "geometry.s": (inc.get("geometry", 0.0) * per, "s/sim_s"),
        "guidance.calls": (calls.get("guidance", 0) * per, "1/sim_s"),
        "guidance.s": (inc.get("guidance", 0.0) * per, "s/sim_s"),
        "trajectory.replans": (cnt.get("trajectory.replans", 0) * per, "1/sim_s"),
        "trajectory.replan_s": (inc.get("trajectory.replan", 0.0) * per, "s/sim_s"),
        "trajectory.forecast_rejected": (cnt.get("trajectory.forecast_rejected", 0) * per, "1/sim_s"),
        "trajectory.waypoints_mean": (
            ratio(cnt.get("trajectory.stitched_waypoints", 0), cnt.get("trajectory.stitches", 0)), "count"),
        "trajectory.cursor_calls": (calls.get("trajectory.cursor", 0) * per, "1/sim_s"),
        "trajectory.cursor_s": (inc.get("trajectory.cursor", 0.0) * per, "s/sim_s"),
        "vehicle.steps": (calls.get("vehicle.dynamics", 0) * per, "1/sim_s"),
        "vehicle.dynamics_s": (inc.get("vehicle.dynamics", 0.0) * per, "s/sim_s"),
        "vehicle.control_calls": (calls.get("vehicle.control", 0) * per, "1/sim_s"),
        "vehicle.control_s": (inc.get("vehicle.control", 0.0) * per, "s/sim_s"),
        "targets.build_s": (inc.get("targets.build", 0.0) * per, "s/sim_s"),
        "targets.sample_calls": (calls.get("targets.sample", 0) * per, "1/sim_s"),
        "targets.sample_s": (inc.get("targets.sample", 0.0) * per, "s/sim_s"),
        "engagement.self_s": (slf.get("engagement.run", 0.0) * per, "s/sim_s"),
        "engagement.monitor_s": (inc.get("engagement.monitor", 0.0) * per, "s/sim_s"),
        "mission.self_s": (slf.get("mission.run", 0.0) * per, "s/sim_s"),
        "mission.renders_per_frame": (ratio(renders, calls.get("mission.frame", 0)), "count"),
        "mission.state_machine_s": (inc.get("mission.state_machine", 0.0) * per, "s/sim_s"),
    }

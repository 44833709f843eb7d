"""Correctness checks computed apart from the program.

Each check tests a property the method must have (the trial protocol, the
mission's event grammar), not a copy of some earlier output. Every function
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math

from pursuitsim.engagement import FailureReason

# the horizon run_engagement allows after the pursuit timeout
END_SLACK = 0.25
EPS = 1e-9


def _dist(a, b) -> float:
    return math.sqrt((a.x - b.x) ** 2 + (a.y - b.y) ** 2 + (a.z - b.z) ** 2)


def trial_problems(label: str, hit: bool, reason, duration: float, min_miss: float,
                   end_time: float, rules, handoff: float) -> list[str]:
    """The first-pass hit protocol, judged from one trial's summary."""
    out = []
    if hit:
        if not min_miss <= rules.hit_radius + EPS:
            out.append(f"{label}: hit with min miss {min_miss:.4f} m > {rules.hit_radius} m")
        if not 0.0 <= duration < rules.pursuit_timeout:
            out.append(f"{label}: hit with pursuit duration {duration:.4f} s")
    elif reason == FailureReason.TIMEOUT and not duration >= rules.pursuit_timeout - EPS:
        out.append(f"{label}: timeout after only {duration:.4f} s")
    elif reason == FailureReason.FOV_LOSS and not duration > rules.fov_loss_timeout:
        out.append(f"{label}: fov_loss after only {duration:.4f} s")
    if end_time > handoff + rules.pursuit_timeout + END_SLACK + EPS:
        out.append(f"{label}: ends at {end_time:.4f} s, past the horizon")
    return out


def spawn_outside_box(path, rules, horizon: float) -> bool:
    """Whether the UAV's spawn point (the origin) lies outside the bounds box
    as the program anchors it today: on the bounding box of the target path
    alone, sampled at 65 points over one period (or the horizon)."""
    span = path.period if path.period is not None else horizon
    lo = [math.inf] * 3
    hi = [-math.inf] * 3
    for i in range(65):
        p = path.sample(span * i / 64).position
        for axis, v in enumerate((p.x, p.y, p.z)):
            lo[axis] = min(lo[axis], v)
            hi[axis] = max(hi[axis], v)
    half = (rules.bounds_x / 2.0, rules.bounds_y / 2.0, rules.bounds_z / 2.0)
    return any(abs((lo[a] + hi[a]) / 2.0) > half[a] for a in range(3))


def failed_at_spawn(reason, end_time: float, dt: float) -> bool:
    """The spawn-outside-box fault: out of bounds on the very first step."""
    return reason == FailureReason.OUT_OF_BOUNDS and end_time <= dt + EPS


def rejudge_hit(label: str, res, rules, handoff: float) -> list[str]:
    """Re-judge a hit from its recorded trace with this module's own distance
    code: the first point within the hit radius must be the verdict, inside
    the timeout, with no sight gap longer than the FOV-loss timeout before it."""
    last_seen = -math.inf
    min_d = math.inf
    for p in res.trace:
        d = _dist(p.uav_pos, p.target_pos) - p.target_radius
        min_d = min(min_d, d)
        if p.detected:
            last_seen = p.t
        if d <= rules.hit_radius:
            out = []
            if abs(p.t - res.end_time) > EPS:
                out.append(f"{label}: first contact at {p.t:.4f} s, verdict at {res.end_time:.4f} s")
            if p.t - handoff >= rules.pursuit_timeout:
                out.append(f"{label}: contact after the pursuit timeout")
            if abs(min_d - res.min_miss_distance) > 1e-6:
                out.append(f"{label}: min miss {res.min_miss_distance:.6f} m, trace gives {min_d:.6f} m")
            return out
        if p.t - max(last_seen, handoff) > rules.fov_loss_timeout:
            return [f"{label}: judged a hit after losing sight for over {rules.fov_loss_timeout} s"]
    return [f"{label}: judged a hit but no trace point is within {rules.hit_radius} m"]


def mission_problems(label: str, scenario, result) -> list[str]:
    """Event grammar of one mission run."""
    out = []
    events = result.events
    times = [e.t for e in events]
    if any(b < a for a, b in zip(times, times[1:])):
        out.append(f"{label}: events out of time order")
    if events and (times[0] < 0.0 or times[-1] > scenario.duration + EPS):
        out.append(f"{label}: event outside [0, {scenario.duration}] s")
    popped = [e.data["balloon"] for e in events if e.event == "pop"]
    if result.pops != len(popped):
        out.append(f"{label}: pops={result.pops} but {len(popped)} pop events")
    if len(popped) > len(scenario.balloons):
        out.append(f"{label}: {len(popped)} pops of {len(scenario.balloons)} balloons")
    if len(set(popped)) != len(popped):
        out.append(f"{label}: a balloon popped twice: {popped}")
    registered = attacked = False
    for e in events:
        if e.event == "registered":
            registered = True
        elif e.event == "mode" and e.data["to"] == "attack" and registered:
            attacked = True
        elif e.event == "pop":
            if not attacked:
                out.append(f"{label}: pop at {e.t:.2f} s without registration and attack before it")
    return out

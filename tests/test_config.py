import dataclasses
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from pursuitsim.config import RatesConfig, SimConfig, dump_config, from_dict, load_config
from pursuitsim.engagement import FailureReason
from pursuitsim.guidance import GuidanceMethod, GuidanceParams
from pursuitsim.harness import ExperimentConfig, run_trial
from pursuitsim.mission import Scenario, load_scenario
from pursuitsim.targets import PathKind

SCENARIO = {"task": 1, "balloons": [{"anchor": [25.0, 3.0, 2.2]}], "duration": 30.0}
NAN, INF = float("nan"), float("inf")  # json.dumps writes them as NaN and Infinity, which json reads


@pytest.mark.parametrize(
    "loader, data",
    [
        (load_config, {"guidance": {"pn_gain": "3"}}),
        (load_config, {"rates": {"dynamics_hz": 30}}),
        (load_config, {"perception": {"filter_window": 0}}),
        (load_config, {"vehicle": {"gains": {"pos_kp": 1.2}}}),
        (load_scenario, {"task": 1, "balloon": [{"anchor": [25.0, 3.0, 2.2]}]}),
        (load_scenario, {**SCENARIO, "balloons": [{"anchor": [25.0, 3.0]}]}),
        (load_config, {"vehicle": {"hover_thrust": 0}}),
        (load_config, {"vehicle": {"tau_attitude": 0}}),
        (load_config, {"trajectory": {"dt": 0}}),
        (load_config, {"trajectory": {"replan_hz": 0}}),
        (load_config, {"camera": {"width": 0}}),
        (load_config, {"rules": {"pursuit_timeout": -5}}),
        (load_config, {"rules": {"hit_radius": -1}}),
        (load_config, {"rules": {"fov_loss_timeout": 0}}),
        (load_scenario, {**SCENARIO, "task": 3}),
        (load_scenario, {**SCENARIO, "task": 2}),
        (load_scenario, {**SCENARIO, "faults": [{"kind": "gimbal-offset"}]}),
        (load_scenario, {**SCENARIO, "faults": [{"kind": "downdraft"}, {"kind": "downdraft", "impulse": 2.0}]}),
        (load_scenario, {**SCENARIO, "faults": [{"kind": "camera_latency", "delay": -1.0}]}),
        (load_scenario, {**SCENARIO, "duration": 0}),
        (load_scenario, {**SCENARIO, "search": {"speed": 0}}),
        (load_scenario, {"task": 2, "ball": {"center": [50.0, 20.0, 12.5]}, "search": {"square_speed": 0}}),
        (load_scenario, {**SCENARIO, "search": {"sweep_width": 0}}),
        (load_scenario, {**SCENARIO, "search": {"sweep_width": 41.0}}),
        (load_scenario, {"task": 2, "ball": {"center": [50.0, 20.0, 12.5]}, "arena": {"ceiling": 11.0}}),
        (load_scenario, [["task", 1], ["balloons", [{"anchor": [25.0, 3.0, 2.2]}]], ["duration", 30.0]]),
        (load_scenario, {"task": 2, "ball": {"center": [50.0, 20.0, 12.5], "width": 0, "height": 0}}),
        (load_scenario, {"task": 2, "ball": {"center": [50.0, 20.0, 12.5], "height": -6.0}}),
        (load_config, {"guidance": {"init_duration": NAN}}),
        (load_config, {"guidance": {"init_duration": INF}}),
        (load_config, {"vehicle": {"drag": NAN}}),
        (load_config, {"camera": {"mount_pitch_deg": NAN}}),
        (load_config, {"rules": {"pursuit_timeout": INF}}),
        (load_config, {"trajectory": {"horizon": INF}}),
        (load_scenario, {**SCENARIO, "arena": {"length": NAN}}),
        (load_scenario, {**SCENARIO, "balloons": [{"anchor": [25.0, NAN, 2.2]}]}),
        (load_config, {"guidance": {"pn_gain": NAN}}),
        (load_config, {"guidance": {"max_accel": NAN}}),
        (load_config, {"trajectory": {"lookahead_buffer": NAN}}),
        (load_config, {"rules": {"hit_radius": 10**400}}),
        (load_config, {"guidance": {"init_duration": -1}}),
        (load_config, {"guidance": {"dropout_hold": -1}}),
        (load_config, {"guidance": {"dropout_decay": -1}}),
        (load_config, {"vehicle": {"drag": -0.3}}),
        (load_config, {"trajectory": {"lookahead_buffer": -0.05}}),
        (load_config, {"vehicle": {"max_yaw_rate": -1}}),
        (load_config, {"vehicle": {"max_yaw_rate": 0}}),
        (load_config, {"rules": {"ideal_velocity_tau": 0.3}}),
        (load_config, {"vehicle": {"gains": {"position": {"kp": 1.2}}}}),
        (load_config, {"camera": {"mount_pitch_deg": 5.0}}),
        (load_config, {"camera": {"hfov_deg": 90.0}}),
        (load_config, {"perception": {"filter_window": 5}}),
        (load_config, {"trajectory": {"horizon": 2.0}}),
        (load_config, {"guidance": {"max_yaw_rate": 1.5}}),
        (load_config, {"rates": {"control_hz": 60}}),
        (load_scenario, {**SCENARIO, "search_speed": 1.0, "search": {"speed": 3.0}}),
        (load_scenario, {**SCENARIO, "sweep_width": 6.0}),
        (load_scenario, {**SCENARIO, "search_altitude": 2.4}),
        (load_scenario, {**SCENARIO, "search_speed": 1.0}),
        (load_scenario, {"task": 2, "ball": {"center": [50.0, 20.0, 12.5]}, "square_altitude": 11.0}),
        (load_scenario, {"task": 2, "ball": {"center": [50.0, 20.0, 12.5]}, "square_speed": 1.0}),
        (load_scenario, {"task": 2, "ball": {"center": [50.0, 20.0, 12.5]}, "square_side": 12.0}),
        (load_scenario, {**SCENARIO, "search": {"altitude": 9.0}}),
        # never run: the square plan's size grows with its side
        (load_scenario, {"task": 2, "ball": {"center": [50.0, 20.0, 12.5]}, "search": {"square_side": 1e9}}),
    ],
    ids=["string-gain", "slow-dynamics", "zero-window", "flat-gain-key", "misspelt-key", "short-anchor",
         "zero-hover-thrust", "zero-attitude-lag", "zero-trajectory-dt", "zero-replan-rate", "zero-width",
         "negative-timeout", "negative-hit-radius", "zero-fov-loss-timeout", "task-3", "task-2-without-ball",
         "unknown-fault-kind", "duplicate-fault-kind", "negative-latency", "zero-duration", "zero-search-speed",
         "zero-square-speed", "zero-sweep-width", "sweep-wider-than-arena", "square-at-ceiling",
         "top-level-pairs", "flat-ball-path", "negative-ball-height", "nan-init-duration", "inf-init-duration",
         "nan-drag", "nan-mount-pitch", "inf-pursuit-timeout", "inf-horizon", "nan-arena-length", "nan-anchor",
         "nan-pn-gain", "nan-max-accel", "nan-lookahead-buffer", "huge-integer", "negative-init-duration",
         "negative-dropout-hold", "negative-dropout-decay", "negative-drag", "negative-lookahead-buffer",
         "negative-max-yaw-rate", "zero-max-yaw-rate", "removed-ideal-velocity-tau", "removed-gains",
         "removed-mount-pitch", "removed-camera", "removed-perception", "removed-trajectory",
         "removed-max-yaw-rate", "control-rate-not-a-divisor", "flat-and-grouped-search-speed",
         "flat-sweep-width", "flat-search-altitude", "flat-search-speed", "flat-square-altitude",
         "flat-square-speed", "flat-square-side", "task-1-above-ceiling", "square-past-arena"],
)
def test_bad_file_rejected_at_load(tmp_path, loader, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError):
        loader(str(path))


def test_nested_override_keeps_field_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"vehicle": {"tilt_limit_deg": 30}}))
    cfg = load_config(str(path))
    default = SimConfig()
    assert type(cfg.vehicle.tilt_limit_deg) is float
    assert cfg.vehicle == dataclasses.replace(default.vehicle, tilt_limit_deg=30.0)
    assert cfg == dataclasses.replace(default, vehicle=cfg.vehicle)


LEAVES = [
    "guidance.pn_gain", "guidance.kp_yaw", "guidance.k_heading", "guidance.suppression",
    "guidance.init_duration", "guidance.max_accel", "guidance.dropout_hold", "guidance.dropout_decay",
    "vehicle.tau_attitude", "vehicle.drag", "vehicle.tilt_limit_deg", "vehicle.hover_thrust",
    "vehicle.max_yaw_rate",
    "rates.dynamics_hz", "rates.control_hz", "rates.perception_hz",
    "rules.hit_radius", "rules.pursuit_timeout", "rules.bounds_x", "rules.bounds_y", "rules.bounds_z",
    "rules.fov_loss_timeout", "rules.crash_accel_g", "rules.crash_sustain",
]


def test_config_leaves_are_pinned():
    # every settable key, as dump-config writes it: a new knob is a test edit
    def leaves(tree, prefix=""):
        for key, value in tree.items():
            if isinstance(value, dict):
                yield from leaves(value, f"{prefix}{key}.")
            else:
                yield prefix + key

    assert list(leaves(dataclasses.asdict(SimConfig()))) == LEAVES


# For each leaf, a trial that the leaf binds in: (method, path, ideal dynamics,
# trial seed, rules it starts from), at 3 m/s and target fraction 0.5. The
# crash leaves start from the crash-record limit (0.8 g for 0.2 s), bounds_y
# from a 20 m box, and pursuit_timeout from a 4 s pursuit on a periodic path,
# whose box anchor does not depend on the horizon.
CRASH = {"crash_accel_g": 0.8, "crash_sustain": 0.2}
LIVE = {
    "guidance.pn_gain": ("tpn", "straight", False, 1000, {}),
    "guidance.kp_yaw": ("pn-heading", "straight", False, 1000, {}),
    "guidance.k_heading": ("hybrid", "straight", False, 1000, {}),
    "guidance.suppression": ("hybrid", "straight", False, 1000, {}),
    "guidance.init_duration": ("tpn", "straight", False, 1000, {}),
    "guidance.max_accel": ("pn-heading", "straight", False, 1000, {}),
    "guidance.dropout_hold": ("forecast-traj", "knot", True, 1001, {}),
    "guidance.dropout_decay": ("pn-heading", "knot", False, 1002, {}),
    "vehicle.tau_attitude": ("tpn", "straight", False, 1000, {}),
    "vehicle.drag": ("tpn", "straight", False, 1000, {}),
    "vehicle.tilt_limit_deg": ("tpn", "straight", False, 1000, {}),
    "vehicle.hover_thrust": ("pn-heading", "straight", False, 1000, {}),
    "vehicle.max_yaw_rate": ("forecast-traj", "straight", False, 1000, {}),
    "rates.dynamics_hz": ("tpn", "straight", False, 1000, {}),
    "rates.control_hz": ("tpn", "straight", False, 1000, {}),
    "rates.perception_hz": ("tpn", "straight", False, 1000, {}),
    "rules.hit_radius": ("tpn", "straight", False, 1000, {}),
    "rules.pursuit_timeout": ("pn-heading", "knot", False, 1000, {"pursuit_timeout": 4.0}),
    "rules.bounds_x": ("pn-heading", "straight", False, 1000, {}),
    "rules.bounds_y": ("tpn", "straight", False, 1000, {"bounds_y": 20.0}),
    "rules.bounds_z": ("forecast-traj", "straight", False, 1000, {}),
    "rules.fov_loss_timeout": ("los-traj", "knot", True, 1000, {}),
    "rules.crash_accel_g": ("tpn", "knot", False, 1000, CRASH),
    "rules.crash_sustain": ("forecast-traj", "straight", False, 1000, CRASH),
}
# the integer rates move to 250, 40 and 25 Hz, which keep control_hz a divisor
# of dynamics_hz; every other leaf is raised by 10%
MOVED = {"rates.dynamics_hz": 250, "rates.control_hz": 40, "rates.perception_hz": 25}
# a rules leaf's trial ends by the rule that the leaf sets
ENDED_BY = {"hit_radius": None, "pursuit_timeout": FailureReason.TIMEOUT, "bounds_x": FailureReason.OUT_OF_BOUNDS,
            "bounds_y": FailureReason.OUT_OF_BOUNDS, "bounds_z": FailureReason.OUT_OF_BOUNDS,
            "fov_loss_timeout": FailureReason.FOV_LOSS, "crash_accel_g": FailureReason.CRASH,
            "crash_sustain": FailureReason.CRASH}


def test_every_leaf_is_live():
    # a new leaf needs a row here, and each row's trial changes when its leaf moves
    assert list(LIVE) == LEAVES
    dead = []
    for leaf, (method, path, ideal, seed, rules) in LIVE.items():
        section, key = leaf.split(".")
        base = SimConfig()
        base.rules = dataclasses.replace(base.rules, **rules)
        part = getattr(base, section)
        moved = dataclasses.replace(
            base, **{section: dataclasses.replace(part, **{key: MOVED.get(leaf, 1.1 * getattr(part, key))})})
        cfg = ExperimentConfig(GuidanceMethod(method), 3.0, PathKind(path), 0.5, ideal_dynamics=ideal)
        record, _ = run_trial(cfg, seed, base)
        if section == "rules":
            assert record.failure_reason == ENDED_BY[key], leaf
        if run_trial(cfg, seed, moved)[0] == record:
            dead.append(leaf)
    assert dead == []


def test_scenario_search_group_maps_onto_fields(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**SCENARIO, "search": {"altitude": 3.0, "speed": 1.5}}))
    sc = load_scenario(str(path))
    assert (sc.search_altitude, sc.search_speed) == (3.0, 1.5)
    path.write_text(json.dumps({**SCENARIO, "search": {"height": 3.0}}))
    with pytest.raises(ValueError):
        load_scenario(str(path))


TASK2 = {"task": 2, "ball": {"center": [50.0, 20.0, 12.5]}}


@pytest.mark.parametrize(
    "data, match",
    [
        ({**SCENARIO, "balloons": [{"anchor": [25.0, 3.0, 2.2], "radius": 0}]}, "radii"),
        ({**SCENARIO, "balloons": [{"anchor": [25.0, 3.0, 2.2], "radius": -0.3}]}, "radii"),
        ({**TASK2, "ball": {**TASK2["ball"], "radius": 0}}, "radii"),
        ({**TASK2, "square_side": 0}, "square side"),
        ({**TASK2, "square_side": -12}, "square side"),
        ({**SCENARIO, "params": {"pop_contact": -1}}, "pop_contact"),
        ({**SCENARIO, "params": {"attack_speed": 0}}, "attack_speed"),
        ({**SCENARIO, "params": {"adjust_timeout": 0}}, "adjust_timeout"),
        ({**SCENARIO, "params": {"hold_after_loss": -1}}, "hold_after_loss"),
        ({**TASK2, "params": {"wait_timeout": 0}}, "wait_timeout"),
        ({**SCENARIO, "search_altitude": 9.0}, "Task 1 search altitude"),
        ({**SCENARIO, "search_altitude": 0.0}, "Task 1 search altitude"),
        ({**SCENARIO, "search_altitude": -2.4}, "Task 1 search altitude"),
        ({**SCENARIO, "arena": {"ceiling": 2.0}}, "Task 1 search altitude"),
        ({**TASK2, "square_side": 40.5}, "fit in the arena"),
        ({**TASK2, "arena": {"length": 11.0}}, "fit in the arena"),
        ({**TASK2, "ball": {**TASK2["ball"], "speed": 0}}, "ball speed"),
        ({**TASK2, "ball": {**TASK2["ball"], "speed": -6}}, "ball speed"),
        ({**SCENARIO, "faults": [{"kind": "gimbal_offset", "yaw_deg": 30.0, "delay": 0.2}]}, "does not read delay"),
        ({**SCENARIO, "faults": [{"kind": "camera_latency", "pitch_deg": -4.0}]}, "does not read pitch_deg"),
        ({**SCENARIO, "faults": [{"kind": "downdraft", "yaw_deg": 10.0}]}, "does not read yaw_deg"),
        ({**SCENARIO, "faults": [{"kind": "camera_latency", "impulse": 2.0}]}, "does not read impulse"),
        ({**TASK2, "faults": [{"kind": "downdraft"}]}, "no downdraft fault"),
        ({**SCENARIO, "ball": TASK2["ball"]}, "Task 1 scenario reads none"),
        ({**TASK2, "balloons": SCENARIO["balloons"]}, "reads no balloons"),
    ],
    ids=["zero-balloon-radius", "negative-balloon-radius", "zero-ball-radius", "zero-square-side",
         "negative-square-side", "negative-pop-contact", "zero-attack-speed", "zero-adjust-timeout",
         "negative-hold-after-loss", "zero-wait-timeout", "task-1-above-ceiling", "task-1-at-ground",
         "task-1-below-ground", "task-1-under-low-ceiling", "square-wider-than-arena",
         "arena-shorter-than-square", "zero-ball-speed", "negative-ball-speed", "gimbal-fault-with-delay",
         "latency-fault-with-pitch", "downdraft-fault-with-yaw", "latency-fault-with-impulse",
         "task-2-downdraft", "task-1-ball", "task-2-balloons"],
)
def test_invalid_scenario_rejected_at_load(data, match):
    # the base scenario loads; each case changes one value in it to an invalid one
    from_dict(Scenario, SCENARIO if data["task"] == 1 else TASK2)
    with pytest.raises(ValueError, match=match):
        from_dict(Scenario, data)


@pytest.mark.parametrize(
    "data, loads",
    [
        # 3 + 80 legs of 1 + 1248 and of 1 + 1249 waypoints
        ({**SCENARIO, "arena": {"length": 2496.0}, "search": {"sweep_width": 1.0}}, True),
        ({**SCENARIO, "arena": {"length": 2496.5}, "search": {"sweep_width": 1.0}}, False),
        ({**SCENARIO, "arena": {"length": 1e9}}, False),
        ({**SCENARIO, "search": {"sweep_width": 1e-6}}, False),
        ({**SCENARIO, "arena": {"width": 1.0}, "search": {"sweep_width": 1e-320}}, False),  # width / sweep is inf
        ({**TASK2, "arena": {"length": 1e6, "width": 1e6}, "search": {"square_side": 1e6}}, False),
    ],
    ids=["at-the-cap", "one-leg-point-over", "long-arena", "narrow-sweep", "subnormal-sweep", "wide-square"],
)
def test_search_plan_size_bounded_at_load(tmp_path, data, loads):
    # counted at load, so a plan over the cap is never built
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    if loads:
        load_scenario(str(path))
    else:
        with pytest.raises(ValueError, match="at most 100000 waypoints"):
            load_scenario(str(path))


def _divisor_of(dynamics: int):
    return st.sampled_from([c for c in range(1, dynamics + 1) if dynamics % c == 0])


def _like(value):
    """Strategy for config trees shaped like `value`, leaves near their defaults;
    a control rate is a divisor of the drawn dynamics rate, and a PN gain is
    above 2, as `validate` requires."""
    if isinstance(value, RatesConfig):
        return _like(value.dynamics_hz).flatmap(lambda dynamics: st.builds(
            RatesConfig, st.just(dynamics), _divisor_of(dynamics), _like(value.perception_hz)))
    if dataclasses.is_dataclass(value):
        parts = {f.name: _like(getattr(value, f.name)) for f in dataclasses.fields(value)}
        if isinstance(value, GuidanceParams):
            parts["pn_gain"] = st.floats(2.0, 1.5 * value.pn_gain, exclude_min=True)
        return st.fixed_dictionaries(parts).map(lambda kw: type(value)(**kw))
    if value is None:
        return st.none() | st.floats(-30.0, 30.0)
    if isinstance(value, int):
        return st.integers(max(1, value // 2), 2 * value)
    if value == 0.0:
        return st.floats(0.0, 1.0)
    return st.floats(0.5 * value, 1.5 * value)


@settings(deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(_like(SimConfig()))
def test_dump_then_load_round_trips(cfg):
    try:
        cfg.validate()
    except ValueError:
        assume(False)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        dump_config(cfg, path)
        assert load_config(path) == cfg


@st.composite
def _rates_and_duration(draw):
    dynamics = draw(st.integers(50, 1000))
    control = draw(_divisor_of(dynamics))
    rates = RatesConfig(dynamics, control, draw(st.integers(1, dynamics)))
    # step counts away from the half-step rounding boundary
    steps = draw(st.integers(0, 3000)) + draw(st.floats(-0.4, 0.4))
    return rates, max(0.0, steps) / dynamics


@given(_rates_and_duration())
def test_ticks_schedule(case):
    rates, duration = case
    ticks = list(rates.ticks(duration))
    assert [k for k, *_ in ticks] == list(range(round(duration * rates.dynamics_hz)))
    assert all(t == k * rates.dt for k, t, _, _ in ticks)
    if ticks:
        assert ticks[0][2:] == (True, True)
    frames = [k * rates.perception_hz // rates.dynamics_hz for k, *_ in ticks]
    perception = [k for k, _, due, _ in ticks if due]
    assert len(perception) == len(set(frames))
    assert perception == [k for k in range(len(ticks)) if k == 0 or frames[k] != frames[k - 1]]
    every = rates.dynamics_hz // rates.control_hz
    assert [k for k, _, _, due in ticks if due] == list(range(0, len(ticks), every))

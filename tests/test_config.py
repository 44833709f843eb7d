import dataclasses
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from pursuitsim.config import RatesConfig, SimConfig, dump_config, load_config
from pursuitsim.mission import load_scenario

SCENARIO = {"task": 1, "balloons": [{"anchor": [25.0, 3.0, 2.2]}], "duration": 30.0}


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
    ],
    ids=["string-gain", "slow-dynamics", "zero-window", "flat-gain-key", "misspelt-key", "short-anchor",
         "zero-hover-thrust", "zero-attitude-lag", "zero-trajectory-dt", "zero-replan-rate", "zero-width",
         "negative-timeout", "negative-hit-radius", "zero-fov-loss-timeout", "task-3", "task-2-without-ball",
         "unknown-fault-kind", "duplicate-fault-kind", "negative-latency", "zero-duration", "zero-search-speed",
         "zero-square-speed", "zero-sweep-width", "sweep-wider-than-arena", "square-at-ceiling"],
)
def test_bad_file_rejected_at_load(tmp_path, loader, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError):
        loader(str(path))


def test_nested_override_keeps_field_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"vehicle": {"gains": {"position": {"kd": 0.1}}, "tilt_limit_deg": 30}}))
    cfg = load_config(str(path))
    default = SimConfig().vehicle
    assert cfg.vehicle.gains.position.kd == 0.1
    assert cfg.vehicle.gains.position.kp == default.gains.position.kp
    assert cfg.vehicle.gains.velocity == default.gains.velocity
    assert cfg.vehicle.tilt_limit_deg == 30.0
    assert cfg.vehicle.drag == default.drag


def test_scenario_search_group_maps_onto_fields(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**SCENARIO, "search": {"altitude": 3.0, "speed": 1.5}}))
    sc = load_scenario(str(path))
    assert (sc.search_altitude, sc.search_speed) == (3.0, 1.5)
    path.write_text(json.dumps({**SCENARIO, "search": {"height": 3.0}}))
    with pytest.raises(ValueError):
        load_scenario(str(path))


def _like(value):
    """Strategy for config trees shaped like `value`, leaves near their defaults."""
    if dataclasses.is_dataclass(value):
        parts = {f.name: _like(getattr(value, f.name)) for f in dataclasses.fields(value)}
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
    rates = RatesConfig(dynamics, draw(st.integers(1, dynamics)), draw(st.integers(1, dynamics)))
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
    every = round(rates.dynamics_hz / rates.control_hz)
    assert [k for k, _, _, due in ticks if due] == list(range(0, len(ticks), every))

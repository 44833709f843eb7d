import json

import pytest

from pursuitsim.cli import main
from pursuitsim.config import load_config


def test_trial_writes_trace(tmp_path, capsys):
    rc = main(
        [
            "trial", "--method", "tpn", "--uav-speed", "3.0", "--path", "straight",
            "--target-fraction", "0.25", "--seed", "42", "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "tpn/straight" in out
    trace = (tmp_path / "trial_trace.csv").read_text().splitlines()
    assert trace[0].startswith("t,uav_x,uav_y,uav_z")
    assert len(trace) > 100


def test_matrix_partial_sweep(tmp_path, capsys):
    rc = main(
        [
            "matrix", "--method", "tpn", "--path", "straight",
            "--uav-speed", "3.0", "--target-fraction", "0.5",
            "--trials", "3", "--seed", "9", "--parallel", "1",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    assert (tmp_path / "trials.csv").exists()
    assert (tmp_path / "heatmap_tpn_straight.csv").exists()
    assert "hit_rate" in capsys.readouterr().out


def test_mission_scenario_file(tmp_path, capsys):
    scenario = {
        "task": 1,
        "arena": {"length": 100.0, "width": 40.0, "ceiling": 5.0},
        "balloons": [{"anchor": [25.0, 3.0, 2.2]}],
        "duration": 40.0,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    rc = main(["mission", "--scenario", str(path), "--out", str(tmp_path)])
    assert rc == 0
    assert "pops=1" in capsys.readouterr().out
    log = (tmp_path / "mission_events.jsonl").read_text().splitlines()
    events = [json.loads(line)["event"] for line in log]
    assert "pop" in events


def test_dump_config_round_trip(tmp_path):
    path = tmp_path / "config.json"
    assert main(["dump-config", str(path)]) == 0
    cfg = load_config(str(path))
    assert cfg.camera.width == 680
    assert cfg.guidance.pn_gain == 3.0


def test_config_flag_loads_overrides(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"guidance": {"pn_gain": 4.0}}))
    rc = main(
        [
            "trial", "--config", str(cfg_path), "--method", "tpn",
            "--target-fraction", "0.0", "--ideal-dynamics", "--out", str(tmp_path),
        ]
    )
    assert rc == 0


def test_unknown_method_is_an_error(tmp_path):
    with pytest.raises(SystemExit):
        main(["trial", "--method", "zigzag", "--out", str(tmp_path)])


def test_unknown_config_key_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"guidance": {"not_a_knob": 1.0}}))
    with pytest.raises(ValueError):
        main(["trial", "--config", str(bad), "--out", str(tmp_path)])


def test_mission_has_no_seed_option(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["mission", "--scenario", "s.json", "--seed", "1", "--out", str(tmp_path)])
    assert exc.value.code == 2

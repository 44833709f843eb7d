import dataclasses
import hashlib
import json

import pytest

from pursuitsim.cli import main
from pursuitsim.config import SimConfig, load_config
from pursuitsim.engagement import EngagementResult, FailureReason
from pursuitsim.geometry import Vec3
from pursuitsim.guidance import GuidanceMethod
from pursuitsim.harness import ExperimentConfig, run_trial
from pursuitsim.targets import PathKind


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


# sha256 of `trial_trace.csv` from `pursuitsim trial --path knot --seed 3`,
# per (method, --ideal-dynamics), measured with numpy 2.4.6. The ten cover a
# hit and every kind of miss but a crash, which `CRASH_RECORDS` below pins.
# pn-heading never moves the vehicle
# in either model (the target is first seen after handoff, with no closing
# velocity), so its two traces are the same file.
TRACE_SHA256 = {
    ("tpn", False): "f737e4aaf6352ecd9771392b45c9a332878862d43dacf0b9a297aee163ab8e43",
    ("pn-heading", False): "5495308db527f55721524c1e0183b480c94c755a87f14daae6be49b9ce2145f4",
    ("hybrid", False): "ebcee7407d2de8790f09952625ff7cc90a4fc70b5ff83309ccdeebe914dacf08",
    ("los-traj", False): "a3b0d9a0b328859b01e825ec6c5e02224856b44764b5f05d4352ab292ae43a74",
    ("forecast-traj", False): "d4906a64cc0e701ce6e42b455168e86581523ff4dc3887d1206deac3455ac024",
    ("tpn", True): "4231b585c8d587b4e3daae2093347ec455876618baefc839397912997bf82c9a",
    ("pn-heading", True): "5495308db527f55721524c1e0183b480c94c755a87f14daae6be49b9ce2145f4",
    ("hybrid", True): "7de73920091553389e4b1aa81f314c7f5ec2a811a313e4048d00724d290da540",
    ("los-traj", True): "1428f4a3388365f4a6369ea20651fe06e4f587303c522b007fb76944ee7fb47e",
    ("forecast-traj", True): "160aea76e453e4a33a31d6fc5321d0c164612a0b642101e8daf8ff2a3dbc3b82",
}


@pytest.mark.parametrize("method, ideal", list(TRACE_SHA256))
def test_trial_trace_is_pinned(tmp_path, capsys, method, ideal):
    argv = ["trial", "--method", method, "--path", "knot", "--seed", "3", "--out", str(tmp_path)]
    assert main(argv + ["--ideal-dynamics"] * ideal) == 0
    digest = hashlib.sha256((tmp_path / "trial_trace.csv").read_bytes()).hexdigest()
    assert digest == TRACE_SHA256[(method, ideal)]


# `los-traj` on a figure-8 at 5 m/s, target fraction 0.5, trial seed 11, under
# a 0.8 g crash limit held for 0.2 s: the trial crashes at 3.0 s, after
# handoff, and with --ideal-dynamics at 0.2 s, before it. Each record is pinned
# whole, every float with ==.
CRASH_BOUNDS_CENTER = Vec3(15.61792462035327, 0.47587399389227253, 1.6934025664119248)
CRASH_RECORDS = {
    False: EngagementResult(False, FailureReason.CRASH, 1.0, 2.163410237962402, 3.0, CRASH_BOUNDS_CENTER,
                            0.19071827482652579, 1.1814955685487265, seed=11),
    True: EngagementResult(False, FailureReason.CRASH, -1.8, 19.766464052815767, 0.2, CRASH_BOUNDS_CENTER,
                           0.0, 0.11639699310852078, seed=11),
}


@pytest.mark.parametrize("ideal", list(CRASH_RECORDS))
def test_crash_record_is_pinned(ideal):
    sim = SimConfig()
    sim.rules = dataclasses.replace(sim.rules, crash_accel_g=0.8, crash_sustain=0.2)
    cfg = ExperimentConfig(GuidanceMethod.LOS_TRAJ, 5.0, PathKind.FIGURE8, 0.5, ideal_dynamics=ideal)
    record, _ = run_trial(cfg, 11, sim)
    assert record == CRASH_RECORDS[ideal]


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


def test_matrix_runs_a_repeated_value_once(tmp_path, capsys):
    rc = main(
        [
            "matrix", "--trials", "1", "--method", "tpn", "--path", "straight",
            "--uav-speed", "3", "--uav-speed", "3", "--target-fraction", "0.5",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "ran 1 configurations" in out
    assert out.count("tpn/straight/uav3/frac0.5") == 1
    assert len((tmp_path / "trials.csv").read_text().splitlines()) == 2


def error_line(capsys, argv):
    """The one stderr line of a command that bad input stops with status 2."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("pursuitsim: error: ")
    return err


@pytest.mark.parametrize("flags", [
    ["--uav-speed", "nan"], ["--target-fraction", "nan"], ["--target-fraction", "inf", "--path", "figure8"],
])
def test_trial_rejects_non_finite_speeds(tmp_path, capsys, flags):
    assert "finite" in error_line(capsys, ["trial", *flags, "--out", str(tmp_path)])


def test_matrix_rejects_cells_that_would_share_seeds(tmp_path, capsys):
    argv = ["matrix", "--trials", "1", "--method", "tpn", "--path", "straight", "--uav-speed", "3",
            "--uav-speed", "3.0001", "--target-fraction", "0.5", "--out", str(tmp_path)]
    err = error_line(capsys, argv)
    assert "tpn/straight/uav3/frac0.5 and tpn/straight/uav3.0001/frac0.5" in err
    assert not (tmp_path / "trials.csv").exists()


@pytest.mark.parametrize("parallel", ["0", "-3"])
def test_matrix_rejects_parallelism_below_one(tmp_path, capsys, parallel):
    argv = ["matrix", "--trials", "1", "--method", "tpn", "--path", "straight", "--uav-speed", "3",
            "--target-fraction", "0.5", "--parallel", parallel, "--out", str(tmp_path)]
    assert f"parallelism must be >= 1, got {parallel}" in error_line(capsys, argv)
    assert not (tmp_path / "trials.csv").exists()


@pytest.mark.parametrize("flags", [["--parallel", "0"], ["--uav-speed", "3.0001"]])
def test_rejected_matrix_writes_nothing_to_stdout(tmp_path, capsys, flags):
    argv = ["matrix", "--trials", "1", "--method", "tpn", "--path", "straight", "--uav-speed", "3",
            "--target-fraction", "0.5", "--out", str(tmp_path)] + flags
    with pytest.raises(SystemExit):
        main(argv)
    assert capsys.readouterr().out == ""


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
    assert cfg.rates.dynamics_hz == 200
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


def test_unknown_method_is_an_error(tmp_path, capsys):
    assert "'zigzag'" in error_line(capsys, ["trial", "--method", "zigzag", "--out", str(tmp_path)])


def test_unknown_config_key_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"guidance": {"not_a_knob": 1.0}}))
    err = error_line(capsys, ["trial", "--config", str(bad), "--out", str(tmp_path)])
    assert "not_a_knob" in err


def test_bad_scenario_file_is_one_error_line(tmp_path, capsys):
    bad = tmp_path / "scenario.json"
    bad.write_text(json.dumps({"task": 1, "balloon": [{"anchor": [25.0, 3.0, 2.2]}]}))
    err = error_line(capsys, ["mission", "--scenario", str(bad), "--out", str(tmp_path)])
    assert "balloon" in err
    assert not (tmp_path / "mission_events.jsonl").exists()


def test_missing_scenario_file_is_one_error_line(tmp_path, capsys):
    err = error_line(capsys, ["mission", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert "nope.json" in err
    assert not (tmp_path / "mission_events.jsonl").exists()


def test_missing_config_file_is_one_error_line(tmp_path, capsys):
    err = error_line(capsys, ["trial", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert "nope.json" in err
    assert not (tmp_path / "trial_trace.csv").exists()


def test_mission_has_no_seed_option(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["mission", "--scenario", "s.json", "--seed", "1", "--out", str(tmp_path)])
    assert exc.value.code == 2

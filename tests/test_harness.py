import dataclasses
import math
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pursuitsim import harness
from pursuitsim.config import SimConfig
from pursuitsim.engagement import EngagementResult, FailureReason, TracePoint, run_engagement
from pursuitsim.geometry import Vec3
from pursuitsim.guidance import GuidanceMethod
from pursuitsim.harness import (
    TARGET_FRACTIONS,
    UAV_SPEEDS,
    ExperimentConfig,
    aggregate,
    classify_hit,
    full_matrix,
    run_matrix,
    run_trial,
    trial_seed,
    write_matrix_outputs,
)
from pursuitsim.targets import PathKind, StationaryPath, TargetPathSpec, build_path

SIM = SimConfig()
RULES = SIM.rules
HANDOFF = 2.0
TARGET = Vec3(10.0, 0.0, 0.0)  # every hand-built trace's stationary target, and its box anchor


def trace_from(points):
    """points: (t, uav_xyz, target_xyz, detected) with a 0.5 m radius target."""
    return [
        TracePoint(t, Vec3(*u), Vec3(*g), 0.5, det) for (t, u, g, det) in points
    ]


def hover_trace(dist_from_center, t_hit, detected=True, t_end=None):
    """Target fixed at origin-ish; UAV approaches to the given center distance
    at t_hit and stays there."""
    target = (10.0, 0.0, 0.0)
    pts = []
    t = 0.0
    t_end = t_end if t_end is not None else t_hit + 1.0
    while t <= t_end + 1e-9:
        d = 9.0 if t < t_hit else dist_from_center
        pts.append((t, (10.0 - d, 0.0, 0.0), target, detected))
        t += 0.1
    return trace_from(pts)


def replay_is_live(res):
    """Whether replaying a recorded trace gives the live record, less the
    LOS-rate summary, the trace and the seed that only the live run adds."""
    live = dataclasses.replace(res, phi_dot_handoff=0.0, phi_dot_final=0.0, trace=None, seed=None)
    return classify_hit(res.trace, RULES, HANDOFF, res.bounds_center) == live


class TestClassifyHit:
    def test_surface_distance_rule(self):
        # center distance 0.9 on a 0.5 m radius target = 0.4 m surface miss
        verdict = classify_hit(hover_trace(0.9, 5.0), RULES, HANDOFF, TARGET)
        assert verdict.hit
        # center distance 1.1 -> 0.6 m surface: no contact, runs to timeout
        verdict = classify_hit(hover_trace(1.1, 5.0, t_end=25.0), RULES, HANDOFF, TARGET)
        assert not verdict.hit and verdict.failure_reason == FailureReason.TIMEOUT

    def test_duration_boundaries(self):
        hit_early = classify_hit(hover_trace(0.9, HANDOFF + 19.9, t_end=HANDOFF + 20.5), RULES, HANDOFF, TARGET)
        assert hit_early.hit
        assert abs(hit_early.duration - 19.9) < 0.06
        hit_late = classify_hit(hover_trace(0.9, HANDOFF + 20.1, t_end=HANDOFF + 20.5), RULES, HANDOFF, TARGET)
        assert not hit_late.hit
        assert hit_late.failure_reason == FailureReason.TIMEOUT

    def test_fov_loss_rule(self):
        # continuous loss of sight for 3.2 s before the would-be hit
        pts = []
        t = 0.0
        while t <= 8.0 + 1e-9:
            detected = not (3.0 <= t < 6.2)
            d = 9.0 if t < 7.5 else 0.8
            pts.append((t, (10.0 - d, 0.0, 0.0), (10.0, 0.0, 0.0), detected))
            t += 0.1
        verdict = classify_hit(trace_from(pts), RULES, HANDOFF, TARGET)
        assert not verdict.hit
        assert verdict.failure_reason == FailureReason.FOV_LOSS
        assert verdict.end_time < 7.5

    def test_loss_shorter_than_limit_is_fine(self):
        pts = []
        t = 0.0
        while t <= 8.0 + 1e-9:
            detected = not (3.0 <= t < 5.5)  # 2.5 s gap only
            d = 9.0 if t < 7.5 else 0.8
            pts.append((t, (10.0 - d, 0.0, 0.0), (10.0, 0.0, 0.0), detected))
            t += 0.1
        assert classify_hit(trace_from(pts), RULES, HANDOFF, TARGET).hit

    def test_bounds_rule(self):
        # drift past the 35 m half-extent (17.5) in x from the target center
        pts = [
            (0.0, (0.0, 0.0, 0.0), (10.0, 0.0, 0.0), True),
            (1.0, (27.0, 0.0, 0.0), (10.0, 0.0, 0.0), True),
            (2.0, (28.0, 0.0, 0.0), (10.0, 0.0, 0.0), True),
        ]
        verdict = classify_hit(trace_from(pts), RULES, HANDOFF, TARGET)
        assert verdict.failure_reason == FailureReason.OUT_OF_BOUNDS

    def test_bounds_edge_inside(self):
        pts = [
            (0.0, (0.0, 0.0, 0.0), (10.0, 0.0, 0.0), True),
            (1.0, (10.0, 49.9, 0.0), (10.0, 0.0, 0.0), True),  # y half-extent 50
            (2.0, (9.6, 0.0, 0.0), (10.0, 0.0, 0.0), True),
        ]
        assert classify_hit(trace_from(pts), RULES, HANDOFF, TARGET).hit

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            classify_hit([], RULES, HANDOFF, TARGET)

    def test_replay_of_recorded_traces_is_the_live_verdict(self):
        # master seed 7, every method and path at 3 and 5 m/s, fraction 0.5:
        # an anchor re-derived from the trace's target positions disagrees
        # with the live verdict on 39 of these 120 trials
        for cfg in full_matrix(trials=4, speeds=(3.0, 5.0), fractions=(0.5,)):
            for i in range(cfg.trials):
                _, res = run_trial(cfg, trial_seed(7, cfg, i), SIM, record_trace=True)
                assert replay_is_live(res), f"{cfg.label()} trial {i}"

    @settings(max_examples=12, deadline=None)
    @given(
        method=st.sampled_from(list(GuidanceMethod)),
        path=st.sampled_from(list(PathKind)),
        speed=st.sampled_from(UAV_SPEEDS),
        fraction=st.sampled_from(TARGET_FRACTIONS),
        ideal=st.booleans(),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_replay_property(self, method, path, speed, fraction, ideal, seed):
        cfg = ExperimentConfig(method, speed, path, fraction, trials=1, ideal_dynamics=ideal)
        _, res = run_trial(cfg, seed, SIM, record_trace=True)
        # a trace stops before a crash step, so a replay cannot see one
        assume(res.failure_reason != FailureReason.CRASH)
        assert replay_is_live(res)


class TestAggregate:
    def result(self, hit, duration=5.0, completed=True):
        reason = None if hit else FailureReason.TIMEOUT if completed else FailureReason.CRASH
        return EngagementResult(hit, reason, duration, 1.0, duration + HANDOFF, TARGET, 0.1, 0.05, seed=0)

    def test_hit_rate_division(self):
        rows = [self.result(i < 24) for i in range(50)]
        agg = aggregate(rows)
        assert agg.hit_rate == 0.48

    def test_no_hits_has_no_duration(self):
        agg = aggregate([self.result(False) for _ in range(10)])
        assert agg.mean_pursuit_duration is None

    def test_mean_duration_over_hits_only(self):
        rows = [self.result(True, 4.0), self.result(True, 6.0), self.result(False, 20.0)]
        assert abs(aggregate(rows).mean_pursuit_duration - 5.0) < 1e-12

    def test_instability_flag(self):
        rows = [self.result(False, completed=(i >= 4)) for i in range(50)]
        assert aggregate(rows).unstable  # 46/50 = 0.92
        rows = [self.result(False, completed=(i >= 2)) for i in range(50)]
        assert not aggregate(rows).unstable  # 48/50 = 0.96


class TestRunTrial:
    def test_stationary_smoke_hit(self):
        cfg = ExperimentConfig(
            GuidanceMethod.TPN, 3.0, PathKind.STRAIGHT, 0.0, trials=1, ideal_dynamics=True
        )
        trial, _ = run_trial(cfg, trial_seed(1, cfg, 0), SIM)
        assert trial.hit
        assert trial.min_miss_distance <= RULES.hit_radius

    def test_determinism_bitwise(self):
        cfg = ExperimentConfig(GuidanceMethod.HYBRID, 3.0, PathKind.FIGURE8, 0.5, trials=1)
        seed = trial_seed(99, cfg, 3)
        a, _ = run_trial(cfg, seed, SIM)
        b, _ = run_trial(cfg, seed, SIM)
        assert a == b

    def test_undetectable_target_fails_fov_loss_after_grace(self):
        # a target parked behind the camera is never seen: the loss clock
        # starts at guidance handoff and trips 3 s later
        path = StationaryPath(Vec3(-15.0, 0.0, 0.0), 0.5)
        res = run_engagement(GuidanceMethod.TPN, 3.0, path, SIM)
        assert res.failure_reason == FailureReason.FOV_LOSS
        assert abs(res.end_time - (HANDOFF + 3.0)) < 0.1

    def test_hit_radius_monotonicity(self):
        # tightening the hit sphere can only remove hits, never add them
        cfg = ExperimentConfig(GuidanceMethod.TPN, 3.0, PathKind.STRAIGHT, 0.25, trials=1)
        import dataclasses

        tight_sim = SimConfig()
        tight_sim.rules = dataclasses.replace(SIM.rules, hit_radius=0.25)
        hits_wide = hits_tight = 0
        for i in range(10):
            seed = trial_seed(5, cfg, i)
            wide, _ = run_trial(cfg, seed, SIM)
            tight, _ = run_trial(cfg, seed, tight_sim)
            hits_wide += wide.hit
            hits_tight += tight.hit
            if tight.hit:
                assert tight.min_miss_distance <= 0.25
        assert hits_tight <= hits_wide


class TestMatrix:
    def small_configs(self, trials=3):
        return full_matrix(
            trials=trials,
            methods=[GuidanceMethod.TPN, GuidanceMethod.PN_HEADING],
            speeds=[3.0],
            paths=[PathKind.STRAIGHT],
            fractions=[0.25, 0.5],
        )

    def test_full_matrix_shape(self):
        configs = full_matrix()
        assert len(configs) == 5 * 4 * 3 * 4 == 240
        assert all(c.trials == 50 for c in configs)

    def test_parallelism_independence(self):
        configs = self.small_configs()
        serial = run_matrix(configs, 7, SIM, parallelism=1)
        parallel = run_matrix(configs, 7, SIM, parallelism=2)
        assert serial == parallel

    def test_rows_are_the_judges_records(self):
        configs = self.small_configs(trials=2)
        results = run_matrix(configs, 7, SIM)
        for cfg in configs:
            for i, row in enumerate(results[cfg]):
                seed = trial_seed(7, cfg, i)
                assert row == run_trial(cfg, seed, SIM)[0]
                assert (row.seed, row.trace) == (seed, None)
                spec = TargetPathSpec(cfg.path_kind, cfg.target_fraction * cfg.uav_speed, seed=seed)
                live = run_engagement(cfg.method, cfg.uav_speed, build_path(spec), SIM)
                assert (row.end_time, row.bounds_center) == (live.end_time, live.bounds_center)
        assert classify_hit(hover_trace(0.9, 5.0), RULES, HANDOFF, TARGET).seed is None

    def test_parallelism_below_one_rejected_before_any_trial(self, monkeypatch):
        ran = []
        monkeypatch.setattr(harness, "_run_config", lambda job: ran.append(job[0]) or [])
        for parallelism in (0, -3):
            with pytest.raises(ValueError, match="parallelism must be >= 1"):
                run_matrix(self.small_configs(), 7, SIM, parallelism=parallelism)
        assert ran == []

    @pytest.mark.parametrize("parallelism, workers", [(8, 4), (3, 3), (1, None)])
    def test_pool_has_at_most_one_worker_per_cell(self, monkeypatch, parallelism, workers):
        started = []

        class InlinePool:  # records its size and maps in this process
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return [fn(j) for j in jobs]

        monkeypatch.setattr(harness, "Pool", InlinePool)
        monkeypatch.setattr(harness, "_run_config", lambda job: [job[0].label()])
        configs = self.small_configs()  # four cells
        results = run_matrix(configs, 7, SIM, parallelism=parallelism)
        assert started == ([workers] if workers else [])
        assert results == {c: [c.label()] for c in configs}

    def test_trial_seeds_are_per_config_and_index(self):
        c1 = self.small_configs()[0]
        c2 = self.small_configs()[1]
        assert trial_seed(1, c1, 0) != trial_seed(1, c1, 1)
        assert trial_seed(1, c1, 0) != trial_seed(1, c2, 0)
        assert trial_seed(1, c1, 0) != trial_seed(2, c1, 0)
        assert trial_seed(1, c1, 0) == trial_seed(1, c1, 0)

    def test_csv_outputs(self, tmp_path):
        configs = self.small_configs()
        results = run_matrix(configs, 11, SIM, parallelism=1)
        out = tmp_path / "run"
        write_matrix_outputs(results, str(out), 11)
        trials_csv = (out / "trials.csv").read_text().splitlines()
        assert trials_csv[0].startswith("method,path,uav_speed")
        assert len(trials_csv) == 1 + sum(c.trials for c in configs)
        heatmaps = sorted(p.name for p in out.glob("heatmap_*.csv"))
        assert heatmaps == ["heatmap_pn_heading_straight.csv", "heatmap_tpn_straight.csv"]
        grid = (out / "heatmap_tpn_straight.csv").read_text().splitlines()
        assert grid[0] == "target_fraction,hit_3,dur_3,unstable_3"
        assert len(grid) == 3  # header + two fractions
        assert (out / "matrix_meta.json").exists()

    def test_heatmap_of_a_partial_grid_leaves_missing_cells_empty(self, tmp_path):
        # two diagonal cells of a 2 x 2 grid: the two that did not run stay empty
        def one_trial(hit):
            return [EngagementResult(hit, None if hit else FailureReason.TIMEOUT, 4.0, 1.0, 6.0, TARGET, seed=0)]

        results = {
            ExperimentConfig(GuidanceMethod.TPN, 2.0, PathKind.STRAIGHT, 0.25, trials=1): one_trial(True),
            ExperimentConfig(GuidanceMethod.TPN, 4.0, PathKind.STRAIGHT, 0.75, trials=1): one_trial(False),
        }
        write_matrix_outputs(results, str(tmp_path), 5)
        assert (tmp_path / "heatmap_tpn_straight.csv").read_text().splitlines() == [
            "target_fraction,hit_2,hit_4,dur_2,dur_4,unstable_2,unstable_4",
            "0.25,1.000000,,4.000000,,0,",
            "0.75,,0.000000,,,,0",
        ]

    def test_rerun_is_byte_identical(self, tmp_path):
        configs = self.small_configs(trials=2)
        for name in ("a", "b"):
            results = run_matrix(configs, 31, SIM, parallelism=1)
            write_matrix_outputs(results, str(tmp_path / name), 31)
        for fname in ("trials.csv", "heatmap_tpn_straight.csv", "heatmap_pn_heading_straight.csv"):
            assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()


class TestCrashIsolation:
    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_raising_trial_is_recorded_as_crash(self, monkeypatch, capsys, tmp_path, parallelism):
        configs = full_matrix(
            trials=2, methods=[GuidanceMethod.TPN], speeds=[3.0],
            paths=[PathKind.STRAIGHT], fractions=[0.25, 0.5],
        )
        clean = run_matrix(configs, 3, SIM)
        bad_cfg = configs[1]
        bad_seed = trial_seed(3, bad_cfg, 0)
        bad_spec = TargetPathSpec(PathKind.STRAIGHT, bad_cfg.target_fraction * bad_cfg.uav_speed, seed=bad_seed)
        bad_start = build_path(bad_spec).sample(0.0)
        real = harness.run_engagement

        def flaky(method, uav_speed, path, cfg, **kwargs):
            if path.sample(0.0) == bad_start:
                raise RuntimeError("injected failure")
            return real(method, uav_speed, path, cfg, **kwargs)

        monkeypatch.setattr(harness, "run_engagement", flaky)
        results = run_matrix(configs, 3, SIM, parallelism=parallelism)
        crashed = results[bad_cfg][0]
        assert crashed.failure_reason == FailureReason.CRASH
        assert (crashed.hit, crashed.seed) == (False, bad_seed)
        assert results[configs[0]] == clean[configs[0]]
        assert results[bad_cfg][1] == clean[bad_cfg][1]
        assert aggregate(results[bad_cfg]).unstable  # 1 of 2 trials completed
        assert not aggregate(clean[bad_cfg]).unstable
        if parallelism == 1:  # forked workers write to their own stderr
            err = capsys.readouterr().err
            assert f"seed={bad_seed}" in err and "RuntimeError: injected failure" in err
        # the crash row in trials.csv: its seed, no hit, and `nan` numbers
        write_matrix_outputs(results, str(tmp_path), 3)
        rows = (tmp_path / "trials.csv").read_text().splitlines()
        assert rows[3] == f"tpn,straight,3,0.5,0,{bad_seed},0,crash,nan,nan,nan,nan"


class TestConfigValidation:
    def test_bad_trials(self):
        with pytest.raises(ValueError):
            ExperimentConfig(GuidanceMethod.TPN, 3.0, PathKind.STRAIGHT, 0.5, trials=0).validate()

    @pytest.mark.parametrize("speed, fraction", [
        (math.nan, 0.5), (math.inf, 0.5), (3.0, math.nan), (3.0, math.inf),
    ])
    def test_non_finite_speeds_rejected_before_any_trial(self, speed, fraction):
        cfg = ExperimentConfig(GuidanceMethod.TPN, speed, PathKind.FIGURE8, fraction, trials=1)
        with pytest.raises(ValueError):
            cfg.validate()
        good = ExperimentConfig(GuidanceMethod.TPN, 3.0, PathKind.STRAIGHT, 0.5, trials=1)
        with pytest.raises(ValueError):  # not a crash row per cell
            run_matrix([good, cfg], 1, SIM)

    def test_invalid_sim_rejected_before_any_trial(self, monkeypatch):
        # not one NaN crash row per trial
        sim = SimConfig()
        sim.rules = dataclasses.replace(sim.rules, hit_radius=-1.0)
        ran = []
        monkeypatch.setattr(harness, "_run_config", lambda job: ran.append(job[0]) or [])
        cfg = ExperimentConfig(GuidanceMethod.TPN, 3.0, PathKind.STRAIGHT, 0.5, trials=3)
        with pytest.raises(ValueError, match="rules.hit_radius"):
            run_matrix([cfg], 0, sim)
        assert ran == []

    def test_label(self):
        cfg = ExperimentConfig(GuidanceMethod.TPN, 3.0, PathKind.KNOT, 0.25)
        assert cfg.label() == "tpn/knot/uav3/frac0.25"

    def test_cells_that_would_share_seeds_rejected_before_any_trial(self, monkeypatch):
        # the seed key holds speeds to 3 decimals, so these two distinct cells draw the same seeds
        a = ExperimentConfig(GuidanceMethod.TPN, 3.0, PathKind.STRAIGHT, 0.5, trials=1)
        b = dataclasses.replace(a, uav_speed=3.0001)
        assert trial_seed(0, a, 0) == trial_seed(0, b, 0)
        ran = []
        monkeypatch.setattr(harness, "_run_config", lambda job: ran.append(job[0]) or [])
        with pytest.raises(ValueError, match=re.escape(f"{a.label()} and {b.label()} would draw the same")):
            run_matrix([a, b], 0, SIM)
        assert ran == []
        # the same cell under the other dynamics model, or repeated, is no collision
        ideal = dataclasses.replace(b, ideal_dynamics=True)
        assert list(run_matrix([a, ideal, a], 0, SIM)) == [a, ideal]


class TestHeatmapGrid:
    def test_full_grid_shape_per_method_path(self, tmp_path):
        # one method/path pair over the full 4 fractions x 4 speeds grid
        configs = full_matrix(trials=2, methods=[GuidanceMethod.TPN], paths=[PathKind.STRAIGHT])
        assert len(configs) == 16
        results = run_matrix(configs, 3, SIM, parallelism=2)
        write_matrix_outputs(results, str(tmp_path), 3)
        grid = (tmp_path / "heatmap_tpn_straight.csv").read_text().splitlines()
        header = grid[0].split(",")
        assert header[0] == "target_fraction"
        assert header[1:5] == ["hit_2", "hit_3", "hit_4", "hit_5"]
        assert len(grid) == 1 + 4  # four fraction rows
        fractions = [row.split(",")[0] for row in grid[1:]]
        assert fractions == ["0.25", "0.5", "0.75", "1"]
        for row in grid[1:]:
            assert len(row.split(",")) == len(header)

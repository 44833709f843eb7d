"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with -s to see them all).

The trend criterion runs the complete experiment matrix at 50 trials per
cell; everything else is seconds. Module-scoped fixtures share the two
expensive runs across criteria.
"""

import math
import os
import time

import pytest

from pursuitsim.config import SimConfig
from pursuitsim.engagement import FailureReason, TracePoint
from pursuitsim.geometry import Vec3, ZERO3
from pursuitsim.guidance import GuidanceMethod
from pursuitsim.harness import (
    ExperimentConfig,
    aggregate,
    classify_hit,
    full_matrix,
    run_matrix,
    run_trial,
    trial_seed,
    write_matrix_outputs,
)
from pursuitsim.mission import (
    Arena,
    BalloonSpec,
    BallSpec,
    FaultSpec,
    Scenario,
    ValidityGate,
    run_mission,
)
from pursuitsim.perception import centroid, estimate_depth, render_sphere
from pursuitsim.targets import PathKind
from pursuitsim.trajectory import forecast_target
from pursuitsim.vehicle import (
    AttitudeCommand,
    PoseController,
    StepConstants,
    VelocityController,
    at_rest,
    dynamics_step,
    pose_of,
)
from pursuitsim.trajectory import Waypoint

SIM = SimConfig()
MASTER_SEED = 20200831
PN_TRIALS = 100
MATRIX_TRIALS = 50


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def pn_guarantee_runs():
    cfg = ExperimentConfig(
        GuidanceMethod.TPN, 3.0, PathKind.STRAIGHT, 0.25,
        trials=PN_TRIALS, ideal_dynamics=True,
    )
    t0 = time.perf_counter()
    trials = [run_trial(cfg, trial_seed(MASTER_SEED, cfg, i), SIM)[0] for i in range(PN_TRIALS)]
    wall = time.perf_counter() - t0
    return trials, wall


@pytest.fixture(scope="module")
def matrix_results():
    configs = full_matrix(trials=MATRIX_TRIALS)
    workers = min(os.cpu_count() or 1, 8)
    t0 = time.perf_counter()
    results = run_matrix(configs, MASTER_SEED, SIM, parallelism=workers)
    wall = time.perf_counter() - t0
    return configs, results, wall, workers


def test_criterion_1_pn_collision_guarantee(pn_guarantee_runs):
    trials, wall = pn_guarantee_runs
    hits = sum(1 for t in trials if t.hit)
    misses_ok = all(t.min_miss_distance <= SIM.rules.hit_radius for t in trials if t.hit)
    ok = hits >= 95 and wall < 30.0 and misses_ok
    report(
        "criterion 1 (ideal-dynamics PN collision guarantee)",
        ok,
        f"{hits}/{PN_TRIALS} intercepts within 0.5 m (need >= 95), runtime {wall:.1f}s (need < 30)",
    )


def test_criterion_2_los_nulling(pn_guarantee_runs):
    trials, _ = pn_guarantee_runs
    hits = [t for t in trials if t.hit and t.phi_dot_handoff > 0.0]
    nulled = sum(1 for t in hits if t.phi_dot_final < t.phi_dot_handoff)
    frac = nulled / len(hits) if hits else 0.0
    ok = len(hits) > 0 and frac >= 0.90
    report(
        "criterion 2 (LOS-rate nulling in hits)",
        ok,
        f"final |LOS rate| below handoff value in {nulled}/{len(hits)} hits ({100*frac:.0f}%, need >= 90%)",
    )


def test_criterion_3_monocular_depth_accuracy():
    k = SIM.camera.intrinsics()
    diameter = 1.0
    rows = []
    worst = 0.0
    for off_deg in (0.0, 30.0):
        for rng in (5.0, 10.0, 15.0, 20.0, 30.0):
            nominal_px = k.fx * math.tan(math.asin(0.5 / rng))
            if nominal_px < 5.0:
                rows.append(f"{rng:g}m@{off_deg:g}deg skipped ({nominal_px:.1f}px)")
                continue
            a = math.radians(off_deg)
            center = Vec3(math.sin(a) * rng, 0.0, math.cos(a) * rng)
            seg = render_sphere(center, diameter / 2.0, k)
            det = centroid(seg)
            est = estimate_depth(seg, det, k, diameter)
            err = abs(est.d_center - rng) / rng
            worst = max(worst, err)
            rows.append(f"{rng:g}m@{off_deg:g}deg {100*err:.2f}%")
            assert est.valid
    ok = worst <= 0.03
    report(
        "criterion 3 (monocular depth accuracy)",
        ok,
        f"worst range error {100*worst:.2f}% (need <= 3%): " + ", ".join(rows),
    )


def test_criterion_4_forecast_exactness():
    # noise-free fixes on a constant-velocity target from a common origin
    worst = 0.0
    cases = [
        (Vec3(4.0, 3.0, 12.0), Vec3(0.7, -0.4, 0.2), Vec3(0.5, 0.2, 3.0), 0.8),
        (Vec3(0.0, 0.0, 10.0), Vec3(1.0, 0.0, 0.0), Vec3(0.0, 0.0, 2.0), 1.0),
        (Vec3(-2.0, 5.0, 20.0), Vec3(-0.3, 0.9, -0.5), Vec3(0.1, 0.4, 4.0), 0.4),
    ]
    for p0, v_true, uav_vel, dt in cases:
        p1 = p0 + v_true.scale(dt)
        v_t, t_c, p_c = forecast_target(p0.norm(), p1.norm(), p0.unit(), p1.unit(), 0.0, dt, uav_vel)
        truth = p1 + v_true.scale(t_c)
        worst = max(worst, (p_c - truth).norm())
    ok = worst <= 1e-6
    report(
        "criterion 4 (forecast exactness on constant-velocity targets)",
        ok,
        f"worst predicted-position error {worst:.2e} m (need <= 1e-6)",
    )


def test_criterion_5_trend_reproduction(matrix_results):
    configs, results, wall, workers = matrix_results

    def rate(method, path, speed, frac):
        cfg = next(
            c for c in configs
            if c.method == method and c.path_kind == path
            and c.uav_speed == speed and c.target_fraction == frac
        )
        return aggregate(results[cfg]).hit_rate

    # (a) slower engagements hit more often
    slow = rate(GuidanceMethod.TPN, PathKind.FIGURE8, 2.0, 0.25)
    fast = rate(GuidanceMethod.TPN, PathKind.FIGURE8, 5.0, 1.00)
    ok_a = slow >= fast

    # (b) PN-Heading cannot close on an equal-speed straight target
    pnh_100 = [rate(GuidanceMethod.PN_HEADING, PathKind.STRAIGHT, s, 1.00) for s in (2.0, 3.0, 4.0, 5.0)]
    ok_b = all(r == 0.0 for r in pnh_100)

    # (c) the LOS-guidance class beats the trajectory-following class
    los_methods = (GuidanceMethod.TPN, GuidanceMethod.PN_HEADING, GuidanceMethod.HYBRID)
    traj_methods = (GuidanceMethod.LOS_TRAJ, GuidanceMethod.FORECAST_TRAJ)

    def class_mean(methods):
        rates = [
            aggregate(results[c]).hit_rate for c in configs if c.method in methods
        ]
        return sum(rates) / len(rates)

    los_mean = class_mean(los_methods)
    traj_mean = class_mean(traj_methods)
    ok_c = los_mean >= traj_mean

    # runtime budget is stated for 8 cores; scale what this host has
    budget = 20.0 * 60.0 * 8.0 / workers
    ok_time = wall <= budget
    ok = ok_a and ok_b and ok_c and ok_time
    report(
        "criterion 5 (trend reproduction over the full matrix)",
        ok,
        f"(a) tpn fig8 slow {slow:.2f} >= fast {fast:.2f}; "
        f"(b) pn-heading straight @100% rates {pnh_100} all zero; "
        f"(c) LOS class {los_mean:.3f} >= trajectory class {traj_mean:.3f}; "
        f"runtime {wall/60:.1f} min on {workers} cores (budget {budget/60:.0f} min)",
    )


def test_criterion_6_hit_classifier_table():
    rules = SIM.rules
    handoff = 2.0
    target = Vec3(10.0, 0.0, 0.0)  # the stationary target, and so the box anchor

    def trace(points):
        return [TracePoint(t, Vec3(*u), Vec3(*g), 0.5, det) for (t, u, g, det) in points]

    def approach(dist_center, t_hit, t_end, lose=None):
        pts = []
        t = 0.0
        while t <= t_end + 1e-9:
            d = 9.0 if t < t_hit else dist_center
            detected = True if lose is None else not (lose[0] <= t < lose[1])
            pts.append((t, (10.0 - d, 0.0, 0.0), (10.0, 0.0, 0.0), detected))
            t += 0.1
        return trace(pts)

    checks = []
    v = classify_hit(approach(0.9, 5.0, 6.0), rules, handoff, target)
    checks.append(("0.4 m surface pass is a hit", v.hit))
    v = classify_hit(approach(1.1, 5.0, 25.0), rules, handoff, target)
    checks.append(("0.6 m surface pass times out", not v.hit and v.failure_reason == FailureReason.TIMEOUT))
    v = classify_hit(approach(0.9, handoff + 19.9, handoff + 20.4), rules, handoff, target)
    checks.append(("hit at 19.9 s counts", v.hit))
    v = classify_hit(approach(0.9, handoff + 20.1, handoff + 20.4), rules, handoff, target)
    checks.append(("hit at 20.1 s is a timeout", not v.hit and v.failure_reason == FailureReason.TIMEOUT))
    v = classify_hit(approach(0.9, 7.5, 8.0, lose=(3.0, 6.2)), rules, handoff, target)
    checks.append(("3.2 s of lost sight fails", v.failure_reason == FailureReason.FOV_LOSS))
    v = classify_hit(approach(0.9, 7.5, 8.0, lose=(3.0, 5.5)), rules, handoff, target)
    checks.append(("2.5 s of lost sight is fine", v.hit))
    out = trace(
        [
            (0.0, (0.0, 0.0, 0.0), (10.0, 0.0, 0.0), True),
            (1.0, (28.0, 0.0, 0.0), (10.0, 0.0, 0.0), True),
        ]
    )
    v = classify_hit(out, rules, handoff, target)
    checks.append(("leaving the 35x100x40 box fails", v.failure_reason == FailureReason.OUT_OF_BOUNDS))
    edge = trace(
        [
            (0.0, (0.0, 0.0, 0.0), (10.0, 0.0, 0.0), True),
            (1.0, (10.0, 49.9, 0.0), (10.0, 0.0, 0.0), True),
            (2.0, (9.6, 0.0, 0.0), (10.0, 0.0, 0.0), True),
        ]
    )
    v = classify_hit(edge, rules, handoff, target)
    checks.append(("box edge is still inside", v.hit))

    failed = [name for name, ok in checks if not ok]
    report(
        "criterion 6 (hit classifier boundary table)",
        not failed,
        f"{len(checks) - len(failed)}/{len(checks)} table cases exact" + (f"; failed: {failed}" if failed else ""),
    )


def test_criterion_7_mission_task1_pop_and_recovery():
    balloon = BalloonSpec(anchor=Vec3(25.0, 3.0, 2.2))
    nominal = run_mission(Scenario(task=1, arena=Arena(), balloons=[balloon], duration=45.0), SIM)
    modes = [(e.data.get("from"), e.data.get("to")) for e in nominal.events if e.event == "mode"]
    nominal_ok = (
        nominal.pops == 1
        and nominal.misses == 0
        and ("global_plan", "adjust") in modes
        and ("adjust", "attack") in modes
    )

    faulted = run_mission(
        Scenario(
            task=1, arena=Arena(), balloons=[balloon],
            faults=[FaultSpec(kind="gimbal_offset", yaw_deg=35.0)],
            duration=80.0,
        ),
        SIM,
    )
    seq = [e.event for e in faulted.events if e.event in ("registered", "pop", "miss")]
    fault_ok = (
        faulted.misses == 1
        and faulted.pops == 1
        and seq.index("miss") < seq.index("pop")
        and seq.count("registered") >= 2
    )
    ok = nominal_ok and fault_ok
    report(
        "criterion 7 (mission task 1: pop; gimbal fault -> miss then recovery pop)",
        ok,
        f"nominal pops={nominal.pops} misses={nominal.misses}; "
        f"faulted sequence {seq} (pops={faulted.pops}, misses={faulted.misses})",
    )


def test_criterion_8_mission_task2_receding_failure():
    sc = Scenario(
        task=2,
        arena=Arena(),
        ball=BallSpec(center=Vec3(70.0, 14.0, 12.5), speed=6.0, width=40.0, height=6.0,
                      phase=3 * math.pi / 2),
        gate=ValidityGate(min_bbox_area_fraction=5e-6, bottom_exclusion_fraction=0.30),
        duration=20.0,
        square_altitude=11.0,
    )
    res = run_mission(sc, SIM)
    cmds = [(t, v.z, z) for (t, mode, v, z) in res.command_log if mode == "adjust"]
    early = [vz for (t, vz, _) in cmds if t <= 0.3]
    late = [vz for (t, vz, _) in cmds if 1.7 <= t <= 2.3]
    window = [(t, vz) for (t, vz, _) in cmds if t <= 2.3]
    n = len(window)
    sx = sum(t for t, _ in window)
    sy = sum(v for _, v in window)
    sxx = sum(t * t for t, _ in window)
    sxy = sum(t * v for t, v in window)
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    max_uav_z = max(z for (t, _, z) in cmds if t <= 2.3)
    path_mean_z = 12.5

    climbing_first = sum(early) / len(early) > 0.05
    descending_later = sum(late) / len(late) < -0.03
    downward_trend = slope < -0.02
    path_above = max_uav_z < path_mean_z
    no_intercept = res.min_ball_distance > 1.0
    ok = climbing_first and descending_later and downward_trend and path_above and no_intercept
    report(
        "criterion 8 (task 2 receding-target failure geometry)",
        ok,
        f"v_z early {sum(early)/len(early):+.3f} -> late {sum(late)/len(late):+.3f}, "
        f"slope {slope:+.3f}/s, uav z <= {max_uav_z:.2f} < path {path_mean_z}, "
        f"min ball distance {res.min_ball_distance:.2f} m (no intercept)",
    )


def test_criterion_9_matrix_determinism(tmp_path):
    configs = full_matrix(
        trials=5,
        methods=[GuidanceMethod.TPN, GuidanceMethod.LOS_TRAJ],
        speeds=[2.0, 4.0],
        paths=[PathKind.STRAIGHT],
        fractions=[0.25, 1.0],
    )
    names = None
    for run in ("first", "second"):
        results = run_matrix(configs, 1234, SIM, parallelism=2)
        out = tmp_path / run
        write_matrix_outputs(results, str(out), 1234)
        names = sorted(p.name for p in out.iterdir())
    identical = all(
        (tmp_path / "first" / n).read_bytes() == (tmp_path / "second" / n).read_bytes()
        for n in names
    )
    report(
        "criterion 9 (byte-identical matrix reruns)",
        identical,
        f"{len(names)} output files compared byte-for-byte: {names}",
    )


def test_criterion_10_controller_sanity():
    params = SIM.vehicle

    # hover convergence from a 1 m offset
    pose_ctl = PoseController()
    vel_ctl = VelocityController(params)
    target = Waypoint(Vec3(0, 0, 5.0), 0.0)
    state = at_rest(Vec3(1.0, 0.0, 4.5))
    dt = 1.0 / SIM.rates.dynamics_hz
    every = SIM.rates.dynamics_hz // SIM.rates.control_hz
    step_constants = StepConstants.of(params, dt)
    att = AttitudeCommand(0.0, 0.0, 0.0, params.hover_thrust)
    for k in range(int(3.0 / dt)):
        if k % every == 0:
            pose = pose_of(state)
            v_ref = pose_ctl.step(target, ZERO3, pose)
            att = vel_ctl.step(v_ref, ZERO3, 0.0, pose, every * dt)
        state = dynamics_step(state, att, step_constants)
    hover_err = (pose_of(state).position - Vec3(0, 0, 5.0)).norm()
    hover_ok = hover_err < 0.05

    # first-order attitude step response at tau, 2tau, 3tau
    tau = params.tau_attitude
    target_roll = math.radians(10.0)
    cmd = AttitudeCommand(target_roll, 0.0, 0.0, params.hover_thrust)
    st = at_rest(ZERO3)
    step_ok = True
    details = []
    checkpoints = {round(k * tau / dt): k for k in (1, 2, 3)}
    for step in range(1, max(checkpoints) + 1):
        st = dynamics_step(st, cmd, step_constants)
        if step in checkpoints:
            k = checkpoints[step]
            expected = target_roll * (1.0 - math.exp(-k))
            rel = abs(pose_of(st).roll - expected) / expected
            details.append(f"{k}tau {100*rel:.2f}%")
            step_ok = step_ok and rel < 0.02
    ok = hover_ok and step_ok
    report(
        "criterion 10 (controller sanity)",
        ok,
        f"hover error {100*hover_err:.1f} cm after 3 s (need < 5); "
        f"attitude step error at {', '.join(details)} (need < 2%)",
    )

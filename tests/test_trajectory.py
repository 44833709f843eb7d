import io
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pursuitsim.geometry import Vec3, ZERO3
from pursuitsim.trajectory import (
    ForecastInputs,
    NoClosingVelocityError,
    STITCH_TOL,
    Trajectory,
    Waypoint,
    cursor_step,
    forecast_target,
    gen_forecast_trajectory,
    gen_los_accel_trajectory,
    stitch,
)

ORIGIN_WP = Waypoint(ZERO3, 0.0, 0.0)


class TestKinematicTrajectory:
    def test_vertical_acceleration_rollout(self):
        traj = gen_los_accel_trajectory(ORIGIN_WP, ZERO3, Vec3(0, 0, 1.0), 1.0, 0.1)
        assert len(traj) == 11
        end = traj.waypoints[-1]
        assert (end.position - Vec3(0, 0, 0.5)).norm() < 1e-12
        assert abs(end.speed - 1.0) < 1e-12

    def test_zero_acceleration_is_straight_line(self):
        v0 = Vec3(2.0, -1.0, 0.5)
        traj = gen_los_accel_trajectory(ORIGIN_WP, v0, ZERO3, 2.0, 0.1)
        for t, wp in zip(traj.times, traj.waypoints):
            assert (wp.position - v0.scale(t)).norm() < 1e-12
            assert abs(wp.speed - v0.norm()) < 1e-12

    def test_single_period_limit_matches_direct_command(self):
        # as the horizon shrinks to one step the rollout is just the
        # acceleration command applied for one control period
        a = Vec3(1.0, 0.0, -0.5)
        v0 = Vec3(0.0, 1.0, 0.0)
        dt = 0.1
        traj = gen_los_accel_trajectory(ORIGIN_WP, v0, a, dt, dt)
        assert len(traj) == 2
        v_end = v0 + a.scale(dt)
        assert abs(traj.waypoints[-1].speed - v_end.norm()) < 1e-12
        assert (traj.waypoints[-1].position - (v0.scale(dt) + a.scale(0.5 * dt * dt))).norm() < 1e-12

    def test_finite_difference_consistency(self):
        # exact for constant acceleration: (p_{k+1}-p_k)/dt == mean velocity
        traj = gen_los_accel_trajectory(
            Waypoint(Vec3(3, 1, 2), 0.3, 1.0), Vec3(1.0, -0.4, 0.2), Vec3(-0.3, 0.8, 0.1), 2.0, 0.1
        )
        for i in range(len(traj) - 1):
            dt = traj.times[i + 1] - traj.times[i]
            dp = (traj.waypoints[i + 1].position - traj.waypoints[i].position).scale(1.0 / dt)
            v_i = Vec3(1.0, -0.4, 0.2) + Vec3(-0.3, 0.8, 0.1).scale(traj.times[i])
            v_j = Vec3(1.0, -0.4, 0.2) + Vec3(-0.3, 0.8, 0.1).scale(traj.times[i + 1])
            mean = (v_i + v_j).scale(0.5)
            assert (dp - mean).norm() < 1e-9

    def test_yaw_faces_velocity(self):
        traj = gen_los_accel_trajectory(ORIGIN_WP, Vec3(1.0, 1.0, 0.0), ZERO3, 1.0, 0.5)
        assert abs(traj.waypoints[-1].yaw - math.pi / 4) < 1e-12


class TestForecast:
    def test_stationary_target(self):
        v_t, t_c, p_c = forecast_target(
            ForecastInputs(10.0, 10.0, Vec3(0, 0, 1.0), Vec3(0, 0, 1.0), 0.0, 1.0, Vec3(0, 0, 2.0))
        )
        assert v_t == ZERO3
        assert (p_c - Vec3(0, 0, 10.0)).norm() < 1e-12

    def test_time_to_collision(self):
        _, t_c, _ = forecast_target(
            ForecastInputs(10.0, 10.0, Vec3(0, 0, 1.0), Vec3(0, 0, 1.0), 0.0, 1.0, Vec3(0, 0, 2.0))
        )
        assert abs(t_c - 5.0) < 1e-12

    def test_crossing_target_against_exact_arithmetic(self):
        # independent recomputation of the three formulas with Fractions on
        # the exact normalized los1 components
        norm1 = math.sqrt(0.1 * 0.1 + 1.0)
        los1 = Vec3(0.1 / norm1, 0.0, 1.0 / norm1)
        inputs = ForecastInputs(10.0, 10.0, Vec3(0, 0, 1.0), los1, 0.0, 1.0, Vec3(0, 0, 2.0))
        v_t, t_c, p_c = forecast_target(inputs)

        l1x = Fraction(los1.x)
        l1z = Fraction(los1.z)
        d = Fraction(10)
        vt_x = d * l1x / 1
        vt_z = (d * l1z - d) / 1
        closing = Fraction(2) * l1z
        t_exact = d / closing
        pc_x = vt_x * t_exact + d * l1x
        pc_z = vt_z * t_exact + d * l1z
        assert abs(v_t.x - float(vt_x)) < 1e-12
        assert abs(v_t.z - float(vt_z)) < 1e-12
        assert abs(t_c - float(t_exact)) < 1e-12
        assert abs(p_c.x - float(pc_x)) < 1e-9
        assert abs(p_c.z - float(pc_z)) < 1e-9
        # sanity against the spec-level magnitudes
        assert abs(v_t.x - 0.995) < 1e-3
        assert abs(v_t.z + 0.0496) < 1e-3
        assert abs(t_c - 5.0249) < 1e-3

    def test_constant_velocity_target_is_predicted_exactly(self):
        # noise-free fixes from a common origin on a zero-acceleration target
        p0 = Vec3(4.0, 3.0, 12.0)
        v_true = Vec3(0.7, -0.4, 0.2)
        t0, t1 = 0.0, 0.8
        p1 = p0 + v_true.scale(t1 - t0)
        uav_vel = Vec3(0.5, 0.2, 3.0)
        inputs = ForecastInputs(
            p0.norm(), p1.norm(), p0.unit(), p1.unit(), t0, t1, uav_vel
        )
        v_t, t_c, p_c = forecast_target(inputs)
        assert (v_t - v_true).norm() < 1e-12
        truth = p1 + v_true.scale(t_c)
        assert (p_c - truth).norm() < 1e-9

    def test_no_closing_component_raises(self):
        with pytest.raises(NoClosingVelocityError):
            forecast_target(
                ForecastInputs(10.0, 10.0, Vec3(0, 0, 1.0), Vec3(0, 0, 1.0), 0.0, 1.0, Vec3(2.0, 0, 0))
            )

    def test_slow_closing_below_threshold_raises(self):
        with pytest.raises(NoClosingVelocityError):
            forecast_target(
                ForecastInputs(10.0, 10.0, Vec3(0, 0, 1.0), Vec3(0, 0, 1.0), 0.0, 1.0, Vec3(0, 0, 0.05))
            )


class TestForecastTrajectory:
    def test_uniform_speed(self):
        traj = gen_forecast_trajectory(ORIGIN_WP, Vec3(0, 0, 10.0), 5.0, 0.1)
        for wp in traj.waypoints:
            assert abs(wp.speed - 2.0) < 1e-12
        assert (traj.waypoints[-1].position - Vec3(0, 0, 10.0)).norm() < 1e-9

    def test_degenerate_hold(self):
        traj = gen_forecast_trajectory(ORIGIN_WP, ZERO3, 5.0, 0.1)
        assert len(traj) == 2
        assert traj.waypoints[0].speed == 0.0
        assert traj.waypoints[0].position == traj.waypoints[1].position

    def test_slow_distant_collision(self):
        traj = gen_forecast_trajectory(ORIGIN_WP, Vec3(10.0, 0, 0), 20.0, 0.1)
        assert abs(traj.waypoints[0].speed - 0.5) < 1e-12


class TestCursor:
    def traj(self):
        times = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
        wps = [Waypoint(Vec3(t, 0, 0), 0.0, 1.0) for t in times]
        return Trajectory(times, wps)

    def test_lookahead_time(self):
        cur = cursor_step(self.traj(), 0.0, 10.0, 0.05)
        assert abs(cur.lookahead_time - 0.15) < 1e-12
        assert cur.lookahead_time >= 1.0 / 10.0

    def test_fresh_trajectory_tracks_first_waypoint(self):
        cur = cursor_step(self.traj(), 0.0, 10.0, 0.05)
        assert cur.tracking_index == 0
        assert cur.lookahead_index == 2  # 0.0 + 0.15 -> first waypoint at/after

    def test_beyond_end_clamps_to_final(self):
        cur = cursor_step(self.traj(), 99.0, 10.0, 0.05)
        assert cur.tracking_index == len(self.traj()) - 1
        assert cur.lookahead_index == cur.tracking_index
        assert cur.tracking_point == cur.lookahead_point

    def test_monotone_under_min_index(self):
        t = self.traj()
        cur = cursor_step(t, 0.35, 10.0, 0.05)
        again = cursor_step(t, 0.05, 10.0, 0.05, min_index=cur.tracking_index)
        assert again.tracking_index >= cur.tracking_index

    def test_lookahead_never_before_tracking(self):
        t = self.traj()
        for now in (0.0, 0.12, 0.31, 0.5, 1.0):
            cur = cursor_step(t, now, 10.0, 0.05)
            assert t.times[cur.lookahead_index] >= t.times[cur.tracking_index]


class TestStitch:
    def line(self, start: Vec3, direction: Vec3, n: int, dt: float) -> Trajectory:
        times = [i * dt for i in range(n)]
        wps = [Waypoint(start + direction.scale(i * dt), 0.0, direction.norm()) for i in range(n)]
        return Trajectory(times, wps)

    def test_prefix_replan_is_idempotent(self):
        old = self.line(ZERO3, Vec3(1, 0, 0), 6, 0.1)
        new = self.line(ZERO3, Vec3(1, 0, 0), 6, 0.1)
        out = stitch(old, new, 0)
        assert out.times == new.times
        for a, b in zip(out.waypoints, new.waypoints):
            assert (a.position - b.position).norm() < 1e-12

    def test_stitch_at_end_is_append(self):
        old = self.line(ZERO3, Vec3(1, 0, 0), 4, 0.1)
        new = self.line(Vec3(0.3, 0, 0), Vec3(0, 1, 0), 3, 0.1)
        out = stitch(old, new, 3)
        assert len(out) == 4 + 2
        assert abs(out.duration - (0.3 + 0.2)) < 1e-12

    def test_mid_stitch_duration(self):
        old = self.line(ZERO3, Vec3(1, 0, 0), 6, 0.1)
        new = self.line(Vec3(0.2, 0, 0), Vec3(0, 1, 0), 4, 0.1)
        out = stitch(old, new, 2)
        assert abs(out.duration - (0.2 + 0.3)) < 1e-12

    def test_position_continuity_at_seam(self):
        old = self.line(ZERO3, Vec3(1, 0, 0), 6, 0.1)
        new = self.line(Vec3(0.2, 0, 0), Vec3(0, 1, 0), 4, 0.1)
        out = stitch(old, new, 2)
        for i in range(len(out) - 1):
            gap = (out.waypoints[i + 1].position - out.waypoints[i].position).norm()
            assert gap <= 0.11

    def test_gap_rejected(self):
        old = self.line(ZERO3, Vec3(1, 0, 0), 6, 0.1)
        new = self.line(Vec3(5.0, 0, 0), Vec3(0, 1, 0), 4, 0.1)
        with pytest.raises(ValueError):
            stitch(old, new, 2)


coords = st.floats(-50.0, 50.0)
points = st.builds(Vec3, coords, coords, coords)
steps = st.lists(st.floats(0.01, 1.0), min_size=1, max_size=12)
later_points = st.lists(points, min_size=12, max_size=12)


def _random_trajectory(t0: float, start: Vec3, dts: list[float], rest: list[Vec3]) -> Trajectory:
    times = [t0]
    for dt in dts:
        times.append(times[-1] + dt)
    positions = [start] + rest[: len(dts)]
    return Trajectory(times, [Waypoint(p, 0.0, 1.0) for p in positions])


class TestStitchProperties:
    @given(
        steps, later_points, points,
        st.floats(0.0, 30.0), steps, later_points,
        st.data(),
    )
    def test_prefix_kept_timeline_increasing_no_jump(self, old_dts, old_rest, start, new_t0, new_dts, new_rest, data):
        old = _random_trajectory(0.0, start, old_dts, old_rest)
        i = data.draw(st.integers(0, len(old) - 1))
        seam = old.waypoints[i].position
        nudge = Vec3(0.4 * STITCH_TOL, 0.0, 0.0)  # inside the stitch tolerance
        new = _random_trajectory(new_t0, seam + nudge, new_dts, new_rest)
        out = stitch(old, new, i)

        assert out.times[: i + 1] == old.times[: i + 1]
        assert out.waypoints[: i + 1] == old.waypoints[: i + 1]
        assert out.waypoints[i + 1:] == new.waypoints[1:]
        assert all(b > a for a, b in zip(out.times, out.times[1:]))
        # the new segment's spacing in time is kept after re-basing
        for j in range(1, len(new)):
            got = out.times[i + j] - out.times[i]
            assert abs(got - (new.times[j] - new.times[0])) <= 1e-9
        # no position jump: the seam step is the new segment's first step
        seam_step = out.waypoints[i + 1].position - out.waypoints[i].position
        first_step = new.waypoints[1].position - new.waypoints[0].position
        assert (seam_step - first_step).norm() <= STITCH_TOL


class TestTrajectoryType:
    def test_requires_two_waypoints(self):
        with pytest.raises(ValueError):
            Trajectory([0.0], [ORIGIN_WP])

    def test_requires_increasing_times(self):
        with pytest.raises(ValueError):
            Trajectory([0.0, 0.0], [ORIGIN_WP, ORIGIN_WP])

    def test_csv_dump(self):
        traj = gen_los_accel_trajectory(ORIGIN_WP, Vec3(1, 0, 0), ZERO3, 0.2, 0.1)
        buf = io.StringIO()
        traj.dump_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "t,x,y,z,yaw,speed"
        assert len(lines) == 1 + len(traj)

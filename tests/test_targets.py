import io
import math

import pytest

from pursuitsim.targets import (
    PathKind,
    PeriodicCurvePath,
    StationaryPath,
    StraightPath,
    TargetPathSpec,
    build_path,
    dump_path_csv,
)


def spec(kind, speed=2.0, seed=7, **kw):
    return TargetPathSpec(kind=kind, speed=speed, seed=seed, **kw)


def untilted_fig8(speed=2.0, seed=3):
    return build_path(
        spec(
            PathKind.FIGURE8,
            speed=speed,
            seed=seed,
            fig8_max_tilt=0.0,
            fig8_center_x=(15.0, 15.0),
            fig8_center_y=(0.0, 0.0),
            fig8_center_z=(0.0, 0.0),
        )
    )


def path_samples(path, n=600):
    period = path.period if path.period is not None else 10.0
    return [path.sample(period * i / n) for i in range(n + 1)]


class TestFigure8:
    def test_untilted_extents(self):
        states = path_samples(untilted_fig8())
        xs = [s.position.x for s in states]
        zs = [s.position.z for s in states]
        assert abs((max(xs) - min(xs)) - 10.0) / 10.0 < 0.01
        assert abs((max(zs) - min(zs)) - 6.0) / 6.0 < 0.01
        # untilted curve stays in its vertical plane
        ys = [s.position.y for s in states]
        assert max(ys) - min(ys) < 1e-9

    def test_tilt_preserves_shape(self):
        # a proper rotation leaves pairwise distances alone
        flat = untilted_fig8(seed=3)
        tilted = build_path(
            spec(
                PathKind.FIGURE8,
                seed=3,
                fig8_center_x=(15.0, 15.0),
                fig8_center_y=(0.0, 0.0),
                fig8_center_z=(0.0, 0.0),
            )
        )
        ts = [0.0, 1.1, 2.7, 4.0, 6.3]
        p_flat = [flat.sample(t).position for t in ts]
        p_tilt = [tilted.sample(t).position for t in ts]
        for i in range(len(ts)):
            for j in range(i + 1, len(ts)):
                d1 = (p_flat[i] - p_flat[j]).norm()
                d2 = (p_tilt[i] - p_tilt[j]).norm()
                assert abs(d1 - d2) < 1e-6


class TestKnot:
    def test_bounding_box_fits_cube(self):
        path = build_path(spec(PathKind.KNOT, seed=11))
        states = path_samples(path, 1200)
        for axis in range(3):
            vals = [s.position[axis] for s in states]
            extent = max(vals) - min(vals)
            assert extent <= 2.0 + 1e-6
        # the curve actually fills the cube rather than a corner of it
        xs = [s.position.x for s in states]
        assert max(xs) - min(xs) > 1.8


class TestSpeedNormalization:
    @pytest.mark.parametrize("kind", [PathKind.FIGURE8, PathKind.KNOT])
    @pytest.mark.parametrize("speed", [1.0, 2.0, 4.5])
    def test_arc_length_over_period(self, kind, speed):
        # quadrature oracle: integrate the sampled path length over one
        # period and divide by the period
        path = build_path(spec(kind, speed=speed, seed=5))
        n = 4000
        total = 0.0
        prev = path.sample(0.0).position
        for i in range(1, n + 1):
            cur = path.sample(path.period * i / n).position
            total += (cur - prev).norm()
            prev = cur
        assert abs(total / path.period - speed) / speed < 0.02

    @pytest.mark.parametrize("kind", [PathKind.FIGURE8, PathKind.KNOT])
    def test_speed_constant_along_path(self, kind):
        path = build_path(spec(kind, speed=2.0, seed=9))
        for s in path_samples(path, 200):
            assert abs(s.velocity.norm() - 2.0) / 2.0 < 0.02

    def test_periodicity(self):
        path = build_path(spec(PathKind.FIGURE8, seed=2))
        a = path.sample(0.0)
        b = path.sample(path.period)
        assert (a.position - b.position).norm() < 1e-6


class TestStraight:
    def test_linear_motion(self):
        path = build_path(spec(PathKind.STRAIGHT, speed=3.0, seed=21))
        assert isinstance(path, StraightPath)
        s0 = path.sample(0.0)
        s5 = path.sample(5.0)
        assert (s5.position - (s0.position + s0.velocity.scale(5.0))).norm() < 1e-12
        assert abs(s0.velocity.norm() - 3.0) < 1e-9

    def test_start_within_fov_cone(self):
        for seed in range(40):
            path = build_path(spec(PathKind.STRAIGHT, seed=seed))
            p = path.sample(0.0).position
            bearing = math.atan2(abs(p.y), p.x)
            assert bearing < math.radians(52.5)

    def test_slope_bounded(self):
        for seed in range(40):
            path = build_path(spec(PathKind.STRAIGHT, seed=seed))
            v = path.sample(0.0).velocity
            slope = math.asin(abs(v.z) / v.norm())
            assert slope <= math.radians(15.0) + 1e-9

    def test_stationary_override(self):
        path = build_path(spec(PathKind.STRAIGHT, speed=0.0, seed=4))
        assert isinstance(path, StationaryPath)
        assert path.sample(3.0).velocity.norm() == 0.0
        assert path.sample(0.0).position == path.sample(9.0).position


class TestVelocityOracle:
    @pytest.mark.parametrize("kind", [PathKind.FIGURE8, PathKind.KNOT])
    def test_velocity_matches_central_difference(self, kind):
        path = build_path(spec(kind, speed=2.0, seed=13))
        h = 1e-3
        for t in (0.3, 1.7, 4.1, 7.9):
            v = path.sample(t).velocity
            p_plus = path.sample(t + h).position
            p_minus = path.sample(t - h).position if t > h else None
            fd = (p_plus - p_minus).scale(1.0 / (2 * h))
            assert (v - fd).norm() <= 1e-4 * 2.0


class TestDeterminism:
    @pytest.mark.parametrize("kind", list(PathKind))
    def test_same_seed_identical(self, kind):
        a = build_path(spec(kind, seed=99))
        b = build_path(spec(kind, seed=99))
        for t in (0.0, 0.7, 3.2, 11.8):
            sa, sb = a.sample(t), b.sample(t)
            assert sa.position == sb.position
            assert sa.velocity == sb.velocity

    def test_different_seed_differs(self):
        a = build_path(spec(PathKind.FIGURE8, seed=1))
        b = build_path(spec(PathKind.FIGURE8, seed=2))
        assert (a.sample(0.0).position - b.sample(0.0).position).norm() > 1e-6


class TestApi:
    def test_validation(self):
        with pytest.raises(ValueError):
            build_path(TargetPathSpec(PathKind.STRAIGHT, speed=-1.0, seed=0))

    def test_csv_dump(self):
        path = build_path(spec(PathKind.STRAIGHT))
        buf = io.StringIO()
        dump_path_csv(path, buf, duration=1.0, dt=0.25)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "t,x,y,z"
        assert len(lines) == 6

    def test_arc_schedule_sampling(self):
        path = build_path(spec(PathKind.FIGURE8, speed=2.0, seed=5))
        assert isinstance(path, PeriodicCurvePath)
        direct = path.sample(1.3)
        via_arc = path.sample_arc(2.0 * 1.3, 2.0)
        assert (direct.position - via_arc.position).norm() < 1e-9

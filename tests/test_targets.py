import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pursuitsim
from pursuitsim.geometry import IDENTITY_ROT, Vec3, attitude_rotation
from pursuitsim.targets import (
    PathKind,
    PeriodicCurvePath,
    StationaryPath,
    StraightPath,
    TargetPathSpec,
    build_path,
    matrix_shape,
)


def spec(kind, speed=2.0, seed=7):
    return TargetPathSpec(kind=kind, speed=speed, seed=seed)


def placed_fig8(rotation=IDENTITY_ROT):
    # the matrix's figure-8 shape, centred 15 m ahead
    shape = matrix_shape(PathKind.FIGURE8)
    return PeriodicCurvePath(shape, rotation, Vec3(15.0, 0.0, 0.0), 2.0, 0.5, phase=2.3, direction=-1.0)


def path_times(path, n=600):
    period = path.period if path.period is not None else 10.0
    return [period * i / n for i in range(n + 1)]


def path_samples(path, n=600):
    return [path.sample(t) for t in path_times(path, n)]


class TestFigure8:
    def test_untilted_extents(self):
        states = path_samples(placed_fig8())
        xs = [s.position.x for s in states]
        zs = [s.position.z for s in states]
        assert abs((max(xs) - min(xs)) - 10.0) / 10.0 < 0.01
        assert abs((max(zs) - min(zs)) - 6.0) / 6.0 < 0.01
        # untilted curve stays in its vertical plane
        ys = [s.position.y for s in states]
        assert max(ys) - min(ys) < 1e-9

    def test_tilt_preserves_shape(self):
        # a proper rotation leaves pairwise distances alone
        flat = placed_fig8()
        tilted = placed_fig8(attitude_rotation(0.3, -0.4, 0.2))
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
        for t in path_times(path, 200):
            assert abs(path.velocity(t).norm() - 2.0) / 2.0 < 0.02

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
        assert (s5.position - (s0.position + path.velocity(0.0).scale(5.0))).norm() < 1e-12
        assert abs(path.velocity(0.0).norm() - 3.0) < 1e-9

    def test_start_within_fov_cone(self):
        for seed in range(40):
            path = build_path(spec(PathKind.STRAIGHT, seed=seed))
            p = path.sample(0.0).position
            bearing = math.atan2(abs(p.y), p.x)
            assert bearing < math.radians(52.5)

    def test_slope_bounded(self):
        for seed in range(40):
            path = build_path(spec(PathKind.STRAIGHT, seed=seed))
            v = path.velocity(0.0)
            slope = math.asin(abs(v.z) / v.norm())
            assert slope <= math.radians(15.0) + 1e-9

    def test_stationary_override(self):
        path = build_path(spec(PathKind.STRAIGHT, speed=0.0, seed=4))
        assert isinstance(path, StationaryPath)
        assert path.velocity(3.0).norm() == 0.0
        assert path.sample(0.0).position == path.sample(9.0).position


class TestVelocityOracle:
    @pytest.mark.parametrize("kind", [PathKind.FIGURE8, PathKind.KNOT])
    def test_velocity_matches_central_difference(self, kind):
        path = build_path(spec(kind, speed=2.0, seed=13))
        h = 1e-3
        for t in (0.3, 1.7, 4.1, 7.9):
            v = path.velocity(t)
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
            assert a.velocity(t) == b.velocity(t)

    def test_different_seed_differs(self):
        a = build_path(spec(PathKind.FIGURE8, seed=1))
        b = build_path(spec(PathKind.FIGURE8, seed=2))
        assert (a.sample(0.0).position - b.sample(0.0).position).norm() > 1e-6


class TestApi:
    def test_validation(self):
        with pytest.raises(ValueError):
            build_path(TargetPathSpec(PathKind.STRAIGHT, speed=-1.0, seed=0))

    def test_arc_schedule_sampling(self):
        path = build_path(spec(PathKind.FIGURE8, speed=2.0, seed=5))
        assert isinstance(path, PeriodicCurvePath)
        direct = path.sample(1.3)
        via_arc = path.sample_arc(2.0 * 1.3)
        assert (direct.position - via_arc.position).norm() < 1e-9


class TestPositionAt:
    @settings(deadline=None, max_examples=80)
    @given(
        kind=st.sampled_from(list(PathKind)),
        seed=st.integers(0, 2**63 - 1),
        speed=st.just(0.0) | st.floats(0.1, 10.0),
        t=st.floats(0.0, 60.0),
    )
    def test_is_the_sampled_position_bit_for_bit(self, kind, seed, speed, t):
        """The judge's float accessor and `sample` give one position: a speed
        of 0 builds a stationary path, and otherwise the kind's own path."""
        path = build_path(spec(kind, speed=speed, seed=seed))
        xyz = path.position_at(t)
        assert xyz == path.sample(t).position
        if isinstance(path, StationaryPath):
            assert xyz == path.position
        elif isinstance(path, StraightPath):
            # the straight line's Vec3 expression, which position_at writes out
            assert xyz == path.start + path.velocity(t).scale(t)
        else:
            assert isinstance(path, PeriodicCurvePath) and xyz == path.sample_arc(speed * t).position


class TestSharedShape:
    @pytest.mark.parametrize("kind", [PathKind.FIGURE8, PathKind.KNOT])
    def test_builds_share_one_table(self, kind):
        a = build_path(spec(kind, seed=1))
        b = build_path(spec(kind, seed=2))
        assert a.shape.theta_of_s is b.shape.theta_of_s

    @settings(deadline=None, max_examples=40)
    @given(
        kind=st.sampled_from(list(PathKind)),
        seed=st.integers(0, 2**63 - 1),
        speed=st.just(0.0) | st.floats(0.1, 10.0),
        t=st.floats(0.0, 60.0),
    )
    def test_shared_shape_samples_like_a_fresh_one(self, kind, seed, speed, t):
        shared = build_path(spec(kind, speed=speed, seed=seed))
        matrix_shape.cache_clear()
        fresh = build_path(spec(kind, speed=speed, seed=seed))
        if kind != PathKind.STRAIGHT and speed > 0.0:
            assert fresh.shape is not shared.shape
        assert fresh.sample(t) == shared.sample(t)
        assert fresh.velocity(t) == shared.velocity(t)
        assert fresh.period == shared.period

    def test_no_shape_built_at_import(self):
        # set-up time counts import, and a mission never flies the matrix shapes
        code = "from pursuitsim import targets; print(targets.matrix_shape.cache_info().currsize)"
        src = os.path.dirname(os.path.dirname(pursuitsim.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "0"

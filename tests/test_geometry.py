import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pursuitsim.geometry import (
    BehindCameraError,
    CameraIntrinsics,
    Pose,
    Rot3,
    Vec3,
    ZERO3,
    attitude_rotation,
    body_heading,
    body_to_world,
    camera_to_body,
    body_to_camera,
    camera_to_world,
    los_rate,
    mount_rotation,
    pixel_to_los,
    project_to_pixel,
    world_point_to_camera,
    world_to_body,
    wrap_angle,
)


K = CameraIntrinsics(fx=260.85, fy=260.85, cx=320.0, cy=240.0, width=640, height=480)


def vec_close(a: Vec3, b: Vec3, tol=1e-9) -> bool:
    return (a - b).norm() <= tol


class TestPixelToLos:
    def test_principal_point_maps_to_optical_axis(self):
        assert pixel_to_los(320.0, 240.0, K) == Vec3(0.0, 0.0, 1.0)

    def test_one_focal_length_right(self):
        r = pixel_to_los(580.85, 240.0, K)
        assert abs(r.x - 1.0) < 1e-12 and r.y == 0.0 and r.z == 1.0

    def test_generic_pixel(self):
        k = CameraIntrinsics(100.0, 100.0, 340.0, 240.0, 680, 480)
        r = pixel_to_los(100.0, 50.0, k)
        assert abs(r.x + 2.4) < 1e-12
        assert abs(r.y + 1.9) < 1e-12
        assert r.z == 1.0


class TestProjectToPixel:
    def test_on_axis_point(self):
        assert project_to_pixel(Vec3(0.0, 0.0, 5.0), K) == (320.0, 240.0)

    def test_inverse_of_back_projection(self):
        u, v = project_to_pixel(Vec3(1.0, 0.0, 1.0), K)
        assert abs(u - 580.85) < 1e-9 and abs(v - 240.0) < 1e-9

    def test_behind_camera(self):
        with pytest.raises(BehindCameraError):
            project_to_pixel(Vec3(0.0, 0.0, -1.0), K)

    def test_round_trip_restores_direction(self):
        for x in (-2.0, -0.3, 0.0, 0.7, 1.9):
            for y in (-1.5, 0.0, 0.4):
                for z in (0.2, 1.0, 30.0):
                    p = Vec3(x, y, z)
                    u, v = project_to_pixel(p, K)
                    ray = pixel_to_los(u, v, K)
                    # same direction up to positive scale
                    assert vec_close(ray.unit(), p.unit(), 1e-9)


class TestLosRate:
    def test_known_angle(self):
        phi_dot, n_unit, valid = los_rate(Vec3(0, 0, 1), Vec3(math.tan(0.1), 0, 1), 0.1)
        assert valid
        assert abs(phi_dot - 1.0) < 1e-9
        assert vec_close(n_unit, Vec3(1, 0, 0))

    def test_identical_rays_degenerate(self):
        r = Vec3(0.3, -0.2, 1.0)
        phi_dot, n_unit, valid = los_rate(r, r, 0.0333)
        assert not valid
        assert phi_dot == 0.0
        assert n_unit == ZERO3

    def test_rotation_oracle(self):
        # rotating r_prev by the reported angle about r_prev x r_curr must
        # reproduce r_curr's direction (independent Rodrigues implementation)
        r_prev = Vec3(0.0, 0.0, 1.0)
        r_curr = Vec3(0.05, 0.05, 1.0)
        dt = 0.0333
        phi_dot, n_unit, valid = los_rate(r_prev, r_curr, dt)
        assert valid
        angle = phi_dot * dt
        a = np.array(r_prev) / np.linalg.norm(r_prev)
        b = np.array(r_curr) / np.linalg.norm(r_curr)
        axis = np.cross(a, b)
        axis /= np.linalg.norm(axis)
        rotated = (
            a * math.cos(angle)
            + np.cross(axis, a) * math.sin(angle)
            + axis * np.dot(axis, a) * (1 - math.cos(angle))
        )
        assert np.linalg.norm(rotated - b) < 1e-9

    def test_orthogonal_to_previous_ray(self):
        r_prev = Vec3(0.4, -0.1, 1.0)
        r_curr = Vec3(0.38, -0.05, 1.0)
        _, n_unit, valid = los_rate(r_prev, r_curr, 0.05)
        assert valid
        assert abs(n_unit.dot(r_prev)) <= 1e-9
        assert abs(n_unit.norm() - 1.0) <= 1e-9

    def test_swap_preserves_magnitude_and_flips_direction(self):
        r_a = Vec3(0.1, 0.2, 1.0)
        r_b = Vec3(0.15, 0.18, 1.0)
        phi1, n1, _ = los_rate(r_a, r_b, 0.1)
        phi2, n2, _ = los_rate(r_b, r_a, 0.1)
        assert abs(phi1 - phi2) < 1e-12
        assert n1.dot(n2) < 0.0

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            los_rate(Vec3(0, 0, 1), Vec3(0.1, 0, 1), 0.0)


class TestBodyHeading:
    def test_dead_ahead(self):
        assert body_heading(Vec3(1, 0, 0)) == 0.0

    def test_forty_five_left(self):
        assert abs(body_heading(Vec3(1, 1, 0)) - math.pi / 4) < 1e-12

    def test_directly_right(self):
        assert abs(body_heading(Vec3(0, -1, 0)) + math.pi / 2) < 1e-12

    def test_scale_invariant(self):
        v = Vec3(0.8, -0.33, 0.2)
        assert body_heading(v) == body_heading(v.scale(37.5))


class TestFrameTransforms:
    def test_optical_axis_maps_to_body_forward(self):
        assert vec_close(camera_to_body(Vec3(0, 0, 1), 0.0), Vec3(1, 0, 0), 1e-12)

    def test_image_right_maps_to_body_right(self):
        # camera x (image right) is body -y (body y is left)
        assert vec_close(camera_to_body(Vec3(1, 0, 0), 0.0), Vec3(0, -1, 0), 1e-12)

    def test_mount_pitch_tilts_ray_down(self):
        # a -10 deg mount pitch tilts the optical axis 10 deg below body x;
        # oracle is an explicit rotation matrix about the body y axis
        mount = math.radians(-10.0)
        got = camera_to_body(Vec3(0, 0, 1), mount)
        ry = np.array(
            [
                [math.cos(-mount), 0, math.sin(-mount)],
                [0, 1, 0],
                [-math.sin(-mount), 0, math.cos(-mount)],
            ]
        )
        expect = ry @ np.array([1.0, 0.0, 0.0])
        assert np.allclose([got.x, got.y, got.z], expect, atol=1e-12)
        assert got.z < 0  # pointing below the body x axis

    def test_round_trips_are_identity(self):
        pose = Pose(Vec3(4.0, -2.0, 7.0), ZERO3, 0.21, -0.35, 1.9)
        for v in (Vec3(1, 0, 0), Vec3(0.2, -0.7, 0.4), Vec3(-1, 2, -3)):
            assert vec_close(world_to_body(body_to_world(v, pose), pose), v, 1e-12)
            assert vec_close(body_to_camera(camera_to_body(v, -0.2), -0.2), v, 1e-12)

    def test_world_direction_with_identity_attitude(self):
        pose = Pose(ZERO3, ZERO3, 0.0, 0.0, 0.0)
        assert vec_close(camera_to_world(Vec3(0, 0, 1), pose, 0.0), Vec3(1, 0, 0), 1e-12)

    def test_yawed_body(self):
        pose = Pose(ZERO3, ZERO3, 0.0, 0.0, math.pi / 2)
        # body forward now points along world +y
        assert vec_close(body_to_world(Vec3(1, 0, 0), pose), Vec3(0, 1, 0), 1e-12)


class TestWrapAngle:
    @pytest.mark.parametrize(
        "angle,expected",
        [(0.0, 0.0), (math.pi, math.pi), (-math.pi, math.pi), (3 * math.pi, math.pi), (-0.5, -0.5)],
    )
    def test_wrap(self, angle, expected):
        assert abs(wrap_angle(angle) - expected) < 1e-12


class TestIntrinsics:
    def test_from_hfov(self):
        k = CameraIntrinsics.from_hfov(math.radians(105.0), 680, 480)
        # the full horizontal view spans exactly the field of view
        edge = math.atan(k.cx / k.fx)
        assert abs(2 * math.degrees(edge) - 105.0) < 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(-1.0, 1.0, 10.0, 10.0, 100, 100).validate()
        with pytest.raises(ValueError):
            CameraIntrinsics(100.0, 100.0, 200.0, 10.0, 100, 100).validate()


angles = st.floats(-math.pi, math.pi)
vectors = st.builds(Vec3, *(st.floats(-50.0, 50.0),) * 3)


def _matrix(rot: Rot3) -> np.ndarray:
    return np.array(rot).reshape(3, 3)


class TestRotationProperties:
    @given(angles, angles, angles)
    def test_attitude_rotation_is_the_elementary_product(self, roll, pitch, yaw):
        c, s = math.cos, math.sin
        rz = np.array([[c(yaw), -s(yaw), 0], [s(yaw), c(yaw), 0], [0, 0, 1]])
        ry = np.array([[c(-pitch), 0, s(-pitch)], [0, 1, 0], [-s(-pitch), 0, c(-pitch)]])
        rx = np.array([[1, 0, 0], [0, c(roll), -s(roll)], [0, s(roll), c(roll)]])
        m = _matrix(attitude_rotation(roll, pitch, yaw))
        assert np.allclose(m, rz @ ry @ rx, rtol=0.0, atol=1e-12)
        assert np.allclose(m @ m.T, np.eye(3), rtol=0.0, atol=1e-12)
        assert abs(np.linalg.det(m) - 1.0) < 1e-12

    @given(angles)
    def test_mount_rotation_maps_optical_axis(self, mount):
        m = _matrix(mount_rotation(mount))
        assert np.allclose(m @ [0.0, 0.0, 1.0], [math.cos(mount), 0.0, math.sin(mount)], rtol=0.0, atol=1e-12)
        assert np.allclose(m @ m.T, np.eye(3), rtol=0.0, atol=1e-12)
        assert abs(np.linalg.det(m) - 1.0) < 1e-12

    @given(vectors, vectors, angles, angles, angles, st.floats(-1.0, 1.0))
    def test_frame_round_trips(self, v, position, roll, pitch, yaw, mount):
        pose = Pose(position, ZERO3, roll, pitch, yaw)
        assert vec_close(world_to_body(body_to_world(v, pose), pose), v, 1e-10)
        assert vec_close(body_to_camera(camera_to_body(v, mount), mount), v, 1e-10)
        # a world point seen from the camera, carried back by the inverse path
        back = camera_to_world(world_point_to_camera(v, pose, mount), pose, mount) + position
        assert vec_close(back, v, 1e-10)


class TestClampNorm:
    @given(vectors, st.floats(0.01, 100.0))
    def test_within_limit_unchanged_else_limit_along_same_direction(self, v, limit):
        out = v.clamp_norm(limit)
        n = v.norm()
        if n <= limit:
            assert out == v
        else:
            assert abs(out.norm() - limit) <= 1e-12 * limit
            assert out.dot(v) > 0.0
            assert out.cross(v).norm() <= 1e-12 * limit * n

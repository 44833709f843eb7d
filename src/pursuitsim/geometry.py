"""Frames, pinhole camera model, and line-of-sight geometry.

Conventions used throughout the package:

  world:  right-handed, z up.
  body:   x forward, y left, z up, attached to the vehicle.
  camera: z forward (optical axis), x right in image, y down in image.

Euler angles are yaw-pitch-roll with positive pitch = nose up and
positive roll = right-side down; all angles wrapped to (-pi, pi].
"""

from __future__ import annotations

import math
from typing import NamedTuple


class Vec3(NamedTuple):
    x: float
    y: float
    z: float

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def scale(self, s: float) -> "Vec3":
        return Vec3(self.x * s, self.y * s, self.z * s)

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def unit(self) -> "Vec3":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize zero vector")
        return Vec3(self.x / n, self.y / n, self.z / n)

    def clamp_norm(self, limit: float) -> "Vec3":
        """Scaled down to length `limit` when longer; unchanged otherwise."""
        n = self.norm()
        return self.scale(limit / n) if n > limit else self


ZERO3 = Vec3(0.0, 0.0, 0.0)


def wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    a = math.fmod(a, 2.0 * math.pi)
    if a <= -math.pi:
        a += 2.0 * math.pi
    elif a > math.pi:
        a -= 2.0 * math.pi
    return a


class Rot3(NamedTuple):
    """3x3 rotation matrix stored row-major; apply() maps column vectors."""

    m00: float
    m01: float
    m02: float
    m10: float
    m11: float
    m12: float
    m20: float
    m21: float
    m22: float

    def apply(self, v: Vec3) -> Vec3:
        return Vec3(*self.apply_xyz(*v))

    def apply_xyz(self, x: float, y: float, z: float) -> tuple[float, float, float]:
        """`apply` on plain floats, without building a `Vec3`."""
        m00, m01, m02, m10, m11, m12, m20, m21, m22 = self
        return m00 * x + m01 * y + m02 * z, m10 * x + m11 * y + m12 * z, m20 * x + m21 * y + m22 * z

    def apply_inverse(self, v: Vec3) -> Vec3:
        return Vec3(*self.apply_inverse_xyz(*v))

    def apply_inverse_xyz(self, x: float, y: float, z: float) -> tuple[float, float, float]:
        """`apply_inverse` on plain floats; a rotation's inverse is its transpose."""
        return (
            self.m00 * x + self.m10 * y + self.m20 * z,
            self.m01 * x + self.m11 * y + self.m21 * z,
            self.m02 * x + self.m12 * y + self.m22 * z,
        )


IDENTITY_ROT = Rot3(1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)


def rot_z(a: float) -> Rot3:
    c, s = math.cos(a), math.sin(a)
    return Rot3(c, -s, 0.0, s, c, 0.0, 0.0, 0.0, 1.0)


def rotate_about_axis(v: Vec3, axis_unit: Vec3, angle: float) -> Vec3:
    """Rodrigues rotation of v about axis_unit by angle (right-hand rule)."""
    c = math.cos(angle)
    s = math.sin(angle)
    k = axis_unit
    kv = k.cross(v)
    kkv = k.scale(k.dot(v))
    return v.scale(c) + kv.scale(s) + kkv.scale(1.0 - c)


class CameraIntrinsics(NamedTuple):
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    @staticmethod
    def from_hfov(hfov_rad: float, width: int, height: int) -> "CameraIntrinsics":
        """Square-pixel intrinsics from a horizontal field of view."""
        fx = (width / 2.0) / math.tan(hfov_rad / 2.0)
        return CameraIntrinsics(fx, fx, width / 2.0, height / 2.0, width, height)


# The vehicle's one monocular camera: the paper varies the method, the UAV
# speed and the target path, never the camera.
CAMERA_HFOV = math.radians(105.0)
CAMERA = CameraIntrinsics.from_hfov(CAMERA_HFOV, 680, 480)


class Pose(NamedTuple):
    """The vehicle state: what the dynamics step carries and what
    controllers, guidance and perception read."""

    px: float
    py: float
    pz: float
    vx: float
    vy: float
    vz: float
    roll: float
    pitch: float
    yaw: float

    @property
    def position(self) -> Vec3:
        return Vec3(self.px, self.py, self.pz)

    @property
    def velocity(self) -> Vec3:
        return Vec3(self.vx, self.vy, self.vz)


class LosSample(NamedTuple):
    """One line-of-sight observation.

    r is the camera-frame ray from pixel back-projection (z == 1, not
    normalized). phi_dot and n_unit describe the rotation of the LOS since
    the previous sample; valid_rate is False on the first observation and
    whenever the two rays are parallel to within the degeneracy tolerance
    (n_unit is the zero vector in both cases).
    """

    r: Vec3
    t: float
    phi_dot: float
    n_unit: Vec3
    valid_rate: bool


def pixel_to_los(u: float, v: float, k: CameraIntrinsics) -> Vec3:
    """Back-project a pixel to a camera-frame ray with unit z component."""
    return Vec3((u - k.cx) / k.fx, (v - k.cy) / k.fy, 1.0)


PARALLEL_RAY_TOL = 1e-12  # radians


def los_rate(r_prev: Vec3, r_curr: Vec3, dt: float) -> tuple[float, Vec3, bool]:
    """Rotation rate of the LOS between two rays.

    Returns (phi_dot, n_unit, valid) where n_unit is the unit component of
    r_curr orthogonal to r_prev. For rays parallel within tolerance the
    direction is undefined: returns (~0, zero vector, False).
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    np_prev = r_prev.norm()
    np_curr = r_curr.norm()
    if np_prev == 0.0 or np_curr == 0.0:
        raise ValueError("rays must be nonzero")
    cos_phi = r_curr.dot(r_prev) / (np_curr * np_prev)
    cos_phi = min(1.0, max(-1.0, cos_phi))
    phi = math.acos(cos_phi)
    phi_dot = phi / dt
    if phi < PARALLEL_RAY_TOL:
        return (phi_dot, ZERO3, False)
    # orthogonal projection of r_curr onto r_prev, subtracted out
    proj = r_prev.scale(r_curr.dot(r_prev) / (np_prev * np_prev))
    n = r_curr - proj
    n_norm = n.norm()
    if n_norm == 0.0:
        return (phi_dot, ZERO3, False)
    return (phi_dot, n.scale(1.0 / n_norm), True)


def body_heading(r_body: Vec3) -> float:
    """Horizontal angle of a body-frame direction, positive to the left."""
    if r_body.norm() == 0.0:
        raise ValueError("direction must be nonzero")
    return math.atan2(r_body.y, r_body.x)


def mount_rotation(mount_pitch: float) -> Rot3:
    """Camera-to-body rotation for a rigid mount.

    At zero mount pitch camera x (image right) is body -y, camera y (image
    down) is body -z and camera z (optical axis) is body +x. Positive
    mount_pitch tilts the optical axis up relative to body x; negative tilts
    it down.
    """
    c, s = math.cos(mount_pitch), math.sin(mount_pitch)
    return Rot3(0.0, s, c, -1.0, 0.0, 0.0, 0.0, -c, s)


def camera_to_body(v_cam: Vec3, mount_pitch: float = 0.0) -> Vec3:
    return mount_rotation(mount_pitch).apply(v_cam)


def body_to_camera(v_body: Vec3, mount_pitch: float = 0.0) -> Vec3:
    return mount_rotation(mount_pitch).apply_inverse(v_body)


def _z_column(cr: float, sr: float, cp: float, sp: float, cy: float, sy: float) -> tuple[float, float, float]:
    return -cy * sp * cr + sy * sr, -sy * sp * cr - cy * sr, cp * cr


def attitude_rotation(roll: float, pitch: float, yaw: float) -> Rot3:
    """Body-to-world rotation Rz(yaw) * Ry(-pitch) * Rx(roll), written out."""
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    m02, m12, m22 = _z_column(cr, sr, cp, sp, cy, sy)
    return Rot3(cy * cp, -sy * cr - cy * sp * sr, m02, sy * cp, cy * cr - sy * sp * sr, m12, sp, cp * sr, m22)


def body_z_axis(roll: float, pitch: float, yaw: float) -> tuple[float, float, float]:
    """World components of the body z axis: `attitude_rotation`'s third
    column, without the other six entries."""
    return _z_column(math.cos(roll), math.sin(roll), math.cos(pitch), math.sin(pitch), math.cos(yaw), math.sin(yaw))


def body_to_world(v_body: Vec3, pose: Pose) -> Vec3:
    """Rotate a direction from body axes into world axes."""
    return attitude_rotation(pose.roll, pose.pitch, pose.yaw).apply(v_body)


def world_to_body(v_world: Vec3, pose: Pose) -> Vec3:
    return attitude_rotation(pose.roll, pose.pitch, pose.yaw).apply_inverse(v_world)


def camera_to_world(v_cam: Vec3, pose: Pose, mount_pitch: float = 0.0) -> Vec3:
    return body_to_world(camera_to_body(v_cam, mount_pitch), pose)


def world_point_to_camera(p_world: Vec3, pose: Pose, mount_pitch: float = 0.0) -> Vec3:
    """World point -> camera-frame point (rotation + translation)."""
    p_body = world_to_body(p_world - pose.position, pose)
    return body_to_camera(p_body, mount_pitch)

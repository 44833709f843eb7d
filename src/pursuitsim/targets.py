"""Target path library: straight crossings, tilted figure-8s, and a knot.

Periodic paths are traversed at constant speed: the curve's arc length is
measured once at build time and the period set to length/speed, with an
inverse arc-length table so sampling runs at uniform ground speed rather
than uniform parameter rate.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from typing import IO, Callable, Optional

import numpy as np

from .geometry import IDENTITY_ROT, Rot3, Vec3, rotate_about_axis

DEFAULT_TARGET_RADIUS = 0.5  # 1 m diameter sphere


class PathKind(str, enum.Enum):
    STRAIGHT = "straight"
    FIGURE8 = "figure8"
    KNOT = "knot"


@dataclass(frozen=True)
class TargetState:
    position: Vec3
    velocity: Vec3
    radius: float


@dataclass
class TargetPathSpec:
    kind: PathKind
    speed: float                   # m/s; 0 is the stationary-target override
    seed: int
    radius: float = DEFAULT_TARGET_RADIUS
    # straight-path placement: enter near one edge of the camera FOV and
    # cross in front with a random vertical slope
    fov_half_angle: float = math.radians(52.5)
    start_range: tuple[float, float] = (12.0, 18.0)
    edge_fraction: tuple[float, float] = (0.70, 0.90)
    slope_limit: float = math.radians(15.0)
    # figure-8 geometry (width x height of the untilted vertical-plane curve)
    fig8_width: float = 10.0
    fig8_height: float = 6.0
    fig8_max_tilt: float = math.radians(30.0)
    fig8_center_x: tuple[float, float] = (12.0, 20.0)
    fig8_center_y: tuple[float, float] = (-4.0, 4.0)
    fig8_center_z: tuple[float, float] = (-2.0, 2.0)
    # knot geometry: curve fills a cube, centered anywhere in a box ahead
    knot_cube: float = 2.0
    knot_region_x: tuple[float, float] = (5.0, 15.0)
    knot_region_y: tuple[float, float] = (-10.0, 10.0)
    knot_region_z: tuple[float, float] = (-5.0, 5.0)

    def validate(self) -> None:
        if self.speed < 0.0:
            raise ValueError("speed must be >= 0")
        if self.radius <= 0.0:
            raise ValueError("target radius must be positive")


class TargetPath:
    """Time-parametric target motion; sample() is pure."""

    period: Optional[float]
    radius: float

    def sample(self, t: float) -> TargetState:
        raise NotImplementedError


class StationaryPath(TargetPath):
    def __init__(self, position: Vec3, radius: float):
        self.position = position
        self.radius = radius
        self.period = None

    def sample(self, t: float) -> TargetState:
        return TargetState(self.position, Vec3(0.0, 0.0, 0.0), self.radius)


class StraightPath(TargetPath):
    def __init__(self, start: Vec3, velocity: Vec3, radius: float):
        self.start = start
        self.velocity = velocity
        self.radius = radius
        self.period = None

    def sample(self, t: float) -> TargetState:
        return TargetState(self.start + self.velocity.scale(t), self.velocity, self.radius)


ARC_TABLE_SIZE = 32768


class PeriodicCurvePath(TargetPath):
    """Closed parametric curve traversed at constant ground speed.

    The dense chord-sum table doubles as the arc-length quadrature for the
    period and as the inverse mapping s -> theta used when sampling.
    """

    def __init__(
        self,
        curve: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]],
        point: Callable[[float], Vec3],
        tangent: Callable[[float], Vec3],
        rotation: Rot3,
        center: Vec3,
        speed: float,
        radius: float,
        phase: float,
        direction: float,
    ):
        self._point = point
        self._tangent = tangent
        self._rot = rotation
        self._center = center
        self._speed = speed
        self.radius = radius
        self._phase = phase
        self._direction = 1.0 if direction >= 0 else -1.0

        thetas = np.linspace(0.0, 2.0 * math.pi, ARC_TABLE_SIZE + 1)
        x, y, z = curve(thetas)
        seg = np.sqrt(np.diff(x) ** 2 + np.diff(y) ** 2 + np.diff(z) ** 2)
        cum = np.concatenate(([0.0], np.cumsum(seg)))
        self.length = float(cum[-1])
        self.period = self.length / speed if speed > 0.0 else None
        # uniform-s inverse table for O(1) lookups
        s_grid = np.linspace(0.0, self.length, ARC_TABLE_SIZE + 1)
        self._theta_of_s = np.interp(s_grid, cum, thetas).tolist()
        self._ds = self.length / ARC_TABLE_SIZE

    def _theta_at(self, s: float) -> float:
        s = s % self.length
        idx = int(s / self._ds)
        if idx >= ARC_TABLE_SIZE:
            idx = ARC_TABLE_SIZE - 1
        frac = (s - idx * self._ds) / self._ds
        t0 = self._theta_of_s[idx]
        t1 = self._theta_of_s[idx + 1]
        return t0 + frac * (t1 - t0)

    def sample(self, t: float) -> TargetState:
        return self.sample_arc(self._speed * t, self._speed)

    def sample_arc(self, s: float, speed: float) -> TargetState:
        """State at signed arc position s, moving at the given ground speed."""
        theta = self._theta_at(self._phase / (2.0 * math.pi) * self.length + self._direction * s)
        position = self._center + self._rot.apply(self._point(theta))
        tan = self._tangent(theta)
        n = tan.norm()
        if n == 0.0 or speed == 0.0:
            velocity = Vec3(0.0, 0.0, 0.0)
        else:
            velocity = self._rot.apply(tan.scale(self._direction * speed / n))
        return TargetState(position, velocity, self.radius)


def _uniform_rotation(rng: random.Random, max_angle: float) -> Rot3:
    """Rotation about a uniformly random axis by an angle in [0, max_angle]."""
    zc = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    s = math.sqrt(max(0.0, 1.0 - zc * zc))
    axis = Vec3(s * math.cos(phi), s * math.sin(phi), zc)
    angle = rng.uniform(0.0, max_angle)
    # columns of the rotation matrix = rotated basis vectors
    ex = rotate_about_axis(Vec3(1.0, 0.0, 0.0), axis, angle)
    ey = rotate_about_axis(Vec3(0.0, 1.0, 0.0), axis, angle)
    ez = rotate_about_axis(Vec3(0.0, 0.0, 1.0), axis, angle)
    return Rot3(ex.x, ey.x, ez.x, ex.y, ey.y, ez.y, ex.z, ey.z, ez.z)


def _build_straight(spec: TargetPathSpec, rng: random.Random) -> TargetPath:
    side = 1.0 if rng.random() < 0.5 else -1.0
    bearing = side * spec.fov_half_angle * rng.uniform(*spec.edge_fraction)
    rrange = rng.uniform(*spec.start_range)
    z0 = rng.uniform(-1.0, 1.0)
    start = Vec3(rrange * math.cos(bearing), rrange * math.sin(bearing), z0)
    aim_frac = rng.uniform(0.7, 1.0)
    slope = rng.uniform(-spec.slope_limit, spec.slope_limit)
    if spec.speed == 0.0:
        return StationaryPath(start, spec.radius)
    aim = Vec3(rrange * aim_frac, 0.0, z0)
    flat = aim - start
    flat_n = flat.norm()
    if flat_n < 1e-9:
        flat = Vec3(0.0, -side, 0.0)
        flat_n = 1.0
    horiz = flat.scale(1.0 / flat_n)
    direction = Vec3(
        horiz.x * math.cos(slope), horiz.y * math.cos(slope), math.sin(slope)
    )
    return StraightPath(start, direction.scale(spec.speed), spec.radius)


def fig8_curve(a: float, b: float):
    def curve(theta: np.ndarray):
        return a * np.sin(theta), np.zeros_like(theta), b * np.sin(theta) * np.cos(theta)

    def point(theta: float) -> Vec3:
        return Vec3(a * math.sin(theta), 0.0, b * math.sin(theta) * math.cos(theta))

    def tangent(theta: float) -> Vec3:
        return Vec3(a * math.cos(theta), 0.0, b * math.cos(2.0 * theta))

    return curve, point, tangent


def _build_figure8(spec: TargetPathSpec, rng: random.Random) -> TargetPath:
    center = Vec3(
        rng.uniform(*spec.fig8_center_x),
        rng.uniform(*spec.fig8_center_y),
        rng.uniform(*spec.fig8_center_z),
    )
    tilt = _uniform_rotation(rng, spec.fig8_max_tilt)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    direction = 1.0 if rng.random() < 0.5 else -1.0
    a = spec.fig8_width / 2.0
    b = spec.fig8_height  # z = b*sin(theta)*cos(theta) has extent b
    curve, point, tangent = fig8_curve(a, b)
    path = PeriodicCurvePath(
        curve, point, tangent, tilt, center, max(spec.speed, 1e-9), spec.radius, phase, direction
    )
    if spec.speed == 0.0:
        return StationaryPath(path.sample(0.0).position, spec.radius)
    return path


def _knot_curve(scale: Vec3):
    def raw(theta: np.ndarray):
        x = np.sin(theta) + 2.0 * np.sin(2.0 * theta)
        y = np.cos(theta) - 2.0 * np.cos(2.0 * theta)
        z = -np.sin(3.0 * theta)
        return x, y, z

    def curve(theta: np.ndarray):
        x, y, z = raw(theta)
        return x * scale.x, y * scale.y, z * scale.z

    def point(theta: float) -> Vec3:
        return Vec3(
            scale.x * (math.sin(theta) + 2.0 * math.sin(2.0 * theta)),
            scale.y * (math.cos(theta) - 2.0 * math.cos(2.0 * theta)),
            scale.z * (-math.sin(3.0 * theta)),
        )

    def tangent(theta: float) -> Vec3:
        return Vec3(
            scale.x * (math.cos(theta) + 4.0 * math.cos(2.0 * theta)),
            scale.y * (-math.sin(theta) + 4.0 * math.sin(2.0 * theta)),
            scale.z * (-3.0 * math.cos(3.0 * theta)),
        )

    return curve, point, tangent


def _knot_scale(cube: float) -> Vec3:
    thetas = np.linspace(0.0, 2.0 * math.pi, 4096)
    x = np.sin(thetas) + 2.0 * np.sin(2.0 * thetas)
    y = np.cos(thetas) - 2.0 * np.cos(2.0 * thetas)
    z = -np.sin(3.0 * thetas)
    return Vec3(
        cube / (float(x.max()) - float(x.min())),
        cube / (float(y.max()) - float(y.min())),
        cube / (float(z.max()) - float(z.min())),
    )


def _build_knot(spec: TargetPathSpec, rng: random.Random) -> TargetPath:
    center = Vec3(
        rng.uniform(*spec.knot_region_x),
        rng.uniform(*spec.knot_region_y),
        rng.uniform(*spec.knot_region_z),
    )
    phase = rng.uniform(0.0, 2.0 * math.pi)
    direction = 1.0 if rng.random() < 0.5 else -1.0
    curve, point, tangent = _knot_curve(_knot_scale(spec.knot_cube))
    # only the center is randomized; the cube must stay axis-aligned
    path = PeriodicCurvePath(
        curve, point, tangent, IDENTITY_ROT, center, max(spec.speed, 1e-9), spec.radius, phase, direction
    )
    if spec.speed == 0.0:
        return StationaryPath(path.sample(0.0).position, spec.radius)
    return path


def build_path(spec: TargetPathSpec) -> TargetPath:
    """Construct the seeded path; identical specs yield bit-identical paths."""
    spec.validate()
    rng = random.Random(spec.seed)
    if spec.kind == PathKind.STRAIGHT:
        return _build_straight(spec, rng)
    if spec.kind == PathKind.FIGURE8:
        return _build_figure8(spec, rng)
    if spec.kind == PathKind.KNOT:
        return _build_knot(spec, rng)
    raise ValueError(f"unknown path kind {spec.kind}")


def dump_path_csv(path: TargetPath, fh: IO[str], duration: float, dt: float = 0.05) -> None:
    fh.write("t,x,y,z\n")
    t = 0.0
    while t <= duration + 1e-9:
        st = path.sample(t)
        fh.write(f"{t:.4f},{st.position.x:.6f},{st.position.y:.6f},{st.position.z:.6f}\n")
        t += dt

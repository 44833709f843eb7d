"""Target path library: straight crossings, tilted figure-8s, and a knot.

A periodic path is a placed curve. Its shape (`CurveShape`) holds the point
and tangent functions, the arc length and an inverse arc-length table, so
sampling runs at uniform ground speed rather than uniform parameter rate. Its
placement (`PeriodicCurvePath`) holds the rotation, centre, speed, phase,
direction and radius. The matrix's figure-8 and knot shapes are built once per
process, on first use; a seed draws only a placement.
"""

from __future__ import annotations

import enum
import functools
import math
import random
from array import array
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .geometry import IDENTITY_ROT, Rot3, Vec3, ZERO3, rotate_about_axis

DEFAULT_TARGET_RADIUS = 0.5  # 1 m diameter sphere

# Straight paths enter near one edge of the camera FOV and cross in front with
# a random vertical slope. The half-angle is half the default 105 deg camera
# hfov; it does not follow camera.hfov_deg.
FOV_HALF_ANGLE = math.radians(52.5)
START_RANGE = (12.0, 18.0)    # m
EDGE_FRACTION = (0.70, 0.90)  # of FOV_HALF_ANGLE
SLOPE_LIMIT = math.radians(15.0)
# figure-8: width x height of the untilted vertical-plane curve, tilted about
# a random axis by up to FIG8_MAX_TILT and centred anywhere in the box
FIG8_WIDTH = 10.0
FIG8_HEIGHT = 6.0
FIG8_MAX_TILT = math.radians(30.0)
FIG8_CENTER_BOX = ((12.0, 20.0), (-4.0, 4.0), (-2.0, 2.0))  # x, y, z ranges, m
# knot: the curve fills an axis-aligned cube centred anywhere in the box ahead
KNOT_CUBE = 2.0
KNOT_CENTER_BOX = ((5.0, 15.0), (-10.0, 10.0), (-5.0, 5.0))


class PathKind(str, enum.Enum):
    STRAIGHT = "straight"
    FIGURE8 = "figure8"
    KNOT = "knot"


class TargetState(NamedTuple):
    position: Vec3
    radius: float


@dataclass
class TargetPathSpec:
    kind: PathKind
    speed: float                   # m/s; 0 is the stationary-target override
    seed: int

    def validate(self) -> None:
        if self.speed < 0.0:
            raise ValueError("speed must be >= 0")


class TargetPath:
    """Time-parametric target motion; position_at(), sample() and velocity()
    are pure."""

    period: Optional[float]
    radius: float

    def position_at(self, t: float) -> tuple[float, float, float]:
        """The centre's coordinates at t, without building a `TargetState`."""
        raise NotImplementedError

    def sample(self, t: float) -> TargetState:
        return TargetState(Vec3(*self.position_at(t)), self.radius)

    def velocity(self, t: float) -> Vec3:
        raise NotImplementedError


class StationaryPath(TargetPath):
    def __init__(self, position: Vec3, radius: float):
        self.position = position
        self.radius = radius
        self.period = None

    def position_at(self, t: float) -> tuple[float, float, float]:
        return self.position

    sample = TargetPath.sample  # each path class has its own `sample`, which perfbench's tracer wraps

    def velocity(self, t: float) -> Vec3:
        return ZERO3


class StraightPath(TargetPath):
    def __init__(self, start: Vec3, velocity: Vec3, radius: float):
        self.start = start
        self._velocity = velocity
        self.radius = radius
        self.period = None

    def position_at(self, t: float) -> tuple[float, float, float]:
        (sx, sy, sz), (ux, uy, uz) = self.start, self._velocity
        return sx + ux * t, sy + uy * t, sz + uz * t

    sample = TargetPath.sample

    def velocity(self, t: float) -> Vec3:
        return self._velocity


ARC_TABLE_SIZE = 32768


class CurveShape:
    """A closed curve over theta in [0, 2 pi), measured once.

    The dense chord-sum table doubles as the arc-length quadrature and as the
    uniform-s inverse table s -> theta that sampling reads. It is stored as an
    array('d'), whose items read back as the same floats a list would hold.
    Paths share one shape, so nothing writes it after construction.
    """

    def __init__(self, curve: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]],
                 point: Callable[[float], tuple[float, float, float]], tangent: Callable[[float], Vec3]):
        self.point = point
        self.tangent = tangent
        thetas = np.linspace(0.0, 2.0 * math.pi, ARC_TABLE_SIZE + 1)
        x, y, z = curve(thetas)
        seg = np.sqrt(np.diff(x) ** 2 + np.diff(y) ** 2 + np.diff(z) ** 2)
        cum = np.concatenate(([0.0], np.cumsum(seg)))
        self.length = float(cum[-1])
        s_grid = np.linspace(0.0, self.length, ARC_TABLE_SIZE + 1)
        self.theta_of_s = array("d", np.interp(s_grid, cum, thetas).tobytes())
        self.ds = self.length / ARC_TABLE_SIZE

    def theta(self, s: float) -> float:
        """Curve parameter at arc length s in [0, length), by O(1) lookup."""
        idx = int(s / self.ds)
        if idx >= ARC_TABLE_SIZE:
            idx = ARC_TABLE_SIZE - 1
        frac = (s - idx * self.ds) / self.ds
        t0 = self.theta_of_s[idx]
        t1 = self.theta_of_s[idx + 1]
        return t0 + frac * (t1 - t0)


class PeriodicCurvePath(TargetPath):
    """A shape placed in the world: rotated, centred, and traversed at
    constant ground speed in one direction from its phase point."""

    def __init__(self, shape: CurveShape, rotation: Rot3, center: Vec3, speed: float, radius: float,
                 phase: float, direction: float):
        self.shape = shape
        self._rot = rotation
        self._center = center
        self._speed = speed
        self.radius = radius
        self._phase = phase
        self._direction = 1.0 if direction >= 0 else -1.0
        self.period = shape.length / speed if speed > 0.0 else None

    def _theta_at(self, s: float) -> float:
        """Curve parameter at signed arc position s from the phase point."""
        length = self.shape.length
        return self.shape.theta((self._phase / (2.0 * math.pi) * length + self._direction * s) % length)

    def position_at(self, t: float) -> tuple[float, float, float]:
        return self.arc_position(self._speed * t)

    sample = TargetPath.sample

    def arc_position(self, s: float) -> tuple[float, float, float]:
        """The centre's coordinates at signed arc position s."""
        x, y, z = self._rot.apply_xyz(*self.shape.point(self._theta_at(s)))
        c = self._center
        return c.x + x, c.y + y, c.z + z

    def sample_arc(self, s: float) -> TargetState:
        """State at signed arc position s."""
        return TargetState(Vec3(*self.arc_position(s)), self.radius)

    def velocity(self, t: float) -> Vec3:
        tan = self.shape.tangent(self._theta_at(self._speed * t))
        n = tan.norm()
        if n == 0.0 or self._speed == 0.0:
            return ZERO3
        return self._rot.apply(tan.scale(self._direction * self._speed / n))


def fig8_shape(width: float, height: float) -> CurveShape:
    """Figure-8 in the x-z plane with the given extents."""
    a = width / 2.0
    b = height  # z = b*sin(theta)*cos(theta) has extent b

    def curve(theta: np.ndarray):
        return a * np.sin(theta), np.zeros_like(theta), b * np.sin(theta) * np.cos(theta)

    def point(theta: float) -> tuple[float, float, float]:
        return a * math.sin(theta), 0.0, b * math.sin(theta) * math.cos(theta)

    def tangent(theta: float) -> Vec3:
        return Vec3(a * math.cos(theta), 0.0, b * math.cos(2.0 * theta))

    return CurveShape(curve, point, tangent)


def _knot_unit(theta: np.ndarray):
    x = np.sin(theta) + 2.0 * np.sin(2.0 * theta)
    y = np.cos(theta) - 2.0 * np.cos(2.0 * theta)
    return x, y, -np.sin(3.0 * theta)


def knot_shape(cube: float) -> CurveShape:
    """Trefoil knot scaled per axis so that it fills a cube of side `cube`."""
    ux, uy, uz = _knot_unit(np.linspace(0.0, 2.0 * math.pi, 4096))
    sx = cube / (float(ux.max()) - float(ux.min()))
    sy = cube / (float(uy.max()) - float(uy.min()))
    sz = cube / (float(uz.max()) - float(uz.min()))

    def curve(theta: np.ndarray):
        x, y, z = _knot_unit(theta)
        return x * sx, y * sy, z * sz

    def point(theta: float) -> tuple[float, float, float]:
        return (
            sx * (math.sin(theta) + 2.0 * math.sin(2.0 * theta)),
            sy * (math.cos(theta) - 2.0 * math.cos(2.0 * theta)),
            sz * (-math.sin(3.0 * theta)),
        )

    def tangent(theta: float) -> Vec3:
        return Vec3(
            sx * (math.cos(theta) + 4.0 * math.cos(2.0 * theta)),
            sy * (-math.sin(theta) + 4.0 * math.sin(2.0 * theta)),
            sz * (-3.0 * math.cos(3.0 * theta)),
        )

    return CurveShape(curve, point, tangent)


@functools.cache
def matrix_shape(kind: PathKind) -> CurveShape:
    """The matrix's figure-8 or knot shape, built on first use and shared."""
    if kind == PathKind.FIGURE8:
        return fig8_shape(FIG8_WIDTH, FIG8_HEIGHT)
    return knot_shape(KNOT_CUBE)


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
    bearing = side * FOV_HALF_ANGLE * rng.uniform(*EDGE_FRACTION)
    rrange = rng.uniform(*START_RANGE)
    z0 = rng.uniform(-1.0, 1.0)
    start = Vec3(rrange * math.cos(bearing), rrange * math.sin(bearing), z0)
    aim_frac = rng.uniform(0.7, 1.0)
    slope = rng.uniform(-SLOPE_LIMIT, SLOPE_LIMIT)
    if spec.speed == 0.0:
        return StationaryPath(start, DEFAULT_TARGET_RADIUS)
    aim = Vec3(rrange * aim_frac, 0.0, z0)
    flat = aim - start
    flat_n = flat.norm()
    if flat_n < 1e-9:
        flat = Vec3(0.0, -side, 0.0)
        flat_n = 1.0
    horiz = flat.scale(1.0 / flat_n)
    direction = Vec3(horiz.x * math.cos(slope), horiz.y * math.cos(slope), math.sin(slope))
    return StraightPath(start, direction.scale(spec.speed), DEFAULT_TARGET_RADIUS)


def _build_curve(spec: TargetPathSpec, rng: random.Random) -> TargetPath:
    """The shared figure-8 or knot shape at a seeded centre, tilt, phase and direction."""
    fig8 = spec.kind == PathKind.FIGURE8
    center = Vec3(*(rng.uniform(lo, hi) for lo, hi in (FIG8_CENTER_BOX if fig8 else KNOT_CENTER_BOX)))
    # only the knot's centre is drawn; its cube stays axis-aligned
    rotation = _uniform_rotation(rng, FIG8_MAX_TILT) if fig8 else IDENTITY_ROT
    phase = rng.uniform(0.0, 2.0 * math.pi)
    direction = 1.0 if rng.random() < 0.5 else -1.0
    radius = DEFAULT_TARGET_RADIUS
    path = PeriodicCurvePath(matrix_shape(spec.kind), rotation, center, spec.speed, radius, phase, direction)
    if spec.speed == 0.0:
        return StationaryPath(path.sample_arc(0.0).position, radius)
    return path


def build_path(spec: TargetPathSpec) -> TargetPath:
    """Construct the seeded path; identical specs yield bit-identical paths."""
    spec.validate()
    rng = random.Random(spec.seed)
    if spec.kind == PathKind.STRAIGHT:
        return _build_straight(spec, rng)
    if spec.kind in (PathKind.FIGURE8, PathKind.KNOT):
        return _build_curve(spec, rng)
    raise ValueError(f"unknown path kind {spec.kind}")

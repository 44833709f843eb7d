"""Target path library: straight crossings, tilted figure-8s, and a knot.

A periodic path is a placed curve. Its shape (`CurveShape`) holds the point
formula, the arc length and an inverse arc-length table, so sampling runs at
uniform ground speed rather than uniform parameter rate. Its
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

from .geometry import CAMERA_HFOV, IDENTITY_ROT, Rot3, Vec3, rotate_about_axis

DEFAULT_TARGET_RADIUS = 0.5  # 1 m diameter sphere

# Straight paths enter near one edge of the camera FOV and cross in front with
# a random vertical slope.
FOV_HALF_ANGLE = CAMERA_HFOV / 2.0
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
    """Time-parametric target motion; position_at() and sample() are pure."""

    period: Optional[float]
    radius: float

    def position_at(self, t: float) -> tuple[float, float, float]:
        """The centre's coordinates at t, without building a `TargetState`."""
        raise NotImplementedError

    def sample(self, t: float) -> TargetState:
        return TargetState(Vec3(*self.position_at(t)), self.radius)


class StationaryPath(TargetPath):
    def __init__(self, position: Vec3, radius: float):
        self.position = position
        self.radius = radius
        self.period = None

    def position_at(self, t: float) -> tuple[float, float, float]:
        return self.position

    sample = TargetPath.sample  # each path class has its own `sample`, which perfbench's tracer wraps


class StraightPath(TargetPath):
    def __init__(self, start: Vec3, velocity: Vec3, radius: float):
        self.start = start
        self.velocity = velocity
        self.radius = radius
        self.period = None

    def position_at(self, t: float) -> tuple[float, float, float]:
        (sx, sy, sz), (ux, uy, uz) = self.start, self.velocity
        return sx + ux * t, sy + uy * t, sz + uz * t

    sample = TargetPath.sample


ARC_TABLE_SIZE = 32768


class CurveShape:
    """A closed curve over theta in [0, 2 pi), measured once.

    `point(theta, m=math)` is the curve's one formula: `m=numpy` evaluates it
    on the table's theta grid, and the default on one float. The dense
    chord-sum table doubles as the arc-length quadrature and as the
    uniform-s inverse table s -> theta that sampling reads. It is stored as an
    array('d'), whose items read back as the same floats a list would hold.
    Paths share one shape, so nothing writes it after construction.
    """

    def __init__(self, point: Callable[..., tuple]):
        self.point = point
        thetas = np.linspace(0.0, 2.0 * math.pi, ARC_TABLE_SIZE + 1)
        x, y, z = np.broadcast_arrays(*point(thetas, np))  # a constant coordinate becomes a column
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


def fig8_shape(width: float, height: float) -> CurveShape:
    """Figure-8 in the x-z plane with the given extents."""
    a = width / 2.0
    b = height  # z = b*sin(theta)*cos(theta) has extent b

    def point(theta, m=math):
        sin = m.sin(theta)
        return a * sin, 0.0, b * sin * m.cos(theta)

    return CurveShape(point)


def _knot_unit(theta, m):
    x = m.sin(theta) + 2.0 * m.sin(2.0 * theta)
    y = m.cos(theta) - 2.0 * m.cos(2.0 * theta)
    return x, y, -m.sin(3.0 * theta)


def knot_shape(cube: float) -> CurveShape:
    """Trefoil knot scaled per axis so that it fills a cube of side `cube`."""
    ux, uy, uz = _knot_unit(np.linspace(0.0, 2.0 * math.pi, 4096), np)
    sx = cube / (float(ux.max()) - float(ux.min()))
    sy = cube / (float(uy.max()) - float(uy.min()))
    sz = cube / (float(uz.max()) - float(uz.min()))

    def point(theta, m=math):
        x, y, z = _knot_unit(theta, m)
        return sx * x, sy * y, sz * z

    return CurveShape(point)


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
    horiz = flat.scale(1.0 / flat.norm())
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
        return StationaryPath(Vec3(*path.arc_position(0.0)), radius)
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

"""Synthetic target segmentation and monocular depth recovery.

The renderer stands in for a color-thresholding segmentation node: it
produces the binary occupancy image a real detector would, including the
pixel-quantization noise that drives smoothing requirements downstream.
Depth comes from the known target diameter and the angle the blob subtends
along the line through the principal point.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .geometry import CameraIntrinsics, Vec3, pixel_to_los


@dataclass
class SegmentationImage:
    """Binary image of one frame, stored as the sub-mask of a window (u0, v0,
    u1, v1), end-exclusive, that holds every set pixel. `render_sphere` uses
    the closed-form box of the silhouette's image conic; a hand-built image
    passes the full-frame mask and no window, and its window is the frame."""

    width: int
    height: int
    window_mask: np.ndarray  # bool, shape (v1 - v0, u1 - u0)
    window: Optional[tuple[int, int, int, int]] = None
    _coords: Optional[tuple[np.ndarray, np.ndarray]] = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.window = self.window or (0, 0, self.width, self.height)
        u0, v0, u1, v1 = self.window
        if self.window_mask.shape != (v1 - v0, u1 - u0):
            raise ValueError("mask shape must be the window's (height, width)")

    @property
    def mask(self) -> np.ndarray:
        """The full (height, width) frame, built on demand."""
        u0, v0, u1, v1 = self.window
        full = np.zeros((self.height, self.width), dtype=bool)
        full[v0:v1, u0:u1] = self.window_mask
        return full

    def pixel_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Set-pixel coordinates (us, vs) from one window scan, shared: read only."""
        if self._coords is None:
            vs, us = np.nonzero(self.window_mask)
            self._coords = (us + self.window[0], vs + self.window[1])
        return self._coords


@dataclass(frozen=True)
class Detection:
    centroid: tuple[float, float]
    pixel_count: int
    bbox: tuple[int, int, int, int]  # min_u, min_v, max_u, max_v (inclusive)


@dataclass(frozen=True)
class DepthEstimate:
    d: float          # range to nearest point on target, meters
    d_center: float   # range to target center, meters
    alpha: float      # subtended angle, radians
    valid: bool

    @staticmethod
    def invalid() -> "DepthEstimate":
        return DepthEstimate(0.0, 0.0, 0.0, False)


_WINDOW_PAD = 2  # px around the conic's bounding box, against rounding
_NO_PIXELS = np.zeros((0, 0), dtype=bool)


def _silhouette_window(
    center_cam: Vec3, beta: float, k: CameraIntrinsics
) -> Optional[tuple[int, int, int, int]]:
    """Padded pixel bounding box of the silhouette cone's image, clipped.

    In normalized coordinates d = (x, y, 1) the image is the conic
    (c.d)^2 - cos^2(beta) |d|^2 = 0, c the unit center direction. Its u
    extremes solve dQ/dy = 0 and its v extremes dQ/dx = 0, which leaves
    (c_z^2 - sin^2 beta) x^2 - 2 c_x c_z x + c_x^2 - sin^2 beta = 0 (and
    the same in c_y for y). None when c_z <= sin(beta): the cone reaches
    the horizon, its image is unbounded and callers scan the full frame.
    """
    c = center_cam.unit()
    sb = math.sin(beta)
    if c.z <= sb:
        return None
    lead = (c.z - sb) * (c.z + sb)

    def span(a: float, f: float, c0: float, n: int) -> tuple[int, int]:
        # the root pair as q / lead and (a^2 - sin^2 beta) / q, free of cancellation
        q = a * c.z + math.copysign(sb * math.sqrt(a * a + lead), a)
        lo, hi = sorted((f * (q / lead) + c0, f * ((a - sb) * (a + sb) / q) + c0))
        return max(0, math.floor(lo) - _WINDOW_PAD), min(n, math.ceil(hi) + _WINDOW_PAD + 1)

    u0, u1 = span(c.x, k.fx, k.cx, k.width)
    v0, v1 = span(c.y, k.fy, k.cy, k.height)
    return (u0, v0, u1, v1)


def render_sphere(center_cam: Vec3, radius: float, k: CameraIntrinsics) -> SegmentationImage:
    """Binary silhouette of a sphere seen through a pinhole camera.

    A pixel is set iff the angle between its back-projected ray and the ray
    to the sphere center is at most asin(radius / range). Off-frame and
    behind-camera spheres yield an empty (or partial) mask. Only the
    silhouette window's pixels are evaluated and stored.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if center_cam.z <= 0.0:
        return SegmentationImage(k.width, k.height, _NO_PIXELS, (0, 0, 0, 0))
    dist = center_cam.norm()
    if dist <= radius:
        # camera inside the target: everything is target
        return SegmentationImage(k.width, k.height, np.ones((k.height, k.width), dtype=bool))

    beta = math.asin(radius / dist)
    u0, v0, u1, v1 = _silhouette_window(center_cam, beta, k) or (0, 0, k.width, k.height)
    if u0 >= u1 or v0 >= v1:
        return SegmentationImage(k.width, k.height, _NO_PIXELS, (0, 0, 0, 0))

    ray_x = ((np.arange(u0, u1, dtype=np.float64) - k.cx) / k.fx)[np.newaxis, :]
    ray_y = ((np.arange(v0, v1, dtype=np.float64) - k.cy) / k.fy)[:, np.newaxis]
    # cos(angle) >= cos(beta), with ray z == 1
    lhs = (ray_x * center_cam.x + ray_y * center_cam.y + center_cam.z)
    rhs = math.cos(beta) * dist * np.sqrt(ray_x * ray_x + ray_y * ray_y + 1.0)
    return SegmentationImage(k.width, k.height, lhs >= rhs, (u0, v0, u1, v1))


def centroid(seg: SegmentationImage) -> Optional[Detection]:
    """First-moment centroid over mask pixels; None when the mask is empty."""
    us, vs = seg.pixel_coords()
    m00 = us.size
    if m00 == 0:
        return None
    cx = float(us.sum()) / m00
    cy = float(vs.sum()) / m00
    bbox = (int(us.min()), int(vs.min()), int(us.max()), int(vs.max()))
    return Detection(centroid=(cx, cy), pixel_count=int(m00), bbox=bbox)


MIN_DEPTH_BLOB_PIXELS = 3


def depth_from_subtended_angle(alpha: float, target_diameter: float) -> float:
    """Range to the nearest point of a sphere of known diameter subtending alpha."""
    half = target_diameter / 2.0
    return half / math.sin(alpha / 2.0) - half


def estimate_depth(
    seg: SegmentationImage,
    det: Detection,
    k: CameraIntrinsics,
    target_diameter: float,
) -> DepthEstimate:
    """Range from the angle subtended along the line through the principal point.

    The segmented pixels are rotated so the centroid-through-center line is
    horizontal, the target's extent along that line is measured, the two edge
    points are rotated back and back-projected to rays, and the subtended
    angle alpha between those rays gives

        d = (w/2) / sin(alpha/2) - w/2

    measured to the nearest point of the target. The extent is taken from the
    zeroth and second image moments of the blob (semi-extent = sqrt(count/pi)
    scaled by the fourth root of the axis variance ratio, the exact relation
    for a filled ellipse) rather than from the raw min/max pixel coordinates:
    quantization noise on the extreme pixels alone is up to a full pixel,
    which at small blob sizes breaks the 3% range-accuracy budget.
    """
    if det.pixel_count < MIN_DEPTH_BLOB_PIXELS:
        return DepthEstimate.invalid()
    us, vs = seg.pixel_coords()
    cu = us.astype(np.float64) - k.cx
    cv = vs.astype(np.float64) - k.cy

    dx = det.centroid[0] - k.cx
    dy = det.centroid[1] - k.cy
    if dx == 0.0 and dy == 0.0:
        theta = 0.0  # construction is rotationally symmetric at the center
    else:
        theta = math.atan2(dy, dx)
    ct, st = math.cos(theta), math.sin(theta)
    # rotate by -theta so the radial direction lies along u
    rot_u = ct * cu + st * cv
    rot_v = -st * cu + ct * cv
    mean_u = float(rot_u.mean())
    mean_v = float(rot_v.mean())
    # 1/12 restores the variance smeared out by the unit pixel footprint
    var_u = float(((rot_u - mean_u) ** 2).mean()) + 1.0 / 12.0
    var_v = float(((rot_v - mean_v) ** 2).mean()) + 1.0 / 12.0
    semi_extent = math.sqrt(det.pixel_count / math.pi) * (var_u / var_v) ** 0.25
    u_left = mean_u - semi_extent
    u_right = mean_u + semi_extent

    # rotate the two edge points back by +theta and translate
    left = (ct * u_left + k.cx, st * u_left + k.cy)
    right = (ct * u_right + k.cx, st * u_right + k.cy)
    ray_l = pixel_to_los(left[0], left[1], k)
    ray_r = pixel_to_los(right[0], right[1], k)
    cos_a = ray_l.dot(ray_r) / (ray_l.norm() * ray_r.norm())
    alpha = math.acos(min(1.0, max(-1.0, cos_a)))
    if alpha <= 0.0 or alpha >= math.pi:
        return DepthEstimate.invalid()
    d = depth_from_subtended_angle(alpha, target_diameter)
    if d <= 0.0:
        return DepthEstimate.invalid()
    half = target_diameter / 2.0
    return DepthEstimate(d=d, d_center=d + half, alpha=alpha, valid=True)


class MovingAverageFilter:
    """Flat moving average over the last `window` samples of floats or Vec3."""

    def __init__(self, window: int):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self._buf: deque = deque(maxlen=window)

    def step(self, sample: Union[float, Vec3]) -> Union[float, Vec3]:
        self._buf.append(sample)
        n = len(self._buf)
        if isinstance(sample, Vec3):
            sx = sy = sz = 0.0
            for v in self._buf:
                sx += v.x
                sy += v.y
                sz += v.z
            return Vec3(sx / n, sy / n, sz / n)
        return sum(self._buf) / n


def write_pgm(seg: SegmentationImage, path: str) -> None:
    """Debug dump as binary PGM (P5), one byte per pixel, 0/255."""
    data = np.where(seg.mask, 255, 0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{seg.width} {seg.height}\n255\n".encode("ascii"))
        fh.write(data.tobytes())

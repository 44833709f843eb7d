"""Synthetic target segmentation and monocular depth recovery.

The renderer stands in for a color-thresholding segmentation node: it
produces the binary occupancy image a real detector would, including the
pixel-quantization noise that drives smoothing requirements downstream.
Depth comes from the known target diameter and the angle the blob subtends
along the line through the principal point.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .geometry import CameraIntrinsics, Vec3, pixel_to_los


@dataclass
class SegmentationImage:
    """Binary image of one frame, stored as the sub-mask of a window (u0, v0,
    u1, v1), end-exclusive, that holds every set pixel. `render_sphere` uses
    the padded box of the silhouette's image conic; a full frame's window is
    (0, 0, width, height)."""

    window_mask: np.ndarray  # bool, shape (v1 - v0, u1 - u0)
    window: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        u0, v0, u1, v1 = self.window
        if self.window_mask.shape != (v1 - v0, u1 - u0):
            raise ValueError("mask shape must be the window's (height, width)")


@dataclass(frozen=True)
class Detection:
    centroid: tuple[float, float]
    pixel_count: int
    bbox: tuple[int, int, int, int]  # min_u, min_v, max_u, max_v (inclusive)


_WINDOW_PAD = 2  # px around the conic's bounding box, against rounding
_NO_PIXELS = np.zeros((0, 0), dtype=bool)
_EMPTY_WINDOW = (0, 0, 0, 0)
_TANGENT_SLACK = 1e-9  # keeps the rows at the cone's tangent, where rounding decides the predicate


@functools.cache
def _camera_rays(k: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The camera's column rays (u - cx) / fx, row rays (v - cy) / fy and
    per-pixel sqrt(x^2 + y^2 + 1), built on its first render: a render
    slices its window out of them, so each pixel gets the same floats."""
    ray_x = (np.arange(k.width, dtype=np.float64) - k.cx) / k.fx
    ray_y = (np.arange(k.height, dtype=np.float64) - k.cy) / k.fy
    x, y = ray_x[np.newaxis, :], ray_y[:, np.newaxis]
    root = np.sqrt(x * x + y * y + 1.0)
    return ray_x, ray_y, root


def _row_window(c: Vec3, beta: float, k: CameraIntrinsics) -> tuple[int, int, int, int]:
    """Padded pixel bounding box of the cone's image, solved row by row: along
    the row y, with s = sqrt(y^2 + 1) and x = s tan(theta), c.d >= cos(beta) |d|
    reads R cos(theta - phi) >= cos(beta) s, where R sin(phi) = c_x s and
    R cos(phi) = y c_y + c_z, one interval of theta within (-pi/2, pi/2)."""
    ray_y = _camera_rays(k)[1]
    s = np.sqrt(ray_y * ray_y + 1.0)
    ax, b = c.x * s, ray_y * c.y + c.z
    r, cos_s = np.hypot(ax, b), math.cos(beta) * s
    rows = np.flatnonzero(cos_s <= r * (1.0 + _TANGENT_SLACK))
    half = np.arccos(np.minimum(cos_s[rows] / r[rows], 1.0))
    phi = np.arctan2(ax[rows], b[rows])
    lo = np.maximum(phi - half, -math.pi / 2)
    hi = np.minimum(phi + half, math.pi / 2)
    u_lo = np.floor(k.fx * (s[rows] * np.tan(lo)) + k.cx) - _WINDOW_PAD
    u_hi = np.ceil(k.fx * (s[rows] * np.tan(hi)) + k.cx) + _WINDOW_PAD
    seen = (lo <= hi) & (u_hi >= 0) & (u_lo < k.width)
    if not seen.any():
        return _EMPTY_WINDOW
    rows = rows[seen]
    return (max(0, int(u_lo[seen].min())), max(0, int(rows[0]) - _WINDOW_PAD),
            min(k.width, int(u_hi[seen].max()) + 1), min(k.height, int(rows[-1]) + _WINDOW_PAD + 1))


def _silhouette_window(center_cam: Vec3, beta: float, k: CameraIntrinsics) -> tuple[int, int, int, int]:
    """Padded pixel bounding box of the silhouette cone's image, clipped.

    In normalized coordinates d = (x, y, 1) the image is the conic
    (c.d)^2 - cos^2(beta) |d|^2 = 0, c the unit center direction. Its u
    extremes solve dQ/dy = 0 and its v extremes dQ/dx = 0, which leaves
    (c_z^2 - sin^2 beta) x^2 - 2 c_x c_z x + c_x^2 - sin^2 beta = 0 (and
    the same in c_y for y). When c_z <= sin(beta) the cone reaches the
    horizon and its image is unbounded, so the frame's rows bound it.
    """
    c = center_cam.unit()
    sb = math.sin(beta)
    if c.z <= sb:
        return _row_window(c, beta, k)
    lead = (c.z - sb) * (c.z + sb)

    def span(a: float, f: float, c0: float, n: int) -> tuple[int, int]:
        # the root pair as q / lead and (a^2 - sin^2 beta) / q, free of cancellation
        q = a * c.z + math.copysign(sb * math.sqrt(a * a + lead), a)
        lo, hi = sorted((f * (q / lead) + c0, f * ((a - sb) * (a + sb) / q) + c0))
        return max(0, math.floor(lo) - _WINDOW_PAD), min(n, math.ceil(hi) + _WINDOW_PAD + 1)

    u0, u1 = span(c.x, k.fx, k.cx, k.width)
    v0, v1 = span(c.y, k.fy, k.cy, k.height)
    return (u0, v0, u1, v1)


def render_window(center_cam: Vec3, radius: float, k: CameraIntrinsics) -> tuple[int, int, int, int]:
    """The window `render_sphere` evaluates and stores: empty for a sphere
    behind the camera or off the frame, the full frame for a camera inside
    it, else the silhouette's padded box. Every set pixel lies in it, so its
    area bounds the blob's pixel count."""
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if center_cam.z <= 0.0:
        return _EMPTY_WINDOW
    dist = center_cam.norm()
    if dist <= radius:
        return (0, 0, k.width, k.height)
    u0, v0, u1, v1 = window = _silhouette_window(center_cam, math.asin(radius / dist), k)
    return window if u0 < u1 and v0 < v1 else _EMPTY_WINDOW


def render_sphere(
    center_cam: Vec3,
    radius: float,
    k: CameraIntrinsics,
    window: Optional[tuple[int, int, int, int]] = None,
) -> SegmentationImage:
    """Binary silhouette of a sphere seen through a pinhole camera.

    A pixel is set iff the angle between its back-projected ray and the ray
    to the sphere center is at most asin(radius / range). Off-frame and
    behind-camera spheres yield an empty (or partial) mask. Only the
    `render_window` pixels are evaluated and stored; a caller that already
    holds that window passes it in.
    """
    u0, v0, u1, v1 = render_window(center_cam, radius, k) if window is None else window
    if u0 >= u1:
        return SegmentationImage(_NO_PIXELS, _EMPTY_WINDOW)
    dist = center_cam.norm()
    if dist <= radius:
        # camera inside the target: everything is target
        return SegmentationImage(np.ones((k.height, k.width), dtype=bool), (0, 0, k.width, k.height))

    ray_x, ray_y, root = _camera_rays(k)
    # cos(angle) >= cos(beta), with ray z == 1
    lhs = ray_x[u0:u1] * center_cam.x + ray_y[v0:v1, np.newaxis] * center_cam.y + center_cam.z
    cos_beta = math.cos(math.asin(radius / dist))
    return SegmentationImage(lhs >= cos_beta * dist * root[v0:v1, u0:u1], (u0, v0, u1, v1))


def centroid(seg: SegmentationImage) -> Optional[Detection]:
    """First-moment centroid, as exact integer sums over the window's row and
    column counts (no pixel scan); None when the mask is empty."""
    rows = seg.window_mask.sum(axis=1)
    m00 = int(rows.sum())
    if m00 == 0:
        return None
    cols = seg.window_mask.sum(axis=0)
    u0, v0, u1, v1 = seg.window
    cx = float(cols @ np.arange(u0, u1)) / m00
    cy = float(rows @ np.arange(v0, v1)) / m00
    us, vs = np.flatnonzero(cols), np.flatnonzero(rows)
    bbox = (u0 + int(us[0]), v0 + int(vs[0]), u0 + int(us[-1]), v0 + int(vs[-1]))
    return Detection(centroid=(cx, cy), pixel_count=m00, bbox=bbox)


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
) -> Optional[float]:
    """Range from the angle subtended along the line through the principal point.

    The segmented pixels are rotated so the centroid-through-center line is
    horizontal, the target's extent along that line is measured, the two edge
    points are rotated back and back-projected to rays, and the subtended
    angle alpha between those rays gives

        d = (w/2) / sin(alpha/2) - w/2

    measured to the nearest point of the target; the result is d + w/2, the
    range to its center, or None when the blob gives none. The extent is taken from the
    zeroth and second image moments of the blob (semi-extent = sqrt(count/pi)
    scaled by the fourth root of the axis variance ratio, the exact relation
    for a filled ellipse) rather than from the raw min/max pixel coordinates:
    quantization noise on the extreme pixels alone is up to a full pixel,
    which at small blob sizes breaks the 3% range-accuracy budget.
    """
    if det.pixel_count < MIN_DEPTH_BLOB_PIXELS:
        return None
    vs, us = np.nonzero(seg.window_mask)
    cu = (us + seg.window[0]).astype(np.float64) - k.cx
    cv = (vs + seg.window[1]).astype(np.float64) - k.cy

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
        return None
    d = depth_from_subtended_angle(alpha, target_diameter)
    if d <= 0.0:
        return None
    return d + target_diameter / 2.0


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


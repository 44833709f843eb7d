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
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .geometry import CameraIntrinsics, Vec3, pixel_to_los


@dataclass
class SegmentationImage:
    width: int
    height: int
    mask: np.ndarray  # bool, shape (height, width)
    # Tight-enough scan window (u0, v0, u1, v1), end-exclusive, guaranteed to
    # contain every set pixel. Defaults to the full image for hand-built masks.
    window: Optional[tuple[int, int, int, int]] = None

    def __post_init__(self) -> None:
        if self.mask.shape != (self.height, self.width):
            raise ValueError("mask shape must be (height, width)")
        if self.window is None:
            self.window = (0, 0, self.width, self.height)

    def pixel_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Arrays (us, vs) of set-pixel coordinates, scanning only the window."""
        u0, v0, u1, v1 = self.window
        vs, us = np.nonzero(self.mask[v0:v1, u0:u1])
        return us + u0, vs + v0


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


_CONE_BOUNDARY_SAMPLES = 48


def _silhouette_window(
    center_cam: Vec3, beta: float, k: CameraIntrinsics
) -> Optional[tuple[int, int, int, int]]:
    """Conservative pixel window containing the silhouette cone's image.

    Samples the boundary circle of the cone and takes the pixel bounding box
    with padding. Returns None when any boundary direction fails to project
    (extreme wide-angle geometry); callers then scan the full frame.
    """
    c = center_cam.unit()
    # orthonormal pair spanning the plane normal to c
    ref = Vec3(0.0, 1.0, 0.0) if abs(c.x) > 0.9 else Vec3(1.0, 0.0, 0.0)
    e1 = (ref - c.scale(ref.dot(c))).unit()
    e2 = c.cross(e1)
    cb, sb = math.cos(beta), math.sin(beta)
    umin = vmin = math.inf
    umax = vmax = -math.inf
    for i in range(_CONE_BOUNDARY_SAMPLES):
        phi = 2.0 * math.pi * i / _CONE_BOUNDARY_SAMPLES
        cp, sp = math.cos(phi), math.sin(phi)
        dx = cb * c.x + sb * (cp * e1.x + sp * e2.x)
        dy = cb * c.y + sb * (cp * e1.y + sp * e2.y)
        dz = cb * c.z + sb * (cp * e1.z + sp * e2.z)
        if dz <= 1e-9:
            return None
        u = k.fx * dx / dz + k.cx
        v = k.fy * dy / dz + k.cy
        umin = min(umin, u)
        umax = max(umax, u)
        vmin = min(vmin, v)
        vmax = max(vmax, v)
    pad = 2
    u0 = max(0, int(math.floor(umin)) - pad)
    v0 = max(0, int(math.floor(vmin)) - pad)
    u1 = min(k.width, int(math.ceil(umax)) + pad + 1)
    v1 = min(k.height, int(math.ceil(vmax)) + pad + 1)
    return (u0, v0, u1, v1)


def render_sphere(center_cam: Vec3, radius: float, k: CameraIntrinsics) -> SegmentationImage:
    """Binary silhouette of a sphere seen through a pinhole camera.

    A pixel is set iff the angle between its back-projected ray and the ray
    to the sphere center is at most asin(radius / range). Off-frame and
    behind-camera spheres yield an empty (or partial) mask.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    mask = np.zeros((k.height, k.width), dtype=bool)
    if center_cam.z <= 0.0:
        return SegmentationImage(k.width, k.height, mask, (0, 0, 0, 0))
    dist = center_cam.norm()
    if dist <= radius:
        # camera inside the target: everything is target
        mask[:, :] = True
        return SegmentationImage(k.width, k.height, mask)

    beta = math.asin(radius / dist)
    window = _silhouette_window(center_cam, beta, k)
    if window is None:
        window = (0, 0, k.width, k.height)
    u0, v0, u1, v1 = window
    if u0 >= u1 or v0 >= v1:
        return SegmentationImage(k.width, k.height, mask, (0, 0, 0, 0))

    us = (np.arange(u0, u1, dtype=np.float64) - k.cx) / k.fx
    vs = (np.arange(v0, v1, dtype=np.float64) - k.cy) / k.fy
    ray_x = us[np.newaxis, :]
    ray_y = vs[:, np.newaxis]
    # cos(angle) >= cos(beta), with ray z == 1
    lhs = (ray_x * center_cam.x + ray_y * center_cam.y + center_cam.z)
    rhs = math.cos(beta) * dist * np.sqrt(ray_x * ray_x + ray_y * ray_y + 1.0)
    sub = lhs >= rhs
    mask[v0:v1, u0:u1] = sub
    return SegmentationImage(k.width, k.height, mask, window)


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

    def reset(self) -> None:
        self._buf.clear()


def write_pgm(seg: SegmentationImage, path: str) -> None:
    """Debug dump as binary PGM (P5), one byte per pixel, 0/255."""
    data = np.where(seg.mask, 255, 0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{seg.width} {seg.height}\n255\n".encode("ascii"))
        fh.write(data.tobytes())

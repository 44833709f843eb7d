import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pursuitsim.geometry import CameraIntrinsics, Vec3, los_rate, pixel_to_los
from pursuitsim.perception import (
    Detection,
    MovingAverageFilter,
    SegmentationImage,
    _camera_rays,
    centroid,
    depth_from_subtended_angle,
    estimate_depth,
    render_sphere,
)

K = CameraIntrinsics.from_hfov(math.radians(105.0), 680, 480)


def blank_mask():
    return np.zeros((480, 680), dtype=bool)


def whole(mask):
    """A hand-built frame: the full-frame mask with the full-frame window."""
    return SegmentationImage(mask, (0, 0, mask.shape[1], mask.shape[0]))


def full_frame(seg, k):
    """The (height, width) frame with the window's mask in place."""
    u0, v0, u1, v1 = seg.window
    full = np.zeros((k.height, k.width), dtype=bool)
    full[v0:v1, u0:u1] = seg.window_mask
    return full


class TestRenderSphere:
    def test_behind_camera_is_empty(self):
        seg = render_sphere(Vec3(0, 0, -5.0), 0.5, K)
        assert not full_frame(seg, K).any()

    def test_on_axis_blob_is_centered_and_symmetric(self):
        seg = render_sphere(Vec3(0, 0, 10.0), 0.5, K)
        det = centroid(seg)
        assert det is not None
        assert abs(det.centroid[0] - K.cx) <= 1.0
        assert abs(det.centroid[1] - K.cy) <= 1.0
        # mirror symmetry up to the pixel grid
        vs, us = np.nonzero(full_frame(seg, K))
        assert abs((us - K.cx).sum()) <= det.pixel_count * 0.51

    def test_pixel_count_matches_silhouette_area_oracle(self):
        # analytic silhouette disc: the on-axis image of the tangency cone is
        # a circle of radius fx*tan(asin(r/d)) pixels
        for rng in (5.0, 8.0, 12.0):
            seg = render_sphere(Vec3(0, 0, rng), 0.5, K)
            det = centroid(seg)
            r_px = K.fx * math.tan(math.asin(0.5 / rng))
            assert r_px >= 5.0
            expected = math.pi * r_px * r_px
            assert abs(det.pixel_count - expected) / expected < 0.10

    def test_off_frame_sphere_is_empty(self):
        seg = render_sphere(Vec3(100.0, 0, 5.0), 0.5, K)
        assert not full_frame(seg, K).any()

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            render_sphere(Vec3(0, 0, 5.0), 0.0, K)


class TestCentroid:
    def test_single_pixel(self):
        mask = blank_mask()
        mask[1, 1] = True
        det = centroid(whole(mask))
        assert det.centroid == (1.0, 1.0)
        assert det.pixel_count == 1

    def test_two_pixels_mean(self):
        mask = blank_mask()
        mask[0, 0] = True
        mask[0, 2] = True
        det = centroid(whole(mask))
        assert det.centroid == (1.0, 0.0)

    def test_empty_mask_is_no_detection(self):
        assert centroid(whole(blank_mask())) is None

    def test_symmetric_disc_centroid(self):
        seg = render_sphere(Vec3(0, 0, 8.0), 0.5, K)
        det = centroid(seg)
        assert abs(det.centroid[0] - K.cx) <= 0.5
        assert abs(det.centroid[1] - K.cy) <= 0.5

    def test_union_is_weighted_mean_of_parts(self):
        a = blank_mask()
        a[10:20, 30:40] = True
        b = blank_mask()
        b[100:130, 200:260] = True
        det_a = centroid(whole(a))
        det_b = centroid(whole(b))
        det_ab = centroid(whole(a | b))
        n_a, n_b = det_a.pixel_count, det_b.pixel_count
        cx = (det_a.centroid[0] * n_a + det_b.centroid[0] * n_b) / (n_a + n_b)
        cy = (det_a.centroid[1] * n_a + det_b.centroid[1] * n_b) / (n_a + n_b)
        assert abs(det_ab.centroid[0] - cx) < 1e-9
        assert abs(det_ab.centroid[1] - cy) < 1e-9
        assert det_ab.pixel_count == n_a + n_b

    def test_two_runs_in_one_row(self):
        mask = blank_mask()
        mask[7, 3:6] = True
        mask[7, 40:42] = True
        mask[9, 10] = True
        det = centroid(whole(mask))
        assert det == scanned_detection(mask)
        assert det == Detection((103 / 6, 44 / 6), 6, (3, 7, 41, 9))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 479), st.integers(0, 679), st.integers(1, 60)), max_size=12),
           st.tuples(*[st.integers(0, 5)] * 4))
    def test_row_runs_equal_pixel_scan(self, runs, pad):
        # several runs to a row, in the full frame and in a padded window as render_sphere stores one
        mask = blank_mask()
        for v, u, n in runs:
            mask[v, u:u + n] = True
        assert centroid(whole(mask)) == scanned_detection(mask)
        if mask.any():
            vs, us = np.nonzero(mask)
            u0, v0 = max(0, int(us.min()) - pad[0]), max(0, int(vs.min()) - pad[1])
            u1, v1 = min(680, int(us.max()) + 1 + pad[2]), min(480, int(vs.max()) + 1 + pad[3])
            seg = SegmentationImage(mask[v0:v1, u0:u1].copy(), (u0, v0, u1, v1))
            assert centroid(seg) == scanned_detection(mask)


class TestEstimateDepth:
    def test_formula(self):
        # sin(alpha/2) = 0.05 with a 1 m target puts the near surface at 9.5 m
        alpha = 2.0 * math.asin(0.05)
        assert abs(depth_from_subtended_angle(alpha, 1.0) - 9.5) < 1e-12

    def test_tiny_blob_invalid(self):
        mask = blank_mask()
        mask[240, 340] = True
        mask[240, 341] = True
        seg = whole(mask)
        det = centroid(seg)
        assert estimate_depth(seg, det, K, 1.0) is None

    def test_on_axis_range(self):
        seg = render_sphere(Vec3(0, 0, 10.0), 0.5, K)
        det = centroid(seg)
        est = estimate_depth(seg, det, K, 1.0)
        assert est is not None
        assert abs(est - 10.0) / 10.0 <= 0.03

    def test_off_axis_full_pipeline(self):
        center = Vec3(3.0, 2.0, 15.0)
        truth = center.norm()
        seg = render_sphere(center, 0.5, K)
        det = centroid(seg)
        est = estimate_depth(seg, det, K, 1.0)
        assert est is not None
        assert abs(est - truth) / truth <= 0.03

    def test_rotation_invariance_about_principal_point(self):
        # the rotate/measure/unrotate construction exists so that spinning the
        # target about the image center leaves the estimate alone
        rng = 6.0
        offset = 1.2
        estimates = []
        for ang in (0.0, 0.4, 0.9, 1.7, 2.6, -2.0):
            center = Vec3(offset * math.cos(ang), offset * math.sin(ang), rng)
            seg = render_sphere(center, 0.5, K)
            det = centroid(seg)
            est = estimate_depth(seg, det, K, 1.0)
            assert est is not None
            estimates.append(est)
        mid = sum(estimates) / len(estimates)
        for e in estimates:
            assert abs(e - mid) / mid <= 0.01

    def test_accuracy_across_ranges(self):
        # nominal silhouette radius >= 5 px caps the usable range near 26 m
        for rng in (5.0, 10.0, 15.0, 20.0, 25.0):
            r_px = K.fx * math.tan(math.asin(0.5 / rng))
            assert r_px >= 5.0
            seg = render_sphere(Vec3(0, 0, rng), 0.5, K)
            det = centroid(seg)
            est = estimate_depth(seg, det, K, 1.0)
            assert abs(est - rng) / rng <= 0.03, f"range {rng}"


class TestPinnedFloats:
    # centroid and range of fixed renders, compared with == to the values the
    # pixel-scan implementation gave: a refactor of the moments or the range
    # that moves one float fails here
    PINS = [
        # on-axis blob
        (Vec3(0.0, 0.0, 10.0), Detection((340.0, 240.0), 545, (327, 227, 353, 253)), 9.916509459665683),
        # clipped by the frame's left edge
        (Vec3(-4.3, 1.1, 3.0),
         Detection((13.262827822120867, 328.3620296465222), 1754, (0, 294, 33, 367)), 19.0350314645538),
        # off axis
        (Vec3(3.0, 2.0, 15.0),
         Detection((392.31404958677683, 274.8471074380165), 242, (384, 267, 401, 283)), 15.44045023000826),
        # a cone past the horizon, windowed row by row
        (Vec3(1.2, 0.3, 0.4),
         Detection((660.7534988713318, 348.7947328818661), 6645, (633, 248, 679, 459)), 11.44560687443805),
        # a blob too small for a range
        (Vec3(0.0, 0.0, 150.0), Detection((340.0, 240.0), 1, (340, 240, 340, 240)), None),
    ]

    @pytest.mark.parametrize("center, detection, d_center", PINS)
    def test_centroid_and_range_are_pinned(self, center, detection, d_center):
        seg = render_sphere(center, 0.5, K)
        det = centroid(seg)
        assert det == detection
        assert estimate_depth(seg, det, K, 1.0) == d_center


class TestResolutionScaling:
    def test_los_rate_invariant_to_image_resolution(self):
        # doubling pixels and focal lengths together leaves the measured LOS
        # rotation rate unchanged up to quantization
        k2 = CameraIntrinsics(2 * K.fx, 2 * K.fy, 2 * K.cx, 2 * K.cy, 2 * K.width, 2 * K.height)
        p0 = Vec3(0.4, 0.2, 9.0)
        p1 = Vec3(0.55, 0.13, 8.8)
        rates = []
        for k in (K, k2):
            rays = []
            for p in (p0, p1):
                det = centroid(render_sphere(p, 0.5, k))
                rays.append(pixel_to_los(det.centroid[0], det.centroid[1], k))
            phi_dot, _, valid = los_rate(rays[0], rays[1], 1.0 / 30.0)
            assert valid
            rates.append(phi_dot)
        assert abs(rates[0] - rates[1]) / rates[0] < 0.02


class TestMovingAverageFilter:
    def test_constant_signal_fixed_point(self):
        f = MovingAverageFilter(4)
        for _ in range(10):
            assert f.step(2.0) == 2.0

    def test_two_sample_window(self):
        f = MovingAverageFilter(2)
        assert f.step(0.0) == 0.0
        assert f.step(1.0) == 0.5

    def test_warmup_then_sliding(self):
        f = MovingAverageFilter(3)
        outs = [f.step(x) for x in (1.0, 2.0, 3.0, 4.0)]
        assert outs == [1.0, 1.5, 2.0, 3.0]

    def test_vector_samples(self):
        f = MovingAverageFilter(2)
        f.step(Vec3(0, 0, 0))
        out = f.step(Vec3(2, -2, 4))
        assert out == Vec3(1.0, -1.0, 2.0)

    def test_output_within_window_bounds(self):
        f = MovingAverageFilter(5)
        samples = [3.0, -1.0, 7.5, 2.0, 2.0, -4.0, 9.0, 0.5]
        window = []
        for s in samples:
            window.append(s)
            window = window[-5:]
            out = f.step(s)
            assert min(window) <= out <= max(window)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            MovingAverageFilter(0)


# A 150-degree lens puts the horizon close to the frame edge, where the
# closed-form window gives way to the row-by-row one.
WIDE = CameraIntrinsics.from_hfov(math.radians(150.0), 96, 72)


def full_frame_predicate(center, radius, k):
    """The silhouette rule evaluated at every pixel with render_sphere's own
    expression, without any window."""
    if center.z <= 0.0:
        return np.zeros((k.height, k.width), dtype=bool)
    dist = center.norm()
    if dist <= radius:
        return np.ones((k.height, k.width), dtype=bool)
    beta = math.asin(radius / dist)
    ray_x = ((np.arange(k.width, dtype=np.float64) - k.cx) / k.fx)[np.newaxis, :]
    ray_y = ((np.arange(k.height, dtype=np.float64) - k.cy) / k.fy)[:, np.newaxis]
    lhs = (ray_x * center.x + ray_y * center.y + center.z)
    rhs = math.cos(beta) * dist * np.sqrt(ray_x * ray_x + ray_y * ray_y + 1.0)
    return lhs >= rhs


def scanned_detection(mask):
    """The moments from a scan of every set pixel."""
    vs, us = np.nonzero(mask)
    n = us.size
    if n == 0:
        return None
    bbox = (int(us.min()), int(vs.min()), int(us.max()), int(vs.max()))
    return Detection((float(us.sum()) / n, float(vs.sum()) / n), n, bbox)


@st.composite
def sphere_views(draw):
    """(center, radius, camera) over the cases the window must handle."""
    k = draw(st.sampled_from([K, WIDE]))
    kind = draw(st.sampled_from(["any", "behind", "off-frame", "edge", "horizon", "beside", "inside"]))
    radius = draw(st.floats(0.05, 3.0))
    unit = st.floats(-1.0, 1.0)
    if kind == "inside":
        dist = radius * draw(st.floats(0.0, 1.0))
        x, y, z = draw(unit), draw(unit), draw(unit)
        n = math.sqrt(x * x + y * y + z * z) or 1.0
        return Vec3(dist * x / n, dist * y / n, dist * z / n), radius, k
    if kind == "behind":
        return Vec3(draw(st.floats(-20.0, 20.0)), draw(st.floats(-20.0, 20.0)), draw(st.floats(-20.0, 0.0))), radius, k
    if kind == "horizon":
        # center raised about beta above the camera's z = 0 plane, where the
        # cone's image stops being bounded
        dist = draw(st.floats(radius * 1.01, 40.0))
        elev = math.asin(radius / dist) * draw(st.floats(0.8, 1.2))
        az = draw(st.floats(-math.pi, math.pi))
        rho = dist * math.cos(elev)
        return Vec3(rho * math.cos(az), rho * math.sin(az), dist * math.sin(elev)), radius, k
    if kind == "beside":
        # center 60-120 degrees off the optical axis: cones that reach the
        # horizon beside the frame, and miss it or clip its edge
        dist = draw(st.floats(radius * 1.01, 40.0))
        off = math.radians(draw(st.floats(60.0, 120.0)))
        az = draw(st.floats(-math.pi, math.pi))
        rho = dist * math.sin(off)
        return Vec3(rho * math.cos(az), rho * math.sin(az), dist * math.cos(off)), radius, k
    z = draw(st.floats(0.05, 60.0))
    if kind == "any":
        return Vec3(draw(st.floats(-30.0, 30.0)), draw(st.floats(-30.0, 30.0)), z), radius, k
    # image position relative to the frame: an edge is at +-1, off-frame beyond it
    spread = st.floats(0.85, 1.15) if kind == "edge" else st.floats(1.3, 6.0)
    fu = draw(spread) * draw(st.sampled_from([-1.0, 1.0]))
    fv = draw(st.floats(-1.2, 1.2))
    if draw(st.booleans()):
        fu, fv = fv, fu
    x = fu * (k.width / 2.0) / k.fx * z
    y = fv * (k.height / 2.0) / k.fy * z
    return Vec3(x, y, z), radius, k


class TestRenderProperties:
    @settings(max_examples=300, deadline=None)
    @given(sphere_views())
    def test_mask_is_full_frame_predicate(self, view):
        center, radius, k = view
        seg = render_sphere(center, radius, k)
        assert np.array_equal(full_frame(seg, k), full_frame_predicate(center, radius, k))
        u0, v0, u1, v1 = seg.window
        assert 0 <= u0 and 0 <= v0 and u1 <= k.width and v1 <= k.height
        vs, us = np.nonzero(full_frame(seg, k))
        assert ((us >= u0) & (us < u1) & (vs >= v0) & (vs < v1)).all()

    @settings(max_examples=150, deadline=None)
    @given(sphere_views())
    def test_moments_equal_hand_built_full_frame(self, view):
        center, radius, k = view
        seg = render_sphere(center, radius, k)
        hand = whole(full_frame(seg, k))
        det = centroid(seg)
        assert det == centroid(hand)
        if det is not None:
            assert estimate_depth(seg, det, k, 2.0 * radius) == estimate_depth(hand, det, k, 2.0 * radius)

    @settings(max_examples=300, deadline=None)
    @given(sphere_views())
    def test_centroid_equals_pixel_scan(self, view):
        center, radius, k = view
        seg = render_sphere(center, radius, k)
        assert centroid(seg) == scanned_detection(full_frame(seg, k))

    def test_ray_table_slices_equal_per_call_rays(self):
        for k, (u0, v0, u1, v1) in ((K, (0, 0, K.width, K.height)), (K, (301, 17, 388, 95)), (WIDE, (5, 60, 96, 72))):
            table_x, table_y, root = _camera_rays(k)
            ray_x = ((np.arange(u0, u1, dtype=np.float64) - k.cx) / k.fx)[np.newaxis, :]
            ray_y = ((np.arange(v0, v1, dtype=np.float64) - k.cy) / k.fy)[:, np.newaxis]
            assert np.array_equal(table_x[u0:u1], ray_x[0]) and np.array_equal(table_y[v0:v1], ray_y[:, 0])
            assert np.array_equal(root[v0:v1, u0:u1], np.sqrt(ray_x * ray_x + ray_y * ray_y + 1.0))

    def test_cone_beside_the_frame_scans_no_pixel(self):
        # the cone reaches the horizon, so its image is unbounded, but its
        # 5.7 degree half-angle lies 44 degrees outside the frame's top face
        center = Vec3(0.0, -5.0, 0.3)
        seg = render_sphere(center, 0.5, K)
        assert seg.window == (0, 0, 0, 0)
        assert not full_frame_predicate(center, 0.5, K).any()

    def test_cone_past_the_horizon_scans_its_rows_only(self):
        # the cone reaches the horizon and the frame's right edge: the frame
        # was scanned in full, and the row-by-row window holds 3.4% of it
        center = Vec3(1.2, 0.3, 0.4)
        seg = render_sphere(center, 0.5, K)
        assert seg.window == (630, 243, 680, 466)
        assert np.array_equal(full_frame(seg, K), full_frame_predicate(center, 0.5, K))
        assert centroid(seg).bbox == (633, 248, 679, 459)

    def test_window_bounds_the_blob_tightly(self):
        seg = render_sphere(Vec3(1.0, 0.5, 8.0), 0.5, K)
        det = centroid(seg)
        u0, v0, u1, v1 = seg.window
        # the 2-px pad plus under two pixels between the conic and its pixels
        assert det.bbox[0] - u0 <= 4 and u1 - 1 - det.bbox[2] <= 4
        assert det.bbox[1] - v0 <= 4 and v1 - 1 - det.bbox[3] <= 4


def pgm_bytes(seg, k) -> bytes:
    """The full frame as a binary PGM (P5), one byte per pixel, 0/255."""
    header = f"P5\n{k.width} {k.height}\n255\n".encode("ascii")
    return header + np.where(full_frame(seg, k), 255, 0).astype(np.uint8).tobytes()


class TestPgmDump:
    # reference digests of the masks as PGM files: a renderer change that moves one
    # pixel of these frames (edge-clipped, full-frame fallback, camera inside
    # the sphere among them) changes them
    GOLDEN = [
        (Vec3(0.0, 0.0, 10.0), "ef1034b4f15aefbdbc157c9579f38e6a3ea8ece65a12e7dd631635446a0b3eb3"),
        (Vec3(3.0, 2.0, 15.0), "72b14cb1a7d9d400498f93f7a0ba0f0fd4a3523529cd80bba239bae6073ff415"),
        (Vec3(-4.3, 1.1, 3.0), "608cdda5c95a6c607db4f39fa83960d19101981b56f3c3bcf39d0d03d7315a1c"),
        (Vec3(0.0, 0.0, -5.0), "d22ab682cf7a7a23efcb1a8971d324ef57336cf3b19f5566f0500c43e52ccad5"),
        (Vec3(0.1, 0.2, 0.3), "e347d95d7afa7cc7b8b29c98f489c0a50897858915a94b7ba585a98d92d78d60"),
        (Vec3(1.2, 0.3, 0.4), "d7080e52cf54a3e3fd4a34ee00d0e08f58f613c726bb123d7290729a25b56bcf"),
        (Vec3(0.6, 0.3, 0.45), "188e970a78f34ae1a6f5dcbf12903f8b9be8bb595370d32bdd33b253a521823c"),
    ]

    @pytest.mark.parametrize("center, digest", GOLDEN)
    def test_rendered_frames_byte_identical(self, center, digest):
        assert hashlib.sha256(pgm_bytes(render_sphere(center, 0.5, K), K)).hexdigest() == digest

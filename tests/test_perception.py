import math

import numpy as np
import pytest

from pursuitsim.geometry import CameraIntrinsics, Vec3, los_rate, pixel_to_los
from pursuitsim.perception import (
    MovingAverageFilter,
    SegmentationImage,
    centroid,
    depth_from_subtended_angle,
    estimate_depth,
    render_sphere,
    write_pgm,
)

K = CameraIntrinsics.from_hfov(math.radians(105.0), 680, 480)


def blank_mask():
    return np.zeros((480, 680), dtype=bool)


class TestRenderSphere:
    def test_behind_camera_is_empty(self):
        seg = render_sphere(Vec3(0, 0, -5.0), 0.5, K)
        assert not seg.mask.any()

    def test_on_axis_blob_is_centered_and_symmetric(self):
        seg = render_sphere(Vec3(0, 0, 10.0), 0.5, K)
        det = centroid(seg)
        assert det is not None
        assert abs(det.centroid[0] - K.cx) <= 1.0
        assert abs(det.centroid[1] - K.cy) <= 1.0
        # mirror symmetry up to the pixel grid
        us, vs = seg.pixel_coords()
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
        assert not seg.mask.any()

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            render_sphere(Vec3(0, 0, 5.0), 0.0, K)


class TestCentroid:
    def test_single_pixel(self):
        mask = blank_mask()
        mask[1, 1] = True
        det = centroid(SegmentationImage(680, 480, mask))
        assert det.centroid == (1.0, 1.0)
        assert det.pixel_count == 1

    def test_two_pixels_mean(self):
        mask = blank_mask()
        mask[0, 0] = True
        mask[0, 2] = True
        det = centroid(SegmentationImage(680, 480, mask))
        assert det.centroid == (1.0, 0.0)

    def test_empty_mask_is_no_detection(self):
        assert centroid(SegmentationImage(680, 480, blank_mask())) is None

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
        det_a = centroid(SegmentationImage(680, 480, a))
        det_b = centroid(SegmentationImage(680, 480, b))
        det_ab = centroid(SegmentationImage(680, 480, a | b))
        n_a, n_b = det_a.pixel_count, det_b.pixel_count
        cx = (det_a.centroid[0] * n_a + det_b.centroid[0] * n_b) / (n_a + n_b)
        cy = (det_a.centroid[1] * n_a + det_b.centroid[1] * n_b) / (n_a + n_b)
        assert abs(det_ab.centroid[0] - cx) < 1e-9
        assert abs(det_ab.centroid[1] - cy) < 1e-9
        assert det_ab.pixel_count == n_a + n_b


class TestEstimateDepth:
    def test_formula(self):
        # sin(alpha/2) = 0.05 with a 1 m target puts the near surface at 9.5 m
        alpha = 2.0 * math.asin(0.05)
        assert abs(depth_from_subtended_angle(alpha, 1.0) - 9.5) < 1e-12

    def test_tiny_blob_invalid(self):
        mask = blank_mask()
        mask[240, 340] = True
        mask[240, 341] = True
        seg = SegmentationImage(680, 480, mask)
        det = centroid(seg)
        assert not estimate_depth(seg, det, K, 1.0).valid

    def test_on_axis_range(self):
        seg = render_sphere(Vec3(0, 0, 10.0), 0.5, K)
        det = centroid(seg)
        est = estimate_depth(seg, det, K, 1.0)
        assert est.valid
        assert abs(est.d_center - 10.0) / 10.0 <= 0.03
        assert abs(est.d - (est.d_center - 0.5)) < 1e-12

    def test_off_axis_full_pipeline(self):
        center = Vec3(3.0, 2.0, 15.0)
        truth = center.norm()
        seg = render_sphere(center, 0.5, K)
        det = centroid(seg)
        est = estimate_depth(seg, det, K, 1.0)
        assert est.valid
        assert abs(est.d_center - truth) / truth <= 0.03

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
            assert est.valid
            estimates.append(est.d_center)
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
            assert abs(est.d_center - rng) / rng <= 0.03, f"range {rng}"


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


class TestPgmDump:
    def test_header_and_payload(self, tmp_path):
        seg = render_sphere(Vec3(0, 0, 10.0), 0.5, K)
        path = tmp_path / "mask.pgm"
        write_pgm(seg, str(path))
        data = path.read_bytes()
        assert data.startswith(b"P5\n680 480\n255\n")
        payload = data.split(b"\n", 3)[3]
        assert len(payload) == 680 * 480
        assert payload.count(b"\xff") == seg.mask.sum()

import dataclasses

import pytest

from pursuitsim import engagement
from pursuitsim.config import SimConfig
from pursuitsim.engagement import PerceptionPipeline, camera_view, run_engagement
from pursuitsim.geometry import Pose, Vec3, ZERO3
from pursuitsim.guidance import GuidanceMethod
from pursuitsim.perception import estimate_depth
from pursuitsim.targets import StationaryPath, TargetState

MOUNT_PITCH = 0.1
POSE = Pose(Vec3(0.0, 0.0, 2.0), Vec3(3.0, 0.0, 0.0), 0.0, 0.05, 0.1)


class TestPerceptionPerMethod:
    @pytest.mark.parametrize("method", list(GuidanceMethod))
    def test_depth_is_estimated_only_for_forecast_traj(self, monkeypatch, method):
        calls = []
        real = engagement.estimate_depth

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(engagement, "estimate_depth", counted)
        sim = SimConfig()
        sim.rules = dataclasses.replace(sim.rules, pursuit_timeout=1.0)
        res = run_engagement(method, 3.0, StationaryPath(Vec3(15.0, 0.0, 0.0), 0.5), sim)
        assert res.phi_dot_handoff != 0.0  # the target was in view
        if method == GuidanceMethod.FORECAST_TRAJ:
            assert calls
        else:
            assert not calls

    @pytest.mark.parametrize("method", list(GuidanceMethod))
    def test_frame_depth_equals_direct_estimate(self, method):
        pipeline = PerceptionPipeline(SimConfig(), MOUNT_PITCH, 1.0, method)
        target = TargetState(Vec3(12.0, 1.5, 2.5), ZERO3, 0.5)
        frame = pipeline.observe(0.0, target, POSE)
        seg, det = camera_view(target, POSE, MOUNT_PITCH, pipeline.k)
        direct = estimate_depth(seg, det, pipeline.k, 1.0)
        assert frame.detected and direct.valid
        assert (frame.d_center, frame.depth_valid) == (direct.d_center, direct.valid)

    def test_undetected_frame_has_no_depth(self):
        pipeline = PerceptionPipeline(SimConfig(), MOUNT_PITCH, 1.0, GuidanceMethod.TPN)
        frame = pipeline.observe(0.0, TargetState(Vec3(-12.0, 0.0, 2.0), ZERO3, 0.5), POSE)
        assert not frame.detected
        assert (frame.d_center, frame.depth_valid) == (0.0, False)

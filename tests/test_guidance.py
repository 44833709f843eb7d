import math

import pytest

from pursuitsim.geometry import LosSample, Vec3, ZERO3, body_to_camera, los_rate
from pursuitsim.guidance import (
    GuidanceMethod,
    GuidanceMode,
    GuidanceParams,
    closing_velocity,
    dropout_scale,
    hybrid_command,
    init_velocity,
    los_accel,
    pn_heading_command,
    tpn_command,
)


def params(**kw) -> GuidanceParams:
    p = GuidanceParams(**kw)
    p.validate()
    return p


def sample(r=Vec3(0, 0, 1.0), phi_dot=0.5, n_unit=Vec3(1, 0, 0), valid=True, t=0.0):
    return LosSample(r, t, phi_dot, n_unit, valid)


class TestClosingVelocity:
    def test_aligned(self):
        assert closing_velocity(Vec3(0, 0, 2.0), Vec3(0, 0, 1.0)) == 2.0

    def test_orthogonal(self):
        assert closing_velocity(Vec3(2.0, 0, 0), Vec3(0, 1.0, 0)) == 0.0

    def test_projection(self):
        assert closing_velocity(Vec3(1.0, 1.0, 0), Vec3(1.0, 0, 0)) == 1.0


class TestTpnCommand:
    def test_magnitude(self):
        p = params(pn_gain=3.0)
        cmd = tpn_command(sample(phi_dot=0.5, n_unit=Vec3(1, 0, 0)), 2.0, p)
        assert abs(cmd.accel_body.norm() - 3.0) < 1e-12
        assert cmd.yaw_rate == 0.0
        # camera x (image right) maps to body -y
        assert abs(cmd.accel_body.y + 3.0) < 1e-12

    def test_constant_bearing_null(self):
        # zero LOS rotation is the PN equilibrium: no command
        r = Vec3(0.1, 0.0, 1.0)
        phi_dot, n_unit, valid = los_rate(r, r, 0.0333)
        cmd = tpn_command(LosSample(r, 0.0, phi_dot, n_unit, valid), 3.0, params())
        assert cmd.accel_body == ZERO3

    def test_opening_velocity_guard(self):
        p = params()
        cmd = tpn_command(sample(), -1.0, p)
        assert cmd.accel_body == ZERO3

    def test_unguarded_negative_closing_is_divergent(self):
        # the guard exists because the sign-flipped command pushes the
        # pursuer away from the LOS rotation direction: in a 1D relative toy
        # the lateral relative rate (and with it the LOS rate) grows instead
        # of being nulled, while the guarded command leaves it constant
        p = params()
        n_unit = Vec3(1.0, 0.0, 0.0)
        phi_dot0 = 0.5
        v_c = -1.0
        raw = n_unit.scale(p.pn_gain * v_c * phi_dot0)  # no max(Vc, 0)
        assert raw.dot(n_unit) < 0.0
        rng = 1.0
        w = phi_dot0 * rng  # lateral relative velocity (target minus pursuer)
        rates = [abs(w / rng)]
        for _ in range(10):
            w -= raw.x * 0.05  # pursuer acceleration subtracts from relative rate
            rates.append(abs(w / rng))
        assert rates[-1] > rates[0]
        guarded = tpn_command(sample(phi_dot=phi_dot0, n_unit=n_unit), v_c, p)
        assert guarded.accel_body == ZERO3

    def test_invalid_rate_gives_zero(self):
        cmd = tpn_command(sample(valid=False, n_unit=ZERO3), 2.0, params())
        assert cmd.accel_body == ZERO3

    def test_accel_clamp(self):
        p = params(max_accel=8.0)
        cmd = tpn_command(sample(phi_dot=50.0), 10.0, p)
        assert cmd.accel_body.norm() <= 8.0 + 1e-12


class TestPnHeadingCommand:
    def test_lateral_axis_dropped(self):
        p = params(kp_yaw=1.0)
        a_body = Vec3(1.0, 2.0, 3.0)
        cmd = pn_heading_command(sample(r=Vec3(0, 0, 1.0)), a_body, p)
        assert cmd.accel_body == Vec3(1.0, 0.0, 3.0)
        assert cmd.yaw_rate == 0.0

    def test_yaw_rate_proportional_to_heading(self):
        p = params(kp_yaw=1.0, max_yaw_rate=10.0)
        # camera ray one focal length left: body heading pi/4
        cmd = pn_heading_command(sample(r=Vec3(-1.0, 0.0, 1.0)), ZERO3, p)
        assert abs(cmd.yaw_rate - math.pi / 4) < 1e-12

    def test_equilibrium(self):
        cmd = pn_heading_command(sample(r=Vec3(0, 0, 1.0), phi_dot=0.0, n_unit=ZERO3, valid=False), ZERO3, params())
        assert cmd.accel_body == ZERO3 and cmd.yaw_rate == 0.0


class TestHybridCommand:
    def test_pn_branch(self):
        p = params(kp_yaw=1.0, k_heading=0.35)
        heading = 0.1
        r = Vec3(-math.tan(heading), 0.0, 1.0)  # body heading +0.1
        a_body = Vec3(0.5, 1.0, -0.25)
        cmd = hybrid_command(sample(r=r), a_body, p)
        assert cmd.mode == GuidanceMode.PN
        assert cmd.accel_body == a_body
        assert abs(cmd.yaw_rate - 0.2 * 1.0 * heading) < 1e-9

    def test_heading_branch_zeroes_vertical(self):
        p = params(kp_yaw=1.0, k_heading=0.35)
        heading = 0.5
        r = Vec3(-math.tan(heading), 0.0, 1.0)
        a_body = Vec3(0.5, 1.0, -0.25)
        cmd = hybrid_command(sample(r=r), a_body, p)
        assert cmd.mode == GuidanceMode.HEADING_CONTROL
        assert cmd.accel_body.z == 0.0
        assert abs(cmd.accel_body.y - 0.2 * a_body.y) < 1e-12
        assert abs(cmd.yaw_rate - heading) < 1e-9

    def test_boundary_heading_takes_heading_branch(self):
        p = params(kp_yaw=1.0, k_heading=0.35)
        r = Vec3(-math.tan(0.35), 0.0, 1.0)
        cmd = hybrid_command(sample(r=r), Vec3(1, 1, 1), p)
        assert cmd.mode == GuidanceMode.HEADING_CONTROL

    def test_pn_branch_accel_matches_tpn(self):
        # below the threshold the hybrid flies the full PN acceleration
        p = params()
        s = sample(r=Vec3(0.02, 0.01, 1.0), phi_dot=0.4, n_unit=Vec3(0.6, -0.8, 0.0))
        v_c = 2.5
        a_body = los_accel(s, v_c, p)
        tpn = tpn_command(s, v_c, p)
        hyb = hybrid_command(s, a_body, p)
        assert (hyb.accel_body - tpn.accel_body).norm() < 1e-12

    def test_heading_branch_shares_forward_accel_with_pn_heading(self):
        p = params()
        s = sample(r=Vec3(-1.2, 0.0, 1.0), phi_dot=0.4, n_unit=Vec3(0.6, -0.8, 0.0))
        a_body = los_accel(s, 2.5, p)
        pnh = pn_heading_command(s, a_body, p)
        hyb = hybrid_command(s, a_body, p)
        assert hyb.mode == GuidanceMode.HEADING_CONTROL
        assert abs(hyb.accel_body.x - pnh.accel_body.x) < 1e-12


class TestTpnOrthogonality:
    def test_command_orthogonal_to_previous_los(self):
        mount_pitch = 0.15
        r_prev = Vec3(0.1, -0.2, 1.0)
        r_curr = Vec3(0.13, -0.17, 1.0)
        phi_dot, n_unit, valid = los_rate(r_prev, r_curr, 1.0 / 30.0)
        s = LosSample(r_curr, 0.0, phi_dot, n_unit, valid)
        cmd = tpn_command(s, 3.0, params(), mount_pitch)
        a_cam = body_to_camera(cmd.accel_body, mount_pitch)
        assert abs(a_cam.dot(r_prev)) / (a_cam.norm() * r_prev.norm()) < 1e-9


class TestInitAndDropout:
    def test_velocity_along_los(self):
        v = init_velocity(Vec3(0.0, 0.0, 1.0), 3.0)
        assert v == Vec3(0.0, 0.0, 3.0)

    def test_no_detection_means_zero(self):
        assert init_velocity(None, 3.0) == ZERO3

    def test_dropout_profile(self):
        p = params(dropout_hold=0.2, dropout_decay=0.2)
        assert dropout_scale(0.0, p) == 1.0
        assert dropout_scale(0.2, p) == 1.0
        assert abs(dropout_scale(0.3, p) - 0.5) < 1e-12
        assert dropout_scale(0.5, p) == 0.0

    def test_clamps_for_any_finite_input(self):
        p = params()
        s = sample(phi_dot=1e6, n_unit=Vec3(0, 1, 0))
        for cmd in (
            tpn_command(s, 1e6, p),
            pn_heading_command(s, Vec3(1e9, -1e9, 1e9), p),
            hybrid_command(s, Vec3(1e9, 1e9, 1e9), p),
        ):
            assert cmd.accel_body.norm() <= p.max_accel + 1e-9
            assert abs(cmd.yaw_rate) <= p.max_yaw_rate + 1e-12


class TestParams:
    def test_pn_gain_must_exceed_two(self):
        with pytest.raises(ValueError):
            params(pn_gain=2.0)

    def test_method_enum_strings(self):
        assert GuidanceMethod("tpn") is GuidanceMethod.TPN
        assert GuidanceMethod("pn-heading") is GuidanceMethod.PN_HEADING
        assert GuidanceMethod("los-traj").is_trajectory
        assert GuidanceMethod("forecast-traj").is_trajectory
        assert not GuidanceMethod("hybrid").is_trajectory

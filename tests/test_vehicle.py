import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pursuitsim.config import CameraConfig, SimConfig
from pursuitsim.engagement import IdealPilot, Pilot
from pursuitsim.geometry import Pose, Vec3, ZERO3, attitude_rotation, rot_z, wrap_angle
from pursuitsim.trajectory import Waypoint
from pursuitsim.vehicle import (
    GRAVITY,
    INTEGRATOR_LIMIT,
    POSITION_KP,
    VELOCITY_KI,
    VELOCITY_KP,
    AttitudeCommand,
    PoseController,
    StepConstants,
    VectorPid,
    VehicleParams,
    VelocityController,
    at_rest,
    dynamics_step,
    ideal_dynamics_step,
    pose_of,
)


def default_params() -> VehicleParams:
    return SimConfig().vehicle


def hover_cmd(params: VehicleParams) -> AttitudeCommand:
    return AttitudeCommand(0.0, 0.0, 0.0, params.hover_thrust)


def state_of(pose: Pose) -> tuple:
    """The flat vehicle state that `pose_of` reads back as `pose`."""
    return (*pose.position, *pose.velocity, pose.roll, pose.pitch, pose.yaw)


def level_at(position: Vec3) -> Pose:
    return pose_of(at_rest(position))


class TestPoseController:
    def test_zero_error_zero_reference(self):
        ctl = PoseController()
        state = level_at(Vec3(1, 2, 3))
        v = ctl.step(Waypoint(Vec3(1, 2, 3), 0.0), ZERO3, state)
        assert v.norm() < 1e-12

    def test_pure_proportional(self):
        ctl = PoseController()
        state = level_at(ZERO3)
        v = ctl.step(Waypoint(Vec3(1, 0, 0), 0.0), ZERO3, state)
        assert (v - Vec3(POSITION_KP, 0, 0)).norm() < 1e-12

    def test_feedforward_passthrough(self):
        ctl = PoseController()
        state = level_at(ZERO3)
        v = ctl.step(Waypoint(ZERO3, 0.0), Vec3(0, 2.0, 0), state)
        assert v.y == 2.0

    def test_matches_scalar_pid_recurrence(self):
        # independent discrete PI oracle per axis
        kp, ki = 1.3, 0.4
        pid = VectorPid(kp, ki, integrator_limit=100.0)
        dt = 0.05
        errors = [0.0, 1.0, 1.0, 0.6, -0.2, 0.1]
        integral = 0.0
        for e in errors:
            got = pid.step(e, 0.0, 0.0, dt)
            integral += e * dt
            expected = kp * e + ki * integral
            assert abs(got[0] - expected) < 1e-12

    def test_integrator_clamp(self):
        pid = VectorPid(kp=0.0, ki=1.0, integrator_limit=0.5)
        for _ in range(100):
            out = pid.step(10.0, 0.0, 0.0, 0.1)
        assert out[0] <= 0.5 + 1e-12


class TestVelocityController:
    def test_hover_equilibrium(self):
        params = default_params()
        ctl = VelocityController(params)
        state = level_at(ZERO3)
        cmd = ctl.step(ZERO3, ZERO3, 0.0, state, 0.02)
        assert cmd.roll == 0.0 and cmd.pitch == 0.0
        assert abs(cmd.thrust - params.hover_thrust) < 1e-9

    def test_forward_accel_pitches_forward(self):
        params = default_params()
        ctl = VelocityController(params)
        state = level_at(ZERO3)
        cmd = ctl.step(ZERO3, Vec3(3.0, 0, 0), 0.0, state, 0.02)
        assert cmd.pitch < 0.0  # nose down to accelerate +x
        assert cmd.roll == 0.0

    def test_tilt_clamp_preserves_vertical_balance(self):
        params = default_params()
        ctl = VelocityController(params)
        state = level_at(ZERO3)
        # huge lateral demand: tilt saturates at the limit, thrust keeps the
        # vertical channel balanced (analytic clamped-tilt model)
        cmd = ctl.step(ZERO3, Vec3(50.0, 0, 0), 0.0, state, 0.02)
        assert abs(cmd.pitch) <= params.tilt_limit + 1e-9
        vertical = cmd.thrust * params.thrust_scale * math.cos(cmd.pitch) * math.cos(cmd.roll)
        assert abs(vertical - GRAVITY) / GRAVITY < 0.05

    def test_yaw_rate_passthrough(self):
        ctl = VelocityController(default_params())
        cmd = ctl.step(ZERO3, ZERO3, 0.7, level_at(ZERO3), 0.02)
        assert cmd.yaw_rate == 0.7

    @settings(max_examples=200, deadline=None)
    @given(*(st.floats(-30.0, 30.0),) * 9, st.floats(-math.pi, math.pi))
    def test_step_matches_the_vector_formula(self, rx, ry, rz, fx, fy, fz, vx, vy, vz, yaw):
        """Two ticks on floats equal, bit for bit, the loop written with
        `Vec3`, a per-axis integral and `rot_z(yaw).apply_inverse`."""
        params = default_params()
        ctl = VelocityController(params)
        v_ref, a_ff = Vec3(rx, ry, rz), Vec3(fx, fy, fz)
        pose = Pose(ZERO3, Vec3(vx, vy, vz), 0.1, -0.2, yaw)
        dt = 0.02
        integral = [0.0, 0.0, 0.0]
        lim = INTEGRATOR_LIMIT
        s_lim = math.sin(math.radians(params.tilt_limit_deg))
        for _ in range(2):
            error = v_ref - pose.velocity
            for i in range(3):
                integral[i] = min(lim, max(-lim, integral[i] + error[i] * dt))
            a_des = Vec3(*(VELOCITY_KP * error[i] + VELOCITY_KI * integral[i] for i in range(3))) + a_ff
            a_total = Vec3(a_des.x, a_des.y, a_des.z + GRAVITY)
            ax, ay, _ = rot_z(pose.yaw).apply_inverse(a_total)
            az = max(a_total.z, 0.5)
            mag = math.sqrt(ax * ax + ay * ay + az * az)
            roll = -math.asin(min(s_lim, max(-s_lim, ay / mag)))
            pitch = -math.asin(min(s_lim, max(-s_lim, ax / (mag * math.cos(roll)))))
            thrust = min(1.0, max(0.0, az / (math.cos(pitch) * math.cos(roll)) / (GRAVITY / params.hover_thrust)))
            assert ctl.step(v_ref, a_ff, 0.3, pose, dt) == AttitudeCommand(roll, pitch, 0.3, thrust)


class TestDynamics:
    def test_hover_hold_has_no_drift(self):
        params = default_params()
        state = at_rest(Vec3(0, 0, 5.0))
        cmd = hover_cmd(params)
        k = StepConstants.of(params, 0.005)
        for _ in range(2000):  # 10 s at 200 Hz
            state = dynamics_step(state, cmd, k)
        assert (pose_of(state).position - Vec3(0, 0, 5.0)).norm() < 1e-3

    def test_attitude_step_response_is_first_order(self):
        params = default_params()
        tau = params.tau_attitude
        target = math.radians(10.0)
        cmd = AttitudeCommand(target, 0.0, 0.0, params.hover_thrust)
        dt = 0.005
        state = at_rest(ZERO3)
        constants = StepConstants.of(params, dt)
        checkpoints = {round(k * tau / dt): k for k in (1, 2, 3)}
        step = 0
        while step <= max(checkpoints):
            state = dynamics_step(state, cmd, constants)
            step += 1
            if step in checkpoints:
                k = checkpoints[step]
                expected = target * (1.0 - math.exp(-k))
                assert abs(pose_of(state).roll - expected) / expected < 0.02

    def test_zero_thrust_free_fall(self):
        params = VehicleParams(drag=0.0)
        state = at_rest(Vec3(0, 0, 50.0))
        cmd = AttitudeCommand(0.0, 0.0, 0.0, 0.0)
        k = StepConstants.of(params, 0.005)
        for _ in range(200):  # 1 s
            state = dynamics_step(state, cmd, k)
        assert abs(pose_of(state).velocity.z + GRAVITY * 1.0) < 1e-9

    def test_vertical_velocity_conserved_without_drag(self):
        params = VehicleParams(drag=0.0)
        state = state_of(Pose(Vec3(0, 0, 5.0), Vec3(0, 0, 1.5), 0.0, 0.0, 0.0))
        cmd = hover_cmd(params)
        k = StepConstants.of(params, 0.005)
        for _ in range(400):
            state = dynamics_step(state, cmd, k)
        assert abs(pose_of(state).velocity.z - 1.5) < 1e-9

    def test_yaw_rate_limit(self):
        params = default_params()
        # starts next to +pi, so the step wraps round to -pi
        state = at_rest(ZERO3, yaw=3.14)
        cmd = AttitudeCommand(0.0, 0.0, 100.0, params.hover_thrust)
        dt = 0.005
        after = pose_of(dynamics_step(state, cmd, StepConstants.of(params, dt)))
        assert after.yaw < 0.0
        step = abs(wrap_angle(after.yaw - pose_of(state).yaw))
        assert 0.99 * params.max_yaw_rate * dt < step <= params.max_yaw_rate * dt + 1e-12

    def test_dt_bounds(self):
        with pytest.raises(ValueError):
            StepConstants.of(default_params(), 0.05)

    def test_determinism(self):
        params = default_params()
        cmds = [
            AttitudeCommand(0.01 * i, -0.005 * i, 0.1, 0.55) for i in range(50)
        ]
        k = StepConstants.of(params, 0.005)
        runs = []
        for _ in range(2):
            state = at_rest(ZERO3)
            for cmd in cmds:
                state = dynamics_step(state, cmd, k)
            runs.append(state)
        assert runs[0] == runs[1]

    @given(*(st.floats(-math.pi, math.pi),) * 3, st.floats(0.0, 1.0), st.floats(-50.0, 50.0),
           *(st.floats(-20.0, 20.0),) * 3, st.floats(-3.0, 3.0))
    def test_step_matches_the_full_rotation_formula(self, roll, pitch, yaw, thrust, x, vx, vy, vz, yaw_rate):
        """The step reads only the thrust axis; its pose equals, bit for bit,
        the step written with the full `attitude_rotation` matrix."""
        params = default_params()
        pose = Pose(Vec3(x, -0.5 * x, 3.0), Vec3(vx, vy, vz), 0.3 * roll, 0.3 * pitch, yaw)
        cmd = AttitudeCommand(roll, pitch, yaw_rate, thrust)
        dt = 0.005
        alpha = 1.0 - math.exp(-dt / params.tau_attitude)
        r = pose.roll + (cmd.roll - pose.roll) * alpha
        p = pose.pitch + (cmd.pitch - pose.pitch) * alpha
        y = wrap_angle(pose.yaw + min(params.max_yaw_rate, max(-params.max_yaw_rate, yaw_rate)) * dt)
        rot = attitude_rotation(r, p, y)
        t = thrust * params.thrust_scale
        k = params.drag
        a = Vec3(t * rot.m02 - k * vx, t * rot.m12 - k * vy, t * rot.m22 - GRAVITY - k * vz)
        v = Vec3(vx + a.x * dt, vy + a.y * dt, vz + a.z * dt)
        got = dynamics_step(state_of(pose), cmd, StepConstants.of(params, dt))
        assert pose_of(got) == Pose(pose.position + v.scale(dt), v, r, p, y)


HOVER = Waypoint(Vec3(0, 0, 5.0), 0.0)


class TestClosedLoop:
    def hover_states(self, offset: Vec3, seconds: float) -> list[Pose]:
        sim = SimConfig()
        params = sim.vehicle
        pose_ctl = PoseController()
        vel_ctl = VelocityController(params)
        state = at_rest(HOVER.position + offset)
        dt = 1.0 / sim.rates.dynamics_hz
        constants = StepConstants.of(params, dt)
        ctrl_every = sim.rates.dynamics_hz // sim.rates.control_hz
        att = AttitudeCommand(0.0, 0.0, 0.0, params.hover_thrust)
        n = int(seconds / dt)
        states = []
        for k in range(n):
            if k % ctrl_every == 0:
                pose = pose_of(state)
                v_ref = pose_ctl.step(HOVER, ZERO3, pose)
                att = vel_ctl.step(v_ref, ZERO3, 0.0, pose, ctrl_every * dt)
            state = dynamics_step(state, att, constants)
            states.append(state)
        return states

    def velocity_step_states(self, target: Vec3, seconds: float) -> list[Pose]:
        sim = SimConfig()
        params = sim.vehicle
        vel_ctl = VelocityController(params)
        state = at_rest(Vec3(0, 0, 5.0))
        dt = 1.0 / sim.rates.dynamics_hz
        constants = StepConstants.of(params, dt)
        ctrl_every = sim.rates.dynamics_hz // sim.rates.control_hz
        att = AttitudeCommand(0.0, 0.0, 0.0, params.hover_thrust)
        states = []
        for k in range(int(seconds / dt)):
            if k % ctrl_every == 0:
                att = vel_ctl.step(target, ZERO3, 0.0, pose_of(state), ctrl_every * dt)
            state = dynamics_step(state, att, constants)
            states.append(state)
        return states

    def test_hover_converges_within_three_seconds(self):
        state = self.hover_states(Vec3(1.0, 0.0, -0.5), 3.0)[-1]
        err = (pose_of(state).position - Vec3(0, 0, 5.0)).norm()
        assert err < 0.05

    def test_velocity_step_response(self):
        dt = 1.0 / SimConfig().rates.dynamics_hz
        reached = None
        peak = 0.0
        for k, state in enumerate(self.velocity_step_states(Vec3(2.0, 0, 0), 4.0)):
            vx = pose_of(state).velocity.x
            peak = max(peak, vx)
            if reached is None and abs(vx - 2.0) <= 0.2:
                reached = (k + 1) * dt
        assert reached is not None and reached < 2.0
        assert peak <= 2.0 * 1.2


def fly_pilot(pilot, state: tuple, n: int, setpoint) -> list[tuple]:
    """`n` dynamics steps, giving `setpoint(pilot, pose)` on each control tick."""
    every = SimConfig().rates.control_every
    states = []
    for k in range(n):
        if k % every == 0:
            setpoint(pilot, pose_of(state))
        state = pilot.fly(state)
        states.append(state)
    return states


class TestPilot:
    def test_waypoint_reproduces_the_hand_written_cascade(self):
        offset = Vec3(1.0, 0.0, -0.5)
        expected = TestClosedLoop().hover_states(offset, 3.0)
        got = fly_pilot(Pilot(SimConfig()), at_rest(HOVER.position + offset), len(expected),
                        lambda p, s: p.waypoint(HOVER, ZERO3, s))
        assert got == expected

    def test_velocity_reproduces_the_hand_written_loop(self):
        target = Vec3(2.0, 0, 0)
        expected = TestClosedLoop().velocity_step_states(target, 4.0)
        got = fly_pilot(Pilot(SimConfig()), at_rest(Vec3(0, 0, 5.0)), len(expected),
                        lambda p, s: p.velocity(target, 0.0, s))
        assert got == expected

    def test_accel_integrates_into_the_velocity_reference(self):
        sim = SimConfig()
        dt_ctrl = sim.rates.control_dt
        pilot = Pilot(sim)
        vel_ctl = VelocityController(sim.vehicle)
        state = level_at(ZERO3)
        pilot.velocity(Vec3(1.0, 0.0, 0.0), 0.0, state)
        vel_ctl.step(Vec3(1.0, 0.0, 0.0), ZERO3, 0.0, state, dt_ctrl)
        a = Vec3(0.0, 2.0, 0.0)
        pilot.accel(a, 0.3, 10.0, state)
        # the velocity reference starts from the last velocity setpoint, and
        # the acceleration is also fed forward
        assert pilot.v_ref == Vec3(1.0, 2.0 * dt_ctrl, 0.0)
        assert pilot.cmd == vel_ctl.step(pilot.v_ref, a, 0.3, state, dt_ctrl)

    def test_accel_reference_clamped_at_v_limit(self):
        pilot = Pilot(SimConfig())
        state = level_at(ZERO3)
        for _ in range(200):
            pilot.accel(Vec3(3.0, -4.0, 0.0), 0.0, 6.0, state)
            assert pilot.v_ref.norm() <= 6.0 + 1e-12
        assert abs(pilot.v_ref.norm() - 6.0) < 1e-12
        assert (pilot.v_ref.unit() - Vec3(0.6, -0.8, 0.0)).norm() < 1e-12


class TestIdealPilot:
    def test_velocity_and_waypoint_clamped_at_max_accel(self):
        sim = SimConfig()
        max_accel = sim.guidance.max_accel
        pilot = IdealPilot(sim)
        state = level_at(ZERO3)
        pilot.velocity(Vec3(100.0, 0.0, 0.0), 0.0, state)
        assert abs(pilot.a_world.norm() - max_accel) < 1e-12 and pilot.a_world.x > 0.0
        pilot.waypoint(Waypoint(Vec3(0.0, -100.0, 0.0), 0.0), ZERO3, state)
        assert abs(pilot.a_world.norm() - max_accel) < 1e-12 and pilot.a_world.y < 0.0
        # a small velocity error is tracked with the first-order time constant
        pilot.velocity(Vec3(0.01, 0.0, 0.0), 0.0, state)
        assert pilot.a_world == Vec3(0.01, 0.0, 0.0).scale(1.0 / IdealPilot.VELOCITY_TAU)

    def test_fly_is_ideal_dynamics_step(self):
        sim = SimConfig()
        pilot = IdealPilot(sim)
        state = state_of(Pose(Vec3(1, 2, 3), Vec3(0.5, 0, 0), 0.0, 0.0, 0.2))
        a = Vec3(30.0, 0.0, 0.0)  # accelerations pass through unclamped
        pilot.accel(a, 0.4, 6.0, pose_of(state))
        assert pilot.fly(state) == ideal_dynamics_step(state, a, 0.4, sim.rates.dt, sim.vehicle)


class TestIdealDynamics:
    def test_double_integrator(self):
        params = default_params()
        state = at_rest(ZERO3)
        a = Vec3(1.0, 0.0, 0.0)
        for _ in range(200):
            state = ideal_dynamics_step(state, a, 0.0, 0.005, params)
        pose = pose_of(state)
        assert abs(pose.velocity.x - 1.0) < 1e-9
        assert pose.roll == 0.0 and pose.pitch == 0.0


class TestMountPitch:
    def test_compensates_steady_state_tilt(self):
        params = default_params()
        mount_pitch = CameraConfig().mount_pitch
        assert mount_pitch(0.0, params) == 0.0
        m5 = mount_pitch(5.0, params)
        assert abs(m5 - math.atan2(params.drag * 5.0, GRAVITY)) < 1e-12
        assert m5 > mount_pitch(2.0, params) > 0.0

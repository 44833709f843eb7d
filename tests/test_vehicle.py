import math

import pytest

from pursuitsim.config import SimConfig
from pursuitsim.engagement import IdealPilot, Pilot
from pursuitsim.geometry import Pose, Vec3, ZERO3
from pursuitsim.trajectory import Waypoint
from pursuitsim.vehicle import (
    GRAVITY,
    AttitudeCommand,
    ControllerGains,
    PidGains,
    PoseController,
    UavState,
    VectorPid,
    VehicleParams,
    VelocityController,
    dynamics_step,
    ideal_dynamics_step,
    mount_pitch_for_speed,
)


def default_gains() -> ControllerGains:
    return SimConfig().vehicle.gains


def default_params() -> VehicleParams:
    return SimConfig().vehicle


def hover_cmd(params: VehicleParams) -> AttitudeCommand:
    return AttitudeCommand(0.0, 0.0, 0.0, params.hover_thrust)


class TestPoseController:
    def test_zero_error_zero_reference(self):
        ctl = PoseController(default_gains())
        state = UavState.at_rest(Vec3(1, 2, 3))
        v = ctl.step(Waypoint(Vec3(1, 2, 3), 0.0, 0.0), ZERO3, state, 0.02)
        assert v.norm() < 1e-12

    def test_pure_proportional(self):
        gains = ControllerGains(position=PidGains(kp=1.0), velocity=PidGains(kp=1.0))
        ctl = PoseController(gains)
        state = UavState.at_rest(ZERO3)
        v = ctl.step(Waypoint(Vec3(1, 0, 0), 0.0, 0.0), ZERO3, state, 0.02)
        assert (v - Vec3(1, 0, 0)).norm() < 1e-12

    def test_feedforward_passthrough(self):
        ctl = PoseController(default_gains())
        state = UavState.at_rest(ZERO3)
        v = ctl.step(Waypoint(ZERO3, 0.0, 0.0), Vec3(0, 2.0, 0), state, 0.02)
        assert abs(v.y - 2.0 * default_gains().ff_weight) < 1e-12

    def test_matches_scalar_pid_recurrence(self):
        # independent discrete PID oracle per axis
        kp, ki, kd = 1.3, 0.4, 0.08
        pid = VectorPid(PidGains(kp, ki, kd), integrator_limit=100.0)
        dt = 0.05
        errors = [0.0, 1.0, 1.0, 0.6, -0.2, 0.1]
        integral = 0.0
        prev = None
        for e in errors:
            got = pid.step(Vec3(e, 0.0, 0.0), dt)
            integral += e * dt
            d = 0.0 if prev is None else kd * (e - prev) / dt
            expected = kp * e + ki * integral + d
            prev = e
            assert abs(got.x - expected) < 1e-12

    def test_integrator_clamp(self):
        pid = VectorPid(PidGains(kp=0.0, ki=1.0), integrator_limit=0.5)
        for _ in range(100):
            out = pid.step(Vec3(10.0, 0, 0), 0.1)
        assert out.x <= 0.5 + 1e-12


class TestVelocityController:
    def test_hover_equilibrium(self):
        params = default_params()
        ctl = VelocityController(ControllerGains(velocity=PidGains(kp=5.0)), params)
        state = UavState.at_rest(ZERO3)
        cmd = ctl.step(ZERO3, ZERO3, 0.0, state, 0.02)
        assert cmd.roll == 0.0 and cmd.pitch == 0.0
        assert abs(cmd.thrust - params.hover_thrust) < 1e-9

    def test_forward_accel_pitches_forward(self):
        params = default_params()
        ctl = VelocityController(ControllerGains(velocity=PidGains(kp=1.0)), params)
        state = UavState.at_rest(ZERO3)
        cmd = ctl.step(ZERO3, Vec3(3.0, 0, 0), 0.0, state, 0.02)
        assert cmd.pitch < 0.0  # nose down to accelerate +x
        assert cmd.roll == 0.0

    def test_tilt_clamp_preserves_vertical_balance(self):
        params = default_params()
        ctl = VelocityController(ControllerGains(velocity=PidGains(kp=1.0)), params)
        state = UavState.at_rest(ZERO3)
        # huge lateral demand: tilt saturates at the limit, thrust keeps the
        # vertical channel balanced (analytic clamped-tilt model)
        cmd = ctl.step(ZERO3, Vec3(50.0, 0, 0), 0.0, state, 0.02)
        assert abs(cmd.pitch) <= params.tilt_limit + 1e-9
        vertical = cmd.thrust * params.thrust_scale * math.cos(cmd.pitch) * math.cos(cmd.roll)
        assert abs(vertical - GRAVITY) / GRAVITY < 0.05

    def test_yaw_rate_passthrough(self):
        ctl = VelocityController(default_gains(), default_params())
        cmd = ctl.step(ZERO3, ZERO3, 0.7, UavState.at_rest(ZERO3), 0.02)
        assert cmd.yaw_rate == 0.7


class TestDynamics:
    def test_hover_hold_has_no_drift(self):
        params = default_params()
        state = UavState.at_rest(Vec3(0, 0, 5.0))
        cmd = hover_cmd(params)
        for _ in range(2000):  # 10 s at 200 Hz
            state = dynamics_step(state, cmd, 0.005, params)
        assert (state.pose.position - Vec3(0, 0, 5.0)).norm() < 1e-3

    def test_attitude_step_response_is_first_order(self):
        params = default_params()
        tau = params.tau_attitude
        target = math.radians(10.0)
        cmd = AttitudeCommand(target, 0.0, 0.0, params.hover_thrust)
        dt = 0.005
        state = UavState.at_rest(ZERO3)
        checkpoints = {round(k * tau / dt): k for k in (1, 2, 3)}
        step = 0
        while step <= max(checkpoints):
            state = dynamics_step(state, cmd, dt, params)
            step += 1
            if step in checkpoints:
                k = checkpoints[step]
                expected = target * (1.0 - math.exp(-k))
                assert abs(state.pose.roll - expected) / expected < 0.02

    def test_zero_thrust_free_fall(self):
        params = VehicleParams(drag=0.0)
        state = UavState.at_rest(Vec3(0, 0, 50.0))
        cmd = AttitudeCommand(0.0, 0.0, 0.0, 0.0)
        dt = 0.005
        for _ in range(200):  # 1 s
            state = dynamics_step(state, cmd, dt, params)
        assert abs(state.pose.velocity.z + GRAVITY * 1.0) < 1e-9

    def test_vertical_velocity_conserved_without_drag(self):
        params = VehicleParams(drag=0.0)
        state = UavState(Pose(Vec3(0, 0, 5.0), Vec3(0, 0, 1.5), 0.0, 0.0, 0.0), ZERO3, 0.0)
        cmd = hover_cmd(params)
        for _ in range(400):
            state = dynamics_step(state, cmd, 0.005, params)
        assert abs(state.pose.velocity.z - 1.5) < 1e-9

    def test_yaw_rate_limit(self):
        params = default_params()
        state = UavState.at_rest(ZERO3)
        cmd = AttitudeCommand(0.0, 0.0, 100.0, params.hover_thrust)
        state = dynamics_step(state, cmd, 0.005, params)
        assert abs(state.angular_rates.z) <= params.max_yaw_rate + 1e-12

    def test_dt_bounds(self):
        params = default_params()
        with pytest.raises(ValueError):
            dynamics_step(UavState.at_rest(ZERO3), hover_cmd(params), 0.05, params)

    def test_determinism(self):
        params = default_params()
        cmds = [
            AttitudeCommand(0.01 * i, -0.005 * i, 0.1, 0.55) for i in range(50)
        ]
        runs = []
        for _ in range(2):
            state = UavState.at_rest(ZERO3)
            for cmd in cmds:
                state = dynamics_step(state, cmd, 0.005, params)
            runs.append(state)
        assert runs[0] == runs[1]


HOVER = Waypoint(Vec3(0, 0, 5.0), 0.0, 0.0)


class TestClosedLoop:
    def hover_states(self, offset: Vec3, seconds: float) -> list[UavState]:
        sim = SimConfig()
        params = sim.vehicle
        gains = sim.vehicle.gains
        pose_ctl = PoseController(gains)
        vel_ctl = VelocityController(gains, params)
        state = UavState.at_rest(HOVER.position + offset)
        dt = 1.0 / sim.rates.dynamics_hz
        ctrl_every = sim.rates.dynamics_hz // sim.rates.control_hz
        att = AttitudeCommand(0.0, 0.0, 0.0, params.hover_thrust)
        n = int(seconds / dt)
        states = []
        for k in range(n):
            if k % ctrl_every == 0:
                v_ref = pose_ctl.step(HOVER, ZERO3, state, ctrl_every * dt)
                att = vel_ctl.step(v_ref, ZERO3, 0.0, state, ctrl_every * dt)
            state = dynamics_step(state, att, dt, params)
            states.append(state)
        return states

    def velocity_step_states(self, target: Vec3, seconds: float) -> list[UavState]:
        sim = SimConfig()
        params = sim.vehicle
        vel_ctl = VelocityController(params.gains, params)
        state = UavState.at_rest(Vec3(0, 0, 5.0))
        dt = 1.0 / sim.rates.dynamics_hz
        ctrl_every = sim.rates.dynamics_hz // sim.rates.control_hz
        att = AttitudeCommand(0.0, 0.0, 0.0, params.hover_thrust)
        states = []
        for k in range(int(seconds / dt)):
            if k % ctrl_every == 0:
                att = vel_ctl.step(target, ZERO3, 0.0, state, ctrl_every * dt)
            state = dynamics_step(state, att, dt, params)
            states.append(state)
        return states

    def test_hover_converges_within_three_seconds(self):
        state = self.hover_states(Vec3(1.0, 0.0, -0.5), 3.0)[-1]
        err = (state.pose.position - Vec3(0, 0, 5.0)).norm()
        assert err < 0.05

    def test_velocity_step_response(self):
        dt = 1.0 / SimConfig().rates.dynamics_hz
        reached = None
        peak = 0.0
        for k, state in enumerate(self.velocity_step_states(Vec3(2.0, 0, 0), 4.0)):
            vx = state.pose.velocity.x
            peak = max(peak, vx)
            if reached is None and abs(vx - 2.0) <= 0.2:
                reached = (k + 1) * dt
        assert reached is not None and reached < 2.0
        assert peak <= 2.0 * 1.2


def fly_pilot(pilot, state: UavState, n: int, setpoint) -> list[UavState]:
    """`n` dynamics steps, giving `setpoint(pilot, state)` on each control tick."""
    every = SimConfig().rates.control_every
    states = []
    for k in range(n):
        if k % every == 0:
            setpoint(pilot, state)
        state = pilot.fly(state)
        states.append(state)
    return states


class TestPilot:
    def test_waypoint_reproduces_the_hand_written_cascade(self):
        offset = Vec3(1.0, 0.0, -0.5)
        expected = TestClosedLoop().hover_states(offset, 3.0)
        got = fly_pilot(Pilot(SimConfig()), UavState.at_rest(HOVER.position + offset), len(expected),
                        lambda p, s: p.waypoint(HOVER, ZERO3, s))
        assert got == expected

    def test_velocity_reproduces_the_hand_written_loop(self):
        target = Vec3(2.0, 0, 0)
        expected = TestClosedLoop().velocity_step_states(target, 4.0)
        got = fly_pilot(Pilot(SimConfig()), UavState.at_rest(Vec3(0, 0, 5.0)), len(expected),
                        lambda p, s: p.velocity(target, 0.0, s))
        assert got == expected

    def test_accel_integrates_into_the_velocity_reference(self):
        sim = SimConfig()
        dt_ctrl = sim.rates.control_dt
        pilot = Pilot(sim)
        vel_ctl = VelocityController(sim.vehicle.gains, sim.vehicle)
        state = UavState.at_rest(ZERO3)
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
        state = UavState.at_rest(ZERO3)
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
        state = UavState.at_rest(ZERO3)
        pilot.velocity(Vec3(100.0, 0.0, 0.0), 0.0, state)
        assert abs(pilot.a_world.norm() - max_accel) < 1e-12 and pilot.a_world.x > 0.0
        pilot.waypoint(Waypoint(Vec3(0.0, -100.0, 0.0), 0.0, 0.0), ZERO3, state)
        assert abs(pilot.a_world.norm() - max_accel) < 1e-12 and pilot.a_world.y < 0.0
        # a small velocity error is tracked with the first-order time constant
        pilot.velocity(Vec3(0.01, 0.0, 0.0), 0.0, state)
        assert pilot.a_world == Vec3(0.01, 0.0, 0.0).scale(1.0 / sim.rules.ideal_velocity_tau)

    def test_fly_is_ideal_dynamics_step(self):
        sim = SimConfig()
        pilot = IdealPilot(sim)
        state = UavState(Pose(Vec3(1, 2, 3), Vec3(0.5, 0, 0), 0.0, 0.0, 0.2), ZERO3, 0.0)
        a = Vec3(30.0, 0.0, 0.0)  # accelerations pass through unclamped
        pilot.accel(a, 0.4, 6.0, state)
        assert pilot.fly(state) == ideal_dynamics_step(state, a, 0.4, sim.rates.dt, sim.vehicle)


class TestIdealDynamics:
    def test_double_integrator(self):
        params = default_params()
        state = UavState.at_rest(ZERO3)
        a = Vec3(1.0, 0.0, 0.0)
        for _ in range(200):
            state = ideal_dynamics_step(state, a, 0.0, 0.005, params)
        assert abs(state.pose.velocity.x - 1.0) < 1e-9
        assert state.pose.roll == 0.0 and state.pose.pitch == 0.0


class TestMountPitch:
    def test_compensates_steady_state_tilt(self):
        params = default_params()
        assert mount_pitch_for_speed(0.0, params) == 0.0
        m5 = mount_pitch_for_speed(5.0, params)
        assert abs(m5 - math.atan2(params.drag * 5.0, GRAVITY)) < 1e-12
        assert m5 > mount_pitch_for_speed(2.0, params) > 0.0

"""Configuration tree for the simulator, and the typed JSON loader.

Every tunable named across the modules lives in exactly one dataclass with
its default; the guidance and vehicle sections are the runtime parameter
types themselves. `from_dict` builds any of these dataclasses, and the
mission scenario, from parsed JSON by the field annotations: unknown keys
and wrongly typed values are rejected at any depth, and the result is
validated before a run can start.
"""

from __future__ import annotations

import dataclasses
import json
import math
import types
from dataclasses import dataclass, field
from typing import Any, Optional, Union, get_args, get_origin, get_type_hints

from .geometry import CameraIntrinsics, Vec3
from .guidance import GuidanceParams
from .vehicle import MAX_DYNAMICS_DT, VehicleParams, mount_pitch_for_speed


@dataclass
class CameraConfig:
    width: int = 680
    height: int = 480
    hfov_deg: float = 105.0
    # None -> tilt up by the steady-state pitch-down at the trial's UAV speed
    mount_pitch_deg: Optional[float] = None

    def intrinsics(self) -> CameraIntrinsics:
        return CameraIntrinsics.from_hfov(math.radians(self.hfov_deg), self.width, self.height)

    def mount_pitch(self, speed: float, vehicle: VehicleParams) -> float:
        """Camera mount tilt up, rad, for a UAV cruising at `speed`."""
        if self.mount_pitch_deg is not None:
            return math.radians(self.mount_pitch_deg)
        return mount_pitch_for_speed(speed, vehicle)


@dataclass
class PerceptionConfig:
    filter_window: int = 5       # flat moving-average length, frames

    def validate(self) -> None:
        if self.filter_window < 1:
            raise ValueError("perception.filter_window must be >= 1")


@dataclass
class TrajectoryConfig:
    horizon: float = 2.0         # s, generated trajectory length
    dt: float = 0.1              # s, waypoint discretization
    replan_hz: float = 10.0
    lookahead_buffer: float = 0.05  # s on top of one replan period


@dataclass
class RatesConfig:
    dynamics_hz: int = 200
    control_hz: int = 50
    perception_hz: int = 30

    def validate(self) -> None:
        if not self.dynamics_hz >= 1.0 / MAX_DYNAMICS_DT:  # the dynamics step's dt bound
            raise ValueError(f"rates.dynamics_hz must be >= {1.0 / MAX_DYNAMICS_DT:g}")
        if not (0 < self.control_hz <= self.dynamics_hz and 0 < self.perception_hz <= self.dynamics_hz):
            raise ValueError("rates.control_hz and rates.perception_hz must be in (0, dynamics_hz]")


@dataclass
class RulesConfig:
    hit_radius: float = 0.5          # m, UAV center to target surface
    pursuit_timeout: float = 20.0    # s from guidance handoff
    bounds_x: float = 35.0           # m, box surrounding the target path
    bounds_y: float = 100.0
    bounds_z: float = 40.0
    fov_loss_timeout: float = 3.0    # s of continuous lost sight
    crash_accel_g: float = 10.0
    crash_sustain: float = 0.5       # s above the limit before declaring a crash
    ideal_velocity_tau: float = 0.3  # s, velocity-command tracking in ideal mode


@dataclass
class SimConfig:
    camera: CameraConfig = field(default_factory=CameraConfig)
    perception: PerceptionConfig = field(default_factory=PerceptionConfig)
    guidance: GuidanceParams = field(default_factory=GuidanceParams)
    trajectory: TrajectoryConfig = field(default_factory=TrajectoryConfig)
    vehicle: VehicleParams = field(default_factory=VehicleParams)
    rates: RatesConfig = field(default_factory=RatesConfig)
    rules: RulesConfig = field(default_factory=RulesConfig)

    def validate(self) -> None:
        self.perception.validate()
        self.guidance.validate()
        self.vehicle.gains.validate()
        self.rates.validate()


def from_dict(cls: type, data: Any) -> Any:
    """Build dataclass `cls` from parsed JSON and run its `validate()`.

    Nested objects become nested dataclasses, overriding only the keys they
    name on top of the field's default; `[x, y, z]` becomes a Vec3. Unknown
    keys, missing required keys and wrongly typed values raise ValueError.
    """
    obj = _convert(cls, data, cls.__name__)
    obj.validate()
    return obj


def _convert(tp: Any, value: Any, where: str, base: Any = None) -> Any:
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, types.UnionType):  # Optional[X]
        inner = next(a for a in args if a is not type(None))
        return None if value is None else _convert(inner, value, where)
    if tp is Vec3:
        if not (isinstance(value, list) and len(value) == 3):
            raise ValueError(f"{where}: expected [x, y, z], got {value!r}")
        return Vec3(*(_convert(float, v, where) for v in value))
    if origin is list:
        if not isinstance(value, list):
            raise ValueError(f"{where}: expected a list, got {value!r}")
        return [_convert(args[0], v, f"{where}[{i}]") for i, v in enumerate(value)]
    if not dataclasses.is_dataclass(tp):
        if tp is float and type(value) is int:
            return float(value)
        if type(value) is not tp:
            raise ValueError(f"{where}: expected {tp.__name__}, got {value!r}")
        return value
    if not isinstance(value, dict):
        raise ValueError(f"{where}: expected an object, got {value!r}")
    hints = get_type_hints(tp)
    fields = {f.name: f for f in dataclasses.fields(tp)}
    kwargs = {}
    for key, v in value.items():
        if key not in fields:
            raise ValueError(f"unknown config key {where}.{key}")
        factory = fields[key].default_factory
        default = None if factory is dataclasses.MISSING else factory()
        kwargs[key] = _convert(hints[key], v, f"{where}.{key}", default)
    if base is not None:
        return dataclasses.replace(base, **kwargs)
    try:
        return tp(**kwargs)
    except TypeError as exc:  # a required key is missing
        raise ValueError(f"{where}: {exc}") from None


def load_config(path: str) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return from_dict(SimConfig, json.load(fh))


def dump_config(cfg: SimConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(cfg), fh, indent=2)
        fh.write("\n")

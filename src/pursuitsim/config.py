"""Configuration tree for the simulator, and the typed JSON loader.

Every settable parameter lives in exactly one dataclass with its default,
and `tests/test_config.py::test_every_leaf_is_live` proves that each one
changes a trial's record; the guidance and vehicle sections are the runtime
parameter types themselves. Fixed values (the camera `geometry.CAMERA`, the
cascade's gains, the path shapes, the ideal model's time constant, the
planner's `trajectory.HORIZON`, `WAYPOINT_DT`, `REPLAN_HZ` and
`LOOKAHEAD_BUFFER`, and the smoothing window `engagement.FILTER_WINDOW`) are
module constants next to the code that reads them, not keys here.
`from_dict` builds any of these dataclasses, and the mission scenario, from
parsed JSON by the field annotations: unknown keys and wrongly typed values
are rejected at any depth, and the result is validated before a run can
start.
"""

from __future__ import annotations

import dataclasses
import json
import math
import types
from dataclasses import dataclass, field
from typing import Any, Iterator, Union, get_args, get_origin, get_type_hints

from .geometry import Vec3
from .guidance import GuidanceParams
from .vehicle import MAX_DYNAMICS_DT, VehicleParams


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
        if self.dynamics_hz % self.control_hz:
            raise ValueError("rates.control_hz must divide rates.dynamics_hz")

    @property
    def dt(self) -> float:
        """Dynamics step, s."""
        return 1.0 / self.dynamics_hz

    @property
    def control_every(self) -> int:
        """Dynamics steps per control tick."""
        return self.dynamics_hz // self.control_hz

    @property
    def control_dt(self) -> float:
        return self.control_every * self.dt

    def ticks(self, duration: float) -> Iterator[tuple[int, float, bool, bool]]:
        """The one multi-rate schedule: `(k, t, perception_due, control_due)`
        for each dynamics step k at t = k * dt. Perception and control run
        before step k's dynamics when due; step 0 is due for both."""
        dt = self.dt
        every = self.control_every
        mark = -1
        for k in range(int(round(duration / dt))):
            frame = (k * self.perception_hz) // self.dynamics_hz
            yield k, k * dt, frame != mark, k % every == 0
            mark = frame


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

    def validate(self) -> None:
        for name in ("hit_radius", "pursuit_timeout", "bounds_x", "bounds_y", "bounds_z",
                     "fov_loss_timeout", "crash_accel_g"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"rules.{name} must be positive")
        if not self.crash_sustain >= 0.0:
            raise ValueError("rules.crash_sustain must be >= 0")


@dataclass
class SimConfig:
    guidance: GuidanceParams = field(default_factory=GuidanceParams)
    vehicle: VehicleParams = field(default_factory=VehicleParams)
    rates: RatesConfig = field(default_factory=RatesConfig)
    rules: RulesConfig = field(default_factory=RulesConfig)

    def validate(self) -> None:
        for section in dataclasses.fields(self):
            getattr(self, section.name).validate()


def from_dict(cls: type, data: Any) -> Any:
    """Build dataclass `cls` from parsed JSON and run its `validate()`.

    Nested objects become nested dataclasses, overriding only the keys they
    name on top of the field's default; `[x, y, z]` becomes a Vec3. Unknown
    keys, missing required keys, wrongly typed values and the NaN and
    Infinity that `json` reads raise ValueError.
    """
    obj = _convert(cls, data, cls.__name__)
    obj.validate()
    return obj


def _convert(tp: Any, value: Any, where: str) -> Any:
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
            try:
                value = float(value)
            except OverflowError:  # an integer beyond the float range
                value = math.inf
        if type(value) is not tp:
            raise ValueError(f"{where}: expected {tp.__name__}, got {value!r}")
        if tp is float and not math.isfinite(value):
            raise ValueError(f"{where}: expected a finite number, got {value!r}")
        return value
    if not isinstance(value, dict):
        raise ValueError(f"{where}: expected an object, got {value!r}")
    hints = get_type_hints(tp)
    fields = {f.name for f in dataclasses.fields(tp)}
    kwargs = {}
    for key, v in value.items():
        if key not in fields:
            raise ValueError(f"unknown config key {where}.{key}")
        kwargs[key] = _convert(hints[key], v, f"{where}.{key}")
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

"""Monte-Carlo experiment runner and metrics.

Trial seeds derive from the master seed, the configuration, and the trial
index, so results are independent of execution order and parallelism, and a
rerun with the same master seed reproduces every output byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import sys
import traceback
from dataclasses import dataclass, replace
from multiprocessing import Pool
from typing import Iterable, Optional, Sequence

from .config import RulesConfig, SimConfig
from .engagement import (
    EngagementResult,
    FailureReason,
    HitMonitor,
    TracePoint,
    run_engagement,
)
from .geometry import Vec3
from .guidance import GuidanceMethod
from .targets import PathKind, TargetPathSpec, build_path

UAV_SPEEDS = (2.0, 3.0, 4.0, 5.0)
TARGET_FRACTIONS = (0.25, 0.50, 0.75, 1.00)
TRIALS_PER_CONFIG = 50


@dataclass(frozen=True)
class ExperimentConfig:
    method: GuidanceMethod
    uav_speed: float
    path_kind: PathKind
    target_fraction: float
    trials: int = TRIALS_PER_CONFIG
    ideal_dynamics: bool = False

    def validate(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0.0 < self.uav_speed < math.inf:
            raise ValueError("UAV speed must be positive and finite")
        if not 0.0 <= self.target_fraction < math.inf:
            raise ValueError("target speed fraction must be finite and >= 0")

    def label(self) -> str:
        return (
            f"{self.method.value}/{self.path_kind.value}"
            f"/uav{self.uav_speed:g}/frac{self.target_fraction:g}"
        )


def _cell_key(cfg: ExperimentConfig) -> str:
    """The configuration's part of a trial's seed key; speeds count to 3 decimals."""
    return f"{cfg.method.value}:{cfg.uav_speed:.3f}:{cfg.path_kind.value}:{cfg.target_fraction:.3f}"


def trial_seed(master_seed: int, cfg: ExperimentConfig, index: int) -> int:
    """Stable 63-bit seed unique to (master seed, configuration, trial)."""
    key = f"{master_seed}:{_cell_key(cfg)}:{index}"
    digest = hashlib.sha256(key.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def run_trial(
    cfg: ExperimentConfig, seed: int, sim: SimConfig, record_trace: bool = False
) -> tuple[EngagementResult, EngagementResult]:
    """The trial's judged record with its seed: first without the trace, then
    with it if one was recorded. The pair exists only for `perfbench/run.py`,
    which unpacks it."""
    cfg.validate()
    spec = TargetPathSpec(
        kind=cfg.path_kind, speed=cfg.target_fraction * cfg.uav_speed, seed=seed
    )
    path = build_path(spec)
    res = run_engagement(
        cfg.method, cfg.uav_speed, path, sim,
        ideal_dynamics=cfg.ideal_dynamics, record_trace=record_trace,
    )
    res = replace(res, seed=seed)
    return replace(res, trace=None), res


def classify_hit(trace: Sequence[TracePoint], rules: RulesConfig, handoff_time: float,
                 bounds_center: Vec3) -> EngagementResult:
    """Replay a recorded trace through `HitMonitor`, the live judge. With the
    trial's `EngagementResult.bounds_center` this gives the live record
    without its LOS-rate summary and trace. The crash rule is skipped: a
    trace holds no velocities and stops before a crash step."""
    if not trace:
        raise ValueError("trace must be non-empty")
    monitor = HitMonitor(rules, bounds_center, handoff_time)
    for t, uav, target, radius, detected, _ in trace:
        result = monitor.update(t, *uav, *target, radius, detected)
        if result is not None:
            return result
    return monitor.timeout()


@dataclass(frozen=True)
class AggregateRow:
    hit_rate: float
    mean_pursuit_duration: Optional[float]  # None when no trial hit
    unstable: bool  # under 95% of trials completed (did not crash)


COMPLETION_STABILITY_THRESHOLD = 0.95


def aggregate(results: Sequence[EngagementResult]) -> AggregateRow:
    if not results:
        raise ValueError("need at least one trial result")
    n = len(results)
    hits = [r for r in results if r.hit]
    completed = sum(1 for r in results if r.failure_reason != FailureReason.CRASH)
    return AggregateRow(
        hit_rate=len(hits) / n,
        mean_pursuit_duration=(sum(r.duration for r in hits) / len(hits)) if hits else None,
        unstable=completed / n < COMPLETION_STABILITY_THRESHOLD,
    )


def full_matrix(
    trials: int = TRIALS_PER_CONFIG,
    methods: Iterable[GuidanceMethod] = tuple(GuidanceMethod),
    speeds: Iterable[float] = UAV_SPEEDS,
    paths: Iterable[PathKind] = tuple(PathKind),
    fractions: Iterable[float] = TARGET_FRACTIONS,
) -> list[ExperimentConfig]:
    """Every combination, each axis's repeated values dropped in first-seen order."""
    methods, paths, speeds, fractions = (list(dict.fromkeys(v)) for v in (methods, paths, speeds, fractions))
    return [
        ExperimentConfig(m, s, p, f, trials=trials)
        for m in methods
        for p in paths
        for s in speeds
        for f in fractions
    ]


def _run_config(args: tuple[ExperimentConfig, int, SimConfig]) -> list[EngagementResult]:
    """One configuration's trials. A trial that raises is recorded as a
    crash, with `nan` numbers, so it counts against the completion rate
    instead of aborting the sweep; its seed and traceback go to stderr."""
    cfg, master_seed, sim = args
    out = []
    for i in range(cfg.trials):
        seed = trial_seed(master_seed, cfg, i)
        try:
            trial, _ = run_trial(cfg, seed, sim)
        except Exception:
            sys.stderr.write(f"{cfg.label()} trial {i} seed={seed} crashed:\n{traceback.format_exc()}")
            nan = math.nan
            trial = EngagementResult(False, FailureReason.CRASH, nan, nan, nan, Vec3(nan, nan, nan),
                                     phi_dot_handoff=nan, phi_dot_final=nan, seed=seed)
        out.append(trial)
    return out


def run_matrix(
    configs: Sequence[ExperimentConfig],
    master_seed: int,
    sim: SimConfig,
    parallelism: int = 1,
) -> dict[ExperimentConfig, list[EngagementResult]]:
    """Run every configuration; deterministic regardless of parallelism.
    A parallelism below 1, an invalid configuration, or two distinct ones
    that would draw the same trial seeds, raise before any trial runs."""
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    seen: dict[tuple[str, bool], ExperimentConfig] = {}
    for cfg in configs:
        cfg.validate()
        other = seen.setdefault((_cell_key(cfg), cfg.ideal_dynamics), cfg)
        if other != cfg:
            raise ValueError(f"{other.label()} and {cfg.label()} would draw the same trial seeds")
    jobs = [(cfg, master_seed, sim) for cfg in configs]
    workers = min(parallelism, len(configs))
    if workers > 1:
        with Pool(processes=workers) as pool:
            rows = pool.map(_run_config, jobs, chunksize=1)
    else:
        rows = [_run_config(j) for j in jobs]
    return dict(zip(configs, rows))


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def write_trials_csv(
    results: dict[ExperimentConfig, list[EngagementResult]], path: str
) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(
            [
                "method", "path", "uav_speed", "target_fraction", "trial", "seed",
                "hit", "failure_reason", "duration", "min_miss_distance",
                "phi_dot_handoff", "phi_dot_final",
            ]
        )
        for cfg in results:
            for i, r in enumerate(results[cfg]):
                w.writerow(
                    [
                        cfg.method.value, cfg.path_kind.value,
                        f"{cfg.uav_speed:g}", f"{cfg.target_fraction:g}", i, r.seed,
                        int(r.hit), r.failure_reason.value if r.failure_reason else "",
                        _fmt(r.duration), _fmt(r.min_miss_distance),
                        _fmt(r.phi_dot_handoff), _fmt(r.phi_dot_final),
                    ]
                )


def write_heatmaps(
    results: dict[ExperimentConfig, list[EngagementResult]], out_dir: str
) -> list[str]:
    """One CSV per (method, path): hit rate / mean duration / instability grid
    with target-speed fractions as rows and UAV speeds as columns."""
    pairs = sorted({(cfg.method, cfg.path_kind) for cfg in results}, key=lambda p: (p[0].value, p[1].value))
    written = []
    for method, path_kind in pairs:
        subset = {cfg: r for cfg, r in results.items() if cfg.method == method and cfg.path_kind == path_kind}
        speeds = sorted({cfg.uav_speed for cfg in subset})
        fractions = sorted({cfg.target_fraction for cfg in subset})
        name = f"heatmap_{method.value.replace('-', '_')}_{path_kind.value}.csv"
        fpath = os.path.join(out_dir, name)
        with open(fpath, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            header = ["target_fraction"]
            header += [f"hit_{s:g}" for s in speeds]
            header += [f"dur_{s:g}" for s in speeds]
            header += [f"unstable_{s:g}" for s in speeds]
            w.writerow(header)
            for frac in fractions:
                row: list[str] = [f"{frac:g}"]
                aggs = []
                for s in speeds:
                    cfg = next(c for c in subset if c.uav_speed == s and c.target_fraction == frac)
                    aggs.append(aggregate(subset[cfg]))
                row += [_fmt(a.hit_rate) for a in aggs]
                # missing durations (no hits) stay empty, matching the plots
                row += [_fmt(a.mean_pursuit_duration) if a.mean_pursuit_duration is not None else "" for a in aggs]
                row += [str(int(a.unstable)) for a in aggs]
                w.writerow(row)
        written.append(fpath)
    return written


def write_matrix_outputs(
    results: dict[ExperimentConfig, list[EngagementResult]],
    out_dir: str,
    master_seed: int,
) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_trials_csv(results, os.path.join(out_dir, "trials.csv"))
    write_heatmaps(results, out_dir)
    meta = {
        "master_seed": master_seed,
        "configs": len(results),
        "trials_total": sum(len(v) for v in results.values()),
        "duration_clock": "pursuit duration is measured from guidance handoff "
        "(end of the LOS-velocity initialization window)",
    }
    with open(os.path.join(out_dir, "matrix_meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")

"""Command-line interface: single trials, matrix sweeps, mission scenarios."""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Optional, Union

from .config import SimConfig, dump_config, load_config
from .guidance import GuidanceMethod
from .harness import (
    ExperimentConfig,
    TARGET_FRACTIONS,
    TRIALS_PER_CONFIG,
    UAV_SPEEDS,
    aggregate,
    full_matrix,
    run_matrix,
    run_trial,
    trial_seed,
    write_matrix_outputs,
)
from .mission import load_scenario, run_mission
from .targets import PathKind


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", help="JSON simulator config")
    p.add_argument("--out", metavar="DIR", default="out", help="output directory")


def _load_sim(args: argparse.Namespace) -> SimConfig:
    if args.config:
        return load_config(args.config)
    return SimConfig()


def _parse(kind: type, s: str, what: str) -> Union[GuidanceMethod, PathKind]:
    try:
        return kind(s)
    except ValueError:
        choices = ", ".join(m.value for m in kind)
        raise ValueError(f"unknown {what} {s!r} (choose from: {choices})") from None


def cmd_trial(args: argparse.Namespace) -> int:
    sim = _load_sim(args)
    cfg = ExperimentConfig(
        method=_parse(GuidanceMethod, args.method, "method"),
        uav_speed=args.uav_speed,
        path_kind=_parse(PathKind, args.path, "path"),
        target_fraction=args.target_fraction,
        trials=1,
        ideal_dynamics=args.ideal_dynamics,
    )
    seed = trial_seed(args.seed, cfg, args.trial_index)
    _, res = run_trial(cfg, seed, sim, record_trace=True)
    os.makedirs(args.out, exist_ok=True)
    trace_path = os.path.join(args.out, "trial_trace.csv")
    with open(trace_path, "w", encoding="utf-8") as fh:
        fh.write("t,uav_x,uav_y,uav_z,target_x,target_y,target_z,surface_dist,detected,phi_dot\n")
        for p in res.trace:
            u, g = p.uav_pos, p.target_pos
            fh.write(
                f"{p.t:.4f},{u.x:.4f},{u.y:.4f},{u.z:.4f},"
                f"{g.x:.4f},{g.y:.4f},{g.z:.4f},{p.surface_dist:.4f},"
                f"{int(p.detected)},{p.phi_dot:.6f}\n"
            )
    outcome = "HIT" if res.hit else f"MISS ({res.failure_reason.value})"
    print(f"{cfg.label()} seed={seed}: {outcome}")
    print(f"  pursuit duration: {res.duration:.2f} s")
    print(f"  min miss distance: {res.min_miss_distance:.3f} m")
    print(f"  trace: {trace_path}")
    return 0


def cmd_matrix(args: argparse.Namespace) -> int:
    sim = _load_sim(args)
    methods = [_parse(GuidanceMethod, m, "method") for m in args.method] if args.method else list(GuidanceMethod)
    paths = [_parse(PathKind, p, "path") for p in args.path] if args.path else list(PathKind)
    speeds = args.uav_speed or UAV_SPEEDS
    fractions = args.target_fraction or TARGET_FRACTIONS
    configs = full_matrix(
        trials=args.trials, methods=methods, speeds=speeds, paths=paths, fractions=fractions
    )
    if args.ideal_dynamics:
        configs = [dataclasses.replace(c, ideal_dynamics=True) for c in configs]
    results = run_matrix(configs, args.seed, sim, parallelism=args.parallel)
    print(f"ran {len(configs)} configurations x {args.trials} trials "
          f"(parallel={args.parallel}, master seed={args.seed})")
    write_matrix_outputs(results, args.out, args.seed)
    for cfg in configs:
        agg = aggregate(results[cfg])
        dur = f"{agg.mean_pursuit_duration:.2f}s" if agg.mean_pursuit_duration is not None else "-"
        flag = " UNSTABLE" if agg.unstable else ""
        print(f"  {cfg.label():45s} hit_rate={agg.hit_rate:.2f} dur={dur}{flag}")
    print(f"outputs in {args.out}/")
    return 0


def cmd_mission(args: argparse.Namespace) -> int:
    sim = _load_sim(args)
    scenario = load_scenario(args.scenario)
    result = run_mission(scenario, sim)
    os.makedirs(args.out, exist_ok=True)
    log_path = os.path.join(args.out, "mission_events.jsonl")
    with open(log_path, "w", encoding="utf-8") as fh:
        result.write_events_jsonl(fh)
    print(f"task {scenario.task}: pops={result.pops} misses={result.misses} "
          f"final_mode={result.final_mode}")
    if scenario.task == 2:
        print(f"  min ball distance: {result.min_ball_distance:.2f} m")
    print(f"  events: {log_path}")
    return 0


def cmd_dump_config(args: argparse.Namespace) -> int:
    os.makedirs(os.path.dirname(args.path) or ".", exist_ok=True)
    dump_config(SimConfig(), args.path)
    print(f"default config written to {args.path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pursuitsim",
        description="Monocular pursuit guidance simulator and experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_trial = sub.add_parser("trial", help="run one engagement with a verbose trace")
    _add_common(p_trial)
    p_trial.add_argument("--seed", type=int, default=0, help="master seed")
    p_trial.add_argument("--method", default="tpn")
    p_trial.add_argument("--uav-speed", type=float, default=3.0)
    p_trial.add_argument("--path", default="straight")
    p_trial.add_argument("--target-fraction", type=float, default=0.5)
    p_trial.add_argument("--trial-index", type=int, default=0)
    p_trial.add_argument("--ideal-dynamics", action="store_true")
    p_trial.set_defaults(func=cmd_trial)

    p_matrix = sub.add_parser("matrix", help="run a full or partial experiment sweep")
    _add_common(p_matrix)
    p_matrix.add_argument("--seed", type=int, default=0, help="master seed")
    p_matrix.add_argument("--method", action="append", help="repeatable; default all")
    p_matrix.add_argument("--path", action="append", help="repeatable; default all")
    p_matrix.add_argument("--uav-speed", type=float, action="append")
    p_matrix.add_argument("--target-fraction", type=float, action="append")
    p_matrix.add_argument("--trials", type=int, default=TRIALS_PER_CONFIG)
    p_matrix.add_argument("--parallel", type=int, default=1, metavar="N")
    p_matrix.add_argument("--ideal-dynamics", action="store_true")
    p_matrix.set_defaults(func=cmd_matrix)

    p_mission = sub.add_parser("mission", help="run a mission scenario file")
    _add_common(p_mission)
    p_mission.add_argument("--scenario", required=True, metavar="PATH",
                           help="scenario JSON (arena, balloons/ball, faults)")
    p_mission.set_defaults(func=cmd_mission)

    p_dump = sub.add_parser("dump-config", help="write the default config JSON")
    p_dump.add_argument("path")
    p_dump.set_defaults(func=cmd_dump_config)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one subcommand; bad input ends it with one error line and status 2."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        parser.exit(2, f"pursuitsim: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())

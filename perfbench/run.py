"""pursuitsim benchmark: simulated seconds per host second.

    python3 perfbench/run.py --workload {engage,sweep,mission} --seed N \
        --seconds S --trace {0,1}

Runs whole rounds of one workload through pursuitsim's public API until S
seconds have passed, checks every output, and prints one JSON object as the
last line of standard output. With --trace 0 it reports the end-to-end
metrics; with --trace 1 each round runs once untraced and once with the
tracer installed, and it reports the per-layer metrics and the tracing
overhead. Result and span files go to perfbench/results/. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import pursuitsim  # noqa: E402
from pursuitsim import SimConfig, harness, run_mission  # noqa: E402
from pursuitsim.geometry import Vec3  # noqa: E402
from pursuitsim.guidance import GuidanceMethod  # noqa: E402
from pursuitsim.harness import ExperimentConfig, full_matrix, run_matrix, run_trial, trial_seed  # noqa: E402
from pursuitsim.mission import Arena, BallSpec, BalloonSpec, FaultSpec, Scenario, ValidityGate  # noqa: E402
from pursuitsim.targets import PathKind, TargetPathSpec, build_path  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402

if not os.path.abspath(pursuitsim.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    sys.exit(f"pursuitsim must come from this checkout's src/, not {pursuitsim.__file__}")

NPROC = len(os.sched_getaffinity(0))
SETUP_PROBES = 5

# engage: every method x path at two UAV speeds, one seeded trial per cell per round
ENGAGE_SPEEDS = (3.0, 5.0)
ENGAGE_FRACTION = 0.5
# Seed-independent trials whose spawn lies outside the bounds box; they fail
# on the first step (the fault named in README.md) and count as failed.
FAULT_MASTER_SEED = 0
FAULT_CELLS = ((PathKind.STRAIGHT, 3.0), (PathKind.STRAIGHT, 5.0),
               (PathKind.FIGURE8, 3.0), (PathKind.FIGURE8, 5.0))
# sweep: wider and shallower, and a fixed matrix (see README.md)
SWEEP_MASTER_SEED = 7
SWEEP_SPEEDS = (2.0, 4.0)
SWEEP_FRACTIONS = (0.25, 0.75)


# ---------------------------------------------------------------------------
# workload inputs
# ---------------------------------------------------------------------------


def _horizon(sim: SimConfig) -> float:
    return sim.guidance.init_duration + sim.rules.pursuit_timeout + checks.END_SLACK


def _spawns_outside(cfg: ExperimentConfig, seed: int, sim: SimConfig) -> bool:
    spec = TargetPathSpec(kind=cfg.path_kind, speed=cfg.target_fraction * cfg.uav_speed, seed=seed)
    return checks.spawn_outside_box(build_path(spec), sim.rules, _horizon(sim))


class EngageInputs:
    """Round r holds, for each of the 30 cells, the next trial of the --seed
    stream whose spawn lies inside the box, plus the fixed faulty trials."""

    def __init__(self, seed: int, sim: SimConfig):
        self.sim = sim
        self.seed = seed
        self.cells = [
            ExperimentConfig(m, s, p, ENGAGE_FRACTION, trials=1)
            for s in ENGAGE_SPEEDS for m in GuidanceMethod for p in PathKind
        ]
        self.next_index = [0] * len(self.cells)
        self.rounds: list[list] = []
        methods = list(GuidanceMethod)
        self.faulty = []
        for j, (path, speed) in enumerate(FAULT_CELLS):
            cfg = ExperimentConfig(methods[j], speed, path, ENGAGE_FRACTION, trials=1)
            i = 0
            while not _spawns_outside(cfg, trial_seed(FAULT_MASTER_SEED, cfg, i), sim):
                i += 1
            self.faulty.append((cfg, trial_seed(FAULT_MASTER_SEED, cfg, i), True))

    def round(self, r: int) -> list[tuple[ExperimentConfig, int, bool]]:
        while len(self.rounds) <= r:
            ops = []
            for c, cfg in enumerate(self.cells):
                while True:
                    seed = trial_seed(self.seed, cfg, self.next_index[c])
                    self.next_index[c] += 1
                    if not _spawns_outside(cfg, seed, self.sim):
                        break
                ops.append((cfg, seed, False))
            self.rounds.append(ops + self.faulty)
        return self.rounds[r]


def sweep_configs() -> list[ExperimentConfig]:
    return full_matrix(trials=1, speeds=SWEEP_SPEEDS, fractions=SWEEP_FRACTIONS)


def _balloons(rng: random.Random, n: int) -> list[BalloonSpec]:
    # balloon 0 sits near the first lawnmower leg so every scenario reaches
    # registration, Adjust and Attack; the rest are anywhere in the arena
    out = [BalloonSpec(anchor=Vec3(rng.uniform(18.0, 40.0), rng.uniform(2.0, 4.0), rng.uniform(2.0, 2.4)))]
    for _ in range(n - 1):
        out.append(BalloonSpec(anchor=Vec3(rng.uniform(10.0, 95.0), rng.uniform(1.0, 39.0), rng.uniform(1.6, 2.6))))
    return out


def mission_round(seed: int, r: int) -> list[tuple[str, Scenario]]:
    rng = random.Random(f"mission:{seed}:{r}")
    nominal = Scenario(task=1, arena=Arena(), balloons=[BalloonSpec(anchor=Vec3(25.0, 3.0, 2.2))], duration=45.0)
    ops = [("nominal", nominal)]
    for n in (3, 4, 5):
        ops.append((f"task1-{n}", Scenario(task=1, arena=Arena(), balloons=_balloons(rng, n), duration=40.0)))
    ops.append(("gimbal", Scenario(
        task=1, arena=Arena(), balloons=_balloons(rng, 4),
        faults=[FaultSpec(kind="gimbal_offset", yaw_deg=rng.uniform(25.0, 40.0))], duration=50.0)))
    ball = BallSpec(
        center=Vec3(rng.uniform(66.0, 74.0), rng.uniform(11.0, 17.0), 12.5), speed=6.0,
        width=40.0, height=6.0, phase=rng.uniform(1.25, 1.75) * math.pi,
    )
    ops.append(("task2", Scenario(
        task=2, arena=Arena(), ball=ball,
        gate=ValidityGate(min_bbox_area_fraction=5e-6, bottom_exclusion_fraction=0.30),
        duration=20.0, square_altitude=11.0)))
    return ops


def make_rounds(workload: str, seed: int, sim: SimConfig):
    """Returns run_round(run, r, traced), which runs round r's operations and
    returns their host seconds. Generates round 0's inputs here, so that
    set-up includes them."""
    if workload == "engage":
        inputs = EngageInputs(seed, sim)
        inputs.round(0)
        return lambda run, r, traced: engage_round(run, inputs.round(r), traced)
    if workload == "sweep":
        configs = sweep_configs()
        predicted = {
            (cfg, 0) for cfg in configs
            if _spawns_outside(cfg, trial_seed(SWEEP_MASTER_SEED, cfg, 0), sim)
        }
        return lambda run, r, traced: sweep_round(run, configs, predicted, traced)
    first = mission_round(seed, 0)
    return lambda run, r, traced: mission_round_run(run, first if r == 0 else mission_round(seed, r), traced)


# ---------------------------------------------------------------------------
# running rounds
# ---------------------------------------------------------------------------


class Run:
    """Accumulates operations, timings, checks and trace aggregates."""

    def __init__(self, sim: SimConfig):
        self.sim = sim
        self.dt = 1.0 / sim.rates.dynamics_hz
        self.handoff = sim.guidance.init_duration
        self.attempted = 0
        self.failed = 0
        self.sim_s = 0.0
        self.host_s = 0.0
        self.wall_s = 0.0
        self.op_ms_per_sim_s: list[float] = []
        self.problems: list[str] = []
        # traced mode
        self.tracer = tracing.Tracer()
        self.agg = tracing.empty_aggregates()
        self.traced_sim_s = 0.0
        self.traced_host_s = 0.0
        self.untraced_host_s = 0.0
        self.harness: dict[str, list[float]] = {}
        self.sweep_csv: Optional[bytes] = None

    def op(self, sim_s: float, host_s: float, wall_s: float, failed: bool) -> None:
        self.attempted += 1
        self.sim_s += sim_s
        self.host_s += host_s
        self.wall_s += wall_s
        if failed:
            self.failed += 1
        else:
            self.op_ms_per_sim_s.append(1000.0 * host_s / sim_s)

    def judge_trial(self, label: str, hit, reason, duration, min_miss, end_time, expect_fail: bool) -> bool:
        """Check one trial; returns whether it is a failed operation."""
        failed = checks.failed_at_spawn(reason, end_time, self.dt)
        if failed and not expect_fail:
            self.problems.append(f"{label}: spawned outside the box though the pre-check placed it inside")
        if not failed:
            self.problems += checks.trial_problems(
                label, hit, reason, duration, min_miss, end_time, self.sim.rules, self.handoff)
        return failed


def engage_round(run: Run, ops, traced: bool) -> float:
    host_total = 0.0
    for cfg, seed, expect_fail in ops:
        label = f"{cfg.label()}#{seed}"
        wall, cpu = time.perf_counter(), time.process_time()
        trial, res = run_trial(cfg, seed, run.sim, record_trace=traced)
        host, wall = time.process_time() - cpu, time.perf_counter() - wall
        host_total += host
        failed = run.judge_trial(label, trial.hit, trial.failure_reason, trial.duration,
                                 trial.min_miss_distance, res.end_time, expect_fail)
        if traced:
            run.traced_sim_s += res.end_time
            if trial.hit:
                run.problems += checks.rejudge_hit(label, res, run.sim.rules, run.handoff)
        else:
            run.op(res.end_time, host, wall, failed)
    return host_total


def mission_round_run(run: Run, ops, traced: bool) -> float:
    host_total = 0.0
    for label, sc in ops:
        wall, cpu = time.perf_counter(), time.process_time()
        result = run_mission(sc, run.sim)
        host, wall = time.process_time() - cpu, time.perf_counter() - wall
        host_total += host
        run.problems += checks.mission_problems(label, sc, result)
        if label == "nominal" and result.pops != 1:
            run.problems.append(f"nominal: criterion-7 scenario popped {result.pops} balloons, not 1")
        if traced:
            run.traced_sim_s += sc.duration
        else:
            run.op(sc.duration, host, wall, False)
    return host_total


# Pool workers are forked, so they inherit the hooks below and any installed
# tracer; each job writes what it measured to a file the parent then reads.
_WORKER = {"dir": None, "ops": [], "tracer": None}


def _timed_run_trial(cfg, seed, sim, record_trace=False):
    start = time.process_time()
    trial, res = _WORKER["run_trial"](cfg, seed, sim, record_trace)
    _WORKER["ops"].append((time.process_time() - start, res.end_time))
    return trial, res


def _reporting_run_config(job):
    _WORKER["ops"] = []
    tr = _WORKER["tracer"]
    if tr is not None:
        tr.reset()
    start = time.process_time()
    out = _WORKER["run_config"](job)
    record = {"pid": os.getpid(), "cpu_s": time.process_time() - start, "ops": _WORKER["ops"],
              "agg": tr.aggregates() if tr is not None else None}
    name = os.path.join(_WORKER["dir"], f"{os.getpid()}-{job[0].label().replace('/', '_')}.json")
    with open(name, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return out


def _read_worker_files(directory: str) -> tuple[list, list, float]:
    """Per-trial (CPU s, sim s), trace aggregates, and the CPU seconds of the
    busiest worker."""
    ops, aggs, cpu_by_pid = [], [], {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            data = json.load(fh)
        ops += data["ops"]
        cpu_by_pid[data["pid"]] = cpu_by_pid.get(data["pid"], 0.0) + data["cpu_s"]
        if data["agg"] is not None:
            aggs.append(data["agg"])
    return ops, aggs, max(cpu_by_pid.values())


def sweep_once(run: Run, configs, out_dir: str, parallelism: int, traced: bool) -> dict:
    """One `pursuitsim matrix` sub-matrix: run_matrix, then write_matrix_outputs."""
    work = os.path.join(out_dir, "worker")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(work)
    _WORKER.update(dir=work, tracer=run.tracer if traced else None,
                   run_trial=harness.run_trial, run_config=harness._run_config)
    harness.run_trial, harness._run_config = _timed_run_trial, _reporting_run_config
    usage0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    try:
        cpu = time.process_time()
        start = time.perf_counter()
        results = run_matrix(configs, SWEEP_MASTER_SEED, run.sim, parallelism=parallelism)
        matrix_end = time.perf_counter()
        harness.write_matrix_outputs(results, os.path.join(out_dir, "matrix"), SWEEP_MASTER_SEED)
        end = time.perf_counter()
        cpu = time.process_time() - cpu
    finally:
        harness.run_trial, harness._run_config = _WORKER["run_trial"], _WORKER["run_config"]
    usage1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    ops, aggs, busiest_worker_cpu = _read_worker_files(work)
    matrix = os.path.join(out_dir, "matrix")
    with open(os.path.join(matrix, "trials.csv"), "rb") as fh:
        trials_csv = fh.read()
    written = sum(os.path.getsize(os.path.join(matrix, f)) for f in os.listdir(matrix))
    shutil.rmtree(out_dir)
    return {
        "results": results, "ops": ops, "aggs": aggs, "trials_csv": trials_csv,
        # the pool's critical path in CPU time: the parent plus the busiest worker
        "host": cpu + busiest_worker_cpu,
        "wall": end - start, "matrix_wall": matrix_end - start, "write_s": end - matrix_end,
        "worker_cpu_s": (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
        "bytes_written": written,
    }


def sweep_round(run: Run, configs, predicted, traced: bool) -> float:
    par = sweep_once(run, configs, os.path.join(RESULTS, f"sweep-{os.getpid()}"), NPROC, traced)
    for cfg in configs:
        for i, t in enumerate(par["results"][cfg]):
            end_time = t.duration + run.handoff
            failed = run.judge_trial(f"{cfg.label()}#{t.seed}", t.hit, t.failure_reason, t.duration,
                                     t.min_miss_distance, end_time, (cfg, i) in predicted)
            if traced:
                run.traced_sim_s += end_time
            else:
                run.attempted += 1
                run.failed += failed
                run.sim_s += end_time
    if traced:
        for agg in par["aggs"]:
            tracing.merge(run.agg, agg)
    else:
        run.host_s += par["host"]
        run.wall_s += par["wall"]
        # per-trial host time as the workers measured it; spawn failures end at one step
        run.op_ms_per_sim_s += [1000.0 * h / s for h, s in par["ops"] if s > run.dt + checks.EPS]
        wall = par["matrix_wall"]
        for key, value in (("engagements_per_s", len(par["ops"]) / wall),
                           ("worker_cpu_s", par["worker_cpu_s"]),
                           ("parallel_efficiency", par["worker_cpu_s"] / (wall * NPROC)),
                           ("write_s", par["write_s"]), ("bytes_written", par["bytes_written"])):
            run.harness.setdefault(key, []).append(value)
    if run.sweep_csv is None:
        run.sweep_csv = par["trials_csv"]
    elif run.sweep_csv != par["trials_csv"]:
        run.problems.append("sweep: trials.csv differs between rounds of the same matrix")
    return par["host"]


def check_sweep_serial(run: Run, configs) -> None:
    """The harness's invariance claim, once per run and outside the timed rounds."""
    serial = sweep_once(run, configs, os.path.join(RESULTS, f"sweep-{os.getpid()}"), 1, False)
    if serial["trials_csv"] != run.sweep_csv:
        run.problems.append(f"sweep: trials.csv differs between parallelism {NPROC} and 1")


# ---------------------------------------------------------------------------
# metrics and entry point
# ---------------------------------------------------------------------------


def setup_seconds(args) -> float:
    """Median over fresh interpreters of the CPU seconds from process start
    until the workload's first operation could begin."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, timeout=120).stdout
        word, cpu = out.split()
        if word != "ready":
            raise RuntimeError(f"setup probe printed {out!r}")
        times.append(float(cpu))
    return statistics.median(times)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("engage", "sweep", "mission"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    sim = SimConfig()
    run_round = make_rounds(args.workload, args.seed, sim)
    if args.setup_probe:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        print("ready", repr(usage.ru_utime + usage.ru_stime))
        return 0

    run = Run(sim)
    traced = bool(args.trace)
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < args.seconds:
        untraced = run_round(run, r, False)
        if traced:
            run.untraced_host_s += untraced
            run.tracer.install()
            try:
                run.traced_host_s += run_round(run, r, True)
            finally:
                run.tracer.uninstall()
        r += 1
    if args.workload == "sweep":
        check_sweep_serial(run, sweep_configs())

    if traced:
        if args.workload != "sweep":
            tracing.merge(run.agg, run.tracer.aggregates())
            run.tracer.write_spans(os.path.join(RESULTS, f"spans-{args.workload}-seed{args.seed}.npz"))
        agg = run.agg
        metrics = tracing.layer_metrics(agg, run.traced_sim_s)
        h = {k: statistics.median(v) for k, v in run.harness.items()}
        metrics.update({
            "harness.engagements_per_s": (h.get("engagements_per_s", 0.0), "1/s"),
            "harness.worker_cpu_s": (h.get("worker_cpu_s", 0.0), "s"),
            "harness.parallel_efficiency": (h.get("parallel_efficiency", 0.0), "ratio"),
            "harness.write_s": (h.get("write_s", 0.0), "s"),
            "harness.bytes_written": (h.get("bytes_written", 0.0), "B"),
            "trace.overhead": (run.traced_host_s / run.untraced_host_s, "ratio"),
            "trace.depth_checked": (agg["depth_checked"], "count"),
            "trace.depth_worst_err": (agg["depth_worst"], "ratio"),
            "trace.depth_over_bound": (agg["depth_over_bound"], "count"),
        })
    else:
        metrics = {
            "sim_rate": (run.sim_s / run.host_s, "sim_s/s"),
            "op_ms_per_sim_s_p50": (statistics.median(run.op_ms_per_sim_s), "ms/sim_s"),
            "setup_s": (setup_seconds(args), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }

    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, rounds=r, nproc=NPROC, python=platform.python_version(),
                  numpy=np.__version__, problems=run.problems[:50])
    if run.sweep_csv is not None:
        record["trials_csv_sha256"] = hashlib.sha256(run.sweep_csv).hexdigest()
    if traced:
        record.update(traced_sim_s=run.traced_sim_s, depth_over_bound_examples=agg["depth_examples"],
                      self_s_by_span=agg["self"], inclusive_s_by_span=agg["inclusive"],
                      calls_by_span=agg["calls"])
    else:
        record["wall_clock_sim_rate"] = run.sim_s / run.wall_s
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    for problem in run.problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The repository benchmark: one command per workload.

    python3 perfbench/run.py --workload paper_balance --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from
``src/``.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced and a profiled pass.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every output
check held.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (serve roots, trace dumps).
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import workloads  # noqa: E402
from harness import fail, median, percentile  # noqa: E402

#: Set-up probes per run; ``setup_s`` is their median.
PROBES = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "alt_wall_s": "s",
    "cpu_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metric -> unit.  Counts marked exact must repeat bit for
#: bit across passes and between the untraced and traced passes.
PER_LAYER = {
    "simcore.events": "count",
    "simcore.sim_seconds": "s",
    "simcore.self_s": "s",
    "kernel.context_switches": "count",
    "kernel.sim_wakeup_latency_us": "us",
    "kernel.wake_up.calls": "count",
    "kernel.wake_up.s": "s",
    "kernel.self_s": "s",
    "power5.speed.calls": "count",
    "power5.self_s": "s",
    "hpcsched.priority_changes": "count",
    "hpcsched.decide.calls": "count",
    "hpcsched.decide.s": "s",
    "hpcsched.self_s": "s",
    "mpi.messages_sent": "count",
    "mpi.messages_delivered": "count",
    "mpi.collective_arrive.calls": "count",
    "mpi.self_s": "s",
    "trace.record.calls": "count",
    "trace.self_s": "s",
    "workloads.self_s": "s",
    "experiments.self_s": "s",
    "experiments.paper_delta_max_pct": "%",
    "cluster.run.s": "s",
    "cluster.self_s": "s",
    "cluster.sharded.run.s": "s",
    "cluster.sharded.sync_rounds": "count",
    "cluster.sharded.windows": "count",
    "cluster.sharded.wire_bytes": "bytes",
    "cluster.sharded.parent_cpu_s": "s",
    "cluster.sharded.worker_cpu_s": "s",
    "campaign.cache_hits": "count",
    "campaign.cache_misses": "count",
    "campaign.self_s": "s",
    "serve.submit.calls": "count",
    "serve.submit.s": "s",
    "serve.refused": "count",
    "serve.exec_s": "s",
    "serve.queue_wait_p50_s": "s",
    "serve.worker_rebuilds": "count",
    "serve.worker_timeouts": "count",
    "serve.self_s": "s",
    "client.send_lag_max_s": "s",
    "other.self_s": "s",
    "idle.self_s": "s",
    "trace_overhead": "ratio",
    "trace_overhead.untraced_wall_s": "s",
    "trace_overhead.traced_wall_s": "s",
    "profile.wall_s": "s",
    "profile.coverage": "ratio",
    "profile.layer_share": "ratio",
}


def _import_program():
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no program at {SRC / 'repro'}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        fail(f"imported repro from {repro.__file__}, not from {SRC}")


def _workload(args):
    _import_program()
    wl = workloads.make(args.workload, args.seed, WORK / "work")
    wl.setup()
    return wl


def probe(args) -> None:
    """Child side of one set-up measurement: set up, say READY, stop."""
    wl = _workload(args)

    def ready() -> None:
        sys.stdout.write("READY\n")
        sys.stdout.flush()

    wl.probe(ready)


def measure_setup(args) -> float:
    """Seconds from process start, before ``import repro``, to the
    workload's first simulated event or first submission."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line != "READY" or code != 0:
        fail(f"set-up probe failed (exit {code}, said {line!r})")
    return elapsed


def measure(wl, seconds: float) -> List[Any]:
    """Whole passes until the next one would end past ``seconds``."""
    passes = []
    outer: List[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        passes.append(wl.run_pass())
        outer.append(time.perf_counter() - t0)
        if time.perf_counter() + median(outer) > deadline:
            return passes


def repeat_checks(passes, label: str) -> List[tuple]:
    """Counts and outputs of every pass must equal the first pass's."""
    first = passes[0]
    checks = []
    for i, p in enumerate(passes[1:], 1):
        bad = sorted(k for k in set(first.counts) | set(p.counts)
                     if first.counts.get(k) != p.counts.get(k))
        checks.append((f"{label} pass {i}: counts repeat exactly", not bad, ", ".join(bad)))
        diff = sorted(k for k in set(first.outputs) | set(p.outputs)
                      if first.outputs.get(k) != p.outputs.get(k))
        checks.append((f"{label} pass {i}: results repeat exactly", not diff, ", ".join(diff[:5])))
    return checks


def end_to_end(args, passes) -> Dict[str, float]:
    setups = [measure_setup(args) for _ in range(PROBES)]
    ops = [x for p in passes for x in p.ops]
    return {
        "setup_s": median(setups),
        "wall_s": median([p.primary_s for p in passes]),
        "alt_wall_s": median([p.alt_s for p in passes]),
        "cpu_s": median([p.cpu_s for p in passes]),
        "op_p50_s": percentile(ops, 50),
        "op_p90_s": percentile(ops, 90),
        "peak_rss_mb": harness.peak_rss_mb(),
    }


def per_layer(base, traced, tracer, profiled, fold, threads) -> Dict[str, float]:
    m: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    for source in (traced.counts, traced.layer):
        for key, value in source.items():
            if key in m:
                m[key] = value
    for layer, value in fold.items():
        m[f"{layer}.self_s"] = value
    m["kernel.wake_up.calls"] = tracer.calls("kernel.wake_up")
    m["kernel.wake_up.s"] = tracer.total("kernel.wake_up")
    m["power5.speed.calls"] = tracer.calls("power5.speed")
    m["hpcsched.decide.calls"] = tracer.calls("hpcsched.decide")
    m["hpcsched.decide.s"] = tracer.total("hpcsched.decide")
    m["mpi.collective_arrive.calls"] = tracer.calls("mpi.collective_arrive")
    m["trace.record.calls"] = tracer.calls("trace.record")
    m["cluster.run.s"] = tracer.total("cluster.run")
    m["cluster.sharded.run.s"] = tracer.total("cluster.sharded.run")
    m["serve.submit.calls"] = tracer.calls("serve.submit")
    m["serve.submit.s"] = tracer.total("serve.submit")
    m["serve.exec_s"] = tracer.total("serve.exec")
    execs = {s.run: s.end - s.start for s in tracer.spans if s.name == "serve.exec"}
    waits = [lat - execs[k] for k, lat in traced.job_latency.items() if k in execs]
    m["serve.queue_wait_p50_s"] = median(waits)
    m["trace_overhead.untraced_wall_s"] = base.wall_s
    m["trace_overhead.traced_wall_s"] = traced.wall_s
    m["trace_overhead"] = traced.wall_s / base.wall_s
    m["profile.wall_s"] = profiled.wall_s
    m["profile.coverage"] = sum(fold.values()) / (profiled.wall_s * threads)
    busy = sum(fold.values()) - fold["idle"]
    m["profile.layer_share"] = (busy - fold["other"]) / busy
    return m


def traced_run(wl, args) -> tuple:
    """An untraced reference pass, a span-traced pass and a profiled
    pass; their counts and results must agree exactly."""
    base = wl.run_pass()
    tracer = harness.Tracer()
    harness.instrument(tracer)
    try:
        traced = wl.run_pass(tracer)
    finally:
        tracer.restore()
    profiles = [cProfile.Profile()]
    if hasattr(wl, "profile"):  # the service runs on its own thread
        wl.profile = cProfile.Profile()
        profiles.append(wl.profile)
    profiles[0].enable()
    try:
        profiled = wl.run_pass()
    finally:
        profiles[0].disable()
    fold = harness.fold_profile(profiles)
    checks = repeat_checks([base, traced], "traced") + repeat_checks([base, profiled], "profiled")
    metrics = per_layer(base, traced, tracer, profiled, fold, len(profiles))
    checks.append(("self-time fold covers >= 90% of the profiled pass",
                   metrics["profile.coverage"] >= 0.9, f"{metrics['profile.coverage']:.3f}"))
    scope = ("benchmark process only (client and service threads); pool workers are not profiled"
             if len(profiles) > 1 else "benchmark process only; shard workers are not profiled")
    print(f"profile scope: {scope}")
    WORK.mkdir(parents=True, exist_ok=True)
    dump = WORK / f"trace-{args.workload}-{args.seed}.json"
    print(f"spans and self-time fold written to {dump.relative_to(ROOT)}")
    dump.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "environment": harness.environment(),
        "profile_scope": scope,
        "self_s_by_layer": fold,
        "metrics": metrics,
        **tracer.dump(),
    }, indent=1, default=str))
    return [base, traced, profiled], checks, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 selects the paper's seeds")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    env = harness.environment()
    if env["repro_env"]:
        fail(f"REPRO_* switches are set ({env['repro_env']}); they select a "
             "different program than users run, unset them")
    if args.probe:
        probe(args)
        return 0
    steal0 = harness.steal_seconds()
    wl = _workload(args)
    try:
        if args.trace:
            passes, checks, metrics = traced_run(wl, args)
            units = PER_LAYER
        else:
            passes = measure(wl, args.seconds)
            checks = repeat_checks(passes, "untraced")
            metrics = end_to_end(args, passes)
            units = END_TO_END
    finally:
        shutil.rmtree(WORK / "work", ignore_errors=True)
    checks = [c for p in passes for c in p.checks] + checks
    attempted = sum(p.attempted for p in passes) + len(checks)
    failed = sum(p.failed for p in passes) + sum(1 for _n, ok, _d in checks if not ok)

    if steal0 is not None:
        env["steal_s_during_run"] = round(harness.steal_seconds() - steal0, 2)
    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} passes {len(passes)} "
          f"ops {sum(len(p.ops) for p in passes)}")
    for name, ok, detail in checks:
        if not ok:
            print(f"FAILED check: {name} {detail}")
    print(f"fail_frac {failed}/{attempted} = {failed / attempted:.4f}")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

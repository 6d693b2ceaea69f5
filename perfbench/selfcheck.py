#!/usr/bin/env python3
"""Attribution self-check: does the trace put a known cost where it is?

    python3 perfbench/selfcheck.py

Injects a busy-wait of ``DELAY_S`` into every call of the kernel's
public ``Kernel.wake_up`` (from the benchmark side, with the busy loop
compiled under the kernel's source file name so the profiler counts it
to ``kernel``).  On shrunken ``siesta_latency`` and ``serve_sweep``
passes, clean and injected runs alternate; the check passes when

* on siesta_latency, ``kernel.wake_up.s`` and ``kernel.self_s`` (from a
  traced, profiled pass) grow by at least half the injected time, and
  ``wall_s`` (the uniform and adaptive legs, about two thirds of the
  wake-ups; from an unprofiled pass) by at least a quarter, and
* on serve_sweep, whose warm leg is answered from the result cache and
  never wakes a simulated task, the warm-leg throughput stays within
  ``WARM_TOLERANCE`` of the clean runs.  (The benchmark process still
  calls ``Kernel.wake_up`` when it re-runs sampled jobs in-process to
  check their results, and the forked pool workers inherit the
  injection, which slows the cold leg.)

Exit code 0 when both hold.  Takes about four minutes on a 2-CPU host.
"""

from __future__ import annotations

import cProfile
import inspect
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402

DELAY_S = 50e-6
ROUNDS = 3
#: Warm-leg throughput may differ this much (ratio) from clean runs.
WARM_TOLERANCE = 0.25


def busy_wait_in(path: str):
    """A ``DELAY_S`` busy-wait whose code object claims ``path``."""
    code = compile(
        "def busy_wait():\n"
        "    end = perf_counter() + DELAY\n"
        "    while perf_counter() < end:\n"
        "        pass\n",
        path,
        "exec",
    )
    import time

    scope = {"perf_counter": time.perf_counter, "DELAY": DELAY_S}
    exec(code, scope)
    return scope["busy_wait"]


def measure(wl, inject) -> dict:
    """An unprofiled pass with only ``Kernel.wake_up`` wrapped, for the
    walls, then a traced and profiled pass, for the attribution."""
    from repro.kernel.core_sched import Kernel

    light = harness.Tracer()
    light.wrap(Kernel, "wake_up", "kernel.wake_up", inject=inject)
    try:
        plain = wl.run_pass()
    finally:
        light.restore()
    tracer = harness.Tracer()
    harness.instrument(tracer, inject=inject)
    profiles = [cProfile.Profile()]
    if hasattr(wl, "profile"):
        wl.profile = cProfile.Profile()
        profiles.append(wl.profile)
    profiles[0].enable()
    try:
        p = wl.run_pass(tracer)
    finally:
        profiles[0].disable()
        tracer.restore()
        if len(profiles) > 1:
            wl.profile = None  # the next unprofiled pass must not profile the service
    fold = harness.fold_profile(profiles)
    return {
        "wall_s": plain.primary_s,
        "alt_wall_s": plain.alt_s,
        "kernel.wake_up.calls": tracer.calls("kernel.wake_up"),
        "kernel.wake_up.s": tracer.total("kernel.wake_up"),
        "kernel.self_s": fold["kernel"],
    }


def compare(wl, inject) -> tuple:
    clean, injected = [], []
    for _ in range(ROUNDS):
        clean.append(measure(wl, None))
        injected.append(measure(wl, inject))
    keys = clean[0]
    med = lambda rows, k: harness.median([r[k] for r in rows])  # noqa: E731
    return ({k: med(clean, k) for k in keys}, {k: med(injected, k) for k in keys})


def main() -> int:
    run._import_program()
    import workloads
    from repro.kernel import core_sched

    inject = busy_wait_in(inspect.getsourcefile(core_sched))
    ok = True

    siesta = workloads.SiestaLatency(1)
    siesta.scf_steps = 2
    clean, injected = compare(siesta, inject)
    added = injected["kernel.wake_up.calls"] * DELAY_S
    print(f"siesta_latency: {injected['kernel.wake_up.calls']} wake_up calls, "
          f"{added:.3f}s injected")
    for key, share in (("kernel.wake_up.s", 0.5), ("kernel.self_s", 0.5), ("wall_s", 0.25)):
        grew = injected[key] - clean[key]
        moved = grew >= share * added
        ok &= moved
        print(f"  {key:<18} {clean[key]:9.3f} -> {injected[key]:9.3f} s "
              f"(+{grew:.3f})  {'moved' if moved else 'DID NOT MOVE'}")

    serve = workloads.ServeSweep(1, run.WORK / "work")
    try:
        serve.setup()
        clean, injected = compare(serve, inject)
    finally:
        import shutil

        shutil.rmtree(run.WORK / "work", ignore_errors=True)
    ratio = clean["alt_wall_s"] / injected["alt_wall_s"]
    still = abs(ratio - 1) <= WARM_TOLERANCE
    ok &= still
    print(f"serve_sweep: warm jobs/s injected/clean = {ratio:.3f}, "
          f"burst wall {clean['wall_s']:.3f} -> {injected['wall_s']:.3f} s  "
          f"{'unchanged' if still else 'MOVED'}")
    print("attribution self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

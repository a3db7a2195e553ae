"""One workload process: set up, warm up, then time repetitions.

Started by ``perfbench/run.py`` in a fresh interpreter per process, so
memory and memo caches belong to one workload alone.  Prints one JSON
object as its last stdout line::

    python3 perfbench/worker.py --workload fleet-native --seed 0 \\
        --seconds 3 --trace 0 --size full --t0 <time.monotonic() at spawn>

With ``--trace 1`` repetitions alternate untraced and traced; the traced
ones run with every layer wrapped (see ``Workload.targets``), and the
spans are written to ``--trace-out`` as Chrome trace JSON.
"""

import os

# BLAS and OpenMP pools are pinned to one thread before numpy loads:
# default threading made repetition times swing by tens of percent.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402


def pin_to_one_cpu() -> str:
    """Keep this process on one CPU and return which, as text.

    The host's speed drifts per CPU, so the reference loop only describes
    the workload's speed when both run on the same CPU.  Every workload is
    single-threaded, so the pin costs it nothing.
    """
    if not hasattr(os, "sched_setaffinity"):
        return "unpinned"
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return str(cpu)


def reference_s() -> float:
    """Seconds a fixed CPU loop takes now, best of three.

    The loop shares no code with the program.  On a shared VM the host's
    clock speed drifts by up to 1.5x over seconds to minutes; timing this
    loop next to each repetition lets ``run.py`` rescale every repetition's
    rate to one reference speed.
    """
    import numpy as np

    a = np.arange(64 * 64, dtype=np.float64).reshape(64, 64) / 4096.0
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total, table = 0, {}
        for i in range(40000):
            total += i * i % 7
            table[i & 511] = total
        for _ in range(20):
            a @ a
        best = min(best, time.perf_counter() - start)
    return best


def host_rps(reps) -> float:
    """Requests completed per second of timed work, over all ``reps``."""
    return sum(r["requests"] for r in reps) / sum(r["wall_s"] for r in reps)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    cpu = pin_to_one_cpu()

    import workloads
    from repro.perf import Profiler
    from spans import instrument, self_times

    workload = workloads.WORKLOADS[args.workload](args.seed, args.size)
    workload.warm()
    gc.collect()
    setup_s = time.monotonic() - args.t0

    profiler = Profiler(trace=True)
    reps, failures, last_traced = [], [], None
    setup_ref_s = ref_before = reference_s()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        workload.before_rep()
        gc.collect()
        start = time.perf_counter()
        if traced:
            with instrument(profiler, workload.targets(profiler)):
                output = profiler.wrap("rep", workload.run)()
        else:
            output = workload.run()
        wall = time.perf_counter() - start
        ref_after = reference_s()
        problems = workload.check(output)
        failures += problems
        reps.append(
            {
                "requests": workload.requests(output),
                "wall_s": wall,
                "ref_s": (ref_before + ref_after) / 2,
                "traced": traced,
                "failed": bool(problems),
            }
        )
        ref_before = ref_after
        if traced:
            last_traced = output
        output = None
        timed = sum(r["wall_s"] for r in reps)
        if timed >= args.seconds and (not args.trace or len(reps) >= 2):
            break

    result = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": {**{var: os.environ[var] for var in THREAD_VARS}, "cpu": cpu},
        "reps": reps,
        "failures": failures[:20],
    }
    if args.trace:
        entries = profiler.entries
        traced_reps = [r for r in reps if r["traced"]]
        plain_reps = [r for r in reps if not r["traced"]]
        requests = statistics.mean(r["requests"] for r in traced_reps)
        layers = workloads.layer_metrics(entries, len(traced_reps), requests)
        layers.update(workload.output_metrics(last_traced, layers))
        own_ms = self_times(entries)
        root_s = sum(duration for name, _, duration in entries if name == "rep") / 1e3
        layer_self_s = sum(
            own for (name, _, _), own in zip(entries, own_ms) if name != "rep"
        ) / 1e3
        layers["trace.host_rps"] = host_rps(traced_reps)
        layers["trace.overhead_rps"] = host_rps(traced_reps) - host_rps(plain_reps)
        layers["trace.self_coverage"] = layer_self_s / root_s
        result["layers"] = layers
        result["layer_self_s"] = layer_self_s
        result["traced_wall_s"] = sum(r["wall_s"] for r in traced_reps)
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                fh.write(profiler.chrome_trace_json())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Benchmark entry point for the FQ-BERT serving stack.

Run from the repository root::

    python3 perfbench/run.py --workload fleet-native --seed 1 --seconds 10 --trace 0

The workloads, metrics and units are read from ``BENCHMARK.json``.  Each
workload runs in fresh worker processes (``perfbench/worker.py``), which
pin BLAS and OpenMP to one thread and the process to one CPU:

- ``--trace 0`` starts three workers one after another, each timing a
  third of ``--seconds``.  ``host_rps`` is the median over all
  repetitions of completed requests per timed second; ``setup_s`` and
  ``peak_rss_mb`` are medians over the workers.
- ``--trace 1`` starts one worker that alternates untraced and traced
  repetitions and reports the per-layer metrics.  Its spans are written
  to ``.perfbench/traces/``.

``host_rps`` and ``setup_s`` count reference seconds.  On a shared 2-vCPU
Xeon VM each CPU's speed swings by up to 1.5x in phases that last seconds
to minutes, often longer than a run.  Each worker therefore also times a
fixed CPU loop that shares no code with the program
(``worker.reference_s``), on the CPU it is pinned to, right after set-up
and between repetitions, and
every time is multiplied by ``REFERENCE_S`` over the loop's time next to
it: the time the host would take at the speed where the loop takes
``REFERENCE_S``.  A change to the program moves these figures as it moves
raw times, while a change of host speed largely cancels.  The raw medians
are printed on a line before the result.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; one attempted operation is one
timed repetition, and it fails when any output check fails.  The script
exits non-zero without that line when a worker fails or the sources are
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
# A typical time of worker.reference_s on a shared 2-vCPU Xeon VM, where it
# reads 4.5-8 ms as the host's speed swings; times are rescaled to it.
REFERENCE_S = 0.005
PROCESSES = 3
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def run_worker(args, seconds: float, deadline: float, trace_out: str = "") -> dict:
    """Run one worker process to completion and return its result object."""
    build_dir = tempfile.mkdtemp(prefix="worker-", dir=SCRATCH)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH", "")) if p
    )
    # The C kernel is compiled into a fresh temporary directory per process;
    # keep it inside the checkout and remove it with the worker.
    env["TMPDIR"] = build_dir
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--trace", str(args.trace),
        "--size", args.size,
    ]
    if trace_out:
        command += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(
            command + ["--t0", repr(time.monotonic())],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker did not finish within {DEADLINE_S:.0f} s") from exc
    finally:
        shutil.rmtree(build_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="FQ-BERT serving-stack benchmark")
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in DECLARED["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny shrinks every workload for smoke tests",
    )
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)

    try:
        if args.trace:
            traces = SCRATCH / "traces"
            traces.mkdir(exist_ok=True)
            trace_out = traces / f"{args.workload}-seed{args.seed}.json"
            results = [run_worker(args, args.seconds, deadline, str(trace_out))]
        else:
            results = [
                run_worker(args, args.seconds / PROCESSES, deadline)
                for _ in range(PROCESSES)
            ]
    except WorkerError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    reps = [rep for result in results for rep in result["reps"]]
    failed = sum(rep["failed"] for rep in reps)
    for result in results:
        for message in result["failures"]:
            print(f"perfbench: check failed: {message}", file=sys.stderr)
    threads = " ".join(f"{k}={v}" for k, v in sorted(results[0]["threads"].items()))
    print(f"perfbench: {args.workload} seed {args.seed}: {len(results)} process(es), {threads}")

    if args.trace:
        kind = "per_layer"
        layers = results[0]["layers"]
        values = {m["name"]: layers.get(m["name"], 0.0) for m in DECLARED[kind]}
        print(
            "perfbench: quant.gmacs and quant.mbytes_moved are computed from "
            "tensor shapes, not measured"
        )
    else:
        kind = "end_to_end"
        rates = [r["requests"] / r["wall_s"] for r in reps]
        setups = [r["setup_s"] for r in results]
        values = {
            "host_rps": statistics.median(
                rate * rep["ref_s"] / REFERENCE_S for rate, rep in zip(rates, reps)
            ),
            "setup_s": statistics.median(
                setup * REFERENCE_S / r["setup_ref_s"] for setup, r in zip(setups, results)
            ),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        }
        print(
            f"perfbench: raw host_rps {statistics.median(rates):.6g} req/s, raw setup_s "
            f"{statistics.median(setups):.4g} s, reference loop "
            f"{statistics.median(r['ref_s'] for r in reps) * 1e3:.3f} ms "
            f"(REFERENCE_S {REFERENCE_S * 1e3:g} ms)"
        )
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in DECLARED[kind]
    }
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(reps),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

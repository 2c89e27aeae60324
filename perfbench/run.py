"""End-to-end benchmark of lmnet: train, eval and scene predict.

Run from the repository root:

    python3 perfbench/run.py --workload train-192 --seed 1 --seconds 30 --trace 0

Workloads are train-192, eval-192 and predict-scene (see workloads.py and
README.md). Each run is a closed loop with one client in one process:

1. set-up, repeated SETUP_REPEATS times into fresh directories: a new
   interpreter importing the package, the seeded inputs, the checkpoint,
   and a one-tile warm-up forward. setup_s is the median.
2. one operation under tracemalloc, untimed: peak_mb, and the warm-up of
   the full-size operation (the first one runs slower).
3. operations back to back for --seconds, ending at the operation boundary
   nearest to it.
4. output checks; an operation whose check fails counts as failed.

With --trace 1 operations alternate between plain and traced, and the run
prints per-layer metrics and the tracing overhead instead of the
end-to-end metrics. The last line of stdout is one JSON object with
correct, attempted, failed and metrics.

BLAS threads are pinned to the CPUs this process may use, before numpy
loads, and malloc keeps freed memory (keep_freed_memory). The package is imported from ./src; without it the run exits 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
IMPORTS = "import lmnet.train, lmnet.checkpoint, lmnet.data, lmnet.imgio"
WORKLOAD_NAMES = ("train-192", "eval-192", "predict-scene")
THREAD_VARS = ("LMNET_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_threads() -> int:
    n = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(n)
    return n


def keep_freed_memory() -> bool:
    """Make glibc malloc keep freed memory in the process.

    By default every array above 32 MB is a fresh mmap that is faulted in
    page by page and unmapped on free. The fault time depends on the host's
    memory state and moved the median scene time by 20% between runs. With
    mmap off and trimming off, timed operations reuse memory the memory
    pass faulted in. Returns False where the C library has no mallopt.
    """
    libc = ctypes.CDLL(None)
    if not hasattr(libc, "mallopt"):
        return False
    m_trim_threshold, m_mmap_max = -1, -4
    return bool(libc.mallopt(m_mmap_max, 0)) and bool(libc.mallopt(m_trim_threshold, 2**31 - 1))


def run_record(args, threads, kept, np, lmnet) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "threads": threads,
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__, "python": platform.python_version(),
        "lmnet": lmnet.__version__, "cpu_count": os.cpu_count(),
        "malloc_keeps_freed_memory": kept,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_threads()
    kept = keep_freed_memory()
    if not (SRC / "lmnet").is_dir():
        print(f"perfbench: no package at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    import numpy as np

    import lmnet
    import lmnet.model
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    record = run_record(args, threads, kept, np, lmnet)
    run_dir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        # 1. set-up
        setup_s = []
        for r in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", IMPORTS], check=True, timeout=120)
            wl = workload()
            wl.setup(run_dir / f"setup{r}", args.seed)
            setup_s.append(time.perf_counter() - t0)

        # 2. memory pass
        tracemalloc.start()
        results = [wl.op()]
        peak_bytes = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

        # 3. closed loop
        graph = lmnet.model.build_model(workloads.VARIANT)
        tracer = tracing.Tracer()
        specs = tracing.conv_specs(graph)
        durations = {False: [], True: []}
        errors = 0
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(durations[False]) > len(durations[True])
            restore = tracing.instrument(tracer, specs) if traced else None
            t0 = time.perf_counter()
            try:
                results.append(wl.op())
            except Exception:  # a failed operation ends the loop and is counted
                traceback.print_exc()
                errors += 1
                break
            finally:
                if restore:
                    restore()
            took = time.perf_counter() - t0
            durations[traced].append(took)
            # stop at the operation boundary nearest to --seconds
            if (time.perf_counter() - start + took / 2 >= args.seconds
                    and (not args.trace or durations[True])):
                break

        # 4. checks
        ok = wl.check(results)
        failed = errors + ok.count(False)
        attempted = len(results) + errors
        if args.trace:
            metrics = tracing.per_layer(tracer, graph, wl.size,
                                        durations[True], durations[False])
            WORK.mkdir(exist_ok=True)
            (WORK / f"spans-{args.workload}-seed{args.seed}.json").write_text(
                json.dumps(tracer.spans))
        else:
            timed = durations[False]
            metrics = {
                "setup_s": (statistics.median(setup_s), "s"),
                "samples_per_s": (wl.samples_per_op * len(timed) / sum(timed), "samples/s"),
                "op_s": (statistics.median(timed), "s"),
                "peak_mb": (peak_bytes / 1e6, "MB"),
                "final_loss": (float(wl.final_loss(results)), "nat"),
            }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"perfbench {args.workload}  seed {args.seed}  "
          f"{len(durations[False])} timed + {len(durations[True])} traced operations")
    print("record " + json.dumps(record))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>16.6g}  {unit}")
    print(f"  {'error_rate':<34} {failed / attempted:>16.6g}  "
          f"failed/attempted ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""qimg benchmark: closed-loop workloads, one client, run from a checkout.

    python3 perfbench/run.py --workload {codec|morph|cli} --seed N --seconds S --trace {0|1}

Run from the root of a source checkout: the program is imported from
``./src``.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it is a JSON detail record (tail percentile and sample count, failure
reasons, environment).  Scratch files and span dumps go to
``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

NPROC = len(os.sched_getaffinity(0))
THREAD_CAPS = {var: str(NPROC) for var in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREAD_CAPS)  # before numpy loads its thread pools


def keep_freed_memory() -> bool:
    """Make glibc reuse freed blocks instead of unmapping and re-faulting them.

    Each dense codec op allocates and frees several 128 MiB temporaries.
    By default glibc maps each one afresh and the kernel zeroes its pages
    on first touch; on a shared VM that cost made whole runs 10-20 %
    faster or slower.  Serving large blocks from the heap and never
    trimming it removes that noise.  Returns False where mallopt is absent.
    """
    libc = ctypes.CDLL(ctypes.util.find_library("c"))
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return False
    M_TRIM_THRESHOLD, M_MMAP_MAX = -1, -4
    return mallopt(M_MMAP_MAX, 0) == 1 and mallopt(M_TRIM_THRESHOLD, 2**30) == 1


MALLOC_KEEPS_FREED = keep_freed_memory()

import numpy as np  # noqa: E402

from spans import Tracer, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 3
WORK_DIR = ".perfbench_work"
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); import numpy; t = time.perf_counter(); "
    "import qimg, qimg.cli; print(time.perf_counter() - t)"
)


def load_program(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qimg", "__init__.py")):
        sys.exit(f"perfbench: no qimg sources under {src}; run from the root of a checkout")
    sys.path.insert(0, src)
    import qimg
    import qimg.cli  # noqa: F401

    if not os.path.realpath(qimg.__file__).startswith(os.path.realpath(src) + os.sep):
        sys.exit(f"perfbench: imported qimg from {qimg.__file__}, not from {src}")
    return qimg


def import_seconds(root: str) -> float:
    """Median over fresh interpreters of the time to import qimg (numpy preloaded)."""
    times = []
    for _ in range(SETUP_REPS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root, check=True,
                              capture_output=True, text=True, timeout=120)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def measure(wl, tracer=None, seconds=None, cycles=None, start=0) -> dict:
    """Run whole cycles, at least one, until `cycles` are done or `seconds` of op time are spent."""
    lat, failures = [], {}
    failed = defects = done = 0
    i = start
    while True:
        for _ in range(wl.cycle):
            x = wl.prepare(i)
            if tracer:
                tracer.op, tracer.active = i, True
                if isinstance(x, np.ndarray):  # a raster handed to the op is its input
                    tracer.add_input(x.size)
            t0 = time.perf_counter()
            try:
                out, problem = wl.run(i, x), None
            except Exception as exc:  # an op that raises is a failed op; keep measuring
                out, problem = None, type(exc).__name__
            lat.append(time.perf_counter() - t0)
            if tracer:
                tracer.op, tracer.active = None, False
            problem = problem or wl.check(i, x, out)
            if problem:
                failed += 1
                defects += wl.known_defect(i, problem)
                key = f"{wl.label(i)}: {problem}"
                failures[key] = failures.get(key, 0) + 1
            i += 1
        done += 1
        if (cycles and done >= cycles) or (seconds is not None and sum(lat) >= seconds):
            break
    return {"lat": lat, "attempted": i - start, "failed": failed, "defects": defects,
            "failures": failures, "cycles": done}


def merge(parts: list[dict]) -> dict:
    run = {"lat": [], "failures": {}}
    for part in parts:
        run["lat"] += part["lat"]
        for key, n in part["failures"].items():
            run["failures"][key] = run["failures"].get(key, 0) + n
    for key in ("attempted", "failed", "defects", "cycles"):
        run[key] = sum(part[key] for part in parts)
    return run


def latency(wl, lat: list[float]) -> dict:
    """Median over the cycle's op kinds of each kind's median, and the tail, in ms.

    Every kind has the same weight in a run, so the median over kinds is
    the pooled median without its dependence on two kinds' extremes.
    """
    kinds = [statistics.median(lat[k::wl.cycle]) for k in range(wl.cycle)]
    pct = 100.0 * (wl.tail_kind - 0.5) / wl.cycle
    tail = float(np.percentile(lat, pct))
    return {"p50_ms": statistics.median(kinds) * 1e3, "tail_ms": tail * 1e3,
            "tail_percentile": pct, "samples": len(lat),
            "beyond_tail": sum(v > tail for v in lat),
            "op_ms_p50_by_kind": {f"{k} {wl.label(k)}": round(v * 1e3, 3)
                                  for k, v in enumerate(kinds)}}


def end_to_end(wl, run: dict, setup_s: float) -> dict:
    ok = run["attempted"] - run["failed"]
    stats = latency(wl, run["lat"])
    return {
        "setup_s": (setup_s, "s"),
        "op_ms_p50": (stats["p50_ms"], "ms"),
        "op_ms_tail": (stats["tail_ms"], "ms"),
        "ops_per_s": (ok / sum(run["lat"]), "1/s"),
        "peak_mem_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "success_rate": (ok / run["attempted"], "ratio"),
        "psnr_db": (wl.psnr_db(), "dB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    qimg = load_program(root)
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(root, WORK_DIR))
    tracer = Tracer() if args.trace else None
    try:
        wl = WORKLOADS[args.workload](qimg, args.seed, workdir, tracer)
        detail = {"workload": args.workload, "seed": args.seed}
        if not args.trace:
            import_s = import_seconds(root)
            setup_times, problems, parts = [], [], []
            # one timed segment after each set-up: the placement of the big set-up
            # arrays in memory (huge pages or not) speeds or slows a whole segment
            for _ in range(SETUP_REPS):
                t0 = time.perf_counter()
                problems += wl.setup()
                setup_times.append(time.perf_counter() - t0)
                so_far = merge(parts)
                budget = args.seconds * len(setup_times) / SETUP_REPS - sum(so_far["lat"])
                parts.append(measure(wl, seconds=budget, start=so_far["attempted"]))
            run = merge(parts)
            metrics = end_to_end(wl, run, import_s + statistics.median(setup_times))
            detail.update(import_s=import_s, setup_reps_s=setup_times)
        else:
            problems = wl.setup()
            untraced = measure(wl, seconds=args.seconds)
            missing = tracer.install(qimg)
            try:
                tracer.op, tracer.active = "setup", True
                problems += wl.setup()
                tracer.active = False
                run = measure(wl, tracer=tracer, cycles=1)
            finally:
                tracer.uninstall()
            spans_path = os.path.join(root, WORK_DIR, f"spans-{args.workload}-{args.seed}.jsonl.gz")
            tracer.write(spans_path)
            layer = tracer.metrics()
            traced_p50 = latency(wl, run["lat"])["p50_ms"]
            untraced_p50 = latency(wl, untraced["lat"])["p50_ms"]
            layer.update({"trace.op_ms_p50": traced_p50, "trace.untraced_op_ms_p50": untraced_p50,
                          "trace.overhead_ratio": traced_p50 / untraced_p50})
            metrics = {name: (layer[name], unit) for name, unit, _ in per_layer_metrics()}
            detail.update(spans=os.path.relpath(spans_path, root), spans_recorded=len(tracer.spans),
                          not_found=missing,
                          values_per_input_base="values in the rasters and kernels the timed ops "
                          "receive: pixels handed to codec and morph ops, pixels and kernel "
                          "entries parsed by read_pgm and read_kernel in cli ops")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stats = latency(wl, run["lat"])
    detail.update(
        cycles=run["cycles"], **{k: v for k, v in stats.items() if not k.endswith("_ms")},
        attempted=run["attempted"], failed=run["failed"],
        error_rate=run["failed"] / run["attempted"], known_defect_failures=run["defects"],
        failures=run["failures"], setup_problems=problems, **wl.extra(),
        env={"python": platform.python_version(), "numpy": np.__version__, "nproc": NPROC,
             "thread_caps": THREAD_CAPS, "malloc_keeps_freed": MALLOC_KEEPS_FREED},
    )
    correct = not problems and run["failed"] == run["defects"]
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct, "attempted": run["attempted"], "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark runner for fbt.

    python3 bench/run.py --workload exact --seed 1 --seconds 50 --trace 0

runs one workload from the root of a source checkout and prints every metric
by name with its unit, a JSON report (machine block, sizes, counts, input
hash, failed checks, span summary) and, as the last line, the result object
`{"correct", "attempted", "failed", "metrics"}`.  `--trace 0` gives the
end-to-end metrics, `--trace 1` the per-layer ones; `--workload all` runs
the two workloads one after another.

Each set-up is a fresh child process (`--child`): it imports fbt from the
checkout's `src/`, builds the seeded inputs and runs one warm-up operation,
then says it is ready.  The parent starts SETUP_RUNS of them and times each
from launch to ready; the last one goes on to measure passes of the
workload's fixed job for `--seconds` seconds.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
from metrics import END_TO_END, PER_LAYER, layer_values  # noqa: E402

WORKLOADS = ("exact", "numeric")
SETUP_RUNS = 3
# Children run with FBT_THREADS=1 and no other thread-count variable, so
# fbt's own cap sets every BLAS pool to one thread.  On a small shared host
# a second BLAS thread only spins on the other core: the grid solves ran
# about 10% slower with it and their pass times scattered more.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# untraced run: a cold pass and 3 timed ones; traced run: U T U T U
MIN_PASSES = {False: 4, True: 5}
RUN_LIMIT_S = 170.0               # the whole run, set-ups included
PASS_LIMIT_S = 120.0              # stop starting passes after this


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# child: one fresh process per set-up


def _environment() -> dict:
    import importlib.util
    import platform

    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "FBT_THREADS": os.environ.get("FBT_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "pyamg_importable": importlib.util.find_spec("pyamg") is not None,
    }


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _measure(wl, seconds: float, trace: bool) -> dict:
    """Run passes for `seconds`.  Each pass starts after a full garbage
    collection, so that every pass finds the same heap.  The first pass is
    cold and is left out of the numbers: an untraced run reports the median
    of the passes after it.  A traced run alternates untraced and traced
    passes, U T U T U ...; each traced pass is paired with the untraced pass
    after it."""
    from spans import NULL_TRACER, Tracer
    from workloads import Checker, OracleMismatch

    chk = Checker()
    passes: list[tuple[bool, float]] = []
    layers: list[dict] = []
    first_counts = None
    summary: dict = {}
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        tracer = Tracer() if traced else NULL_TRACER
        counts: dict = {}
        gc.collect()
        t0 = time.perf_counter()
        with tracer.span("pass"):
            wl.run(tracer, counts, chk)
        passes.append((traced, time.perf_counter() - t0))
        if first_counts is None:
            first_counts = counts
        with chk.op("counts repeat between passes"):
            if counts != first_counts:
                raise OracleMismatch("the program reported different counts")
        if traced:
            summary = tracer.summary()
            layers.append(layer_values(summary, counts))
        elapsed = time.perf_counter() - start
        typical = statistics.median(w for _, w in passes)
        if len(passes) >= MIN_PASSES[trace] and elapsed + typical > seconds:
            break
        if elapsed > PASS_LIMIT_S:
            break
    out = {
        "cold_wall_s": passes[0][1],
        "walls": [w for t, w in passes[1:] if not t],
        "traced_walls": [w for t, w in passes if t],
        "attempted": chk.attempted,
        "failed": chk.failed,
        "failures": chk.failures,
        "counts": first_counts,
        "peak_rss_mb": _peak_rss_mb(),
        "env": _environment(),
    }
    if trace:
        pairs = list(zip(passes[1::2], passes[2::2]))
        out["layers"] = {k: statistics.median(p[k] for p in layers) for k in layers[0]}
        out["trace"] = {
            "wall_s": statistics.median(t[1] for t, _ in pairs),
            "untraced_wall_s": statistics.median(u[1] for _, u in pairs),
            "overhead_s": statistics.median(t[1] - u[1] for t, u in pairs),
        }
        out["spans"] = summary
    return out


def child_main(args) -> int:
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import fbt.cli  # noqa: F401  (timed: a fresh import of the CLI module)

    cli_import_s = time.perf_counter() - t0
    if Path(fbt.cli.__file__).resolve().parent != SRC / "fbt":
        raise BenchError(f"fbt imported from {fbt.cli.__file__}, not from {SRC}")
    from workloads import WORKLOADS as CLASSES

    workdir = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
    try:
        wl = CLASSES[args.workload](args.seed, args.size, workdir)
        wl.warm_up()
        print("READY " + json.dumps({"cli_import_s": cli_import_s,
                                     "input_sha256": wl.digest}), flush=True)
        if args.measure:
            result = _measure(wl, args.seconds, bool(args.trace))
            result["input_sha256"] = wl.digest
            result["sizes"] = wl.p
            print("RESULT " + json.dumps(result), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


# ---------------------------------------------------------------------------
# parent


def _child_argv(args, workload: str, measure: bool) -> list[str]:
    return [sys.executable, str(HERE / "run.py"), "--child",
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--size", args.size, "--measure", "1" if measure else "0"]


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["FBT_THREADS"] = "1"
    return env


def _read_tagged(proc, tag: str) -> dict:
    for line in proc.stdout:
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1:])
    raise BenchError(f"child exited before {tag} (code {proc.wait()})")


def run_workload(args, workload: str) -> dict:
    """Set up SETUP_RUNS fresh children; the last one measures."""
    setups: list[float] = []
    readies: list[dict] = []
    result = None
    deadline = time.monotonic() + RUN_LIMIT_S
    for i in range(SETUP_RUNS):
        measure = i == SETUP_RUNS - 1
        t0 = time.perf_counter()
        proc = subprocess.Popen(_child_argv(args, workload, measure), cwd=ROOT,
                                env=_child_env(), stdout=subprocess.PIPE, text=True)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            readies.append(_read_tagged(proc, "READY"))
            setups.append(time.perf_counter() - t0)
            if measure:
                result = _read_tagged(proc, "RESULT")
            proc.stdout.read()
            code = proc.wait()
        finally:
            timer.cancel()
            proc.kill()
            proc.wait()
        if code != 0:
            raise BenchError(f"{workload}: child exited with code {code}")
    hashes = {r["input_sha256"] for r in readies}
    if len(hashes) != 1:
        result["failed"] += 1
        result["failures"].append("set-ups with one seed built different inputs")
    result["attempted"] += 1
    result["setup_s"] = setups
    result["cli_import_s"] = statistics.median(r["cli_import_s"] for r in readies)
    return result


def metrics_of(result: dict, trace: bool) -> dict[str, dict]:
    if not trace:
        values = {
            "wall_s": statistics.median(result["walls"]),
            "setup_s": statistics.median(result["setup_s"]),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END
    else:
        values = dict(result["layers"])
        values["cli.import_s"] = result["cli_import_s"]
        values.update({f"trace.{k}": v for k, v in result["trace"].items()})
        units = PER_LAYER
    if set(values) != set(units):
        raise BenchError(f"metric names drifted: {sorted(set(values) ^ set(units))}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def _print_table(workload: str, result: dict, metrics: dict) -> None:
    env = result["env"]
    print(f"== {workload}  seed {result['seed']}  size {result['size']}  "
          f"passes {len(result['walls'])} untraced, {len(result['traced_walls'])} traced  "
          f"inputs {result['input_sha256'][:16]}")
    print(f"   python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"nproc {env['nproc']}  pyamg {'yes' if env['pyamg_importable'] else 'NO'}  "
          f"FBT_THREADS={env['FBT_THREADS']}  OMP_NUM_THREADS={env['OMP_NUM_THREADS']}")
    for name, m in metrics.items():
        print(f"   {name:<36} {m['value']:>16.6g} {m['unit']}")
    frac = result["failed"] / result["attempted"]
    print(f"   {'error_frac':<36} {frac:>16.6g} 1 "
          f"({result['failed']} failed / {result['attempted']} attempted)")
    for failure in result["failures"]:
        print(f"   FAILED {failure}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full",
                    help="toy: tiny inputs for the self-test")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--measure", type=int, default=0, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        return child_main(args)

    if not (SRC / "fbt" / "__init__.py").is_file():
        print(f"error: no fbt sources under {SRC}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        try:
            result = run_workload(args, workload)
            metrics = metrics_of(result, bool(args.trace))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        result.update(workload=workload, seed=args.seed, size=args.size)
        result.pop("layers", None)  # the same numbers as the metrics
        _print_table(workload, result, metrics)
        print(json.dumps({"report": result, "metrics": metrics}, sort_keys=True))
        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
        prefix = f"{workload}." if args.workload == "all" else ""
        final["metrics"].update({prefix + k: v for k, v in metrics.items()})
    final["correct"] = final["failed"] == 0
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

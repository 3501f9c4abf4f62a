"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload build|serve_hot|serve_cold \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the engine (``ee_outliers_ray``)
is imported from there and everything the run writes stays under
``.pbw/`` in it.  Ray starts with ``num_cpus`` equal to
``nproc``.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
phase plus the tracing overhead against an untraced phase of the same
run.  The line before it gives sample counts, ``error_rate`` and the load
average.  See ``workloads.py`` for what each workload and metric is.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Large allocations stay on the reusable heap: on a shared VM, fresh
# pages from mmap fault slowly, so glibc's default mmap-and-trim of every
# big numpy temporary makes timings swing.  It must reach this process's
# malloc (hence the re-exec) and every Ray worker (they inherit it).
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "1073741824",
              "MALLOC_TRIM_THRESHOLD_": "1073741824"}
OBJECT_STORE_BYTES = 256 << 20
# AF_UNIX socket paths are limited to 107 bytes and Ray puts its sockets
# ~63 characters below its temp dir, so the run's files (Ray's included)
# go to a short directory at the root of the checkout
WORK_ROOT = os.path.join(ROOT, ".pbw")
RAY_TEMP_MAX = 44


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("build", "serve_hot", "serve_cold"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def nproc() -> int:
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True,
                                  check=True).stdout)
    except (OSError, subprocess.CalledProcessError, ValueError):
        return os.cpu_count() or 1


def loadavg() -> list[float]:
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


def start_ray(work: str, trace_dir: str | None) -> None:
    import ray

    env = {"PYTHONPATH": ROOT}
    runtime_env = {"env_vars": env}
    if trace_dir:
        from perfbench import trace

        env[trace.TRACE_DIR_ENV] = trace_dir
        runtime_env["worker_process_setup_hook"] = \
            "perfbench.trace.worker_setup"
        trace.install(trace_dir)
    ray.init(address="local", num_cpus=nproc(), include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES, runtime_env=runtime_env,
             _temp_dir=work if len(work) <= RAY_TEMP_MAX else None)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if any(os.environ.get(k) != v for k, v in MALLOC_ENV.items()):
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)]
                  + argv, {**os.environ, **MALLOC_ENV})
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = ROOT
    # a Ray call after shutdown (a stray executor thread) must fail, not
    # start a second cluster outside the checkout; and Ray reports no
    # usage statistics over the network
    os.environ["RAY_ENABLE_AUTO_CONNECT"] = "0"
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    try:
        import ee_outliers_ray  # noqa: F401
    except ImportError as e:
        print(f"perfbench: the engine is not importable from {ROOT}: {e}",
              file=sys.stderr)
        return 2

    import ray

    from perfbench.workloads import LAYER_METRICS, Bench, Phase

    work = os.path.join(WORK_ROOT, str(os.getpid()))
    trace_dir = os.path.join(work, "trace") if args.trace else None
    os.makedirs(trace_dir or work, exist_ok=True)
    load_before = loadavg()
    bench = Bench(args.workload, args.seed, work, trace_dir)
    try:
        start_ray(work, trace_dir)
        bench.setup()
        if args.trace:
            phases = [Phase(args.seconds / 2, live=False),
                      Phase(args.seconds / 2, live=True)]
        else:
            phases = [Phase(args.seconds, live=False)]
        for phase in phases:
            bench.measure(phase)
        if args.trace:
            metrics, bases = bench.per_layer(*phases)
            detail = {"bases": bases,
                      "moves": {name: [e2e, workload] for name, _, _, e2e,
                                workload in LAYER_METRICS}}
        else:
            metrics, detail = bench.end_to_end(phases[0])
    finally:
        bench.close()
        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)
    detail.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "num_cpus": nproc(),
        "error_rate": bench.failed / max(1, bench.attempted),
        "setup_s": bench.setup_s,
        "loadavg_before": load_before, "loadavg_after": loadavg()})
    print(json.dumps(detail))
    print(json.dumps({"correct": bench.failed == 0,
                      "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

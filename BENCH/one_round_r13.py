"""Cold sharded requests, this checkout against another: RPC rounds and
the global-df layer.

Builds the perfbench seed-1000 corpus and its two serve_cold shards and
takes serve_cold's query list (one query per distinct corpus term, plus
absent terms).  Then, for this checkout and a baseline checkout in turn:

- per cold request: each of 3 repeats runs one fresh process per
  checkout (order alternating), which opens a fresh
  ``ShardedQueryService`` and sends every query once through ``topk``,
  recording ms per request (mean and p50), RPC rounds per request (one
  ``topk`` round plus one for each ``_global_dfs`` call that grew
  ``_df_cache``, perfbench's definition) and ms per request spent in
  ``_global_dfs``; best of 3;
- ``--pairs`` perfbench ``serve_cold`` trace-0 runs per checkout, in
  alternating order, keeping the end-to-end metrics;
- one perfbench ``serve_cold`` trace-1 run per checkout, keeping
  ``query.sharded.rounds_per_query``, ``query.sharded.local_df.s`` and
  ``query.service.rpc_overhead_ms``.

The record keeps every run and ``/proc/loadavg`` before and after.

    PYTHONPATH=. python BENCH/one_round_r13.py --baseline-root OLD \\
        --work /tmp/one_round --out BENCH/one_round_r13.json

OLD is a ``git archive`` of the commit to compare against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEATS = 3
SEED = 1000
K = 10
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "1073741824",
              "MALLOC_TRIM_THRESHOLD_": "1073741824"}
TRACE0_KEYS = ("qps", "latency_p50_ms", "latency_p90_ms", "open_s")
TRACE1_KEYS = ("query.sharded.rounds_per_query", "query.sharded.local_df.s",
               "query.service.rpc_overhead_ms")


def loadavg() -> list[float]:
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


def time_requests(index_dirs: list[str], queries: list[str]) -> dict:
    """One pass of cold requests through a fresh service, with the
    sharded module of whichever checkout is on sys.path."""
    import ray

    from ee_outliers_ray.query.sharded import ShardedQueryService

    ray.init(address="local", num_cpus=len(os.sched_getaffinity(0)),
             include_dashboard=False, logging_level="ERROR",
             log_to_driver=False)
    try:
        t0 = time.perf_counter()
        svc = ShardedQueryService(index_dirs)
        open_ms = (time.perf_counter() - t0) * 1e3
        df_rounds, df_s = 0, 0.0
        global_dfs = svc._global_dfs

        def counted(terms):
            nonlocal df_rounds, df_s
            pre = len(svc._df_cache)
            t = time.perf_counter()
            out = global_dfs(terms)
            df_s += time.perf_counter() - t
            df_rounds += len(svc._df_cache) > pre
            return out

        svc._global_dfs = counted
        lat = []
        for q in queries:
            t = time.perf_counter()
            svc.topk(q, K)
            lat.append((time.perf_counter() - t) * 1e3)
        for a in svc.actors:
            ray.kill(a)
    finally:
        ray.shutdown()
    n = len(queries)
    return {"ms_per_request": sum(lat) / n,
            "p50_ms": statistics.median(lat),
            "rounds_per_request": 1 + df_rounds / n,
            "global_dfs_ms_per_request": df_s * 1e3 / n,
            "open_ms": open_ms}


def prepare(work: str) -> tuple[list[str], list[str]]:
    import ray

    from ee_outliers_ray.query.sharded import build_sharded_index
    from perfbench import inputs
    from perfbench.oracle import Oracle
    from perfbench.workloads import N_SHARDS

    pages = os.path.join(work, "pages")
    ray.init(address="local", num_cpus=1, include_dashboard=False)
    try:
        inputs.make_corpus(pages, SEED)
        dirs = build_sharded_index(pages, os.path.join(work, "shards"),
                                   N_SHARDS, overwrite=True)
    finally:
        ray.shutdown()
    oracle = Oracle(pages, os.path.join(work, "duckdb"))
    vocab = oracle.vocabulary()
    oracle.close()
    return dirs, inputs.cold_list(vocab, inputs.rng_for(SEED, "serve_cold"))


def run_request_timer(root: str, dirs: list[str], queries_file: str) -> dict:
    env = dict(os.environ, PYTHONPATH=root, **MALLOC_ENV)
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--time-requests",
         queries_file, *dirs], env=env, check=True, capture_output=True,
        text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def run_perfbench(root: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_cold",
         "--seed", str(SEED), "--seconds", "10", "--trace", str(trace)],
        cwd=root, check=True, capture_output=True, text=True).stdout
    last = json.loads(out.strip().splitlines()[-1])
    m = last["metrics"]
    rec = {k: m[k]["value"] for k in (TRACE1_KEYS if trace else TRACE0_KEYS)}
    rec["error_rate"] = last["failed"] / max(last["attempted"], 1)
    return rec


def main() -> None:
    # Ray reports no usage statistics over the network, here or in the
    # processes this script starts
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    if len(sys.argv) > 1 and sys.argv[1] == "--time-requests":
        with open(sys.argv[2]) as f:
            queries = json.load(f)
        print(json.dumps(time_requests(sys.argv[3:], queries)))
        return
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline-root", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--pairs", type=int, default=4)
    args = ap.parse_args()

    roots = {"baseline": os.path.abspath(args.baseline_root),
             "change": ROOT}
    dirs, queries = prepare(args.work)
    queries_file = os.path.join(args.work, "queries.json")
    with open(queries_file, "w") as f:
        json.dump(queries, f)

    def alternate(i):
        names = list(roots)
        return names if i % 2 == 0 else names[::-1]

    load_before = loadavg()
    runs = {name: {} for name in roots}
    for rep in range(REPEATS):
        for name in alternate(rep):
            for key, v in run_request_timer(roots[name], dirs,
                                            queries_file).items():
                runs[name].setdefault(key, []).append(round(v, 4))
    pairs = []
    for i in range(args.pairs):
        pair = {"order": alternate(i)}
        for name in pair["order"]:
            pair[name] = run_perfbench(roots[name], 0)
        pairs.append(pair)
    traced = {name: run_perfbench(roots[name], 1) for name in roots}
    load_after = loadavg()

    record = {
        "what": "cold ShardedQueryService requests: RPC rounds and the "
                "global-df layer, this checkout vs baseline",
        "corpus": {"generator": "perfbench.inputs.make_corpus",
                   "seed": SEED, "shards": len(dirs)},
        "queries": {"source": "perfbench serve_cold's query list, one "
                              "pass per fresh service",
                    "count": len(queries), "k": K},
        "host": {"cpus": len(os.sched_getaffinity(0)),
                 "machine": platform.machine(),
                 "python": platform.python_version()},
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "cold_request_best": {name: {k: min(v) for k, v in r.items()}
                              for name, r in runs.items()},
        "cold_request_runs": runs,
        "serve_cold_trace0_pairs": pairs,
        "serve_cold_trace1": traced,
    }
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(json.dumps(record["cold_request_best"]))


if __name__ == "__main__":
    main()

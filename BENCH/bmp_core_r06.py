"""Per-query cost of the scorers on the perfbench corpus, in one process.

Times ``TaatSearcher`` (result cache off), a baseline ``BlockMaxPruning``
loaded from another checkout's ``query/engine.py``, and the current
``BlockMaxPruning`` (result cache off) over the perfbench seed-1000
corpus with its hot pool and cold list.  Each of 3 repeats opens a fresh
``IndexReader`` per engine, times one first pass over the cold list
(every term read, decoded and weighed once), then one warm pass over the
cold list and one over the hot pool.  The record keeps the best of 3 in
ms/query, every run (for the spread), ``/proc/loadavg`` before and
after, and how many queries give identical results on all three
engines.

    PYTHONPATH=. python BENCH/bmp_core_r06.py \\
        --baseline-engine OLD/ee_outliers_ray/query/engine.py \\
        --work /tmp/bmp_core --out BENCH/bmp_core_r06.json
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import time

REPEATS = 3
SEED = 1000
RANGE_WIDTH = 4096


def loadavg() -> list[float]:
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


def load_baseline(path: str):
    # a name inside ee_outliers_ray.query, so the file's relative
    # imports resolve against this checkout's reader/bm25/tokenizer
    spec = importlib.util.spec_from_file_location(
        "ee_outliers_ray.query._baseline_engine", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def run_pass(searcher, queries: list[str]) -> tuple[float, list]:
    t0 = time.perf_counter()
    out = [searcher.topk(q, 10) for q in queries]
    return (time.perf_counter() - t0) * 1e3 / len(queries), out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline-engine", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    import ray

    from ee_outliers_ray.index.build import build_index
    from ee_outliers_ray.query import engine
    from ee_outliers_ray.query.reader import IndexReader
    from perfbench import inputs
    from perfbench.oracle import Oracle

    pages = os.path.join(args.work, "pages")
    index = os.path.join(args.work, "index")
    ray.init(address="local", num_cpus=1, include_dashboard=False)
    try:
        inputs.make_corpus(pages, SEED)
        build_index(pages, index, overwrite=True)
    finally:
        ray.shutdown()
    oracle = Oracle(pages, os.path.join(args.work, "duckdb"))
    vocab = oracle.vocabulary()
    oracle.close()
    hot = inputs.hot_pool(vocab, inputs.rng_for(SEED, "serve_hot"))
    cold = inputs.cold_list(vocab, inputs.rng_for(SEED, "serve_cold"))
    baseline = load_baseline(args.baseline_engine)

    def taat(r):
        s = engine.TaatSearcher(r)
        s.result_cache_size = 0
        return s

    def bmp(r):
        s = engine.BlockMaxPruning(r, range_width=RANGE_WIDTH)
        s.result_cache_size = 0
        return s

    makers = {"taat": taat,
              "baseline_bmp": lambda r: baseline.BlockMaxPruning(
                  r, range_width=RANGE_WIDTH),
              "new_bmp": bmp}
    runs = {name: {} for name in makers}
    results = {}
    load_before = loadavg()
    for _ in range(REPEATS):
        for name, make in makers.items():
            searcher = make(IndexReader(index))
            timed = {}
            timed["cold_first_pass"], cold_res = run_pass(searcher, cold)
            timed["cold_warm"], _ = run_pass(searcher, cold)
            run_pass(searcher, hot)
            timed["hot_warm"], hot_res = run_pass(searcher, hot)
            results[name] = cold_res + hot_res
            for key, ms in timed.items():
                runs[name].setdefault(key, []).append(round(ms, 4))
    load_after = loadavg()
    same = sum(a == b == c for a, b, c in zip(*results.values()))
    record = {
        "what": "BM25 top-10 ms/query, best of 3, one process",
        "corpus": {"generator": "perfbench.inputs.make_corpus",
                   "seed": SEED, "n_docs": inputs.N_DOCS},
        "queries": {"hot_pool": len(hot), "cold_list": len(cold)},
        "range_width": RANGE_WIDTH,
        "host": {"cpus": len(os.sched_getaffinity(0)),
                 "machine": platform.machine(),
                 "python": platform.python_version()},
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "ms_per_query": {name: {k: min(v) for k, v in r.items()}
                         for name, r in runs.items()},
        "ms_per_query_runs": runs,
        "identical_results": {"queries": len(hot) + len(cold),
                              "identical_on_all_engines": same},
    }
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(json.dumps(record["ms_per_query"]))


if __name__ == "__main__":
    main()

"""The cold term path, this checkout against another: segment row-group
reads, run decode and ``rarest_terms`` under tombstones.

Builds the perfbench seed-1000 corpus, its two serve_cold shards and
serve_cold's query list, and the seeded 120k-term text index of
``BENCH/term_expand_r11.py`` with 200 tombstones.  Then, for this
checkout and a baseline checkout in turn:

- per term: each of 3 repeats runs one fresh process per checkout
  (order alternating), which opens a fresh ``IndexReader`` per shard,
  fetches every distinct query term once with ``postings`` (read ms per
  term) and decodes the runs it got with ``decode_run`` (decode ms per
  run); best of 3;
- decode sweep, in the same processes, best of 5: ms per run over every
  cold run of both shards, and ms for one seeded 200k- and one
  2M-posting run built like a stopword run (doc-range runs of 65,536
  docs concatenated, so interior short blocks occur); the decoded
  arrays' hash must be equal across checkouts;
- ``rarest_terms(5)`` on the tombstoned 120k-term index: one fresh
  process per checkout, seconds, and the result's hash;
- ``--pairs`` perfbench ``serve_cold`` trace-0 pairs at seed 1000 and
  ``--pairs2`` at ``--seed2``, order alternating, keeping the end-to-end
  metrics;
- one perfbench ``serve_cold`` trace-1 run per checkout at seed 1000,
  keeping the decode, read, miss and round layers.

The record keeps every run and ``/proc/loadavg`` before and after.

    PYTHONPATH=. python BENCH/cold_path_r14.py --baseline-root OLD \\
        --work /tmp/cold_path --out BENCH/cold_path_r14.json \\
        [--pairs 10] [--pairs2 10] [--seed2 31]

OLD is a ``git archive`` of the commit to compare against.  Without
pairs it takes about 5 minutes on 1 vCPU; each perfbench run adds about
40 s.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEATS = 3
SWEEP_BEST_OF = 5
SEED = 1000
SWEEP_SIZES = (200_000, 2_000_000)
DOC_RANGE = 65_536
N_TOMBSTONES = 200
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "1073741824",
              "MALLOC_TRIM_THRESHOLD_": "1073741824"}
TRACE0_KEYS = ("qps", "latency_p50_ms", "latency_p90_ms", "open_s")
TRACE1_KEYS = ("index.codec.decode_run.s",
               "index.codec.postings_decoded", "query.reader.postings.s",
               "query.reader.postings.misses",
               "query.sharded.rounds_per_query")


def loadavg() -> list[float]:
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


def _digest(arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()[:12]


def stopword_run(n: int):
    """A seeded ``n``-posting run over 2n docs, encoded per 65,536-doc
    range and concatenated, as the build's merge lays out a stopword."""
    import numpy as np

    from ee_outliers_ray.index.codec import concat_runs, encode_postings

    rng = np.random.default_rng(n)
    docs = np.sort(rng.choice(2 * n, size=n, replace=False)).astype(np.int64)
    tfs = rng.integers(1, 6, size=n).astype(np.int64)
    dls = rng.integers(5, 500, size=n).astype(np.int64)
    cuts = np.searchsorted(docs, np.arange(0, 2 * n + DOC_RANGE, DOC_RANGE))
    return concat_runs([encode_postings(docs[s:e], tfs[s:e], dls[s:e])
                        for s, e in zip(cuts[:-1], cuts[1:]) if e > s])


def time_terms(index_dirs: list[str], terms: list[str]) -> dict:
    """Read and decode ms per term on fresh readers, then the decode
    sweep, with the modules of whichever checkout is on sys.path."""
    from ee_outliers_ray.index.codec import decode_run
    from ee_outliers_ray.query.reader import IndexReader

    out, cold = {}, []
    for i, d in enumerate(index_dirs):
        r = IndexReader(d)
        t0 = time.perf_counter()
        runs = [r.postings(t) for t in terms]
        out[f"read_ms_per_term/shard{i}"] = \
            (time.perf_counter() - t0) * 1e3 / len(terms)
        runs = [x for x in runs if x is not None]
        t0 = time.perf_counter()
        for x in runs:
            decode_run(x)
        out[f"decode_ms_per_run/shard{i}"] = \
            (time.perf_counter() - t0) * 1e3 / len(runs)
        cold += runs

    def best(xs):
        ts = []
        for _ in range(SWEEP_BEST_OF):
            t0 = time.perf_counter()
            for x in xs:
                decode_run(x)
            ts.append(time.perf_counter() - t0)
        return min(ts) * 1e3

    out["sweep/cold_ms_per_run"] = best(cold) / len(cold)
    out["sweep/cold_sha1"] = _digest(a for x in cold for a in decode_run(x))
    for n in SWEEP_SIZES:
        run = stopword_run(n)
        out[f"sweep/{n}_ms"] = best([run])
        out[f"sweep/{n}_sha1"] = _digest(decode_run(run))
    return out


def time_rarest(index_dir: str) -> dict:
    from ee_outliers_ray.query.reader import IndexReader

    r = IndexReader(index_dir)
    r.directory.dictionary()
    t0 = time.perf_counter()
    res = r.rarest_terms(5)
    return {"rarest5_s": time.perf_counter() - t0,
            "sha1": hashlib.sha1(json.dumps(res).encode()).hexdigest()[:12]}


def prepare(work: str) -> tuple[list[str], list[str], str]:
    import numpy as np
    import ray

    from ee_outliers_ray.index.build import build_index
    from ee_outliers_ray.index.mutate import delete_from_index
    from ee_outliers_ray.query.sharded import build_sharded_index
    from perfbench import inputs
    from perfbench.oracle import Oracle
    from perfbench.workloads import N_SHARDS

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from term_expand_r11 import BIG_BUCKETS, BIG_DOCS, big_corpus

    pages = os.path.join(work, "pages")
    big = os.path.join(work, "big")
    ray.init(address="local", num_cpus=1, include_dashboard=False)
    try:
        inputs.make_corpus(pages, SEED)
        dirs = build_sharded_index(pages, os.path.join(work, "shards"),
                                   N_SHARDS, overwrite=True)
        big_pages = os.path.join(work, "big_pages")
        big_corpus(big_pages)
        build_index(big_pages, big, num_buckets=BIG_BUCKETS,
                    from_html=False, overwrite=True)
    finally:
        ray.shutdown()
    shutil.rmtree(big_pages)
    rng = np.random.default_rng(SEED)
    delete_from_index(big, np.sort(rng.choice(
        BIG_DOCS, size=N_TOMBSTONES, replace=False)).astype(np.int64))
    oracle = Oracle(pages, os.path.join(work, "duckdb"))
    vocab = oracle.vocabulary()
    oracle.close()
    queries = inputs.cold_list(vocab, inputs.rng_for(SEED, "serve_cold"))
    return dirs, sorted({t for q in queries for t in q.split()}), big


def run_child(root: str, *args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=root, **MALLOC_ENV)
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), *args], env=env,
        check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def run_perfbench(root: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_cold",
         "--seed", str(seed), "--seconds", "10", "--trace", str(trace)],
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
    if len(sys.argv) > 1 and sys.argv[1] == "--time-terms":
        with open(sys.argv[2]) as f:
            terms = json.load(f)
        print(json.dumps(time_terms(sys.argv[3:], terms)))
        return
    if len(sys.argv) > 1 and sys.argv[1] == "--time-rarest":
        print(json.dumps(time_rarest(sys.argv[2])))
        return
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline-root", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--pairs", type=int, default=0)
    ap.add_argument("--pairs2", type=int, default=0)
    ap.add_argument("--seed2", type=int, default=31)
    args = ap.parse_args()

    roots = {"baseline": os.path.abspath(args.baseline_root),
             "change": ROOT}
    dirs, terms, big = prepare(args.work)
    terms_file = os.path.join(args.work, "terms.json")
    with open(terms_file, "w") as f:
        json.dump(terms, f)

    def alternate(i):
        names = list(roots)
        return names if i % 2 == 0 else names[::-1]

    load_before = loadavg()
    runs = {name: {} for name in roots}
    for rep in range(REPEATS):
        for name in alternate(rep):
            for key, v in run_child(roots[name], "--time-terms", terms_file,
                                    *dirs).items():
                runs[name].setdefault(key, []).append(
                    round(v, 4) if isinstance(v, float) else v)
    rarest = {name: run_child(roots[name], "--time-rarest", big)
              for name in roots}
    pairs = {SEED: [], args.seed2: []}
    for seed, n in ((SEED, args.pairs), (args.seed2, args.pairs2)):
        for i in range(n):
            pair = {"order": alternate(i)}
            for name in pair["order"]:
                pair[name] = run_perfbench(roots[name], seed, 0)
            pairs[seed].append(pair)
    traced = {name: run_perfbench(roots[name], SEED, 1) for name in roots}
    load_after = loadavg()

    def summary(ps):
        """qps wins of the change, medians and the baseline's IQR."""
        if not ps:
            return {}
        q = {n: sorted(p[n]["qps"] for p in ps) for n in roots}
        quart = statistics.quantiles(q["baseline"], n=4) \
            if len(ps) > 1 else [q["baseline"][0]] * 3
        return {"pairs": len(ps),
                "change_wins": sum(p["change"]["qps"] > p["baseline"]["qps"]
                                   for p in ps),
                "median_qps": {n: statistics.median(v)
                               for n, v in q.items()},
                "baseline_qps_iqr": quart[2] - quart[0]}

    def best(r):
        return {k: (min(v) if isinstance(v[0], float) else v[0])
                for k, v in r.items()}

    record = {
        "what": "cold term path: IndexReader row-group reads, decode_run, "
                "rarest_terms under tombstones and serve_cold, this "
                "checkout vs baseline",
        "corpus": {"generator": "perfbench.inputs.make_corpus",
                   "seed": SEED, "shards": len(dirs),
                   "distinct_terms": len(terms)},
        "rarest_index": {"corpus": "BENCH/term_expand_r11.big_corpus",
                         "tombstones": N_TOMBSTONES},
        "host": {"cpus": len(os.sched_getaffinity(0)),
                 "machine": platform.machine(),
                 "python": platform.python_version()},
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "per_term_and_sweep_best": {name: best(r)
                                    for name, r in runs.items()},
        "per_term_and_sweep_runs": runs,
        "rarest_terms_tombstoned": rarest,
        "serve_cold_trace0_summary": {str(s): summary(p)
                                      for s, p in pairs.items()},
        "serve_cold_trace0_pairs": {str(s): p for s, p in pairs.items()},
        "serve_cold_trace1": traced,
    }
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(json.dumps({"best": record["per_term_and_sweep_best"],
                      "rarest": rarest,
                      "serve_cold": record["serve_cold_trace0_summary"]}))


if __name__ == "__main__":
    main()

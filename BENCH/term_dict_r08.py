"""Cold term lookup in ``IndexReader``, this checkout against another.

Builds the perfbench seed-1000 corpus and its two serve_cold shards, and
takes the distinct terms of the serve_cold query list (present and
absent).  Then, for this checkout and a baseline checkout in turn:

- cold ms/term of ``postings`` and of ``postings_decoded``: each of 3
  repeats runs one fresh process per checkout (order alternating), which
  opens a fresh ``IndexReader`` per shard and per method and looks up
  every term once; best of 3;
- ``--pairs`` perfbench ``serve_cold`` trace-0 runs per checkout, in
  alternating order, keeping qps / latency_p50_ms / latency_p90_ms;
- one perfbench ``serve_cold`` trace-1 run per checkout, keeping
  ``query.reader.postings.s`` and the miss and decode counts.

The record keeps every run and ``/proc/loadavg`` before and after.

    PYTHONPATH=. python BENCH/term_dict_r08.py --baseline-root OLD \\
        --work /tmp/term_dict --out BENCH/term_dict_r08.json

OLD is a ``git archive`` of the commit to compare against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEATS = 3
SEED = 1000
TRACE1_KEYS = ("query.reader.postings.s", "query.reader.postings.misses",
               "index.codec.postings_decoded")


def loadavg() -> list[float]:
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


def time_lookups(index_dirs: list[str], terms: list[str]) -> dict:
    """ms/term of a cold postings / postings_decoded pass per shard,
    with the reader module of whichever checkout is on sys.path."""
    from ee_outliers_ray.query.reader import IndexReader

    out = {}
    for method in ("postings", "postings_decoded"):
        for i, d in enumerate(index_dirs):
            lookup = getattr(IndexReader(d), method)
            t0 = time.perf_counter()
            for t in terms:
                lookup(t)
            out[f"{method}/shard{i}"] = \
                (time.perf_counter() - t0) * 1e3 / len(terms)
    return out


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
    cold = inputs.cold_list(vocab, inputs.rng_for(SEED, "serve_cold"))
    terms = list(dict.fromkeys(t for q in cold for t in q.split()))
    return dirs, terms


def run_lookup_timer(root: str, dirs: list[str], terms_file: str) -> dict:
    env = dict(os.environ, PYTHONPATH=root)
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--time-lookups",
         terms_file, *dirs], env=env, check=True, capture_output=True,
        text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def run_perfbench(root: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_cold",
         "--seed", str(SEED), "--seconds", "10", "--trace", str(trace)],
        cwd=root, check=True, capture_output=True, text=True).stdout
    last = json.loads(out.strip().splitlines()[-1])
    m = last["metrics"]
    keys = TRACE1_KEYS if trace else ("qps", "latency_p50_ms",
                                      "latency_p90_ms")
    rec = {k: m[k]["value"] for k in keys}
    rec["error_rate"] = last["failed"] / max(last["attempted"], 1)
    return rec


def main() -> None:
    if len(sys.argv) > 1 and sys.argv[1] == "--time-lookups":
        with open(sys.argv[2]) as f:
            terms = json.load(f)
        print(json.dumps(time_lookups(sys.argv[3:], terms)))
        return
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline-root", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--pairs", type=int, default=4)
    args = ap.parse_args()

    roots = {"baseline": os.path.abspath(args.baseline_root),
             "change": ROOT}
    dirs, terms = prepare(args.work)
    terms_file = os.path.join(args.work, "terms.json")
    with open(terms_file, "w") as f:
        json.dump(terms, f)

    def alternate(i):
        names = list(roots)
        return names if i % 2 == 0 else names[::-1]

    load_before = loadavg()
    lookups = {name: {} for name in roots}
    for rep in range(REPEATS):
        for name in alternate(rep):
            for key, ms in run_lookup_timer(roots[name], dirs,
                                            terms_file).items():
                lookups[name].setdefault(key, []).append(round(ms, 4))
    pairs = []
    for i in range(args.pairs):
        pair = {"order": alternate(i)}
        for name in pair["order"]:
            pair[name] = run_perfbench(roots[name], 0)
        pairs.append(pair)
    traced = {name: run_perfbench(roots[name], 1) for name in roots}
    load_after = loadavg()

    record = {
        "what": "cold IndexReader term lookup, this checkout vs baseline",
        "corpus": {"generator": "perfbench.inputs.make_corpus",
                   "seed": SEED, "shards": len(dirs)},
        "terms": {"source": "distinct terms of perfbench serve_cold's "
                            "query list, absent ones included",
                  "count": len(terms)},
        "host": {"cpus": len(os.sched_getaffinity(0)),
                 "machine": platform.machine(),
                 "python": platform.python_version()},
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "cold_ms_per_term": {name: {k: min(v) for k, v in r.items()}
                             for name, r in lookups.items()},
        "cold_ms_per_term_runs": lookups,
        "serve_cold_trace0_pairs": pairs,
        "serve_cold_trace1": traced,
    }
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(json.dumps(record["cold_ms_per_term"]))


if __name__ == "__main__":
    main()

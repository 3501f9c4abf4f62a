"""The run-table kernels, this checkout against another: the bucket merge
and the compaction filter, and (with ``--pairs``) the perfbench
end-to-end metrics.

For this checkout and a baseline checkout in turn, one fresh process per
checkout and repeat (order alternating), each entry best of 5:

- merge: ``build._merge_bucket_group`` over every bucket of the
  perfbench corpus runs (``generate_pages(48_000, 4 files)`` at seeds
  1000 and 31, ``build_index`` defaults: 32 buckets, one group per
  bucket as a ``merge_parts=1`` build reads it), ms for all buckets;
- compaction filter: the per-file body of ``compact_index`` (runs table
  in, tombstone-filtered runs table out; no file I/O) over every runs
  file of the seed-1000 index, with 200 and with 4,800 seeded
  tombstones, s for all files.

Every entry keeps a digest of what it produced — the merged segment
tables, the filtered runs tables (an untouched file digests as its
input) — which must be equal across checkouts.  ``--pairs`` adds
alternating perfbench trace-0 runs of build, serve_hot and serve_cold
at seed 1000, keeping the end-to-end metrics.

    PYTHONPATH=. python BENCH/run_table_r17.py --baseline-root OLD \\
        --work /tmp/runtable --out BENCH/run_table_r17.json [--pairs 5]

OLD is a ``git archive`` of the commit to compare against.  Without
pairs it takes a few minutes on 1 vCPU; each perfbench run adds about
40 s.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REPEATS = 3
BEST_OF = 5
SEEDS = (1000, 31)
TOMBSTONES = (200, 4_800)
TABLE_COLUMNS = ("term", "bucket", "rng", "first_doc", "df", "payload",
                 "block_len", "block_offset", "block_first_doc",
                 "block_last_doc", "block_max_tf", "block_min_dl")
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "1073741824",
              "MALLOC_TRIM_THRESHOLD_": "1073741824"}
WORKLOADS = ("build", "serve_hot", "serve_cold")
END_TO_END = ("setup_s", "build_docs_per_s", "index_bytes_per_doc", "qps",
              "latency_p50_ms", "latency_p90_ms", "open_s")


def loadavg() -> list[float]:
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


def _digest(tables) -> str:
    h = hashlib.sha1()
    for t in tables:
        for c in TABLE_COLUMNS:
            h.update(repr(t[c].to_pylist()).encode())
    return h.hexdigest()[:12]


def best_s(fn) -> float:
    ts = []
    for _ in range(BEST_OF):
        t0 = time.perf_counter()
        fn()
        ts.append(time.perf_counter() - t0)
    return min(ts)


def _compact_filter():
    """The checkout's compaction filter: runs table, sorted tombstones
    -> filtered table, or None when no posting is tombstoned."""
    from ee_outliers_ray.index import mutate

    if hasattr(mutate, "_compact_runs"):
        return mutate._compact_runs
    import numpy as np
    import pyarrow as pa

    def per_row(t, tb):
        # the per-row body of the older compact_index task, file-level
        # doc-span skip included
        has_pos = "positions" in t.schema.names
        first = t["first_doc"].to_numpy(zero_copy_only=False)
        last = np.asarray([bl[-1] for bl in
                           t["block_last_doc"].to_pylist()], dtype=np.int64)
        s, e = np.searchsorted(tb, [int(first.min()), int(last.max()) + 1])
        if s == e:
            return None
        rows = [r for r in (mutate._filter_run_row(row, tb, has_pos)
                            for row in t.to_pylist()) if r is not None]
        return pa.Table.from_pylist(rows, schema=t.schema) if rows \
            else t.schema.empty_table()

    return per_row


def time_kernels(work: str) -> dict:
    """Every timed entry, with the modules of whichever checkout is on
    sys.path."""
    import numpy as np
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from ee_outliers_ray.index.build import _merge_bucket_group

    out = {}
    for seed in SEEDS:
        runs = pq.read_table(os.path.join(work, f"index{seed}", "runs"))
        groups = [runs.filter(pc.equal(runs["bucket"], b))
                  for b in range(32)]
        out[f"merge/{seed}_ms"] = best_s(
            lambda: [_merge_bucket_group(g) for g in groups]) * 1e3
        merged = [_merge_bucket_group(g) for g in groups]
        out[f"merge/{seed}_sha1"] = _digest(merged)
        out[f"merge/{seed}_run_rows"] = runs.num_rows
        out[f"merge/{seed}_terms"] = sum(m.num_rows for m in merged)

    filt = _compact_filter()
    files = sorted(glob.glob(os.path.join(work, "index1000", "runs",
                                          "*.parquet")))
    tables = [pq.read_table(f) for f in files]
    for n in TOMBSTONES:
        tb = np.sort(np.random.default_rng(1000).choice(
            48_000, size=n, replace=False)).astype(np.int64)
        out[f"compact/{n}_s"] = best_s(lambda: [filt(t, tb) for t in tables])
        res = [filt(t, tb) for t in tables]
        out[f"compact/{n}_sha1"] = _digest(
            [t if r is None else r for t, r in zip(tables, res)])
        out[f"compact/{n}_rows_out"] = sum(
            (t if r is None else r).num_rows for t, r in zip(tables, res))
    out["compact/files"] = len(files)
    out["compact/rows_in"] = sum(t.num_rows for t in tables)
    return out


def prepare(work: str) -> None:
    """Build the perfbench index at each seed (this checkout, one CPU);
    both checkouts then read the same runs files."""
    import shutil

    import ray

    from ee_outliers_ray.index.build import build_index
    from perfbench import inputs

    ray.init(address="local", num_cpus=1, include_dashboard=False)
    try:
        for seed in SEEDS:
            pages = os.path.join(work, f"pages{seed}")
            inputs.make_corpus(pages, seed)
            build_index(pages, os.path.join(work, f"index{seed}"),
                        overwrite=True)
            shutil.rmtree(pages)
    finally:
        ray.shutdown()


def run_child(root: str, *args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=root, RAY_USAGE_STATS_ENABLED="0",
               **MALLOC_ENV)
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), *args], env=env,
        check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def run_perfbench(root: str, workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1000", "--seconds", "10", "--trace", "0"],
        cwd=root, check=True, capture_output=True, text=True).stdout
    last = json.loads(out.strip().splitlines()[-1])
    rec = {k: last["metrics"][k]["value"] for k in END_TO_END
           if k in last["metrics"]}
    rec["error_rate"] = last["failed"] / max(last["attempted"], 1)
    return rec


def main() -> None:
    # Ray reports no usage statistics over the network, here or in the
    # processes this script starts
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    if len(sys.argv) > 1 and sys.argv[1] == "--time":
        print(json.dumps(time_kernels(sys.argv[2])))
        return
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline-root", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--pairs", type=int, default=0)
    args = ap.parse_args()

    roots = {"baseline": os.path.abspath(args.baseline_root),
             "change": ROOT}
    os.makedirs(args.work, exist_ok=True)
    prepare(args.work)

    def alternate(i):
        names = list(roots)
        return names if i % 2 == 0 else names[::-1]

    load_before = loadavg()
    runs = {name: {} for name in roots}
    for rep in range(REPEATS):
        for name in alternate(rep):
            for key, v in run_child(roots[name], "--time",
                                    args.work).items():
                runs[name].setdefault(key, []).append(
                    round(v, 5) if isinstance(v, float) else v)

    pairs = []
    for i in range(args.pairs):
        for workload in WORKLOADS:
            pair = {"workload": workload, "order": alternate(i)}
            for name in pair["order"]:
                pair[name] = run_perfbench(roots[name], workload)
            pairs.append(pair)
    load_after = loadavg()

    def best(r):
        return {k: (min(v) if isinstance(v[0], float) else v[0])
                for k, v in r.items()}

    def medians(workload):
        ps = [p for p in pairs if p["workload"] == workload]
        if not ps:
            return {}
        return {name: {k: statistics.median(p[name][k] for p in ps)
                       for k in ps[0][name]} for name in roots}

    bests = {name: best(r) for name, r in runs.items()}
    record = {
        "what": "run-table kernels: the bucket merge over every bucket "
                "of the perfbench runs (seeds 1000, 31) and the "
                "compaction filter over the seed-1000 runs files "
                "(200 / 4,800 tombstones), this checkout vs baseline",
        "host": {"cpus": len(os.sched_getaffinity(0)),
                 "machine": platform.machine(),
                 "python": platform.python_version()},
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "best": bests,
        "digests_equal": all(bests["baseline"][k] == bests["change"][k]
                             for k in bests["change"]
                             if not k.endswith(("_ms", "_s"))),
        "runs": runs,
        "perfbench_trace0_medians": {w: medians(w) for w in WORKLOADS},
        "perfbench_trace0_pairs": pairs,
    }
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(json.dumps({"best": bests,
                      "digests_equal": record["digests_equal"]}))


if __name__ == "__main__":
    main()

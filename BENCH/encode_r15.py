"""The posting encoder, this checkout against another: single-run
encodes, the SPIMI batch encode, tombstone re-encodes, and the index a
build writes.

For this checkout and a baseline checkout in turn, one fresh process per
checkout and repeat (order alternating), each entry best of 5:

- single-run sweep: ``encode_postings`` on one seeded run of 100, 600,
  5,000, 200,000 and 2,000,000 postings (1, 5, 40, 1,563 and 15,625
  blocks), ms per call;
- SPIMI batch: the build's batch encoder (``_encode_terms_vectorized``,
  arguments captured from one ``spimi_encode_batch`` call) on the first
  8,192-doc batch of the perfbench corpus at seeds 1000 and 31, ms;
- tombstones: ``IndexReader._filter_tombstoned`` on the seeded 120k-term
  index of ``BENCH/term_expand_r11.py`` with 200 tombstones (the
  ``BENCH/cold_path_r14.py`` index), s per pass over the merged run of
  every term that a tombstone touches, the runs it re-encodes (the
  other terms' runs are only decoded and returned, which this encoder
  does not take part in).

Every entry keeps a hash of what it encoded, which must be equal across
checkouts.  Then each checkout builds the perfbench index at seeds 1000
and 31 (``build_index`` defaults, one CPU), and every segment row's
payload and block columns and the segment + doclens bytes are compared.
``--pairs`` adds alternating perfbench trace-0 runs of build, serve_hot
and serve_cold at seed 1000, keeping the end-to-end metrics.

    PYTHONPATH=. python BENCH/encode_r15.py --baseline-root OLD \\
        --work /tmp/encode --out BENCH/encode_r15.json [--pairs 4]

OLD is a ``git archive`` of the commit to compare against.  Without
pairs it takes about 15 minutes on 1 vCPU; each perfbench run adds about
40 s.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REPEATS = 3
BEST_OF = 5
RUN_SIZES = (100, 600, 5_000, 200_000, 2_000_000)
BATCH_SEEDS = (1000, 31)
BATCH_DOCS = 8192
SEED = 1000
N_TOMBSTONES = 200
BLOCK_COLUMNS = ("payload", "block_len", "block_offset", "block_first_doc",
                 "block_last_doc", "block_max_tf", "block_min_dl")
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "1073741824",
              "MALLOC_TRIM_THRESHOLD_": "1073741824"}
WORKLOADS = ("build", "serve_hot", "serve_cold")
END_TO_END = ("setup_s", "build_docs_per_s", "index_bytes_per_doc", "qps",
              "latency_p50_ms", "latency_p90_ms", "open_s")


def loadavg() -> list[float]:
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


def _run_digest(runs) -> str:
    import numpy as np

    h = hashlib.sha1()
    for r in runs:
        if r is None:
            h.update(b"-")
            continue
        h.update(bytes(r.payload))
        for a in (r.block_len, r.block_offset, r.block_first_doc,
                  r.block_last_doc, r.block_max_tf, r.block_min_dl):
            h.update(np.asarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()[:12]


def _table_digest(table) -> str:
    h = hashlib.sha1()
    for c in ("term", "first_doc") + BLOCK_COLUMNS:
        h.update(repr(table[c].to_pylist()).encode())
    return h.hexdigest()[:12]


def best_ms(fn, reps: int = 1) -> float:
    ts = []
    for _ in range(BEST_OF):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        ts.append((time.perf_counter() - t0) / reps)
    return min(ts) * 1e3


def time_encoders(big: str) -> dict:
    """Every timed entry, with the modules of whichever checkout is on
    sys.path."""
    import numpy as np
    import pyarrow.compute as pc

    from ee_outliers_ray.corpus import _gen_file_table
    from ee_outliers_ray.index import build
    from ee_outliers_ray.index.codec import encode_postings, merge_runs
    from ee_outliers_ray.query.reader import IndexReader
    from perfbench import inputs

    out = {}
    for n in RUN_SIZES:
        rng = np.random.default_rng(n)
        docs = np.sort(rng.choice(2 * n, size=n, replace=False))
        tfs = rng.integers(1, 6, size=n)
        dls = rng.integers(5, 500, size=n)
        reps = max(1, 20_000 // n)
        out[f"run/{n}_ms"] = best_ms(
            lambda: encode_postings(docs, tfs, dls), reps)
        out[f"run/{n}_sha1"] = _run_digest([encode_postings(docs, tfs, dls)])

    captured = []
    encode = build._encode_terms_vectorized

    def capture(*args, **kw):
        captured.append((args, kw))
        return encode(*args, **kw)

    build._encode_terms_vectorized = capture
    for seed in BATCH_SEEDS:
        table = _gen_file_table(0, inputs.N_DOCS // inputs.N_FILES, seed)
        batch = table.select(["doc_id", "html"]).slice(0, BATCH_DOCS)
        tmp = os.path.join(os.path.dirname(big), f"doclens{seed}")
        build.spimi_encode_batch(batch, doclens_dir=tmp, num_buckets=32,
                                 doc_range_size=1 << 20, from_html=True)
        shutil.rmtree(tmp, ignore_errors=True)
        args, kw = captured.pop()
        out[f"batch/{seed}_ms"] = best_ms(lambda: encode(*args, **kw))
        res = encode(*args, **kw)
        out[f"batch/{seed}_sha1"] = _table_digest(res)
        out[f"batch/{seed}_postings"] = pc.sum(res["df"]).as_py()
        out[f"batch/{seed}_terms"] = res.num_rows
        out[f"batch/{seed}_blocks"] = pc.sum(
            pc.list_value_length(res["block_len"])).as_py()
    build._encode_terms_vectorized = encode

    r = IndexReader(big)
    terms = r.directory.dictionary()[0].to_pylist()
    raw = [merge_runs([run for run, _ in r._segment_rows(t)]) for t in terms]
    touched = [run for run in raw if r._filter_tombstoned(run) is not run]
    out["tombstones/pass_s"] = best_ms(
        lambda: [r._filter_tombstoned(run) for run in touched]) / 1e3
    out["tombstones/terms"] = len(terms)
    out["tombstones/touched"] = len(touched)
    out["tombstones/sha1"] = _run_digest(
        [r._filter_tombstoned(run) for run in touched])
    return out


def build_child(pages: str, index: str) -> dict:
    import ray

    from ee_outliers_ray.index.build import build_index

    ray.init(address="local", num_cpus=1, include_dashboard=False)
    try:
        build_index(pages, index, overwrite=True)
    finally:
        ray.shutdown()
    return {"index": index}


def segment_rows(index: str) -> dict:
    """Segment file (relative path) -> digest of its rows' term,
    first_doc, payload and block columns."""
    import pyarrow.parquet as pq

    seg = os.path.join(index, "segments")
    return {os.path.relpath(p, seg): _table_digest(pq.read_table(p))
            for p in sorted(glob.glob(os.path.join(seg, "**", "*.parquet"),
                                      recursive=True))}


def index_bytes(index: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for sub in ("segments", "doclens")
               for d, _, fs in os.walk(os.path.join(index, sub)) for f in fs)


def prepare(work: str) -> str:
    import numpy as np
    import ray

    from ee_outliers_ray.index.build import build_index
    from ee_outliers_ray.index.mutate import delete_from_index

    sys.path.insert(0, HERE)
    from term_expand_r11 import BIG_BUCKETS, BIG_DOCS, big_corpus

    big = os.path.join(work, "big")
    big_pages = os.path.join(work, "big_pages")
    ray.init(address="local", num_cpus=1, include_dashboard=False)
    try:
        big_corpus(big_pages)
        build_index(big_pages, big, num_buckets=BIG_BUCKETS,
                    from_html=False, overwrite=True)
    finally:
        ray.shutdown()
    shutil.rmtree(big_pages)
    rng = np.random.default_rng(SEED)
    delete_from_index(big, np.sort(rng.choice(
        BIG_DOCS, size=N_TOMBSTONES, replace=False)).astype(np.int64))
    return big


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
         "--seed", str(SEED), "--seconds", "10", "--trace", "0"],
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
        print(json.dumps(time_encoders(sys.argv[2])))
        return
    if len(sys.argv) > 1 and sys.argv[1] == "--build":
        print(json.dumps(build_child(sys.argv[2], sys.argv[3])))
        return
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline-root", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--pairs", type=int, default=0)
    args = ap.parse_args()

    roots = {"baseline": os.path.abspath(args.baseline_root),
             "change": ROOT}
    big = prepare(args.work)

    def alternate(i):
        names = list(roots)
        return names if i % 2 == 0 else names[::-1]

    load_before = loadavg()
    runs = {name: {} for name in roots}
    for rep in range(REPEATS):
        for name in alternate(rep):
            for key, v in run_child(roots[name], "--time", big).items():
                runs[name].setdefault(key, []).append(
                    round(v, 5) if isinstance(v, float) else v)

    from perfbench import inputs

    identity = {}
    for seed in BATCH_SEEDS:
        pages = os.path.join(args.work, f"pages{seed}")
        inputs.make_corpus(pages, seed)
        built = {}
        for name in roots:
            index = os.path.join(args.work, f"index{seed}_{name}")
            run_child(roots[name], "--build", pages, index)
            built[name] = {"rows": segment_rows(index),
                           "bytes": index_bytes(index)}
            shutil.rmtree(index)
        shutil.rmtree(pages)
        identity[str(seed)] = {
            "segment_files": len(built["change"]["rows"]),
            "segment_rows_equal": (built["change"]["rows"]
                                   == built["baseline"]["rows"]),
            "index_bytes": {n: b["bytes"] for n, b in built.items()}}

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
        "what": "posting encoder: encode_postings single runs, the SPIMI "
                "batch encoder, _filter_tombstoned under 200 tombstones "
                "and the built index, this checkout vs baseline",
        "host": {"cpus": len(os.sched_getaffinity(0)),
                 "machine": platform.machine(),
                 "python": platform.python_version()},
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "best": bests,
        "hashes_equal": all(bests["baseline"][k] == bests["change"][k]
                            for k in bests["change"] if k.endswith("sha1")),
        "runs": runs,
        "index_identity": identity,
        "perfbench_trace0_medians": {w: medians(w) for w in WORKLOADS},
        "perfbench_trace0_pairs": pairs,
    }
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(json.dumps({"best": bests, "hashes_equal": record["hashes_equal"],
                      "index_identity": identity}))


if __name__ == "__main__":
    main()

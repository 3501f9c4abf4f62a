"""Term expansion in ``IndexReader``, this checkout against another.

Builds two indexes:

- ``perfbench``: shard 0 of the perfbench seed-1000 serve_cold shards
  (the corpus of ``perfbench.inputs.make_corpus``);
- ``big``: a seeded text corpus (40k docs, 32 buckets) whose index
  holds at least 100k distinct terms.

Then, for this checkout and a baseline checkout in turn, each of 3
repeats runs one fresh process per checkout (order alternating).  For
each index and each clause — a wildcard prefix, a wildcard infix, a
regexp, fuzzy~1 and ``rarest_terms(10)`` — the process opens a fresh
``IndexReader`` and times the first call and a repeat call.  The record
keeps ms per clause (best of 3 and every run), each result's size and
hash (equal across checkouts), and ``/proc/loadavg`` before and after.

With ``--pairs N`` it then runs N perfbench trace-0 runs of each of
``build``, ``serve_hot`` and ``serve_cold`` per checkout, alternating
which goes first, and keeps every run's end-to-end metrics.

    PYTHONPATH=. python BENCH/term_expand_r11.py --baseline-root OLD \\
        --work /tmp/term_expand --out BENCH/term_expand_r11.json \\
        [--pairs 10]

OLD is a ``git archive`` of the commit to compare against.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEATS = 3
SEED = 1000
BIG_DOCS, BIG_FILES, BIG_VOCAB, BIG_BUCKETS = 40_000, 4, 120_000, 32
WORKLOADS = ("build", "serve_hot", "serve_cold")


def loadavg() -> list[float]:
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


def time_calls(index_dir: str, ops: dict) -> dict:
    """First and repeat ms of each clause on a fresh reader, with the
    reader module of whichever checkout is on sys.path."""
    from ee_outliers_ray.query.reader import IndexReader

    out = {}
    for name, (method, *args) in ops.items():
        call = getattr(IndexReader(index_dir), method)
        t0 = time.perf_counter()
        res = call(*args)
        t1 = time.perf_counter()
        call(*args)
        t2 = time.perf_counter()
        out[name] = {"first_ms": (t1 - t0) * 1e3,
                     "repeat_ms": (t2 - t1) * 1e3, "n": len(res),
                     "sha1": hashlib.sha1(
                         json.dumps(res).encode()).hexdigest()[:12]}
    return out


def big_corpus(pages: str) -> str:
    """Text pages over a seeded random vocabulary: half the tokens
    Zipf-ranked (a realistic df skew), half uniform (so nearly every
    word occurs).  Returns one vocabulary word for the fuzzy clause."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(SEED)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    words: dict[str, None] = {}
    while len(words) < BIG_VOCAB:
        n = int(rng.integers(4, 10))
        words["".join(rng.choice(letters, size=n))] = None
    vocab = np.array(list(words))
    os.makedirs(pages, exist_ok=True)
    per_file = BIG_DOCS // BIG_FILES
    for f in range(BIG_FILES):
        lens = rng.integers(30, 70, size=per_file)
        total = int(lens.sum())
        zipf = np.minimum(rng.zipf(1.2, size=total // 2), BIG_VOCAB) - 1
        uniform = rng.integers(0, BIG_VOCAB, size=total - len(zipf))
        toks = vocab[rng.permutation(np.concatenate([zipf, uniform]))]
        ends = np.cumsum(lens)
        texts = [" ".join(toks[e - n:e]) for e, n in zip(ends, lens)]
        pq.write_table(pa.table({
            "doc_id": np.arange(f * per_file, (f + 1) * per_file),
            "text": texts}), os.path.join(pages, f"part-{f}.parquet"))
    return str(vocab[BIG_VOCAB // 3])


def prepare(work: str) -> tuple[dict, dict]:
    import ray

    from ee_outliers_ray.index.build import build_index
    from ee_outliers_ray.query.sharded import build_sharded_index
    from perfbench import inputs
    from perfbench.workloads import N_SHARDS

    ray.init(address="local", num_cpus=1, include_dashboard=False)
    try:
        pages = os.path.join(work, "pages")
        inputs.make_corpus(pages, SEED)
        shard = build_sharded_index(pages, os.path.join(work, "shards"),
                                    N_SHARDS, overwrite=True)[0]
        big_pages = os.path.join(work, "big_pages")
        fuzzy_word = big_corpus(big_pages)
        big = os.path.join(work, "big")
        build_index(big_pages, big, num_buckets=BIG_BUCKETS,
                    from_html=False, overwrite=True)
    finally:
        ray.shutdown()
    dirs = {"perfbench": shard, "big": big}
    ops = {
        "perfbench": {"wildcard_prefix": ["terms_matching", "w01*"],
                      "wildcard_infix": ["terms_matching", "*427*"],
                      "regexp": ["terms_regex", "w1[0-9]*5"],
                      "fuzzy1": ["terms_fuzzy", "w0042", 1],
                      "rarest": ["rarest_terms", 10]},
        "big": {"wildcard_prefix": ["terms_matching", "qu*"],
                "wildcard_infix": ["terms_matching", "*qux*"],
                "regexp": ["terms_regex", "qu[a-z]*e"],
                "fuzzy1": ["terms_fuzzy", fuzzy_word, 1],
                "rarest": ["rarest_terms", 10]},
    }
    return dirs, ops


def run_timer(root: str, spec_file: str) -> dict:
    env = dict(os.environ, PYTHONPATH=root)
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--time-calls",
         spec_file], env=env, check=True, capture_output=True,
        text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def run_perfbench(root: str, workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "10", "--trace", "0"],
        cwd=root, check=True, capture_output=True, text=True).stdout
    last = json.loads(out.strip().splitlines()[-1])
    rec = {k: m["value"] for k, m in last["metrics"].items()}
    rec["error_rate"] = last["failed"] / max(last["attempted"], 1)
    rec["loadavg_after"] = loadavg()
    return rec


def main() -> None:
    if len(sys.argv) > 1 and sys.argv[1] == "--time-calls":
        with open(sys.argv[2]) as f:
            spec = json.load(f)
        print(json.dumps({name: time_calls(d, spec["ops"][name])
                          for name, d in spec["dirs"].items()}))
        return
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline-root", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--pairs", type=int, default=0)
    args = ap.parse_args()

    roots = {"baseline": os.path.abspath(args.baseline_root),
             "change": ROOT}
    dirs, ops = prepare(args.work)
    spec_file = os.path.join(args.work, "spec.json")
    with open(spec_file, "w") as f:
        json.dump({"dirs": dirs, "ops": ops}, f)

    def alternate(i):
        names = list(roots)
        return names if i % 2 == 0 else names[::-1]

    load_before = loadavg()
    runs = {name: [] for name in roots}
    for rep in range(REPEATS):
        for name in alternate(rep):
            runs[name].append(run_timer(roots[name], spec_file))
    best = {name: {idx: {op: {
        "first_ms": round(min(r[idx][op]["first_ms"] for r in rs), 3),
        "repeat_ms": round(min(r[idx][op]["repeat_ms"] for r in rs), 3),
        "n": rs[0][idx][op]["n"], "sha1": rs[0][idx][op]["sha1"]}
        for op in ops[idx]} for idx in dirs} for name, rs in runs.items()}
    pairs = []
    for i in range(args.pairs):
        for workload in WORKLOADS:
            pair = {"workload": workload, "order": alternate(i)}
            for name in pair["order"]:
                pair[name] = run_perfbench(roots[name], workload)
            pairs.append(pair)
    load_after = loadavg()

    from ee_outliers_ray.query.reader import IndexReader

    record = {
        "what": "IndexReader term expansion and rarest_terms, ms per "
                "clause, first and repeat call, this checkout vs baseline",
        "indexes": {
            "perfbench": {"corpus": "perfbench.inputs.make_corpus",
                          "seed": SEED, "shard": 0},
            "big": {"corpus": "seeded random-word text (big_corpus)",
                    "seed": SEED, "docs": BIG_DOCS,
                    "buckets": BIG_BUCKETS}},
        "terms": {name: len(IndexReader(d).directory.dictionary()[0])
                  for name, d in dirs.items()},
        "ops": ops,
        "host": {"cpus": len(os.sched_getaffinity(0)),
                 "machine": platform.machine(),
                 "python": platform.python_version()},
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "best_of_3": best,
        "results_identical": all(
            best["baseline"][i][o]["sha1"] == best["change"][i][o]["sha1"]
            for i in dirs for o in ops[i]),
        "runs": runs,
        "perfbench_trace0_pairs": pairs,
    }
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(json.dumps(best))


if __name__ == "__main__":
    main()

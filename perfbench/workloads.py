"""The benchmark's three workloads and the metrics they report.

``build``
    Set-up generates the seeded corpus.  Each operation is one
    ``index.build.build_index(..., overwrite=True)`` over it: extract,
    tokenize, SPIMI encode, runs write, per-bucket merge and stats.  After
    each build, untraced, BUILD_OPENS fresh ``IndexReader`` +
    ``TaatSearcher`` pairs each answer one seeded check query and the last
    answers the rest: that time-to-searchable leg gives the workload's
    ``open_s`` (reader open to first answer), ``qps`` and ``latency_*``,
    and checks the build's output against the oracle.
``serve_hot``
    Set-up builds one index, starts a one-actor ``query_pool`` (TAAT,
    ``result_cache=False``) and warms the weight vector of every term the
    stream can send.  Each operation is one query of a seeded stream of
    hot pairs, ``the <mid term>`` and 4-5-term mixes, sent through
    ``service.run_queries``.  Segment read and decode do no work here.
``serve_cold``
    Set-up builds two doc-range shards.  The run opens a fresh
    ``ShardedQueryService`` and sends one query per distinct corpus term
    in a seeded order (another fresh service if the list runs out), so
    every term is read, decoded, weighed and fanned out for df exactly
    once and no cache ever hits.

Load is one client thread in a closed loop: the next request is sent
when the previous reply has arrived.

End-to-end metrics (untraced runs):
    setup_s              median of N_SETUPS program set-ups (corpus
                         generation, index build, service start and warm-up
                         where the workload has them; never the oracle)
    build_docs_per_s     docs / median build wall (set-up builds on serve_*)
    index_bytes_per_doc  (segments + doclens bytes) / docs
    qps                  requests / summed request time of the one client
    latency_p50_ms       median request latency
    latency_p90_ms       90th percentile of request latency, ten requests
                         beyond it in each window
    (these three are taken per window of WINDOW consecutive requests and
    reported as the median over the run's windows, so a burst of load
    from outside the benchmark moves them only if it lasts half the run;
    the request and window counts are printed)
    open_s               median time from opening the serving object to
                         its first answer
Failures (wrong or raising operations) are ``failed`` out of
``attempted``; their ratio is printed as ``error_rate``.

Per-layer metrics (traced runs) are in LAYER_METRICS, each with the
end-to-end metric it should move and the workload where it should.
``*.s`` metrics are self seconds per operation (a build, or a query):
the span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict

from . import inputs, trace
from .inputs import K
from .oracle import Oracle, matches

N_SETUPS = 3
WARM_UP_DOCS = 2000
# requests per latency window: the 90th percentile of a window has ten
# requests beyond it
WINDOW = 100
N_SHARDS = 2
COLD_ORACLE_SAMPLE = 200
HOT_ORACLE_SAMPLE = 24
# after each build: BUILD_OPENS fresh readers each answer one query, the
# last one then answers the rest of the check queries
BUILD_OPENS = 4
BUILD_CHECK_COLD = 192
BUILD_CHECK_HOT = 8
HOT_STREAM = 200_000

WORKLOADS = ("build", "serve_hot", "serve_cold")

END_TO_END_UNITS = {"setup_s": "s", "build_docs_per_s": "1/s",
                    "index_bytes_per_doc": "B", "qps": "1/s",
                    "latency_p50_ms": "ms", "latency_p90_ms": "ms",
                    "open_s": "s"}

# (name, unit, better, end-to-end metric it should move, workload)
LAYER_METRICS = [
    ("tokenizer.tokenize_html_column.s", "s", "lower",
     "build_docs_per_s", "build"),
    ("index.build.spimi_encode_batch.s", "s", "lower",
     "build_docs_per_s", "build"),
    ("index.build.runs_stage_s", "s", "lower", "build_docs_per_s", "build"),
    ("index.build.merge_stage_s", "s", "lower", "build_docs_per_s", "build"),
    ("index.build.stats_stage_s", "s", "lower", "build_docs_per_s", "build"),
    ("index.build.merge_tasks", "count", "lower", "build_docs_per_s",
     "build"),
    ("index.build.merge_busy_share", "ratio", "higher", "build_docs_per_s",
     "build"),
    ("index.build.bytes_written_per_input_byte", "ratio", "lower",
     "index_bytes_per_doc", "build"),
    ("index.build.postings", "count", "lower", "index_bytes_per_doc",
     "build"),
    ("index.build.terms", "count", "lower", "index_bytes_per_doc", "build"),
    ("index.codec.decode_run.s", "s", "lower", "qps", "serve_cold"),
    ("index.codec.postings_decoded", "count", "lower", "qps", "serve_cold"),
    ("query.reader.open_s", "s", "lower", "open_s", "serve_cold"),
    ("query.reader.postings.s", "s", "lower", "qps", "serve_cold"),
    ("query.reader.postings.misses", "count", "lower", "qps", "serve_cold"),
    ("query.reader.decoded_hit_ratio", "ratio", "higher", "qps",
     "serve_cold"),
    # hot serving reuses cached weight vectors, so only cold pays for them
    ("query.bm25.term_weight.s", "s", "lower", "qps", "serve_cold"),
    ("query.bm25.topk_from_scores.s", "s", "lower", "qps", "serve_hot"),
    ("query.bm25.candidates_per_result", "ratio", "lower", "qps",
     "serve_hot"),
    ("query.engine.topk.s", "s", "lower", "qps", "serve_hot"),
    ("query.engine.postings_scored_per_query", "count", "lower", "qps",
     "serve_hot"),
    ("query.service.rpc_overhead_ms", "ms", "lower", "latency_p50_ms",
     "serve_hot"),
    ("query.sharded.local_df.s", "s", "lower", "latency_p50_ms",
     "serve_cold"),
    ("query.sharded.shard_topk.s", "s", "lower", "latency_p50_ms",
     "serve_cold"),
    ("query.sharded.rounds_per_query", "count", "lower", "latency_p50_ms",
     "serve_cold"),
    ("trace.overhead_share", "ratio", "lower", "-", "all"),
    ("trace.spans_per_op", "count", "lower", "-", "all"),
]


def now() -> float:
    return time.perf_counter()


class Phase:
    """What one measured phase (untraced or traced) recorded."""

    def __init__(self, seconds: float, live: bool):
        self.seconds, self.live = seconds, live
        self.ops = 0
        self.latencies: list[float] = []
        self.client: list[tuple[float, float]] = []
        self.opens: list[float] = []
        self.builds: list[float] = []
        self.manifests: list[dict] = []


class Bench:
    """One workload in one Ray session: set-up, phases, checks."""

    def __init__(self, workload: str, seed: int, work: str,
                 trace_dir: str | None = None):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload, self.seed, self.work = workload, seed, work
        self.trace_dir = trace_dir
        self.attempted = self.failed = 0
        self.setup_s: list[float] = []
        self.setup_builds: list[float] = []
        self.setup_opens: list[float] = []
        self.truth: dict[str, list] = {}
        self.oracle: Oracle | None = None
        self.pool: list = []
        self.cursor = 0
        # the build workload's index; serve set-ups replace it with theirs
        self.index_dirs = [os.path.join(work, "index")]

    # --- set-up -----------------------------------------------------------

    def setup(self) -> None:
        self._warm_up()
        for i in range(N_SETUPS):
            self._teardown_service()
            shutil.rmtree(os.path.join(self.work, f"setup{i - 1}"),
                          ignore_errors=True)
            self.setup_s.append(self._setup_once(i))

    def _warm_up(self) -> None:
        """Build a tiny index, untimed: a Ray session's first corpus and
        Ray Data jobs start the executor and import the engine in the
        workers, a cost paid once per session, not per set-up."""
        from ee_outliers_ray.corpus import generate_pages
        from ee_outliers_ray.index.build import build_index

        d = os.path.join(self.work, "warm_up")
        generate_pages(os.path.join(d, "pages"), total_rows=WARM_UP_DOCS,
                       num_files=inputs.N_FILES, seed=self.seed)
        build_index(os.path.join(d, "pages"), os.path.join(d, "index"))
        shutil.rmtree(d)

    def _setup_once(self, i: int) -> float:
        d = os.path.join(self.work, f"setup{i}")
        shutil.rmtree(d, ignore_errors=True)
        self.pages = os.path.join(d, "pages")
        t0 = now()
        inputs.make_corpus(self.pages, self.seed)
        spent = now() - t0
        if i == 0:
            self._prepare_inputs()
        t0 = now()
        if self.workload == "serve_hot":
            from ee_outliers_ray.index.build import build_index
            from ee_outliers_ray.query.service import query_pool, run_queries

            self.index_dirs = [os.path.join(d, "index")]
            build_index(self.pages, self.index_dirs[0], overwrite=True)
            self.setup_builds.append(now() - t0)
            t1 = now()
            self.pool = query_pool(self.index_dirs[0], 1, result_cache=False)
            run_queries(self.pool, [self.stream[0]], k=K, chunk=1)
            self.setup_opens.append(now() - t1)
            run_queries(self.pool, [self.warm_query], k=K, chunk=1)
        elif self.workload == "serve_cold":
            from ee_outliers_ray.query.sharded import build_sharded_index

            self.index_dirs = build_sharded_index(
                self.pages, os.path.join(d, "shards"), N_SHARDS,
                overwrite=True)
            self.setup_builds.append(now() - t0)
        return spent + now() - t0

    def _prepare_inputs(self) -> None:
        """Oracle and query lists, from the first set-up's corpus (every
        set-up generates the same corpus from the same seed)."""
        self.oracle = Oracle(self.pages, os.path.join(self.work, "duckdb"))
        vocab = self.oracle.vocabulary()
        rng = inputs.rng_for(self.seed, self.workload)
        if self.workload == "serve_hot":
            pool = inputs.hot_pool(vocab, rng)
            self.stream = inputs.hot_stream(pool, HOT_STREAM, rng)
            # one query over every term the stream can send
            self.warm_query = " ".join(sorted({t for q in pool
                                               for t in q.split()}))
            sample = [pool[i] for i in sorted(rng.choice(
                len(pool), size=HOT_ORACLE_SAMPLE, replace=False))]
        elif self.workload == "serve_cold":
            self.queries = inputs.cold_list(vocab, rng)
            idx = rng.choice(len(self.queries), size=COLD_ORACLE_SAMPLE,
                             replace=False)
            sample = [self.queries[i] for i in sorted(idx)]
        else:
            self.queries = (inputs.hot_pool(vocab, rng)[:BUILD_CHECK_HOT]
                            + inputs.cold_list(vocab, rng)[:BUILD_CHECK_COLD])
            sample = self.queries
        self.truth = self.oracle.topk(sample, K)

    # --- measurement ------------------------------------------------------

    def measure(self, phase: Phase) -> None:
        if self.trace_dir:
            trace.set_live(self.trace_dir, phase.live)
        try:
            {"build": self._measure_build,
             "serve_hot": self._measure_hot,
             "serve_cold": self._measure_cold}[self.workload](phase)
        finally:
            if self.trace_dir:
                trace.set_live(self.trace_dir, False)

    def _query(self, phase: Phase, fn, q: str) -> None:
        self.attempted += 1
        t0 = now()
        try:
            res = fn(q)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return
        t1 = now()
        phase.latencies.append(t1 - t0)
        phase.client.append((t0, t1))
        self._check(q, res)

    def _check(self, q: str, res) -> None:
        if q in self.truth and not matches(res, self.truth[q], K):
            print(f"wrong result for {q!r}", file=sys.stderr)
            self.failed += 1

    def _measure_hot(self, phase: Phase) -> None:
        from ee_outliers_ray.query.service import run_queries

        def send(q):
            return run_queries(self.pool, [q], k=K, chunk=1)[0]

        end = now() + phase.seconds
        while now() < end:
            q = self.stream[self.cursor % len(self.stream)]
            self.cursor += 1
            phase.ops += 1
            self._query(phase, send, q)

    def _measure_cold(self, phase: Phase) -> None:
        import ray
        from ee_outliers_ray.query.sharded import ShardedQueryService

        # one fresh service per pass over the list: a pass ends at the
        # end of the list or of the phase, so no term is ever asked twice
        # of the same service
        end = now() + phase.seconds
        while now() < end:
            t0 = now()
            svc = ShardedQueryService(self.index_dirs)
            try:
                q = self._next_cold()
                self.attempted += 1
                phase.ops += 1
                self._check(q, svc.topk(q, K))
                phase.opens.append(now() - t0)
                while now() < end and self.cursor != 0:
                    phase.ops += 1
                    self._query(phase, lambda q: svc.topk(q, K),
                                self._next_cold())
            finally:
                for a in svc.actors:
                    ray.kill(a)

    def _next_cold(self) -> str:
        q = self.queries[self.cursor]
        self.cursor = (self.cursor + 1) % len(self.queries)
        return q

    def _measure_build(self, phase: Phase) -> None:
        from ee_outliers_ray.index.build import build_index
        from ee_outliers_ray.query.engine import TaatSearcher
        from ee_outliers_ray.query.reader import IndexReader

        index = self.index_dirs[0]
        end = now() + phase.seconds
        while True:
            self.attempted += 1
            phase.ops += 1
            t0 = now()
            try:
                stats = build_index(self.pages, index, overwrite=True)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                self.failed += 1
                if now() >= end:
                    break
                continue
            phase.builds.append(now() - t0)
            phase.manifests.append(build_manifest(index, self.pages))
            if (stats["n_docs"], stats["total_len"]) != \
                    (self.oracle.n_docs, self.oracle.total_len):
                print("wrong corpus stats", file=sys.stderr)
                self.failed += 1
            # time-to-searchable leg: never traced, so the per-layer
            # query metrics of this workload stay those of the build
            if self.trace_dir:
                trace.set_live(self.trace_dir, False)
            for q in self.queries[:BUILD_OPENS]:
                t0 = now()
                searcher = TaatSearcher(IndexReader(index))
                self.attempted += 1
                self._check(q, searcher.topk(q, K))
                phase.opens.append(now() - t0)
            for q in self.queries[BUILD_OPENS:]:
                self._query(phase, lambda q: searcher.topk(q, K), q)
            if self.trace_dir:
                trace.set_live(self.trace_dir, phase.live)
            if now() >= end:
                break

    def close(self) -> None:
        self._teardown_service()
        if self.oracle is not None:
            self.oracle.close()

    def _teardown_service(self) -> None:
        import ray

        for a in self.pool:
            ray.kill(a)
        self.pool = []

    # --- metrics ----------------------------------------------------------

    def end_to_end(self, phase: Phase) -> tuple[dict, dict]:
        builds = phase.builds or self.setup_builds
        opens = phase.opens or self.setup_opens
        windows = latency_windows(phase.latencies)
        docs = inputs.N_DOCS
        values = {
            "setup_s": statistics.median(self.setup_s),
            "build_docs_per_s": docs / statistics.median(builds),
            "index_bytes_per_doc": index_bytes(self.index_dirs) / docs,
            "qps": statistics.median(len(w) / sum(w) for w in windows),
            "latency_p50_ms": 1e3 * statistics.median(
                statistics.median(w) for w in windows),
            "latency_p90_ms": 1e3 * statistics.median(
                nearest_rank(w, 0.9) for w in windows),
            "open_s": statistics.median(opens),
        }
        detail = {"requests": len(phase.latencies),
                  "latency_windows": len(windows), "build_s": builds,
                  "open_s": opens}
        return ({k: {"value": v, "unit": END_TO_END_UNITS[k]}
                 for k, v in values.items()}, detail)

    def per_layer(self, untraced: Phase, traced: Phase
                  ) -> tuple[dict, dict]:
        """Per-layer metrics of the traced phase, and the base of every
        ratio among them."""
        values, bases = layer_values(trace.load_spans(self.trace_dir),
                                     traced, K)
        if self.workload == "build":
            base, with_trace = untraced.builds, traced.builds
        else:
            base, with_trace = untraced.latencies, traced.latencies
        untraced_median = statistics.median(base)
        values["trace.overhead_share"] = \
            statistics.median(with_trace) / untraced_median - 1.0
        bases["trace.overhead_share"] = \
            f"untraced median operation {untraced_median:.6f} s"
        units = {name: unit for name, unit, *_ in LAYER_METRICS}
        return ({k: {"value": values[k], "unit": units[k]} for k in units},
                bases)


def latency_windows(latencies: list[float]) -> list[list[float]]:
    """Consecutive windows of WINDOW requests (one window when there
    are fewer); a trailing partial window is dropped."""
    if not latencies:
        raise ValueError("no requests completed")
    n = max(1, len(latencies) // WINDOW)
    size = WINDOW if len(latencies) >= WINDOW else len(latencies)
    return [latencies[i * size:(i + 1) * size] for i in range(n)]


def nearest_rank(samples: list[float], q: float) -> float:
    """The q-quantile by nearest rank: at q = 0.9 and 100 samples, the
    90th smallest, with ten samples beyond it."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def index_bytes(index_dirs: list[str]) -> int:
    total = 0
    for d in index_dirs:
        for sub in ("segments", "doclens"):
            for root, _, files in os.walk(os.path.join(d, sub)):
                total += sum(os.path.getsize(os.path.join(root, f))
                             for f in files)
    return total


def _tree_bytes(path: str) -> int:
    if os.path.isfile(path):
        return os.path.getsize(path)
    return sum(os.path.getsize(os.path.join(r, f))
               for r, _, fs in os.walk(path) for f in fs)


def build_manifest(index_dir: str, pages_dir: str) -> dict:
    """Stage walls and counts from the manifests ``build_index`` wrote."""
    def load(name):
        with open(os.path.join(index_dir, name)) as f:
            return json.load(f)

    runs, segs, stats = (load("runs.manifest.json"),
                         load("segments.manifest.json"), load("stats.json"))
    buckets = segs["buckets"]
    return {
        "runs_stage_s": runs["wall_s"],
        "merge_stage_s": segs["wall_s"],
        "stats_stage_s": stats["wall_s_stats"],
        "merge_tasks": len(buckets),
        "merge_busy_share": sum(b["wall_s"] for b in buckets) / segs["wall_s"],
        "input_bytes": _tree_bytes(pages_dir),
        "bytes_written_per_input_byte":
            _tree_bytes(index_dir) / _tree_bytes(pages_dir),
        "postings": sum(b["n_postings"] for b in buckets),
        "terms": sum(b["n_terms"] for b in buckets),
    }


def layer_values(spans: list[dict], phase: Phase, k: int
                 ) -> tuple[dict, dict]:
    """Per-layer values of one traced phase from its spans, and the
    base (denominator) of each ratio."""
    trace.self_times(spans)
    by: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)
    ops = max(1, phase.ops)

    def self_per_op(name):
        return sum(s["self"] for s in by[name]) / ops

    def count(name):
        return sum(s["n"] for s in by[name])

    out = {}
    bases = {"per operation": f"{ops} operations"}
    for name in ("tokenizer.tokenize_html_column",
                 "index.build.spimi_encode_batch", "index.codec.decode_run",
                 "query.reader.postings", "query.bm25.term_weight",
                 "query.bm25.topk_from_scores", "query.engine.topk",
                 "query.sharded.local_df"):
        out[name + ".s"] = self_per_op(name)
    out["query.sharded.shard_topk.s"] = self_per_op("query.sharded.topk")

    for key in ("runs_stage_s", "merge_stage_s", "stats_stage_s",
                "merge_tasks", "merge_busy_share", "input_bytes",
                "bytes_written_per_input_byte", "postings", "terms"):
        vals = [m[key] for m in phase.manifests]
        out["index.build." + key] = statistics.median(vals) if vals else 0.0
    bases["index.build.merge_busy_share"] = (
        f"merge stage wall {out['index.build.merge_stage_s']:.6f} s")
    bases["index.build.bytes_written_per_input_byte"] = (
        f"{out.pop('index.build.input_bytes'):.0f} input bytes")

    out["index.codec.postings_decoded"] = \
        count("index.codec.decode_run") / ops
    opens = [s["end"] - s["start"] for s in by["query.reader.open"]]
    out["query.reader.open_s"] = statistics.median(opens) if opens else 0.0
    out["query.reader.postings.misses"] = count("query.reader.postings") / ops
    decoded = by["query.reader.postings_decoded"]
    out["query.reader.decoded_hit_ratio"] = \
        count("query.reader.postings_decoded") / len(decoded) \
        if decoded else 0.0
    bases["query.reader.decoded_hit_ratio"] = \
        f"{len(decoded)} postings_decoded calls"
    ranked = by["query.bm25.topk_from_scores"]
    results = sum(min(k, s["n"]) for s in ranked)
    out["query.bm25.candidates_per_result"] = \
        count("query.bm25.topk_from_scores") / results if results else 0.0
    bases["query.bm25.candidates_per_result"] = f"{results} results"
    out["query.engine.postings_scored_per_query"] = \
        count("query.engine.topk") / ops
    gaps = rpc_gaps(phase.client,
                    by["query.engine.topk"] + by["query.engine.local_df"])
    out["query.service.rpc_overhead_ms"] = \
        statistics.median(gaps) * 1e3 if gaps else 0.0
    bases["query.service.rpc_overhead_ms"] = f"{len(gaps)} requests"
    sharded = by["query.sharded.topk"]
    out["query.sharded.rounds_per_query"] = \
        (len(sharded) + count("query.sharded.local_df")) / ops \
        if sharded else 0.0
    out["trace.spans_per_op"] = len(spans) / ops
    return out, bases


def rpc_gaps(client: list[tuple[float, float]],
             engine_spans: list[dict]) -> list[float]:
    """Per client request that reached the engine: its latency minus
    the part of it the engine spent answering (the union of the engine
    spans inside it, on whichever actors served it)."""
    if not client or not engine_spans:
        return []
    spans = sorted((s["start"], s["end"]) for s in engine_spans)
    starts = [a for a, _ in spans]
    gaps = []
    for c0, c1 in client:
        lo = bisect.bisect_left(starts, c0)
        hi = bisect.bisect_right(starts, c1)
        inside = [(a, b) for a, b in spans[lo:hi] if b <= c1]
        if inside:
            gaps.append((c1 - c0) - trace.covered(inside, c0, c1))
    return gaps

"""Query service: Ray actors each holding an IndexReader (segments +
doclens + stats loaded once per actor), answering BM25 top-k with TAAT
(or its BMP subclass) and minimum_should_match.  One actor class serves
both layouts: a replicated pool over one index (``query_pool`` /
``run_queries``) and the doc shards of ``sharded.ShardedQueryService``,
which injects global N / avgdl through ``set_global_stats`` and global
dfs with each request.  This is the serving-path analogue of the
reference's delegation of query evaluation to the ES cluster
(/root/reference/app/helpers/es.py:110-141) — scatter queries over the
actors, each evaluates independently against shared index storage."""

from __future__ import annotations

import ray


@ray.remote
class QueryActor:
    """mode="taat": vectorized term-at-a-time scorer; mode="bmp": the
    same searcher with block-max range pruning on its dense path.  Both
    share the weight cache and result cache (``result_cache=False``
    turns the latter off in either mode) and are rank- AND
    score-identical (pytest-verified).  ``dfs`` on a request (term ->
    global df, from the sharded service) updates the searcher's df
    table before it scores.  As a shard it is asked ``stats`` once, at
    service start, and ``local_df`` only if it has tombstones."""

    def __init__(self, index_dir: str, mode: str = "taat",
                 result_cache: bool = True):
        from .engine import BlockMaxPruning, TaatSearcher
        from .reader import IndexReader

        self.reader = IndexReader(index_dir)
        self.engine = {"taat": TaatSearcher,
                       "bmp": BlockMaxPruning}[mode](self.reader)
        if not result_cache:
            self.engine.result_cache_size = 0

    def stats(self) -> dict:
        # reader.total_len is tombstone-adjusted (query/reader.py), so
        # sharded global stats stay exact under LSM deletes; segment df
        # is exact only without them
        return {"n_docs": self.reader.n_docs,
                "total_len": self.reader.total_len,
                "segments_dir": self.reader.segments_dir,
                "num_buckets": self.reader.num_buckets,
                "exact_df": self.reader.deleted is None}

    def set_global_stats(self, n_docs: int, avgdl: float) -> None:
        self.engine.set_global_stats(n_docs, avgdl, {})

    def local_df(self, terms: list[str]) -> dict[str, int]:
        return {t: self.engine.local_df(t) for t in terms}

    def topk(self, query: str, k: int = 10, dfs: dict | None = None
             ) -> list[tuple[int, float]]:
        if dfs:
            self.engine.add_dfs(dfs)
        return self.engine.topk(query, k)

    def topk_batch(self, queries: list[str], k: int = 10) -> list:
        return [self.engine.topk(q, k) for q in queries]

    def min_match(self, terms, m: int, k: int = 10,
                  dfs: dict | None = None) -> list:
        if dfs:
            self.engine.add_dfs(dfs)
        return self.engine.min_match_topk(terms, m, k)

    def min_match_batch(self, requests: list, k: int = 10) -> list:
        """Serve minimum_should_match OR queries: ``requests`` is a list
        of (terms, min_match), answered through the searcher's per-term
        weight cache in either mode."""
        return [self.engine.min_match_topk(terms, m, k)
                for terms, m in requests]


def query_pool(index_dir: str, n_actors: int, mode: str = "taat",
               result_cache: bool = True) -> list:
    return [QueryActor.remote(index_dir, mode, result_cache)
            for _ in range(n_actors)]


def run_queries(pool: list, queries: list[str], k: int = 10,
                chunk: int = 8) -> list:
    """Scatter query chunks round-robin over the pool; gather in order.

    Round-robin keeps hot queries load-balanced; each actor's request
    cache still absorbs the repeats that land on it.  (Query-hash
    affinity routing was measured WORSE: it concentrates every copy of
    a hot query on one actor, which serializes the pool whenever the
    cache is cold or disabled.)"""
    refs = []
    for i in range(0, len(queries), chunk):
        actor = pool[(i // chunk) % len(pool)]
        refs.append(actor.topk_batch.remote(queries[i:i + chunk], k))
    out = []
    for r in ray.get(refs):
        out.extend(r)
    return out

"""Doc-sharded query architecture — the 10^12-doc serving layout.

A single actor holding the whole index cannot exist at target scale;
the standard design (and the one ES used under the reference) is
document partitioning: each shard indexes a doc-id range, queries
scatter to every shard and the per-shard top-k heaps merge.  Each shard
is served by the same ``service.QueryActor`` the replicated pool uses.
Scores are directly mergeable ONLY when every shard scores with the
GLOBAL corpus statistics, so the service:

1. sums N / total_len across shard stats at startup (global avgdl);
2. resolves each query term's GLOBAL df on the driver, without an RPC,
   from a ``TermDirectory`` per shard without tombstones (the summed
   segment df column, exact there); only a shard with tombstones, where
   that column is an upper bound, is asked ``local_df`` — once per new
   term, cached in ``_df_cache``;
3. ships the resolved dfs with the query; each shard's TaatSearcher
   scores its local postings with global idf/avgdl;
4. merges per-shard top-k lists by (score desc, doc_id asc) — plain
   and min_match results alike (``_merge``).

So a request costs one RPC round when every shard is clean.  Result:
rank- and score-identical to a single index over the union
(pytest-verified), with per-shard state bounded by the shard's doc
range.  Like a reader, a service is per index version: a mutation
after it opened is not seen — open a new service.
"""

from __future__ import annotations

import os

import ray


def build_sharded_index(pages_dir: str, base_dir: str, n_shards: int,
                        **build_kw) -> list[str]:
    """Partition the corpus FILES into ``n_shards`` doc-range shards and
    build one index per shard (files are doc-contiguous by generation, so
    shards are doc-id ranges).  Returns the shard index dirs."""
    import glob as globlib

    from ..index.build import build_index

    files = sorted(globlib.glob(os.path.join(pages_dir, "*.parquet")))
    assert files, pages_dir
    shards = [files[i * len(files) // n_shards:
                    (i + 1) * len(files) // n_shards]
              for i in range(n_shards)]
    dirs = []
    for i, shard_files in enumerate(shards):
        d = os.path.join(base_dir, f"shard={i}")
        build_index(shard_files, d, **build_kw)
        dirs.append(d)
    return dirs


def _merge(shard_results: list, k: int) -> list:
    """Top ``k`` of the per-shard result lists by (score desc, doc_id
    asc); the score is each tuple's last field ((doc_id, score) and
    (doc_id, n_matched, score) alike)."""
    merged = [x for r in shard_results for x in r]
    merged.sort(key=lambda r: (-r[-1], r[0]))
    return merged[:max(k, 0)]


class ShardedQueryService:
    def __init__(self, shard_dirs: list[str]):
        from .reader import TermDirectory
        from .service import QueryActor

        self.actors = [QueryActor.remote(d) for d in shard_dirs]
        stats = ray.get([a.stats.remote() for a in self.actors])
        self.n_docs = sum(s["n_docs"] for s in stats)
        total_len = sum(s["total_len"] for s in stats)
        self.avgdl = total_len / self.n_docs if self.n_docs else 0.0
        ray.get([a.set_global_stats.remote(self.n_docs, self.avgdl)
                 for a in self.actors])
        # step 2: _df_cache holds only the RPC-resolved part of a df
        self._directories = [
            TermDirectory(s["segments_dir"], s["num_buckets"])
            for s in stats if s["exact_df"]]
        self._df_actors = [a for a, s in zip(self.actors, stats)
                           if not s["exact_df"]]
        self._df_cache: dict[str, int] = {}

    def _global_dfs(self, terms: list[str]) -> dict[str, int]:
        missing = [t for t in terms if t not in self._df_cache]
        if missing and self._df_actors:
            per_shard = ray.get(
                [a.local_df.remote(missing) for a in self._df_actors])
            for t in missing:
                self._df_cache[t] = sum(d[t] for d in per_shard)
        return {t: self._df_cache.get(t, 0)
                + sum(d.df(t) for d in self._directories) for t in terms}

    def topk(self, query: str, k: int = 10) -> list[tuple[int, float]]:
        return self.topk_many([query], k)[0]

    def min_match_topk(self, terms, min_match: int, k: int = 10
                       ) -> list[tuple[int, int, float]]:
        """Sharded minimum_should_match: docs are shard-disjoint, so
        per-shard match counts are complete per doc and per-shard
        top-k lists (scored with the injected GLOBAL stats) merge into
        the exact global top-k — identical to the single-index
        ``TaatSearcher.min_match_topk`` (pytest-pinned).  Ties
        (score desc, doc_id asc)."""
        tkey = tuple(sorted(set(terms)))
        dfs = self._global_dfs(list(tkey))
        return _merge(ray.get([a.min_match.remote(tkey, min_match, k, dfs)
                               for a in self.actors]), k)

    def topk_many(self, queries: list[str], k: int = 10
                  ) -> list[list[tuple[int, float]]]:
        """Batched serving path: resolve ALL queries' global dfs at
        once (``_global_dfs``: at most one ``local_df`` fan-out, none
        when every shard is clean), fire every (query, shard) call
        asynchronously so the shards stay saturated, gather + merge in
        submission order.  ``topk`` is this on a one-query list; a batch
        gives throughput instead of one driver round-trip per query."""
        from ..tokenizer import tokenize

        per_q_terms = [sorted(set(tokenize(q))) for q in queries]
        all_terms = sorted({t for ts in per_q_terms for t in ts})
        dfs_all = self._global_dfs(all_terms)
        refs = []
        for q, terms in zip(queries, per_q_terms):
            dfs = {t: dfs_all[t] for t in terms}
            refs.append([a.topk.remote(q, k, dfs) for a in self.actors])
        return [_merge(ray.get(rs), k) for rs in refs]

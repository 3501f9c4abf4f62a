"""Sharded (doc-partitioned) query service vs a single global index:
rank- AND score-identical (the global-stats contract)."""

import shutil

import pyarrow.parquet as pq
import pytest

from ee_outliers_ray.corpus import generate_pages
from ee_outliers_ray.index.build import build_index
from ee_outliers_ray.index.mutate import delete_from_index
from ee_outliers_ray.query.engine import TaatSearcher, taat_topk
from ee_outliers_ray.query.reader import IndexReader
from ee_outliers_ray.query.sharded import ShardedQueryService, build_sharded_index


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    pages = str(tmp_path_factory.mktemp("pages_sh"))
    generate_pages(pages, total_rows=800, num_files=4, seed=42)
    single = str(tmp_path_factory.mktemp("idx_single"))
    build_index(pages, single, num_buckets=4, batch_size=150)
    shard_base = str(tmp_path_factory.mktemp("idx_shards"))
    dirs = build_sharded_index(pages, shard_base, n_shards=3,
                               num_buckets=4, batch_size=150)
    return single, dirs


QUERIES = ["the data", "search engine crawl", "w0042 w0100", "the",
           "fast merge w0007", "absent_term", ""]
MIN_MATCH_CASES = [(("the", "data", "crawl", "w0042"), 1),
                   (("the", "data", "crawl", "w0042"), 2),
                   (("the", "data", "crawl", "w0042"), 4),
                   (("the", "data"), 2),
                   (("absent_term", "the"), 2)]


def test_sharded_identical_to_single(setup):
    single, dirs = setup
    reader = IndexReader(single)
    svc = ShardedQueryService(dirs)
    assert svc.n_docs == reader.n_docs
    assert svc.avgdl == pytest.approx(reader.avgdl)
    for q in QUERIES:
        want = taat_topk(reader, q, k=10)
        got = svc.topk(q, k=10)
        assert got == want, q  # bit-identical scores, same order


def test_bmp_shards_with_global_stats(setup):
    """BlockMaxPruning per shard, scored with injected GLOBAL N / avgdl
    / df, merges into exactly the single-index TAAT top-k: its bounds
    and weights come from the same global stats.  range_width=64 gives
    every shard several ranges, so "the" / "the data" run the range
    loop rather than the sparse union path."""
    from ee_outliers_ray.query.engine import BlockMaxPruning
    from ee_outliers_ray.tokenizer import tokenize

    single, dirs = setup
    reader = IndexReader(single)
    readers = [IndexReader(d) for d in dirs]
    n_docs = sum(r.n_docs for r in readers)
    avgdl = sum(r.total_len for r in readers) / n_docs
    terms = {t for q in QUERIES for t in tokenize(q)}
    dfs = {t: sum(r.df(t) for r in readers) for t in terms}
    shards = []
    for r in readers:
        bmp = BlockMaxPruning(r, range_width=64)
        bmp.set_global_stats(n_docs, avgdl, {})
        bmp.add_dfs(dfs)
        shards.append(bmp)
    for q in QUERIES:
        merged = [x for b in shards for x in b.topk(q, 10)]
        merged.sort(key=lambda ds_: (-ds_[1], ds_[0]))
        assert merged[:10] == taat_topk(reader, q, k=10), q


def test_global_df_cache(setup):
    """Clean shards resolve global df from their term directories: the
    dfs equal a single index's, and no ``local_df`` result is cached
    because no ``local_df`` round is made."""
    single, dirs = setup
    reader = IndexReader(single)
    svc = ShardedQueryService(dirs)
    terms = ["absent_term", "data", "the", "w0042"]
    assert svc._global_dfs(terms) == {t: reader.df(t) for t in terms}
    svc.topk("the data")
    assert svc._df_cache == {}
    assert svc.topk("the data") == svc.topk("the data")


@pytest.fixture(scope="module")
def two_shards(tmp_path_factory):
    base = tmp_path_factory.mktemp("two_shards")
    pages = str(base / "pages")
    generate_pages(pages, total_rows=400, num_files=4, seed=7)
    single = str(base / "single")
    build_index(pages, single, num_buckets=4, batch_size=100)
    dirs = build_sharded_index(pages, str(base / "shards"), n_shards=2,
                               num_buckets=4, batch_size=100)
    return single, dirs


@pytest.mark.parametrize("tombstoned", [(), (0,), (0, 1)])
def test_global_dfs_every_term(two_shards, tmp_path, tombstoned):
    """Over every term of a two-shard index, the service's global dfs
    equal the sum of the shards' ``local_df`` and a single index's df,
    with tombstones on no shard (all from term directories), on one
    (directory + RPC) and on both (all RPC).  With one shard
    tombstoned, plain and min_match results also equal the single
    tombstoned index."""
    import ray

    single = shutil.copytree(two_shards[0], tmp_path / "single")
    dirs = [shutil.copytree(d, tmp_path / f"shard{i}")
            for i, d in enumerate(two_shards[1])]
    for i in tombstoned:
        ids = pq.read_table(dirs[i] / "doclens", columns=["doc_id"])
        drop = ids["doc_id"].to_numpy()[::7]
        delete_from_index(str(single), drop)
        delete_from_index(str(dirs[i]), drop)
    dirs = [str(d) for d in dirs]
    terms = sorted({t for d in dirs for t in
                    IndexReader(d).directory.dictionary()[0].to_pylist()})
    terms.append("zzabsent")
    reader = IndexReader(str(single))
    svc = ShardedQueryService(dirs)
    local = ray.get([a.local_df.remote(terms) for a in svc.actors])
    got = svc._global_dfs(terms)
    assert got == {t: sum(d[t] for d in local) for t in terms}
    assert got == {t: reader.df(t) for t in terms}
    assert set(svc._df_cache) == (set(terms) if tombstoned else set())
    if len(tombstoned) == 1:
        for q in QUERIES:
            assert svc.topk(q, k=10) == taat_topk(reader, q, k=10), q
        searcher = TaatSearcher(reader)
        for ts, m in MIN_MATCH_CASES:
            assert svc.min_match_topk(ts, m, k=10) == \
                searcher.min_match_topk(ts, m, k=10), (ts, m)


def test_topk_many_equals_per_query(setup):
    """The batched serving path returns exactly the per-query results."""
    _, dirs = setup
    svc = ShardedQueryService(dirs)
    queries = QUERIES * 4
    batch = svc.topk_many(queries, k=10)
    for q, r in zip(queries, batch):
        assert r == svc.topk(q, k=10)


def test_query_pool_modes_identical(setup):
    """The QueryActor pool surface serves identical results in both
    engine modes (taat / bmp)."""
    import ray

    from ee_outliers_ray.query.service import query_pool, run_queries

    single, _ = setup
    want = None
    for mode in ("taat", "bmp"):
        pool = query_pool(single, n_actors=2, mode=mode)
        got = run_queries(pool, QUERIES[:-1], k=10)
        if want is None:
            want = got
        else:
            assert got == want, mode
        for a in pool:
            ray.kill(a)


def test_query_actor_min_match_batch(setup):
    """QueryActor.min_match_batch in both modes == the single-index
    ``TaatSearcher.min_match_topk``: both serve through the searcher's
    per-term weight cache."""
    import ray

    from ee_outliers_ray.query.service import query_pool

    single, _ = setup
    searcher = TaatSearcher(IndexReader(single))
    requests = [(("the", "data", "crawl", "w0042"), 1),
                (("the", "data", "crawl", "w0042"), 3),
                (("the", "data"), 2),
                (("absent_term", "the"), 2)]
    want = [searcher.min_match_topk(terms, m, k=10) for terms, m in requests]
    for mode in ("taat", "bmp"):
        (actor,) = query_pool(single, n_actors=1, mode=mode)
        got = ray.get(actor.min_match_batch.remote(requests, k=10))
        assert got == want, mode
        ray.kill(actor)


def test_sharded_min_match_identical_to_single(setup):
    """Sharded minimum_should_match == single-index min_match_topk:
    shard-disjoint docs + injected global stats -> exact merge."""
    single, dirs = setup
    searcher = TaatSearcher(IndexReader(single))
    svc = ShardedQueryService(dirs)
    for terms, m in MIN_MATCH_CASES:
        assert svc.min_match_topk(terms, m, k=10) == \
            searcher.min_match_topk(terms, m, k=10), (terms, m)


@pytest.mark.parametrize("k", [0, -1])
def test_nonpositive_k_returns_no_hits(setup, k):
    """k <= 0 is the ES ``size: 0`` request: no hits, no error, from
    TAAT (sparse and dense), BMP's range loop, min_match and the
    sharded service alike."""
    from ee_outliers_ray.query.engine import BlockMaxPruning

    single, dirs = setup
    reader = IndexReader(single)
    svc = ShardedQueryService(dirs)
    for q in ("w0042", "the data"):
        assert TaatSearcher(reader).topk(q, k) == []
        assert BlockMaxPruning(reader, range_width=64).topk(q, k) == []
        assert svc.topk(q, k) == []
    assert svc.topk_many(["the", "w0042"], k) == [[], []]
    for terms in (("the", "data"), ("w0042",)):
        assert TaatSearcher(reader).min_match_topk(terms, 1, k) == []
        assert svc.min_match_topk(terms, 1, k) == []

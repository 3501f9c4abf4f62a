"""Sharded (doc-partitioned) query service vs a single global index:
rank- AND score-identical (the global-stats contract)."""

import pytest

from ee_outliers_ray.corpus import generate_pages
from ee_outliers_ray.index.build import build_index
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
    _, dirs = setup
    svc = ShardedQueryService(dirs)
    svc.topk("the data")
    assert svc._df_cache["the"] > 0
    # cached second call returns same
    assert svc.topk("the data") == svc.topk("the data")


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
    cases = [(("the", "data", "crawl", "w0042"), 1),
             (("the", "data", "crawl", "w0042"), 2),
             (("the", "data", "crawl", "w0042"), 4),
             (("the", "data"), 2),
             (("absent_term", "the"), 2)]
    for terms, m in cases:
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

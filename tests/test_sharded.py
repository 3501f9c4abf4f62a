"""Sharded (doc-partitioned) query service vs a single global index:
rank- AND score-identical (the global-stats contract)."""

import pytest

from ee_outliers_ray.corpus import generate_pages
from ee_outliers_ray.index.build import build_index
from ee_outliers_ray.query.engine import taat_topk
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
    """QueryActor.min_match_batch in both modes == engine.min_match_topk:
    taat serves through the searcher's weight cache, bmp through the
    standalone reader path."""
    import ray

    from ee_outliers_ray.query.engine import min_match_topk
    from ee_outliers_ray.query.service import query_pool

    single, _ = setup
    reader = IndexReader(single)
    requests = [(("the", "data", "crawl", "w0042"), 1),
                (("the", "data", "crawl", "w0042"), 3),
                (("the", "data"), 2),
                (("absent_term", "the"), 2)]
    want = []
    for terms, m in requests:
        d, nm, s = min_match_topk(reader, terms, m, k=10)
        want.append(list(zip(d.tolist(), nm.tolist(), s.tolist())))
    for mode in ("taat", "bmp"):
        (actor,) = query_pool(single, n_actors=1, mode=mode)
        got = ray.get(actor.min_match_batch.remote(requests, k=10))
        assert got == want, mode
        ray.kill(actor)


def test_sharded_min_match_identical_to_single(setup):
    """Sharded minimum_should_match == single-index min_match_topk:
    shard-disjoint docs + injected global stats -> exact merge."""
    from ee_outliers_ray.query.engine import min_match_topk

    single, dirs = setup
    reader = IndexReader(single)
    svc = ShardedQueryService(dirs)
    cases = [(("the", "data", "crawl", "w0042"), 1),
             (("the", "data", "crawl", "w0042"), 2),
             (("the", "data", "crawl", "w0042"), 4),
             (("the", "data"), 2),
             (("absent_term", "the"), 2)]
    for terms, m in cases:
        d, nm, s = min_match_topk(reader, terms, m, k=10)
        want = list(zip(d.tolist(), nm.tolist(), s.tolist()))
        assert svc.min_match_topk(terms, m, k=10) == want, (terms, m)

"""LSM mutation semantics: tombstone deletes must be RANK-IDENTICAL
(same doc_ids, bit-identical BM25 scores) to an index rebuilt over the
corpus minus the deleted docs; compaction makes them physical without
changing any result; upsert replaces docs by url."""

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from ee_outliers_ray.corpus import generate_pages
from ee_outliers_ray.index.build import build_index
from ee_outliers_ray.index.mutate import (compact_index, delete_from_index,
                                          load_tombstones, upsert_to_index)
from ee_outliers_ray.query.engine import BlockMaxPruning, taat_topk
from ee_outliers_ray.query.reader import IndexReader

QUERIES = ["the data", "w0042", "search engine crawl", "fast merge",
           "absentterm7", "the"]


def _filtered_pages(src_dir: str, dst_dir: str, drop_ids: np.ndarray) -> None:
    os.makedirs(dst_dir)
    drop = pa.array(np.asarray(drop_ids, dtype=np.int64))
    for f in sorted(glob.glob(os.path.join(src_dir, "*.parquet"))):
        t = pq.read_table(f)
        keep = pc.invert(pc.is_in(t["doc_id"], value_set=drop))
        pq.write_table(t.filter(keep), os.path.join(dst_dir,
                                                    os.path.basename(f)))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("pages") / "all")
    generate_pages(d, total_rows=600, num_files=3, seed=42)
    return d


def test_delete_rank_identical_to_rebuild(corpus, tmp_path):
    idx = str(tmp_path / "idx")
    build_index(corpus, idx, num_buckets=4, batch_size=100)
    drop = np.arange(2, 600, 5, dtype=np.int64)  # doc_id % 5 == 2
    info = delete_from_index(idx, drop)
    assert info["n_new_tombstones"] == len(drop)

    filt_dir = str(tmp_path / "filtered")
    _filtered_pages(corpus, filt_dir, drop)
    ref_idx = str(tmp_path / "ref")
    build_index(filt_dir, ref_idx, num_buckets=4, batch_size=100)

    r_del, r_ref = IndexReader(idx), IndexReader(ref_idx)
    assert r_del.n_docs == r_ref.n_docs == 600 - len(drop)
    assert r_del.total_len == r_ref.total_len
    assert r_del.avgdl == r_ref.avgdl  # bit-identical, not approx
    for q in QUERIES:
        want = taat_topk(r_ref, q, 10)
        assert taat_topk(r_del, q, 10) == want, q
        assert BlockMaxPruning(r_del, range_width=128).topk(q, 10) == want, q
    # df adjusts to the filtered postings count
    assert r_del.df("the") == r_ref.df("the")
    # no surviving result may name a deleted doc
    hits = {d for q in QUERIES for d, _ in taat_topk(r_del, q, 100)}
    assert not hits & set(drop.tolist())


def test_delete_batches_union_and_missing_ids(corpus, tmp_path):
    idx = str(tmp_path / "idx")
    build_index(corpus, idx, num_buckets=4, batch_size=100)
    delete_from_index(idx, [1, 2, 3])
    delete_from_index(idx, [3, 4, 10_000_000])  # overlap + nonexistent id
    assert load_tombstones(idx).tolist() == [1, 2, 3, 4, 10_000_000]
    r = IndexReader(idx)
    assert r.n_docs == 600 - 4  # the phantom id doesn't shift stats
    assert delete_from_index(idx, [])["n_new_tombstones"] == 0


def test_compaction_preserves_results_and_drops_tombstones(corpus, tmp_path):
    idx = str(tmp_path / "idx")
    build_index(corpus, idx, num_buckets=4, batch_size=100)
    drop = np.arange(0, 600, 7, dtype=np.int64)
    delete_from_index(idx, drop)
    before = {q: taat_topk(IndexReader(idx), q, 10) for q in QUERIES}

    info = compact_index(idx)
    assert info["n_compacted"] == len(drop)
    assert info["n_docs_removed"] == len(drop)
    assert not os.path.exists(os.path.join(idx, "tombstones"))

    r = IndexReader(idx)
    assert r.deleted is None  # physical now, no read-time filtering
    assert r.n_docs == 600 - len(drop)
    for q in QUERIES:
        assert taat_topk(r, q, 10) == before[q], q
        assert BlockMaxPruning(r, range_width=64).topk(q, 10) == before[q], q
    # compaction is idempotent
    assert compact_index(idx)["n_compacted"] == 0


@pytest.mark.parametrize("positional", [False, True])
def test_compaction_postings_equal_filtered_reader(corpus, tmp_path,
                                                   positional):
    """Term by term, the postings (and positions) after compaction equal
    what the tombstone-filtered reader served before it; a term whose
    every posting is deleted vanishes from the runs."""
    from ee_outliers_ray.index.codec import decode_run

    idx = str(tmp_path / "idx")
    build_index(corpus, idx, num_buckets=4, batch_size=100,
                store_positions=positional)
    r0 = IndexReader(idx)
    gone = r0.rarest_terms(1)[0][0]
    drop = np.union1d(np.arange(0, 600, 7),
                      decode_run(r0.postings(gone))[0])
    delete_from_index(idx, drop)
    r1 = IndexReader(idx)
    terms = r1.directory.dictionary()[0].to_pylist()
    assert gone in terms

    def served(r):
        out = {}
        for t in terms:
            run = r.postings(t)
            if run is None:
                continue
            out[t] = [a.tolist() for a in decode_run(run)]
            if positional:
                out[t].append(r.positions(t)[2].tolist())
        return out

    before = served(r1)
    assert gone not in before
    compact_index(idx)
    r2 = IndexReader(idx)
    assert r2.deleted is None
    assert served(r2) == before
    runs = pq.read_table(os.path.join(idx, "runs"), columns=["term"])
    assert gone not in set(runs["term"].to_pylist())


def test_delete_filters_positions(tmp_path):
    src = str(tmp_path / "src.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(6), type=pa.int64()),
        "text": ["alpha beta gamma", "beta alpha", "gamma alpha beta",
                 "alpha beta", "solo here", "beta gamma alpha beta"]}), src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, from_html=False, num_buckets=2, batch_size=4,
                store_positions=True)
    delete_from_index(idx, [0, 5])
    r = IndexReader(idx)
    d, t, flat = r.positions("beta")
    assert d.tolist() == [1, 2, 3]
    assert t.tolist() == [1, 1, 1]
    assert flat.tolist() == [0, 2, 1]  # per-doc offsets of 'beta'
    # compaction of a positional index keeps the filtered positions
    compact_index(idx)
    r2 = IndexReader(idx)
    d2, t2, flat2 = r2.positions("beta")
    assert (d2.tolist(), t2.tolist(), flat2.tolist()) == \
        (d.tolist(), t.tolist(), flat.tolist())


def test_upsert_replaces_by_url(corpus, tmp_path):
    idx = str(tmp_path / "idx")
    build_index(corpus, idx, num_buckets=4, batch_size=100)
    # new versions of 5 existing urls (fresh doc_ids) + 2 brand-new urls
    old = pq.read_table(corpus, columns=["doc_id", "url"])
    replaced_urls = [old["url"][i].as_py() for i in (3, 50, 100, 200, 599)]
    replaced_ids = [old["doc_id"][i].as_py() for i in (3, 50, 100, 200, 599)]
    new_rows = pa.table({
        "doc_id": pa.array(range(600, 607), type=pa.int64()),
        "url": pa.array(replaced_urls + ["https://new.example/a",
                                         "https://new.example/b"]),
        "warc_ts": pa.array([0] * 7, type=pa.timestamp("us")),
        "html": pa.array([b"<html><body><p>replacement text zqx</p></body>"
                          b"</html>"] * 7, type=pa.binary()),
    })
    new_file = str(tmp_path / "new.parquet")
    pq.write_table(new_rows, new_file)
    info = upsert_to_index([new_file], idx)
    assert info["n_replaced"] == 5

    r = IndexReader(idx)
    assert r.n_docs == 600 - 5 + 7
    # old versions are gone, new ones findable
    hits = {d for d, _ in taat_topk(r, "zqx", 20)}
    assert hits == set(range(600, 607))
    for q in QUERIES:
        assert not {d for d, _ in taat_topk(r, q, 200)} & set(replaced_ids)


def test_sharded_service_under_deletes(tmp_path):
    """Tombstones in shard indexes must keep the sharded service
    score-identical to a single tombstoned index: shard-local df filters
    propagate through the global-df fan-out, and the adjusted
    total_len/n_docs feed the global avgdl."""
    from ee_outliers_ray.query.sharded import (ShardedQueryService,
                                               build_sharded_index)

    pages = str(tmp_path / "pages")
    generate_pages(pages, total_rows=400, num_files=4, seed=42)
    single = str(tmp_path / "single")
    build_index(pages, single, num_buckets=4, batch_size=100)
    dirs = build_sharded_index(pages, str(tmp_path / "shards"), n_shards=2,
                               num_buckets=4, batch_size=100)
    drop = np.arange(0, 400, 9, dtype=np.int64)
    delete_from_index(single, drop)
    for d in dirs:  # same tombstone set in every shard: ids outside a
        delete_from_index(d, drop)  # shard's range simply don't match
    reader = IndexReader(single)
    svc = ShardedQueryService(dirs)
    assert svc.n_docs == reader.n_docs
    assert svc.avgdl == reader.avgdl
    for q in ["the data", "w0042", "the", "fast merge w0007"]:
        assert svc.topk(q, k=10) == taat_topk(reader, q, k=10), q


def test_wildcard_and_fuzzy_respect_tombstones(corpus, tmp_path):
    """Dictionary-expanded clauses (wildcard/fuzzy) must see the same
    tombstone-filtered postings as plain terms: after a delete, the
    expanded union equals the same query against a rebuilt index."""
    idx = str(tmp_path / "idx")
    build_index(corpus, idx, num_buckets=8, batch_size=200, overwrite=True)
    r0 = IndexReader(idx)
    base_terms = r0.terms_matching("th*")
    assert base_terms  # 'the' at minimum

    from ee_outliers_ray.query.parse import _union_postings
    ids_before = _union_postings(r0, base_terms)
    drop = ids_before[:3]
    delete_from_index(idx, drop)
    r1 = IndexReader(idx)  # readers are per-index-version
    ids_after = _union_postings(r1, r1.terms_matching("th*"))
    assert not np.intersect1d(ids_after, drop).size
    assert np.array_equal(ids_after, np.setdiff1d(ids_before, drop))
    # fuzzy expansion goes through the same filtered postings
    fz = r1.terms_fuzzy("the", 1)
    assert "the" in fz
    ids_fz = _union_postings(r1, fz)
    assert not np.intersect1d(ids_fz, drop).size


def test_rarest_terms_exact_under_tombstones(corpus, tmp_path):
    """rarest_terms reads metadata df; with tombstones it must re-verify
    against filtered postings so the ranking equals a rebuilt index."""
    idx = str(tmp_path / "idx")
    build_index(corpus, idx, num_buckets=8, batch_size=200, overwrite=True)
    r0 = IndexReader(idx)
    rare0 = r0.rarest_terms(5)
    assert len(rare0) == 5 and all(d > 0 for _, d in rare0)
    assert rare0 == sorted(rare0, key=lambda kv: (kv[1], kv[0]))
    # delete every doc holding the rarest term -> it must vanish
    from ee_outliers_ray.index.codec import decode_run
    t0 = rare0[0][0]
    victims = decode_run(r0.postings(t0))[0]
    delete_from_index(idx, victims)
    r1 = IndexReader(idx)
    rare1 = r1.rarest_terms(5)
    assert all(t != t0 for t, _ in rare1)
    # and the surviving ranking equals a physical rebuild without them
    rebuilt = str(tmp_path / "rebuilt")
    _filtered_pages(corpus, str(tmp_path / "pages2"), victims)
    build_index(str(tmp_path / "pages2"), rebuilt, num_buckets=8,
                batch_size=200, overwrite=True)
    assert rare1 == IndexReader(rebuilt).rarest_terms(5)

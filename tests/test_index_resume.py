"""Per-partition resume + hierarchical merge (``merge_parts``)."""

import json
import os
import shutil

import pytest

from ee_outliers_ray.corpus import generate_pages
from ee_outliers_ray.index.build import build_index
from ee_outliers_ray.query.engine import taat_topk
from ee_outliers_ray.query.reader import IndexReader


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("pages_r"))
    generate_pages(d, total_rows=400, num_files=2, seed=42)
    return d


def test_per_bucket_resume_skip(corpus, tmp_path):
    d = str(tmp_path / "idx")
    build_index(corpus, d, num_buckets=4, batch_size=100)
    with open(os.path.join(d, "segments.manifest.json")) as f:
        m1 = json.load(f)
    assert all(not b["skipped"] for b in m1["buckets"])
    before = taat_topk(IndexReader(d), "the data", 5)

    # kill ONE bucket's segment + the stage manifests; rebuild must only
    # redo that bucket (others report skipped=True) without re-tokenizing
    shutil.rmtree(os.path.join(d, "segments", "bucket=2"))
    os.remove(os.path.join(d, "segments.manifest.json"))
    os.remove(os.path.join(d, "stats.json"))
    build_index(corpus, d, num_buckets=4, batch_size=100)
    with open(os.path.join(d, "segments.manifest.json")) as f:
        m2 = json.load(f)
    skipped = {b["bucket"]: b["skipped"] for b in m2["buckets"]}
    assert skipped == {0: True, 1: True, 2: False, 3: True}
    assert taat_topk(IndexReader(d), "the data", 5) == before


def test_manifest_lineage_metrics(corpus, tmp_path):
    d = str(tmp_path / "idx2")
    build_index(corpus, d, num_buckets=4, batch_size=100)
    with open(os.path.join(d, "segments.manifest.json")) as f:
        m = json.load(f)
    assert len(m["buckets"]) == 4
    for b in m["buckets"]:
        assert b["n_terms"] >= 0 and b["n_postings"] > 0
        assert b["n_bytes"] > 0 and b["wall_s"] >= 0


def test_merge_parts_bit_identical_and_resumable(corpus, tmp_path):
    """merge_parts > 1 (the bounded-task hierarchical merge) must yield
    bit-identical query results to the single-part merge, write one
    part file per (bucket, doc-range), and resume per part file."""
    import glob

    d1 = str(tmp_path / "single")
    d3 = str(tmp_path / "parts")
    build_index(corpus, d1, num_buckets=4, doc_range_size=64,
                batch_size=100)
    build_index(corpus, d3, num_buckets=4, doc_range_size=64,
                batch_size=100, merge_parts=3)
    part_files = glob.glob(os.path.join(d3, "segments", "bucket=1",
                                        "part-*.parquet"))
    assert len(part_files) > 1  # the merge really split
    from ee_outliers_ray.query.engine import BlockMaxPruning

    r1, r3 = IndexReader(d1), IndexReader(d3)
    b3 = BlockMaxPruning(r3, range_width=64)
    for q in ["the data", "w0042", "search engine crawl", "the w0100",
              "absentterm77"]:
        a = taat_topk(r1, q, 10)
        assert taat_topk(r3, q, 10) == a, q
        # BMP's block bounds need doc-sorted merged runs: exercises the
        # reader's interleaved-parts merge fallback (batches straddling
        # files produce overlapping run intervals across part files)
        assert b3.topk(q, 10) == a, ("bmp", q)

    # resume: kill one PART file; rebuild redoes only that (bucket, part)
    victim = sorted(part_files)[0]
    os.remove(victim)
    os.remove(os.path.join(d3, "segments.manifest.json"))
    os.remove(os.path.join(d3, "stats.json"))
    build_index(corpus, d3, num_buckets=4, doc_range_size=64,
                batch_size=100, merge_parts=3)
    with open(os.path.join(d3, "segments.manifest.json")) as f:
        m = json.load(f)
    redone = [(b["bucket"], b["part"]) for b in m["buckets"]
              if not b["skipped"]]
    assert len(redone) == 1 and redone[0][0] == 1
    assert taat_topk(IndexReader(d3), "the data", 10) == \
        taat_topk(r1, "the data", 10)


def test_merge_parts_positional_phrase(corpus, tmp_path):
    """Positional index built with merge_parts: phrase matching must
    equal the single-part build (positions reorder in the reader's
    interleaved-parts fallback)."""
    from ee_outliers_ray.query.parse import _phrase_docs_from_positions

    d1 = str(tmp_path / "pos1")
    d3 = str(tmp_path / "pos3")
    build_index(corpus, d1, num_buckets=4, doc_range_size=64,
                batch_size=100, store_positions=True)
    build_index(corpus, d3, num_buckets=4, doc_range_size=64,
                batch_size=100, store_positions=True, merge_parts=3)
    r1, r3 = IndexReader(d1), IndexReader(d3)
    for phrase in [["the", "data"], ["web", "page"]]:
        a = _phrase_docs_from_positions(r1, phrase)
        b = _phrase_docs_from_positions(r3, phrase)
        assert sorted(a.tolist()) == sorted(b.tolist()), phrase
        assert len(a) > 0, phrase  # the phrase actually occurs

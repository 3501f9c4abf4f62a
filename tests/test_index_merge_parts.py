"""An index keeps the ``merge_parts`` it was built with: ``stats.json``
records it, and the re-merge that compaction and append run writes as
many part files per bucket as the original build, with unchanged top-k."""

import collections
import glob
import json
import os

import numpy as np
import pytest

from ee_outliers_ray.corpus import generate_pages
from ee_outliers_ray.index.build import append_to_index, build_index
from ee_outliers_ray.index.mutate import compact_index, delete_from_index
from ee_outliers_ray.query.engine import BlockMaxPruning, taat_topk
from ee_outliers_ray.query.reader import IndexReader

QUERIES = ["the data", "w0042", "search engine crawl", "fast merge", "the"]
BUILD = dict(num_buckets=4, doc_range_size=64, batch_size=100)


@pytest.fixture(scope="module")
def pages(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("mp_pages") / "all")
    return generate_pages(d, total_rows=400, num_files=2, seed=42)


def _files_per_bucket(idx: str) -> dict:
    seg = os.path.join(idx, "segments")
    return collections.Counter(
        os.path.relpath(p, seg).split(os.sep)[0]
        for p in glob.glob(os.path.join(seg, "**", "*.parquet"),
                           recursive=True))


def _stored_merge_parts(idx: str):
    with open(os.path.join(idx, "stats.json")) as f:
        return json.load(f).get("merge_parts")


def test_compaction_keeps_merge_parts(pages, tmp_path):
    idx = str(tmp_path / "idx")
    build_index(os.path.dirname(pages[0]), idx, merge_parts=3, **BUILD)
    before = _files_per_bucket(idx)
    assert len(before) == 4 and set(before.values()) == {3}

    delete_from_index(idx, np.array([7], dtype=np.int64))
    want = {q: taat_topk(IndexReader(idx), q, 10) for q in QUERIES}
    info = compact_index(idx)
    assert info["n_compacted"] == 1

    assert _files_per_bucket(idx) == before
    assert _stored_merge_parts(idx) == info["merge_parts"] == 3
    r = IndexReader(idx)
    assert r.deleted is None
    for q in QUERIES:
        assert taat_topk(r, q, 10) == want[q], q
        assert BlockMaxPruning(r, range_width=64).topk(q, 10) == want[q], q


def test_append_keeps_merge_parts(pages, tmp_path):
    idx = str(tmp_path / "idx")
    build_index(pages[0], idx, merge_parts=3, **BUILD)
    before = _files_per_bucket(idx)
    assert set(before.values()) == {3}

    append_to_index([pages[1]], idx, batch_size=100)
    assert _files_per_bucket(idx) == before
    assert _stored_merge_parts(idx) == 3

    full = str(tmp_path / "full")
    build_index(os.path.dirname(pages[0]), full, **BUILD)
    r, r_full = IndexReader(idx), IndexReader(full)
    assert r.n_docs == r_full.n_docs == 400
    for q in QUERIES:
        assert taat_topk(r, q, 10) == taat_topk(r_full, q, 10), q

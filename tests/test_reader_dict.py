"""IndexReader's term directory: a term lookup reads only the row groups
that hold the term, gives the same runs as a parquet predicate read of
the whole bucket, and reads nothing at all for an absent term."""

import glob
import os
import shutil
import zlib

import numpy as np
import pyarrow.parquet as pq
import pytest

from ee_outliers_ray.corpus import generate_pages
from ee_outliers_ray.index.build import _row_to_run, build_index
from ee_outliers_ray.index.codec import merge_runs, runs_chainable
from ee_outliers_ray.index.mutate import delete_from_index
from ee_outliers_ray.query.reader import RUN_COLUMNS, IndexReader


@pytest.fixture(scope="module")
def parts_index(tmp_path_factory):
    """merge_parts=3: each bucket holds several part files.  A few late
    docs are moved into the first batch, so that batch's runs reach
    into the last part's doc range and a term's rows from different
    part files interleave."""
    d = tmp_path_factory.mktemp("dict")
    gen = str(d / "gen")
    generate_pages(gen, total_rows=400, num_files=1, seed=42)
    t = pq.read_table(gen).sort_by("doc_id")
    order = np.arange(t.num_rows)
    for early, late in [(20, 350), (60, 300), (99, 390)]:
        order[[early, late]] = order[[late, early]]
    os.makedirs(d / "pages")
    pq.write_table(t.take(order), str(d / "pages" / "part-0.parquet"))
    idx = str(d / "parts")
    build_index(str(d / "pages"), idx, num_buckets=4, doc_range_size=64,
                batch_size=100, merge_parts=3)
    return idx


@pytest.fixture(scope="module")
def deleted_index(parts_index, tmp_path_factory):
    idx = str(tmp_path_factory.mktemp("dict_del") / "idx")
    shutil.copytree(parts_index, idx)
    delete_from_index(idx, np.arange(3, 400, 4, dtype=np.int64))
    return idx


def _segment_files(reader, bucket="*"):
    return glob.glob(os.path.join(reader.segments_dir, f"bucket={bucket}",
                                  "**", "*.parquet"), recursive=True)


def _all_terms(reader) -> list[str]:
    return sorted({t for p in _segment_files(reader)
                   for t in pq.read_table(p, columns=["term"])["term"]
                   .to_pylist()})


def _predicate_rows(reader, term):
    bucket = zlib.crc32(term.encode()) % reader.num_buckets
    rows = []
    for p in _segment_files(reader, bucket):
        rows.extend(pq.read_table(p, filters=[("term", "=", term)])
                    .to_pylist())
    rows.sort(key=lambda r: r["first_doc"])
    return rows


def _predicate_postings(reader, term):
    """The reference: a predicate read of every file in the term's
    bucket, rows merged in first_doc order, tombstones filtered."""
    rows = _predicate_rows(reader, term)
    if not rows:
        return None
    run = merge_runs([_row_to_run(r) for r in rows])
    if reader.deleted is not None:
        run = reader._filter_tombstoned(run)
    return run


@pytest.mark.parametrize("which", ["parts", "deleted"])
def test_postings_equal_predicate_read(parts_index, deleted_index, which):
    idx = parts_index if which == "parts" else deleted_index
    r, ref = IndexReader(idx), IndexReader(idx)
    assert (r.deleted is None) == (which == "parts")
    terms = _all_terms(r)
    assert len(terms) > 100
    multi = interleaved = 0
    for t in terms:
        want = _predicate_postings(ref, t)
        got = r.postings(t)
        if want is None:  # every posting of the term was deleted
            assert got is None and r.df(t) == 0, t
            continue
        for f in RUN_COLUMNS:
            a, b = getattr(got, f), getattr(want, f)
            if f == "payload":
                assert a == b, (t, f)
            else:
                assert a.dtype == b.dtype and np.array_equal(a, b), (t, f)
        assert r.df(t) == want.n_postings
        rows = _predicate_rows(ref, t)
        assert r.meta_df(t) == sum(row["df"] for row in rows), t
        multi += len(rows) > 1
        interleaved += not runs_chainable([_row_to_run(x) for x in rows])
    # the fixture really exercises multi-row and interleaved merges
    assert multi and interleaved


def _absent_in_bucket(reader, bucket, n):
    out, i = [], 0
    while len(out) < n:
        s = f"zzabsent{i}"
        if zlib.crc32(s.encode()) % reader.num_buckets == bucket:
            out.append(s)
        i += 1
    return out


def test_absent_terms_none_and_zero_df(parts_index):
    r = IndexReader(parts_index)
    for b in range(r.num_buckets):
        assert _segment_files(r, b)  # every bucket is non-empty
        for s in _absent_in_bucket(r, b, 3):
            assert r.postings(s) is None
            assert r.df(s) == 0 and r.meta_df(s) == 0
            assert r.postings_decoded(s) is None


def test_absent_lookup_reads_nothing(parts_index, monkeypatch):
    """Once a bucket has been looked up, a term absent from it is
    answered without opening or reading any segment file."""
    r = IndexReader(parts_index)
    present = "the"
    assert r.postings(present) is not None
    bucket = zlib.crc32(present.encode()) % r.num_buckets
    absent = _absent_in_bucket(r, bucket, 5)

    reads: list = []
    cls = pq.ParquetFile

    def spy(name, orig):
        def wrapped(*a, **kw):
            reads.append(name)
            return orig(*a, **kw)
        return wrapped

    for name in ("read_row_group", "read", "read_row_groups", "__init__"):
        monkeypatch.setattr(cls, name, spy(name, getattr(cls, name)))
    monkeypatch.setattr(pq, "read_table", spy("read_table", pq.read_table))
    for s in absent:
        assert r.postings(s) is None
        assert r.meta_df(s) == 0
    assert reads == []
    # the spies are live: a present term of the same bucket does read
    assert r.meta_df(present) > 0 and reads == []
    r._cache.clear()
    assert r.postings(present) is not None and "read_row_group" in reads

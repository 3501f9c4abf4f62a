"""IndexReader's term directory and term dictionary: a term lookup
reads only the row groups that hold the term, gives the same runs as a
parquet predicate read of the whole bucket, and reads nothing at all for
an absent term; wildcard, regexp and fuzzy expansion and rarest_terms
equal a brute force over every segment file and, once the dictionary is
built, read no file."""

import glob
import os
import re
import shutil
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray.data

from ee_outliers_ray.corpus import generate_pages
from ee_outliers_ray.index.build import (_merge_bucket_group, append_to_index,
                                         build_index, flat_runs)
from ee_outliers_ray.index.codec import (decode_merged, merge_runs,
                                         runs_chainable)
from ee_outliers_ray.index.mutate import compact_index, delete_from_index
from ee_outliers_ray.query.dsl import build_search, filter_by_dsl
from ee_outliers_ray.query.parse import filter_by_query_string
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


def _row_run(row):
    """One segment row (a dict) as its run: ``flat_runs`` of a one-row
    table."""
    return flat_runs(pa.Table.from_pylist([row]))[0]


def _predicate_postings(reader, term):
    """The reference: a predicate read of every file in the term's
    bucket, rows merged in first_doc order, tombstones filtered."""
    rows = _predicate_rows(reader, term)
    if not rows:
        return None
    run = merge_runs([_row_run(r) for r in rows])
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
        interleaved += not runs_chainable([_row_run(x) for x in rows])
    # the fixture really exercises multi-row and interleaved merges
    assert multi and interleaved


@pytest.mark.parametrize("positional", [False, True])
def test_merge_bucket_group_equals_merge_runs(parts_index, tmp_path,
                                              positional):
    """All runs of a bucket merged as ONE group, so the fixture's
    interleaved terms meet in one call: every output row equals
    ``codec.merge_runs`` of that term's input rows, and its positions
    equal ``codec.decode_merged``'s."""
    idx = parts_index
    if positional:
        idx = str(tmp_path / "pos")
        build_index(os.path.join(os.path.dirname(parts_index), "pages"), idx,
                    num_buckets=4, doc_range_size=64, batch_size=100,
                    merge_parts=3, store_positions=True)
    runs = pq.read_table(os.path.join(idx, "runs"))
    interleaved = 0
    for b in range(4):
        group = runs.filter(pc.equal(runs["bucket"], b))
        by_term: dict = {}
        for row in group.sort_by([("rng", "ascending"),
                                  ("first_doc", "ascending")]).to_pylist():
            by_term.setdefault(row["term"], []).append(row)
        out = _merge_bucket_group(group)
        assert out.column("term").to_pylist() == sorted(by_term)
        for row in out.to_pylist():
            rows = by_term[row["term"]]
            ins = [_row_run(r) for r in rows]
            got, want = _row_run(row), merge_runs(ins)
            for f in RUN_COLUMNS:
                a, w = getattr(got, f), getattr(want, f)
                if f == "payload":
                    assert a == w, (row["term"], f)
                else:
                    assert a.dtype == w.dtype and np.array_equal(a, w), \
                        (row["term"], f)
            assert (row["rng"], row["first_doc"], row["df"]) == \
                (0, int(want.block_first_doc[0]), want.n_postings)
            if positional:
                flat = np.concatenate([r["positions"] for r in rows])
                assert row["positions"] == \
                    decode_merged(ins, flat)[3].tolist(), row["term"]
            interleaved += not runs_chainable(ins)
    assert interleaved


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


def _spy_reads(monkeypatch, reads: list) -> None:
    """Record every segment-file open, read and glob in ``reads``."""
    def spy(name, orig):
        def wrapped(*a, **kw):
            reads.append(name)
            return orig(*a, **kw)
        return wrapped

    cls = pq.ParquetFile
    for name in ("read_row_group", "read", "read_row_groups", "__init__"):
        monkeypatch.setattr(cls, name, spy(name, getattr(cls, name)))
    monkeypatch.setattr(pq, "read_table", spy("read_table", pq.read_table))
    monkeypatch.setattr(glob, "glob", spy("glob", glob.glob))


def test_absent_lookup_reads_nothing(parts_index, monkeypatch):
    """Once a bucket has been looked up, a term absent from it is
    answered without opening or reading any segment file."""
    r = IndexReader(parts_index)
    present = "the"
    assert r.postings(present) is not None
    bucket = zlib.crc32(present.encode()) % r.num_buckets
    absent = _absent_in_bucket(r, bucket, 5)

    reads: list = []
    _spy_reads(monkeypatch, reads)
    for s in absent:
        assert r.postings(s) is None
        assert r.meta_df(s) == 0
    assert reads == []
    # the spies are live: a present term of the same bucket does read
    assert r.meta_df(present) > 0 and reads == []
    r._cache.clear()
    r._row_groups.clear()
    assert r.postings(present) is not None and "read_row_group" in reads


def _assert_same_run(got, want) -> None:
    for f in RUN_COLUMNS:
        a, b = getattr(got, f), getattr(want, f)
        if f == "payload":
            assert a == b, f
        else:
            assert a.dtype == b.dtype and np.array_equal(a, b), f


def _row_group_keys(reader, term) -> set:
    return {loc[:2] for loc in reader.directory.lookup(term)[1]}


def test_second_term_of_row_group_reads_nothing(parts_index, monkeypatch):
    """A row group is read once per reader: once one term of it is
    fetched, another term held only there reads no file, and its run
    equals a fresh reader's."""
    r, ref = IndexReader(parts_index), IndexReader(parts_index)
    by_group: dict = {}
    for t in _all_terms(r):
        keys = _row_group_keys(r, t)
        if len(keys) == 1:
            by_group.setdefault(keys.pop(), []).append(t)
    first, second = next(ts[:2] for ts in by_group.values() if len(ts) > 1)
    assert r.postings(first) is not None
    reads: list = []
    _spy_reads(monkeypatch, reads)
    got = r.postings(second)
    assert reads == []
    _assert_same_run(got, ref.postings(second))
    assert "read_row_group" in reads  # the spies are live


@pytest.mark.parametrize("share", [0, 3])
def test_row_group_budget_evicts(parts_index, share):
    """Over ``ROW_GROUP_BUDGET`` the row-group cache is cleared before
    the next insert (budget 1: one row group held at a time; a third of
    every row group's bytes: some evictions), and every run stays
    byte-identical to an unbounded reader's."""
    full = IndexReader(parts_index)
    terms = _all_terms(full)
    want = {t: full.postings(t) for t in terms}
    budget = full._row_group_bytes // share if share else 1
    r = IndexReader(parts_index)
    r.ROW_GROUP_BUDGET = budget
    for t in terms:
        _assert_same_run(r.postings(t), want[t])
        assert r._row_group_bytes <= budget or len(r._row_groups) == 1
    assert len(r._row_groups) < len(full._row_groups)


def test_positions_bypass_row_group_cache(tmp_path, monkeypatch):
    """``positions()`` reads its row groups with the position payloads,
    whether or not the run columns are cached, puts nothing in the
    cache, and returns what a fresh reader returns."""
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({"doc_id": range(8), "text": [
        "alpha beta gamma", "beta alpha", "gamma alpha beta", "alpha beta",
        "solo here", "beta gamma", "alpha alpha beta", "here beta"]}), src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, from_html=False, num_buckets=2, batch_size=4,
                store_positions=True)
    r, ref = IndexReader(idx), IndexReader(idx)
    terms = ["alpha", "beta", "gamma", "here", "solo"]
    for t in terms:
        assert r.postings(t) is not None
    held = set(r._row_groups)
    reads: list = []
    _spy_reads(monkeypatch, reads)
    for t in terms:
        n = reads.count("read_row_group")
        got, want = r.positions(t), ref.positions(t)
        assert reads.count("read_row_group") > n
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b), t
    assert set(r._row_groups) == held and ref._row_groups == {}


def test_rarest_terms_under_tombstones_caches_nothing(deleted_index):
    """Under tombstones rarest_terms verifies candidates from the cached
    row groups (metadata df for a run whose doc span holds no
    tombstone, else its live decoded doc_ids, a batch at a time): every
    verified df equals ``df``, the ranking equals one by true df, and no
    run is cached."""
    r, ref = IndexReader(deleted_index), IndexReader(deleted_index)
    r.VERIFY_BATCH = 7  # many batches, stopping inside one
    terms = _all_terms(ref)
    true_df = {t: ref.df(t) for t in terms}
    ranked = sorted((d, t) for t, d in true_df.items() if d)
    for k in (1, 7, 40, len(ranked) + 3):
        assert r.rarest_terms(k) == [(t, d) for d, t in ranked[:k]], k
    assert r._cache == {}
    tombs = np.flatnonzero(r.deleted)
    names = r.directory.dictionary()[0]
    live = r._live_dfs(names, np.arange(len(names)), tombs)
    assert {names[i].as_py(): d for i, d in live} == true_df
    # both verifier branches ran: some runs hold a tombstone, some not
    spans = [(run.block_first_doc[0], run.block_last_doc[-1])
             for t in terms for run, _ in r._segment_rows(t)]
    hit = [np.searchsorted(tombs, lo) != np.searchsorted(tombs, hi + 1)
           for lo, hi in spans]
    assert any(hit) and not all(hit)
    assert r._cache == {}


def _brute_df(reader) -> dict[str, int]:
    """term -> df summed over every segment file's term/df columns."""
    out: dict[str, int] = {}
    for p in _segment_files(reader):
        t = pq.read_table(p, columns=["term", "df"])
        for term, df in zip(t["term"].to_pylist(), t["df"].to_pylist()):
            out[term] = out.get(term, 0) + df
    return out


def _levenshtein(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


WILDCARDS = ["w00*", "s*", "*ar*", "*9*", "w1?7?", "s?ar*", "?a?a"]
REGEXPS = ["w1[0-9]*5", "(sp|sh)ar[a-z]", "[a-z]+", "nothing[0-9]"]
FUZZY = [("spark", 1), ("shard", 2), ("w0042", 1), ("w0042", 2)]


@pytest.mark.parametrize("which", ["parts", "deleted"])
def test_expansions_equal_brute_force(parts_index, deleted_index, which):
    """(d) every expansion, the clause cap and rarest_terms equal a brute
    force over every segment file's term/df columns."""
    idx = parts_index if which == "parts" else deleted_index
    r = IndexReader(idx)
    brute = _brute_df(r)
    terms = sorted(brute)
    expected = {}
    for p in WILDCARDS:
        rx = re.compile(re.escape(p).replace(r"\*", ".*")
                        .replace(r"\?", "."))
        want = [t for t in terms if rx.fullmatch(t)]
        assert r.terms_matching(p) == want, p
        expected[("terms_matching", p)] = want
    for p in REGEXPS:
        want = [t for t in terms if re.fullmatch(p, t)]
        assert r.terms_regex(p) == want, p
        expected[("terms_regex", p)] = want
    for q, d in FUZZY:
        want = [t for t in terms if _levenshtein(q, t) <= d]
        assert r.terms_fuzzy(q, d) == want, (q, d)
        expected[("terms_fuzzy", q, d)] = want
    # every shape matches something, bar the one meant to be empty
    assert [k for k, v in expected.items() if not v] == \
        [("terms_regex", "nothing[0-9]")]
    # clause cap: exactly len(want) terms pass, one fewer raises
    for (method, *args), want in expected.items():
        if len(want) < 2:
            continue
        assert getattr(r, method)(*args, limit=len(want)) == want
        with pytest.raises(ValueError, match="expands to"):
            getattr(r, method)(*args, limit=len(want) - 1)
    # rarest_terms: (df asc, term asc); under tombstones the true df
    # of the filtered postings (pinned by the postings test above)
    if r.deleted is None:
        ranked = sorted((df, t) for t, df in brute.items())
    else:
        true_df = IndexReader(idx)
        ranked = sorted((d, t) for t in terms if (d := true_df.df(t)))
    for k in (0, 1, 7, 40):
        assert r.rarest_terms(k) == [(t, d) for d, t in ranked[:k]], k


def test_repeat_expansion_reads_nothing(parts_index, monkeypatch):
    """(e) after the first expansion, further expansions of any shape,
    rarest_terms and point-lookup metadata read no file; and a term
    directory built first is not read again by the dictionary."""
    r = IndexReader(parts_index)
    first = r.terms_matching("w00*")
    reads: list = []
    _spy_reads(monkeypatch, reads)
    assert r.terms_matching("w00*") == first
    assert r.terms_matching("*ar*") and r.terms_regex("w1[0-9]*5")
    assert r.terms_fuzzy("spark", 1) and r.rarest_terms(10)
    assert r.meta_df("the") > 0 and r.meta_df("zzabsent") == 0
    assert reads == []
    # the spies are live, and each file's term/df read happens once:
    # with one bucket's directory built, the dictionary reads the others
    r2 = IndexReader(parts_index)
    assert r2.meta_df("the") > 0
    in_bucket = len(_segment_files(
        r2, zlib.crc32(b"the") % r2.num_buckets))
    reads.clear()
    assert r2.terms_matching("w00*") == first
    assert reads.count("read") == len(_segment_files(r2)) - in_bucket
    assert reads.count("__init__") == reads.count("read")


def _schema_has_positions(idx: str) -> bool:
    files = glob.glob(os.path.join(idx, "segments", "**", "*.parquet"),
                      recursive=True)
    flags = {"positions" in pq.read_schema(p).names for p in files}
    assert len(flags) == 1
    return flags.pop()


def test_has_positions_matches_segment_schema(tmp_path):
    """(f) the persisted store_positions flag equals the segment schema
    for plain and positional indexes, as built, appended and compacted."""
    first, second = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    pq.write_table(pa.table({"doc_id": range(6), "text": [
        "alpha beta gamma", "beta alpha", "gamma alpha beta", "alpha beta",
        "solo here", "beta gamma"]}), first)
    pq.write_table(pa.table({"doc_id": range(6, 10), "text": [
        "alpha beta extra", "extra alpha", "beta gamma alpha beta",
        "gamma beta"]}), second)
    for pos in (False, True):
        idx = str(tmp_path / f"idx_{pos}")
        build_index(first, idx, from_html=False, num_buckets=2,
                    batch_size=4, store_positions=pos)
        assert IndexReader(idx).has_positions == _schema_has_positions(idx) \
            == pos
        append_to_index([second], idx, from_html=False, batch_size=4)
        assert IndexReader(idx).has_positions == _schema_has_positions(idx) \
            == pos
        delete_from_index(idx, np.array([1, 7], dtype=np.int64))
        compact_index(idx)
        r = IndexReader(idx)
        assert r.deleted is None and r.n_docs == 8
        assert r.has_positions == _schema_has_positions(idx) == pos


def test_used_reader_is_never_shipped(tmp_path):
    """A reader that has served a lookup holds open ParquetFile handles,
    which cannot be pickled: filter_by_dsl, build_search and
    filter_by_query_string (without ``id_col`` in the dataset) must
    resolve on the driver or scan, never put the reader in a map task,
    and return the scan path's rows."""
    rng = np.random.default_rng(11)
    vocab = ["scan", "scatter", "spark", "shark", "merge", "table", "s"]
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.Table.from_pandas(pd.DataFrame({
        "doc_id": range(40),
        "text": [" ".join(rng.choice(vocab, size=rng.integers(0, 6)))
                 for _ in range(40)]})), src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, from_html=False, num_buckets=4, batch_size=16)
    r = IndexReader(idx)
    assert r.postings("spark") is not None  # now holds open files
    ds = ray.data.read_parquet(src)

    def ids(out):  # an empty result carries no columns
        df = out.to_pandas()
        return sorted(df["doc_id"]) if "doc_id" in df.columns else []

    hits = 0
    for q in ("sc*", "s?ark OR merge", "spark~1 AND -table",
              "/s(park|can)/", '"spark merge"', "table"):
        dsl = {"bool": {"must": [{"query_string": {"query": q}}]}}
        scan = ids(filter_by_dsl(ds, dsl))
        hits += bool(scan)
        assert ids(filter_by_dsl(ds, dsl, reader=r)) == scan, q
        assert ids(build_search(ds, dsl=dsl, reader=r)) == scan, q
        assert ids(filter_by_query_string(ds, q, reader=r,
                                          id_col="no_such_col")) == scan, q
        assert ids(filter_by_query_string(ds, q, reader=r)) == scan, q
    assert hits >= 5

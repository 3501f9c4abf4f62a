"""Optional positional postings: build with store_positions=True, phrase
matching through the index (no text access) must equal text-verify."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from ee_outliers_ray.index.build import build_index
from ee_outliers_ray.query.engine import taat_topk
from ee_outliers_ray.query.parse import filter_by_query_string
from ee_outliers_ray.query.reader import IndexReader
from ee_outliers_ray.tokenizer import tokenize

DOCS = [
    "alpha beta gamma", "beta alpha beta", "gamma alpha", "alpha beta",
    "beta gamma alpha beta gamma", "solo", "alpha alpha beta",
    "the quick brown fox", "quick brown the fox", "",
]


@pytest.fixture(scope="module")
def pos_index(tmp_path_factory):
    d = tmp_path_factory.mktemp("pos")
    src = str(d / "docs.parquet")
    pq.write_table(pa.Table.from_pandas(pd.DataFrame({
        "doc_id": range(len(DOCS)), "text": DOCS})), src)
    idx = str(d / "idx")
    build_index(src, idx, from_html=False, num_buckets=3, batch_size=4,
                store_positions=True)
    return src, idx


def _expected_phrase(phrase):
    toks = tokenize(phrase)
    out = []
    for i, t in enumerate(DOCS):
        dt = tokenize(t)
        if any(dt[j:j + len(toks)] == toks
               for j in range(len(dt) - len(toks) + 1)):
            out.append(i)
    return out


PHRASES = ["alpha beta", "beta gamma", "gamma alpha beta", "quick brown fox",
           "brown the", "alpha alpha", "beta beta", "alpha beta gamma"]


def test_positions_stored_and_aligned(pos_index):
    _, idx = pos_index
    r = IndexReader(idx)
    assert r.has_positions
    doc_ids, tfs, flat = r.positions("alpha")
    # per-posting positions match the tokenized documents
    starts = np.zeros(len(doc_ids) + 1, dtype=np.int64)
    np.cumsum(tfs, out=starts[1:])
    for j, d in enumerate(doc_ids):
        want = [i for i, t in enumerate(tokenize(DOCS[d])) if t == "alpha"]
        assert flat[starts[j]:starts[j + 1]].tolist() == want, d


@pytest.mark.parametrize("phrase", PHRASES)
def test_index_native_phrase_matches_text_verify(pos_index, phrase):
    src, idx = pos_index
    r = IndexReader(idx)
    ds = ray.data.read_parquet(src)
    got = filter_by_query_string(ds, f'"{phrase}"', reader=r).to_pandas()
    got_ids = sorted(got["doc_id"]) if "doc_id" in got.columns else []
    assert got_ids == _expected_phrase(phrase), phrase


def test_scoring_unaffected_by_positions(pos_index, tmp_path):
    src, idx = pos_index
    idx2 = str(tmp_path / "nopos")
    build_index(src, idx2, from_html=False, num_buckets=3, batch_size=4)
    r1, r2 = IndexReader(idx), IndexReader(idx2)
    for q in ["alpha beta", "gamma", "quick fox"]:
        assert taat_topk(r1, q, 10) == taat_topk(r2, q, 10), q


def test_dense_phrase_df_gate(pos_index, monkeypatch):
    """Phrases whose rarest term is denser than the gate stay on the
    distributed text-verify path — and both paths return the same docs
    (the gate is a plan choice, never a semantics choice)."""
    from ee_outliers_ray.query import parse as P

    src, idx = pos_index
    r = IndexReader(idx)
    ds = ray.data.read_parquet(src)
    # force EVERY phrase over the gate: positional preresolution skipped
    monkeypatch.setattr(P, "_PHRASE_INDEX_MIN_GATE", 0)
    monkeypatch.setattr(P, "_PHRASE_INDEX_MAX_DF_FRAC", 0.0)
    for phrase in PHRASES:
        node = P.preresolve_index_clauses(P.parse_query_string(f'"{phrase}"'), r)
        assert not isinstance(node, P.IdSet)  # Phrase survived the gate
        got = filter_by_query_string(ds, f'"{phrase}"', reader=r).to_pandas()
        got_ids = sorted(got["doc_id"]) if "doc_id" in got.columns else []
        assert got_ids == _expected_phrase(phrase), phrase
    # and with the gate wide open the positional path resolves
    monkeypatch.setattr(P, "_PHRASE_INDEX_MIN_GATE", 10**9)
    node = P.preresolve_index_clauses(P.parse_query_string('"alpha beta"'), r)
    assert isinstance(node, P.IdSet)


def test_postings_read_skips_positions_column(pos_index, monkeypatch):
    """Positional payload isolation: BM25/boolean posting reads project
    only the run columns (positions stay on disk), while
    .positions() still reads them — and the positions column is a real
    share of the positional segment's bytes, so the projection is a
    measurable read reduction."""
    import glob as globlib
    import os

    from ee_outliers_ray.query import reader as reader_mod

    src, idx = pos_index
    seen: list = []
    cls = reader_mod.pq.ParquetFile
    orig_group, orig_read = cls.read_row_group, cls.read

    def spy_group(self, i, *a, **kw):
        seen.append(kw.get("columns"))
        return orig_group(self, i, *a, **kw)

    def spy_read(self, *a, **kw):
        seen.append(kw.get("columns"))
        return orig_read(self, *a, **kw)

    monkeypatch.setattr(cls, "read_row_group", spy_group)
    monkeypatch.setattr(cls, "read", spy_read)
    r = IndexReader(idx)
    run = r.postings("alpha")
    assert run is not None
    assert None not in seen  # every read projects its columns
    posting_reads = [c for c in seen if "payload" in c]
    assert posting_reads and all("positions" not in c for c in seen)
    assert all(c == reader_mod.RUN_COLUMNS for c in posting_reads)
    # .positions() must still read the positions column it needs
    seen.clear()
    d, t, fp = r.positions("alpha")
    assert len(fp) == int(t.sum())
    assert any("positions" in c for c in seen)

    # measurable: the positions column is a nonzero share of the bytes
    # the pruned read now skips
    total = pos_bytes = 0
    for p in globlib.glob(os.path.join(idx, "segments", "**", "*.parquet"),
                          recursive=True):
        md = pq.ParquetFile(p).metadata
        for rg in range(md.num_row_groups):
            g = md.row_group(rg)
            for ci in range(g.num_columns):
                col = g.column(ci)
                total += col.total_compressed_size
                if col.path_in_schema.startswith("positions"):
                    pos_bytes += col.total_compressed_size
    # tiny fixture: per-row metadata dominates, so just require a real
    # nonzero share here (BASELINE.md measures ~2/3 at bench scale)
    assert pos_bytes > 0 and pos_bytes / total > 0.05


def test_interleaved_positions_equal_tokens(tmp_path):
    """A batch reaching into a later doc range leaves runs that
    interleave, both inside one merge task and across part files.  The
    build's merge and ``IndexReader.positions`` doc-sort them through
    ``codec.decode_merged``; every term's postings and position slices
    still equal the tokenized documents."""
    from ee_outliers_ray.index.codec import decode_run, runs_chainable

    rng = np.random.default_rng(3)
    words = ["alpha", "beta", "gamma", "delta", "eps"]
    texts = [" ".join(rng.choice(words, size=int(rng.integers(1, 8))))
             for _ in range(400)]
    order = np.arange(400)
    for early, late in [(20, 350), (60, 300), (99, 390)]:
        order[[early, late]] = order[[late, early]]
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({"doc_id": order,
                             "text": [texts[i] for i in order]}), src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, from_html=False, num_buckets=2, doc_range_size=64,
                batch_size=100, merge_parts=3, store_positions=True)
    r = IndexReader(idx)
    merged = across = 0
    for w in words:
        want = {i: p for i in range(400) if (p := [
            j for j, t in enumerate(tokenize(texts[i])) if t == w])}
        d, tfs, flat = r.positions(w)
        assert d.tolist() == sorted(want), w
        cut = np.cumsum(tfs)[:-1]
        assert [p.tolist() for p in np.split(flat, cut)] == \
            [want[i] for i in sorted(want)], w
        runs = [run for run, _ in r._segment_rows(w, positions=True)]
        across += not runs_chainable(runs)
        # docs 20 (last batch) and 21 (first batch) in one segment row:
        # the merge task re-sorted interleaved runs
        merged += any({20, 21} <= set(decode_run(run)[0].tolist())
                      for run in runs)
    assert merged and across

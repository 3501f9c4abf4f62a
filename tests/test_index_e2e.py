"""End-to-end index build + query tests against an independent
slow-but-obviously-correct Python oracle (no shared code with the engine
beyond the tokenizer contract)."""

import math
import os
import re
import shutil

import numpy as np
import pyarrow.parquet as pq
import pytest

from ee_outliers_ray.corpus import generate_pages
from ee_outliers_ray.index.build import build_index
from ee_outliers_ray.query.engine import taat_topk
from ee_outliers_ray.query.reader import IndexReader

K1, B = 1.2, 0.75
TOKEN_RE = re.compile(r"[a-z0-9]+")


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("pages"))
    generate_pages(d, total_rows=600, num_files=3, seed=42)
    return d


@pytest.fixture(scope="module")
def index_dir(corpus_dir, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("index"))
    # small doc_range_size to force multi-run tiered merges
    build_index(corpus_dir, d, num_buckets=8, doc_range_size=128,
                batch_size=200)
    return d


def _oracle_corpus(corpus_dir):
    """doc_id -> token list, extracted from html with plain string ops."""
    docs = {}
    for f in sorted(os.listdir(corpus_dir)):
        t = pq.read_table(os.path.join(corpus_dir, f))
        for doc_id, html in zip(t["doc_id"].to_pylist(), t["html"].to_pylist()):
            s = html.decode()
            text = s.split("<p>", 1)[1].split("</p>", 1)[0]
            docs[doc_id] = TOKEN_RE.findall(text.lower())
    return docs


def _oracle_topk(docs, query, k=10):
    terms = sorted(set(TOKEN_RE.findall(query.lower())))
    n = len(docs)
    avgdl = sum(len(v) for v in docs.values()) / n
    scores = {}
    for t in terms:
        df = sum(1 for v in docs.values() if t in v)
        if df == 0:
            continue
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        for d, toks in docs.items():
            tf = toks.count(t)
            if tf:
                dl = len(toks)
                w = idf * tf * (K1 + 1.0) / (tf + K1 * (1.0 - B + B * dl / avgdl))
                scores[d] = scores.get(d, 0.0) + w
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    return ranked


QUERIES = [
    "the",                      # hottest stopword
    "data web",                 # two hot terms
    "w0042",                    # rare term
    "zzz_not_present",          # absent term
    "the data search engine",   # mixed
    "w0100 w0200 w0300",        # several mid-frequency terms
    "The, DATA!",               # needs analysis-chain normalization
]


@pytest.fixture(scope="module")
def oracle_docs(corpus_dir):
    return _oracle_corpus(corpus_dir)


@pytest.fixture(scope="module")
def reader(index_dir):
    return IndexReader(index_dir)


def test_stats(reader, oracle_docs):
    assert reader.n_docs == len(oracle_docs)
    assert reader.avgdl == pytest.approx(
        sum(len(v) for v in oracle_docs.values()) / len(oracle_docs))
    for d, toks in list(oracle_docs.items())[:50]:
        assert reader.doclens[d] == len(toks)


def test_df(reader, oracle_docs):
    for t in ["the", "data", "w0042"]:
        df = sum(1 for v in oracle_docs.values() if t in v)
        assert reader.df(t) == df, t


@pytest.mark.parametrize("query", QUERIES)
def test_taat_matches_oracle(reader, oracle_docs, query):
    got = taat_topk(reader, query, k=10)
    want = _oracle_topk(oracle_docs, query, k=10)
    assert [d for d, _ in got] == [d for d, _ in want]
    for (gd, gs), (wd, ws) in zip(got, want):
        assert gs == pytest.approx(ws, rel=1e-12), (gd, query)


@pytest.mark.parametrize("query", QUERIES)
@pytest.mark.parametrize("width", [64, 256, 4096])
def test_bmp_matches_taat_exactly(reader, query, width):
    """Range-width sweep: 64 forces straddling blocks + many ranges, 4096
    puts the whole 600-doc corpus in one range (degenerates to TAAT)."""
    from ee_outliers_ray.query.engine import BlockMaxPruning

    taat = taat_topk(reader, query, k=10)
    bmp = BlockMaxPruning(reader, range_width=width).topk(query, k=10)
    assert bmp == taat  # rank- AND score-identical (bit-for-bit)


def test_bmp_k1_and_large_k(reader):
    from ee_outliers_ray.query.engine import BlockMaxPruning

    bmp = BlockMaxPruning(reader, range_width=128)
    assert bmp.topk("data search", k=1) == taat_topk(reader, "data search", k=1)
    # k larger than the number of matching docs
    assert bmp.topk("w0042", k=5000) == taat_topk(reader, "w0042", k=5000)
    # searcher reuse across queries (weight cache + theta reset)
    assert bmp.topk("the data", k=10) == taat_topk(reader, "the data", k=10)
    assert bmp.topk("the data", k=10) == taat_topk(reader, "the data", k=10)


def test_resume_from_runs(corpus_dir, index_dir, reader):
    """Deleting segments + manifest must rebuild from runs (no re-tokenize)
    and produce identical query results."""
    d2 = index_dir
    shutil.rmtree(os.path.join(d2, "segments"))
    os.remove(os.path.join(d2, "segments.manifest.json"))
    os.remove(os.path.join(d2, "stats.json"))
    before = taat_topk(reader, "the data", k=5)
    build_index(corpus_dir, d2, num_buckets=8, doc_range_size=128,
                batch_size=200)
    r2 = IndexReader(d2)
    assert taat_topk(r2, "the data", k=5) == before


def test_extracted_text_byte_identical(corpus_dir):
    """HtmlExtract recovers the generator's text byte-for-byte per url."""
    import ray.data

    from ee_outliers_ray.corpus import _gen_file_table
    from ee_outliers_ray.extract import HtmlExtract

    ds = ray.data.read_parquet(corpus_dir).map_batches(
        HtmlExtract, batch_format="pyarrow", batch_size=200, concurrency=2)
    got = {r["url"]: r["text"] for r in ds.take_all()}
    src = _gen_file_table(0, 200, 42)
    for url, html in zip(src["url"].to_pylist(), src["html"].to_pylist()):
        want = html.decode().split("<p>", 1)[1].split("</p>", 1)[0]
        assert got[url] == want


def test_result_cache_identical_and_invalidated(tmp_path):
    """The request cache returns identical results, and global-stats
    updates (sharded service path) invalidate it."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ee_outliers_ray.index.build import build_index
    from ee_outliers_ray.query.engine import TaatSearcher
    from ee_outliers_ray.query.reader import IndexReader

    src = str(tmp_path / "d.parquet")
    pq.write_table(pa.table({
        "doc_id": list(range(8)),
        "text": ["alpha beta", "alpha gamma", "beta gamma", "alpha",
                 "beta beta", "gamma", "alpha beta gamma", "delta"]}), src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, from_html=False, num_buckets=2, batch_size=4)
    s = TaatSearcher(IndexReader(idx))
    r1 = s.topk("alpha beta", 5)
    r2 = s.topk("alpha beta", 5)     # cache hit
    assert r1 == r2 and ("alpha beta", 5) not in s._results
    assert (("alpha", "beta"), 5) in s._results
    # different k is a different entry
    r3 = s.topk("alpha beta", 3)
    assert r3 == r1[:3]
    # stats update invalidates
    s.set_global_stats(1000, 5.0, {"alpha": 500, "beta": 2})
    assert not s._results
    r4 = s.topk("alpha beta", 5)
    assert [d for d, _ in r4]  # runs; scores differ under new stats
    assert r4 != r1


@pytest.mark.parametrize("terms", [
    ("the", "data"),
    ("the",),
    ("data", "web", "search"),
    ("w0042", "the"),
    ("zzz_not_present", "the"),
    ("the", "the", "data"),     # duplicate terms collapse
])
def test_intersect_terms_matches_full_decode(reader, oracle_docs, terms):
    """Block-streaming cursor intersection == decode-everything truth ==
    the tokenized-scan semantics (the three search_and paths)."""
    from ee_outliers_ray.index.codec import decode_run
    from ee_outliers_ray.query.engine import intersect_terms

    got = intersect_terms(reader, terms)
    want = None
    for t in sorted(set(terms)):
        run = reader.postings(t)
        ids = decode_run(run)[0] if run is not None else np.array([], dtype=np.int64)
        want = ids if want is None else np.intersect1d(want, ids)
    np.testing.assert_array_equal(got, np.sort(want))
    scan = sorted(d for d, toks in oracle_docs.items()
                  if all(t in toks for t in terms))
    assert got.tolist() == scan


def test_intersect_terms_under_tombstones(corpus_dir, index_dir, tmp_path):
    """Intersection sees tombstone-filtered runs (same contract as
    TAAT/BMP)."""
    import shutil as _sh

    from ee_outliers_ray.index.mutate import delete_from_index
    from ee_outliers_ray.query.engine import intersect_terms

    d = str(tmp_path / "idx")
    _sh.copytree(index_dir, d)
    r0 = IndexReader(d)
    base = intersect_terms(r0, ("the", "data"))
    assert len(base) > 3
    victims = base[:3].tolist()
    delete_from_index(d, victims)
    r1 = IndexReader(d)  # readers are per-index-version
    after = intersect_terms(r1, ("the", "data"))
    np.testing.assert_array_equal(after, np.setdiff1d(base, victims))


def test_search_and_scan_path_matches_driver_path(monkeypatch):
    """Forcing the df gate to 0 sends search_and down the distributed
    tokenized-scan branch; results must equal the cursor branch."""
    from ee_outliers_ray import pipelines as P

    sf = "/root/testdata/sf0.001"
    driver = P.search_and(sf)
    # both branches present ascending doc_id (the cross-gate contract)
    assert driver["doc_id"].is_monotonic_increasing
    monkeypatch.setattr(P, "_SEARCH_AND_SCAN_MIN_DF", 0)
    scan = P.search_and(sf).to_pandas()
    assert scan["doc_id"].tolist() == driver["doc_id"].tolist()


def test_search_and_empty_terms():
    """terms=() matches nothing and returns the schema-stable empty
    frame instead of raising (min() over an empty generator)."""
    from ee_outliers_ray import pipelines as P

    out = P.search_and("/root/testdata/sf0.001", terms=())
    assert list(out.columns) == ["doc_id"] and len(out) == 0
    assert out["doc_id"].dtype == np.int64


def test_meta_df_matches_df(reader):
    for t in ("the", "data", "w0042"):
        assert reader.meta_df(t) == reader.df(t)
    assert reader.meta_df("zzz_not_present") == 0


def test_bmp_weight_budget_bounded(reader):
    """BlockMaxPruning scores from TAAT's one weight cache, which evicts
    at WEIGHT_BUDGET instead of growing without bound across queries,
    with identical results.  Contract: clear-on-overflow, then insert,
    so the held count never exceeds the budget plus ONE term's
    postings."""
    from ee_outliers_ray.query.engine import BlockMaxPruning
    from ee_outliers_ray.tokenizer import tokenize

    bmp = BlockMaxPruning(reader, range_width=64)
    bmp.WEIGHT_BUDGET = 64  # force eviction on nearly every term
    bmp.result_cache_size = 0
    for q in ("the data", "w0100 w0200 w0300", "the data search engine",
              "the data"):
        assert bmp.topk(q, 10) == taat_topk(reader, q, 10), q
        held = sum(len(d) for d, _ in bmp._weights.values())
        assert held == bmp._weights_n  # counter matches holdings
        assert held <= 64 + max(reader.df(t) for t in tokenize(q)), q

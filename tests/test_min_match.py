"""minimum_should_match BM25 (``TaatSearcher.min_match_topk``) against
an independent pure-Python oracle, plus its boundary contracts:
min_match=1 == pure OR, min_match=len(terms) == the AND set
(intersect_terms), absent terms can never satisfy the floor."""

import math
import os
import re

import numpy as np
import pyarrow.parquet as pq
import pytest

from ee_outliers_ray.corpus import generate_pages
from ee_outliers_ray.index.build import build_index
from ee_outliers_ray.query.engine import TaatSearcher, intersect_terms
from ee_outliers_ray.query.reader import IndexReader

K1, B = 1.2, 0.75
TOKEN_RE = re.compile(r"[a-z0-9]+")


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("pages"))
    generate_pages(d, total_rows=500, num_files=3, seed=7)
    return d


@pytest.fixture(scope="module")
def index_dir(corpus_dir, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("index"))
    build_index(corpus_dir, d, num_buckets=8, doc_range_size=128,
                batch_size=200)
    return d


@pytest.fixture(scope="module")
def docs(corpus_dir):
    out = {}
    for f in sorted(os.listdir(corpus_dir)):
        t = pq.read_table(os.path.join(corpus_dir, f))
        for doc_id, html in zip(t["doc_id"].to_pylist(),
                                t["html"].to_pylist()):
            text = html.decode().split("<p>", 1)[1].split("</p>", 1)[0]
            out[doc_id] = TOKEN_RE.findall(text.lower())
    return out


def _oracle(docs, terms, m, k):
    """Slow truth: per-doc distinct-match count + BM25 sum over matched
    terms in ascending term order (the determinism contract)."""
    tset = sorted(set(terms))
    n = len(docs)
    avgdl = sum(len(v) for v in docs.values()) / n
    dfs = {t: sum(1 for v in docs.values() if t in v) for t in tset}
    rows = []
    for d, toks in docs.items():
        s, nm = 0.0, 0
        for t in tset:
            tf = toks.count(t)
            if tf == 0 or dfs[t] == 0:
                continue
            nm += 1
            idf = math.log(1.0 + (n - dfs[t] + 0.5) / (dfs[t] + 0.5))
            dl = len(toks)
            s += idf * tf * (K1 + 1) / (tf + K1 * (1 - B + B * dl / avgdl))
        if nm >= m:
            rows.append((d, nm, s))
    rows.sort(key=lambda r: (-r[2], r[0]))
    return rows[:k]


TERMS4 = ("the", "crawl", "engine", "w0042")


@pytest.mark.parametrize("terms,m", [
    (TERMS4, 1),
    (TERMS4, 2),
    (TERMS4, 3),
    (TERMS4, 4),
    (("the", "data"), 1),
    (("the", "data"), 2),
])
def test_min_match_vs_oracle(index_dir, docs, terms, m):
    """Cold, result-cache repeat and weight-cache-warm (result cache
    off) answers all equal the oracle; plain top-k through the same
    searcher stays unaffected by the min_match state."""
    reader = IndexReader(index_dir)
    searcher = TaatSearcher(reader)
    got = searcher.min_match_topk(terms, m, k=15)                # cold
    truth = _oracle(docs, terms, m, 15)
    assert [r[:2] for r in got] == [r[:2] for r in truth]
    assert np.allclose([r[2] for r in got], [r[2] for r in truth],
                       rtol=0, atol=1e-9)
    assert searcher.min_match_topk(terms, m, k=15) == got        # cached
    searcher.result_cache_size = 0
    assert searcher.min_match_topk(terms, m, k=15) == got        # warm
    assert searcher.topk("the data", k=5) == \
        TaatSearcher(reader).topk("the data", k=5)


def test_min_match_full_and_equals_intersection(index_dir):
    """m = len(terms) selects exactly the AND set (top-k of it)."""
    reader = IndexReader(index_dir)
    terms = ("the", "data")
    got = TaatSearcher(reader).min_match_topk(terms, len(terms), k=10**9)
    inter = intersect_terms(reader, terms)
    assert sorted(r[0] for r in got) == inter.tolist()
    assert all(r[1] == len(terms) for r in got)


@pytest.mark.parametrize("terms,m", [(TERMS4, 1), (TERMS4, 2),
                                     (TERMS4, 4), (("the", "data"), 2)])
def test_min_match_dense_equals_sparse(index_dir, terms, m):
    """Both sides of the one sparse/dense gate (``TaatSearcher._sparse``),
    forced on the same index, give bit-identical plain top-k and
    min_match results, and leave the workspace zeroed."""
    reader = IndexReader(index_dir)
    query = " ".join(terms)
    out = []
    for sparse in (True, False):
        searcher = TaatSearcher(reader)
        searcher._sparse = lambda vecs, v=sparse: v
        out.append((searcher.topk(query, k=15),
                    searcher.min_match_topk(terms, m, k=15)))
        assert not searcher._acc.any() and not searcher._cnt.any()
        assert not searcher._touched.any()
    assert out[0] == out[1]
    # unforced, these terms take the dense side
    plain = TaatSearcher(reader)
    decoded = [reader.postings_decoded(t) for t in terms]
    assert not plain._sparse([v for v in decoded if v is not None])
    assert (plain.topk(query, k=15),
            plain.min_match_topk(terms, m, k=15)) == out[0]


def test_min_match_absent_terms(index_dir):
    searcher = TaatSearcher(IndexReader(index_dir))
    # an absent clause can never count toward the floor
    assert searcher.min_match_topk(("the", "zzzmissing"), 1, k=10) == \
        searcher.min_match_topk(("the",), 1, k=10)
    # floor above the number of present terms -> empty
    assert searcher.min_match_topk(("the", "zzzmissing"), 2, k=10) == []
    assert searcher.min_match_topk(("zzz",), 1, k=10) == []
    # min_match < 1 coerces to 1 (pure OR), never matches-everything
    assert searcher.min_match_topk(("w0042",), 0, k=10**9) == \
        searcher.min_match_topk(("w0042",), 1, k=10**9)


def test_more_like_this_edges(ray_session):
    """Absent source doc (and a search_or floor no doc meets) ->
    schema-stable empty; present source is never in its own result;
    every hit matches >= min_match of the selected terms.  (Value
    correctness is checked against the SQL oracle in
    test_oracle_parity.)"""
    from ee_outliers_ray.pipelines import more_like_this, search_or

    sf = "/root/testdata/sf0.001"
    for out in (more_like_this(sf, doc_id=10**9),
                search_or(sf, terms=("merge", "zzzmissing"), min_match=2)):
        assert len(out) == 0
        assert list(out.columns) == ["doc_id", "n_matched", "score"]
        assert out["doc_id"].dtype == np.int64
        assert out["n_matched"].dtype == np.int64
        assert out["score"].dtype == np.float64
    res = more_like_this(sf, doc_id=7, min_match=2, k=10)
    assert len(res) > 0
    assert (res["doc_id"] != 7).all()
    assert (res["n_matched"] >= 2).all()

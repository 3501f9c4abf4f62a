"""Edge-case robustness: empty/null text, tiny corpora, absent terms."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from ee_outliers_ray.index.build import build_index
from ee_outliers_ray.query.engine import BlockMaxPruning, taat_topk
from ee_outliers_ray.query.reader import IndexReader
from ee_outliers_ray.tokenizer import tokenize_column


def test_tokenize_nulls_and_empties():
    col = pa.array([None, "", "  ", "a b", None])
    out = tokenize_column(col)
    assert [out[i].as_py() for i in range(5)] == [[], [], [], ["a", "b"], []]


def test_build_with_empty_and_null_text(tmp_path):
    df = pd.DataFrame({
        "doc_id": range(6),
        "text": ["alpha beta", "", None, "gamma", "   ", "alpha"],
    })
    src = str(tmp_path / "d.parquet")
    pq.write_table(pa.Table.from_pandas(df), src)
    idx = str(tmp_path / "i")
    stats = build_index(src, idx, from_html=False, num_buckets=2, batch_size=3)
    assert stats["n_docs"] == 6          # empty docs still counted (dl=0)
    r = IndexReader(idx)
    assert r.df("alpha") == 2
    res = taat_topk(r, "alpha", 5)
    assert [d for d, _ in res] == [5, 0]  # doc 5 shorter -> higher score
    # width 2 splits the 6 docs over 3 ranges, so ranges get skipped
    assert BlockMaxPruning(r, range_width=2).topk("alpha", 5) == res


def test_single_doc_corpus(tmp_path):
    df = pd.DataFrame({"doc_id": [7], "text": ["only one document here"]})
    src = str(tmp_path / "d.parquet")
    pq.write_table(pa.Table.from_pandas(df), src)
    idx = str(tmp_path / "i")
    build_index(src, idx, from_html=False, num_buckets=2, batch_size=10)
    r = IndexReader(idx)
    assert r.n_docs == 1
    res = taat_topk(r, "document", 3)
    assert [d for d, _ in res] == [7]


def test_query_absent_and_empty(tmp_path):
    df = pd.DataFrame({"doc_id": [0, 1], "text": ["x y", "y z"]})
    src = str(tmp_path / "d.parquet")
    pq.write_table(pa.Table.from_pandas(df), src)
    idx = str(tmp_path / "i")
    build_index(src, idx, from_html=False, num_buckets=2, batch_size=10)
    r = IndexReader(idx)
    assert taat_topk(r, "", 5) == []
    assert taat_topk(r, "notthere", 5) == []
    assert BlockMaxPruning(r, range_width=64).topk("...", 5) == []


def test_models_on_empty_dataset():
    from ee_outliers_ray.models.metrics import metrics_model
    from ee_outliers_ray.models.terms import terms_model

    empty = ray.data.from_pandas(pd.DataFrame({
        "event_id": pd.Series(dtype=np.int64),
        "agg": pd.Series(dtype=object),
        "tgt": pd.Series(dtype=object)}))
    out = terms_model(empty, "agg", "tgt",
                      target_count_method="within_aggregator",
                      trigger_method="float", trigger_sensitivity=2,
                      trigger_on="low")
    assert out.count() == 0
    out = terms_model(empty, "agg", "tgt",
                      target_count_method="across_aggregators",
                      trigger_method="pct_of_max_value",
                      trigger_sensitivity=50, trigger_on="high")
    assert out.count() == 0
    out = metrics_model(empty, "agg", "tgt", metric="length",
                        trigger_method="stdev", trigger_sensitivity=1,
                        trigger_on="high")
    assert out.count() == 0


def test_dedup_on_all_unique():
    from ee_outliers_ray.dedup import exact_dedup

    ds = ray.data.from_pandas(pd.DataFrame({
        "doc_id": range(5), "text": [f"unique text {i}" for i in range(5)]}))
    out = exact_dedup(ds).to_pandas()
    assert len(out) == 5 and (out["n_dups"] == 1).all()

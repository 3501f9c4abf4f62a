import math

import numpy as np
import pytest

from ee_outliers_ray.functions import (
    calculate_metric,
    flatten_fields_into_sentences,
    flatten_sentence,
    is_base64_encoded,
    is_hex_encoded,
    is_url,
    kl_divergence,
    match_ip_ranges,
    metric_column,
    replace_placeholder_fields_with_values,
    shannon_entropy,
)
from ee_outliers_ray.models.frontier import get_decision_frontier, is_outlier


def _ref_entropy(data):
    """Literal mirror of reference utils.py:113-127."""
    if not data:
        return 0
    entropy = 0
    for x in range(256):
        p_x = float(data.count(chr(x))) / len(data)
        if p_x > 0:
            entropy += -p_x * math.log(p_x, 2)
    return entropy


@pytest.mark.parametrize("s", ["houston", "", "aaaa", "abcABC123!@#",
                               "héllo wörld", "日本語 text", "a" * 1000])
def test_shannon_entropy_matches_reference(s):
    assert shannon_entropy(s) == pytest.approx(_ref_entropy(s), abs=1e-12)


def test_entropy_known_value():
    # reference docstring: entropy("houston") => 2.5216406363433186
    assert shannon_entropy("houston") == pytest.approx(2.5216406363433186)


def test_kl_divergence():
    assert kl_divergence("") == 0
    v = kl_divergence("google")
    assert isinstance(v, float) and v != 0


def test_base64_hex_url():
    assert is_base64_encoded("VGhpcyBpcyBhIHRleHQ=") == "This is a text"
    assert not is_base64_encoded("definitely not base64!!!")
    assert is_hex_encoded("5468697320697320612074657374")
    assert not is_hex_encoded("xyz")
    assert is_url("http://www.dance.com/")
    assert is_url("https://site0.example/p/1")
    assert not is_url("not a url")
    assert not is_url("www.nodscheme.com")


def test_match_ip_ranges():
    assert match_ip_ranges("192.168.1.5", ["192.168.0.0/16"])
    assert not match_ip_ranges("10.0.0.1", ["192.168.0.0/16"])
    assert not match_ip_ranges("garbage", ["192.168.0.0/16"])


def test_flatten_sentence():
    assert flatten_sentence("x") == "x"
    assert flatten_sentence(["a", "b"]) == "a - b"
    assert flatten_sentence([1, "b"]) == "1 - b"
    assert flatten_sentence([["nested"], "b"]) is None
    assert flatten_sentence({"d": 1}) is None
    assert flatten_sentence(None) is None


def test_flatten_fields_into_sentences():
    fields = {"hostname": ["A", "B"], "user": "u"}
    out = flatten_fields_into_sentences(fields, ["hostname", "user"])
    assert out == [["A", "u"], ["B", "u"]]


def test_placeholder():
    assert replace_placeholder_fields_with_values(
        "host {h} user {u}", {"h": "x", "u": ["a", "b"]}) == "host x user a, b"
    assert "not found" in replace_placeholder_fields_with_values("{missing}", {})


def test_metric_kernels():
    assert calculate_metric("numerical_value", "2")[0] == 2.0
    assert calculate_metric("numerical_value", "abc")[0] is None
    assert calculate_metric("length", "outliers")[0] == 8
    m, obs = calculate_metric("base64_encoded_length", "houston we have a cHJvYmxlbQ==")
    assert m == 7 and obs["max_base64_decoded_word"] == "problem"
    m, obs = calculate_metric("hex_encoded_length", "check 5468697320697320612074657374 out")
    assert m == 28
    m, obs = calculate_metric("url_length", "why don't we go http://www.dance.com")
    assert m == len("http://www.dance.com")
    assert calculate_metric("entropy", "houston")[0] == pytest.approx(2.5216406363433186)


def test_metric_column_vectorized():
    vals = np.array(["abc", "12", "qqqq"], dtype=object)
    out = metric_column("length", vals)
    assert list(out) == [3.0, 2.0, 4.0]
    out = metric_column("numerical_value", vals)
    assert np.isnan(out[0]) and out[1] == 12.0


# --- decision frontier (reference utils.py:308-443) --------------------------

def test_frontier_percentile_over_distinct():
    # reference computes over set(values): [0 5 10 20 30 2 5 5] -> distinct
    vals = [0, 5, 10, 20, 30, 2, 5, 5]
    want = np.percentile(sorted(set(vals)), 10)
    assert get_decision_frontier("percentile", vals, 10) == pytest.approx(want)


def test_frontier_pcts():
    vals = [1.0, 2.0, 3.0, 4.0]
    assert get_decision_frontier("pct_of_max_value", vals, 50) == pytest.approx(2.0)
    assert get_decision_frontier("pct_of_median_value", vals, 100) == pytest.approx(2.5)
    assert get_decision_frontier("pct_of_avg_value", vals, 100) == pytest.approx(2.5)
    assert get_decision_frontier("float", vals, 7.5) == 7.5


def test_frontier_stdev():
    vals = [1.0, 2.0, 3.0]
    assert get_decision_frontier("stdev", vals, 1, "high") == \
        pytest.approx(2.0 + np.std(vals))
    assert get_decision_frontier("stdev", vals, 1, "low") == \
        pytest.approx(2.0 - np.std(vals))


def test_frontier_mad_and_fallback():
    vals = [1.0, 2.0, 3.0, 4.0, 100.0]
    mad = np.median(np.abs(np.array(vals) - np.median(vals)))
    assert get_decision_frontier("mad", vals, 2, "high") == \
        pytest.approx(np.median(vals) + 2 * mad)
    # MAD == 0 (more than half equal) -> stdev fallback with sensitivity 1
    vals = [5.0, 5.0, 5.0, 9.0]
    want = np.nanmean(vals) + 1 * np.std(vals)
    assert get_decision_frontier("mad", vals, 3, "high") == pytest.approx(want)
    # madpos clamps below zero
    vals = [5.0, 5.0, 5.0, 5.0]
    got = get_decision_frontier("madpos", vals, 1, "low")
    assert got >= 0


def test_frontier_cv():
    vals = [2.0, 4.0, 6.0]
    assert get_decision_frontier("coeff_of_variation", vals, 1) == \
        pytest.approx(np.std(vals) / np.mean(vals))


def test_is_outlier():
    assert is_outlier(5, 4, "high") and not is_outlier(3, 4, "high")
    assert is_outlier(3, 4, "low") and not is_outlier(5, 4, "low")
    v = is_outlier(np.array([1.0, 5.0]), 4, "high")
    assert list(v) == [False, True]


def test_pack_sequences_semantics():
    """First-fit-sequential packing: budget respected (except oversized
    docs, which get their own pack), deterministic per doc_id-range
    group regardless of input block layout."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from ee_outliers_ray.textstats import pack_sequences

    texts = ["a " * n for n in [50, 60, 70, 200, 10, 10, 10, 300, 5]]
    tbl = pa.table({"doc_id": pa.array(range(9), type=pa.int64()),
                    "text": pa.array([t.strip() for t in texts])})
    out1 = pack_sequences(ray.data.from_arrow(tbl), max_tokens=128,
                          range_size=100).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    # different block layout -> identical packs
    parts = [tbl.slice(0, 3), tbl.slice(3, 2), tbl.slice(5)]
    ds2 = ray.data.from_arrow_refs([__import__("ray").put(p) for p in parts])
    out2 = pack_sequences(ds2, max_tokens=128, range_size=100).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(out1, out2)

    per_pack = out1.groupby("pack_id").agg(total=("n_tokens", "sum"),
                                           n=("n_tokens", "count"))
    for pid, row in per_pack.iterrows():
        if row["total"] > 128:
            assert row["n"] == 1  # only an oversized doc may exceed
    # expected layout: [50,60] [70] [200] [10,10,10] ... sequential
    assert out1["pack_id"].tolist()[:4] == [0, 0, 1, 2]


def test_hash_split_fractions_and_determinism():
    import numpy as np

    from ee_outliers_ray import pipelines as P

    sf = "/root/testdata/sf0.01"
    a = P.hash_split(sf).to_pandas().sort_values("doc_id")
    b = P.hash_split(sf).to_pandas().sort_values("doc_id")
    assert (a["split"].to_numpy() == b["split"].to_numpy()).all()
    frac = (a["split"] == "train").mean()
    assert 0.7 < frac < 0.9  # 80% nominal
    s = P.hash_sample(sf, pct=20).to_pandas()
    assert 0.1 < len(s) / len(a) < 0.3
    assert set(s.columns) == {"doc_id", "text", "lang", "source", "n_chars"}

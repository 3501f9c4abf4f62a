"""urls.py: canonicalization rules, host extraction, and the per-host
dedup-stats fold (incl. a forced multi-fold run)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from ee_outliers_ray.urls import canonicalize, host_of, url_host_stats


@pytest.mark.parametrize("raw,want", [
    # fragment strip
    ("http://a.com/p/1#sec", "http://a.com/p/1"),
    # scheme + authority lowercased, path case preserved
    ("HTTP://WWW.Ex.COM/Path/X", "http://www.ex.com/Path/X"),
    # default :80 stripped (before path, query, and at end)
    ("http://a.com:80/p/1", "http://a.com/p/1"),
    ("http://a.com:80", "http://a.com"),
    ("http://a.com:80?id=1", "http://a.com?id=1"),
    # non-default port kept
    ("http://a.com:8080/p", "http://a.com:8080/p"),
    # utm params dropped: mid (followed by another) and trailing forms
    ("http://a.com/p?utm_source=f&id=2", "http://a.com/p?id=2"),
    ("http://a.com/p?id=2&utm_campaign=x", "http://a.com/p?id=2"),
    ("http://a.com/p?utm_source=f", "http://a.com/p"),
    # one non-root trailing slash stripped, also before a query
    ("http://a.com/p/1/", "http://a.com/p/1"),
    ("http://a.com/p/1/?id=3", "http://a.com/p/1?id=3"),
    # root slash is preserved (the pattern requires a path segment)
    ("http://a.com/", "http://a.com/"),
    ("http://a.com/?id=1", "http://a.com/?id=1"),
    # double trailing slash is NOT collapsed (single-slash rule only)
    ("http://a.com/p//", "http://a.com/p//"),
    # everything at once
    ("HTTPS://A.com:80/P/5/?utm_source=feed&ref=1#frag",
     "https://a.com/P/5?ref=1"),
])
def test_canonicalize_rules(raw, want):
    assert canonicalize(np.array([raw], dtype=object)).tolist() == [want]


def test_fragment_pat_pandas_equals_duckdb():
    """FRAGMENT_PAT runs in pandas (canonicalize) and verbatim in the
    DuckDB oracle; both must agree, also on a trailing newline where a
    ``$`` anchor would diverge (Python re vs RE2)."""
    import duckdb

    from ee_outliers_ray.urls import FRAGMENT_PAT

    urls = ["http://a.com/p#frag\n", "http://a.com/p#frag", "http://a.com/p"]
    got_pd = pd.Series(urls).str.replace(FRAGMENT_PAT, "", regex=True)
    got_db = [duckdb.execute("SELECT regexp_replace(?, ?, '', 'g')",
                             [u, FRAGMENT_PAT]).fetchone()[0] for u in urls]
    assert got_pd.tolist() == got_db
    assert got_db == ["http://a.com/p\n", "http://a.com/p", "http://a.com/p"]


def test_host_of():
    c = canonicalize(np.array([
        "http://WWW.News.Example.com/x",
        "https://cdn.example.org:443/y",
        "not-a-url",
    ], dtype=object))
    assert host_of(c).tolist() == [
        "news.example.com", "cdn.example.org", ""]


def test_url_host_stats_exact(ray_session):
    import ray.data

    rows = [
        # host a.com: 3 docs -> 2 distinct canonicals (1 dup)
        "http://a.com/x",
        "HTTP://A.COM/x#frag",
        "http://a.com/y",
        # host b.com: 2 docs -> 1 canonical (1 dup, utm + slash noise)
        "http://www.b.com/p/?utm_source=s&id=1",
        "http://WWW.b.com:80/p?id=1",
    ]
    ds = ray.data.from_arrow(pa.table({"url": rows}))
    out = url_host_stats(ds)
    want = pd.DataFrame({
        "host": ["a.com", "b.com"],
        "n_docs": [3, 2], "n_urls": [2, 1], "dup_docs": [1, 1],
    })
    pd.testing.assert_frame_equal(out, want, check_dtype=False)


def test_url_host_stats_fold_equivalence(ray_session, monkeypatch):
    """Forcing per-batch folds (merge_rows=1 equivalent) must not change
    the result; the guard fires loudly when the distinct table exceeds
    the bound."""
    import ray.data

    urls = [f"http://h{i % 7}.com/p/{i % 3}" for i in range(200)]
    ds = ray.data.from_arrow(pa.table({"url": urls}))
    base = url_host_stats(ds)
    assert base["n_docs"].sum() == 200
    assert (base["n_urls"] <= 3).all()
    with pytest.raises(ValueError, match="max_distinct_rows"):
        url_host_stats(ds, max_distinct_rows=5)

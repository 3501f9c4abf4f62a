"""URL canonicalization + per-host dedup stats over web-page corpora.

The input-hint pages shape carries a ``url`` column; Common-Crawl-style
pipelines dedup on the CANONICAL url before any content-level pass (it
is the cheapest dedup signal: no tokenize, no shingle).  This module is
that stage: a vectorized canonicalizer plus a per-host summary of how
many docs collapse onto each canonical url.

Canonicalization contract (``CANON_STEPS`` applied IN ORDER, then the
lowercase-authority step): the regex pattern strings are interpolated
VERBATIM into the DuckDB oracle (__ray_entry__), the same stance as
textstats.PII_PATTERNS — both engines run the identical rules, so edit
them here only.  Steps: strip fragment; lowercase scheme+authority
(never the path — paths are case-sensitive); strip the default :80
port; drop utm_* tracking params (mid and trailing forms); strip one
trailing path slash (also before a query string) unless it is the root
slash.  Deliberately NOT done: query-param reordering and IDN/percent
normalization — documented divergence, same stance as byte-level
levenshtein.  Same class of caveat: the three ``$``-anchored
CANON_STEPS match just before a trailing newline in Python ``re`` but
only at the very end in RE2 (DuckDB), so a url ending in a newline can
canonicalize differently in the two engines; urls are expected to be
newline-free.  The fragment rule is unanchored (``#.*``) and agrees.

Scale: canonicalize is a stateless vectorized ``map_batches`` stage.
``url_host_stats`` pre-aggregates each batch to (host, url, n) partial
rows (block-level dedup) and folds them on the driver with amortized
pandas merges — the word_counts/lm_perplexity streamed-fold shape
(measured 6-10x faster than a distributed groupby on model-sized
partials, BASELINE.md r5).  Driver residency is the DISTINCT-canonical-
url table, not the corpus; ``max_distinct_rows`` fails loudly when it
stops being model-sized — beyond that, the same partials feed the
dedup_exact hash-partition groupby path instead (url as the content
key).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

# (pattern, replacement) applied in order AFTER the fragment strip and
# BEFORE/AFTER the lowercase step as documented below.  Kept RE2-safe
# (no lookaround) so DuckDB runs the identical rules.
FRAGMENT_PAT = r"#.*"
AUTHORITY_PAT = r"^[^/?#]*//[^/?#]*"
CANON_STEPS: tuple[tuple[str, str], ...] = (
    (r":80(/|\?|$)", r"\1"),                # default port
    (r"utm_[a-z_]+=[^&#]*&", r""),          # utm param followed by another
    (r"[?&]utm_[a-z_]+=[^&#]*$", r""),      # trailing utm incl. separator
    # one non-root trailing slash: needs a real path segment, and the
    # ([^/]) guard keeps the '//' of the authority from counting as one
    (r"([^/])(/[^/?#]+)/(\?|$)", r"\1\2\3"),
)
HOST_PAT = r"^[a-z]+://(www\.)?([^/:?#]+)"


def canonicalize(urls) -> pd.Series:
    """Vectorized canonical form of a url array (pandas str kernels).

    Order: fragment strip -> lowercase scheme+authority -> CANON_STEPS.
    """
    s = pd.Series(np.asarray(urls, dtype=object)).astype(str)
    s = s.str.replace(FRAGMENT_PAT, "", regex=True)
    s = s.str.replace(AUTHORITY_PAT, lambda m: m.group(0).lower(),
                      regex=True)
    for pat, repl in CANON_STEPS:
        s = s.str.replace(pat, repl, regex=True)
    return s


_HOST_RE = re.compile(HOST_PAT)


def host_of(canon: pd.Series) -> pd.Series:
    """Registered host (authority minus port and a leading www.) of
    CANONICAL urls; '' when the url has no authority."""
    return canon.str.extract(_HOST_RE, expand=True)[1].fillna("")


def url_host_stats(ds, url_col: str = "url", *,
                   max_distinct_rows: int = 50_000_000) -> pd.DataFrame:
    """Per-host canonical-url dedup summary: (host, n_docs, n_urls,
    dup_docs) where n_urls counts DISTINCT canonical urls and dup_docs =
    n_docs - n_urls is the rows url-dedup would drop.  Sorted by host."""

    def parts(b: pa.Table) -> pa.Table:
        canon = canonicalize(b[url_col].to_numpy(zero_copy_only=False))
        host = host_of(canon)
        g = pd.DataFrame({"host": host, "url": canon}) \
            .groupby(["host", "url"], sort=False).size()
        f = g.reset_index(name="n")
        return pa.table({
            "host": pa.array(f["host"].tolist(), type=pa.string()),
            "url": pa.array(f["url"].tolist(), type=pa.string()),
            "n": pa.array(f["n"].to_numpy().astype(np.int64)),
        })

    merge_rows = 4_000_000
    acc = pd.DataFrame({"host": pd.Series(dtype=object),
                        "url": pd.Series(dtype=object),
                        "n": pd.Series(dtype=np.int64)})
    buf: list[pd.DataFrame] = []
    buffered = 0

    def _fold() -> None:
        nonlocal acc, buffered, buf
        acc = pd.concat([acc] + buf, ignore_index=True) \
            .groupby(["host", "url"], sort=False, as_index=False)["n"].sum()
        buf, buffered = [], 0
        if len(acc) > max_distinct_rows:
            raise ValueError(
                f"distinct canonical urls exceed max_distinct_rows="
                f"{max_distinct_rows}; route the partials through the "
                "hash-partition groupby (dedup_exact path) instead")

    for bt in ds.map_batches(parts, batch_format="pyarrow") \
            .iter_batches(batch_format="pyarrow"):
        buf.append(bt.to_pandas())
        buffered += bt.num_rows
        if buffered >= merge_rows:
            _fold()
    if buf:
        _fold()
    g = acc.groupby("host", sort=True)
    out = pd.DataFrame({
        "n_docs": g["n"].sum(),
        "n_urls": g["url"].size(),
    }).reset_index()
    out["dup_docs"] = out["n_docs"] - out["n_urls"]
    return out.astype({"n_docs": np.int64, "n_urls": np.int64,
                       "dup_docs": np.int64})

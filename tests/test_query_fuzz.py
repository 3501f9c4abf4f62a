"""Property fuzz of the query_string surface: for randomly generated
queries over a fixed corpus, the INDEX-BACKED path (driver-side
preresolution to IdSets, exactly what filter_by_query_string ships to
map tasks) must produce the same row mask as the pure tokenized-text
scan path.  This is the equivalence contract the driver oracles rely on,
exercised across operator combinations no hand-written case covers."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ee_outliers_ray.query.parse import (
    EvalCtx,
    parse_query_string,
    preresolve_index_clauses,
)

VOCAB = ["alpha", "beta", "gamma", "delta", "word1", "word2", "word3",
         "spark", "spork", "merge", "fast", "slow"]


def _corpus_texts():
    rng = np.random.default_rng(29)
    texts = []
    for _ in range(200):
        n = int(rng.integers(0, 9))
        texts.append(" ".join(rng.choice(VOCAB, size=n)))
    # targeted shapes: empties, repeats, adjacency, near-misses
    texts += ["", "alpha alpha", "alpha beta alpha", "spark merge",
              "merge spark", "spark fast merge", "alpha " * 30]
    return texts


@pytest.fixture(scope="module")
def fuzz_env(tmp_path_factory):
    from ee_outliers_ray.index.build import build_index
    from ee_outliers_ray.query.reader import IndexReader

    texts = _corpus_texts()
    batch = pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": texts,
    })
    d = tmp_path_factory.mktemp("fuzz")
    src = str(d / "docs.parquet")
    pq.write_table(batch, src)
    idx = str(d / "idx")
    build_index(src, idx, from_html=False, num_buckets=4, batch_size=64,
                store_positions=True)
    return batch, IndexReader(idx)


# --- query grammar ---------------------------------------------------------
_term = st.sampled_from(VOCAB + ["absentzz"])
_clause = st.one_of(
    _term,
    st.tuples(_term, _term).map(lambda t: f"{t[0]} {t[1]}"),       # multi-tok
    st.tuples(_term, _term, st.integers(0, 2)).map(
        lambda t: f'"{t[0]} {t[1]}"' + (f"~{t[2]}" if t[2] else "")),
    st.sampled_from(["wo*", "s*rk", "al?ha", "zz*"]),              # wildcard
    st.sampled_from(["spark~1", "spork~1", "alpha~2", "qqqq~1"]),  # fuzzy
    st.sampled_from(["/w(ord1|ord2)/", "/sp.rk/", "/nomatch+/"]),  # regexp
)
_signed = st.tuples(st.sampled_from(["", "-", "NOT "]), _clause).map(
    lambda t: t[0] + t[1])
_query = st.tuples(
    st.lists(_signed, min_size=1, max_size=3),
    st.sampled_from([" AND ", " OR ", " "]),
).map(lambda t: t[1].join(t[0]))


@given(q=_query, op=st.sampled_from(["or", "and"]))
@settings(max_examples=200, deadline=None)
def test_index_path_equals_scan_path(fuzz_env, q, op):
    batch, reader = fuzz_env
    ctx = EvalCtx(text_col="text", id_col="doc_id")
    scan = parse_query_string(q, op).mask(batch, ctx)
    resolved = preresolve_index_clauses(parse_query_string(q, op), reader)
    indexed = resolved.mask(batch, ctx)
    assert list(indexed) == list(scan), (q, op)

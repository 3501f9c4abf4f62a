"""textstats.ngram_counts vs an independent dict-based reference:
windows never cross doc boundaries; n=1 equals a Counter over the
tokenizer, in code-point order; min_count prunes; the guard fires
loudly."""

import re
from collections import Counter

import numpy as np
import pyarrow as pa
import pytest

from ee_outliers_ray.textstats import ngram_counts
from ee_outliers_ray.tokenizer import tokenize

TOKEN_RE = re.compile(r"[a-z0-9]+")

TEXTS = [
    "the quick brown fox the quick",
    "",                      # empty doc
    "single",                # 1-token doc: no bigram
    "a b a b a",             # repeats
    "THE Quick brown",       # case folding
    "x1 y2 x1 y2",
]


def _ref(texts, n):
    counts = {}
    for t in texts:
        toks = TOKEN_RE.findall(t.lower())
        for i in range(len(toks) - n + 1):
            g = " ".join(toks[i:i + n])
            counts[g] = counts.get(g, 0) + 1
    return counts


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ngram_counts_vs_reference(ray_session, n):
    import ray.data

    # two single-row blocks + one multi-row block to exercise folding
    ds = ray.data.from_arrow(pa.table({"text": TEXTS})).repartition(3)
    w, c = ngram_counts(ds, n=n)
    got = dict(zip(w.tolist(), c.tolist()))
    assert got == _ref(TEXTS, n)


def test_ngram_boundary_never_crosses(ray_session):
    import ray.data

    # "b a" only appears across the doc boundary -> must NOT be counted
    ds = ray.data.from_arrow(pa.table({"text": ["a b", "a b"]}))
    w, c = ngram_counts(ds, n=2)
    assert dict(zip(w.tolist(), c.tolist())) == {"a b": 2}


def test_ngram_unigram_equals_word_counts(ray_session):
    import ray.data

    ds = ray.data.from_arrow(pa.table({"text": TEXTS}))
    w1, c1 = ngram_counts(ds, n=1)
    ref = sorted(Counter(t for x in TEXTS for t in tokenize(x)).items())
    w2, c2 = [w for w, _ in ref], [c for _, c in ref]
    assert w1.tolist() == w2 and c1.tolist() == c2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gram_partial_paths_pinned_equal(n):
    """The int-key fast path and the string path must return identical
    (gram, count) tables — both forced explicitly on the same batch.
    The sliced batch keeps its parent's offsets (non-zero first offset):
    windows must still stop at its doc boundaries."""
    from ee_outliers_ray.textstats import _gram_partial
    from ee_outliers_ray.tokenizer import tokenize_column

    full = tokenize_column(pa.chunked_array([pa.array(TEXTS)]).combine_chunks())
    for toks, texts in ((full, TEXTS), (full.slice(3), TEXTS[3:])):
        wi, ci = _gram_partial(toks, n, use_int_keys=True)
        ws, cs = _gram_partial(toks, n, use_int_keys=False)
        assert wi.tolist() == ws.tolist()
        assert ci.tolist() == cs.tolist()
        assert dict(zip(wi.tolist(), ci.tolist())) == _ref(texts, n)


def test_ngram_min_count_and_guard(ray_session):
    import ray.data

    ds = ray.data.from_arrow(pa.table({"text": TEXTS}))
    w, c = ngram_counts(ds, n=2, min_count=2)
    ref = {g: k for g, k in _ref(TEXTS, 2).items() if k >= 2}
    assert dict(zip(w.tolist(), c.tolist())) == ref
    with pytest.raises(ValueError, match="max_vocab_rows"):
        ngram_counts(ds, n=2, max_vocab_rows=2)

"""Okapi BM25 scoring (k1=1.2, b=0.75) — the single scoring definition
shared by the TAAT oracle, the block-max pruning engine, and mirrored in
the DuckDB oracle SQL (__ray_entry__.oracle_sql).

idf  = ln(1 + (N - df + 0.5) / (df + 0.5))                # Lucene-style, >= 0
w    = idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl))

Determinism contract (SURVEY §7.5.1): per-document scores are float64 sums
of per-term contributions **in ascending term order**; ties in top-k break
by (score desc, doc_id asc).  Both engine paths follow this contract, so
results are rank- and score-identical across parallelism levels.
"""

from __future__ import annotations

import math

import numpy as np

from .. import BM25_B, BM25_K1


def idf(n_docs: int, df: int) -> float:
    return math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))


def term_weight(tf: np.ndarray, dl: np.ndarray, idf_val: float, avgdl: float,
                k1: float = BM25_K1, b: float = BM25_B) -> np.ndarray:
    """Vectorized BM25 contribution of one term over its postings.

    In-place form of ``idf * tf * (k1+1) / (tf + k1 * (1-b + b*dl/avgdl))``
    — two allocations instead of ~eight 8-byte-per-posting temporaries
    (a 16M-posting stopword list churns >1 GB otherwise).  Only
    commutativity is used (a*b == b*a, a+b == b+a bitwise in IEEE754);
    no reassociation, so results stay BIT-IDENTICAL to the plain
    expression (golden BM25 + oracle gates depend on this)."""
    num = tf.astype(np.float64)
    num *= idf_val                  # (idf * tf)
    num *= (k1 + 1.0)               # ... * (k1+1), same order as before
    den = dl.astype(np.float64)
    den *= b                        # (b * dl)
    den /= avgdl                    # ... / avgdl
    den += (1.0 - b)                # (1-b) + x  ==  x + (1-b)
    den *= k1                       # k1 * x     ==  x * k1
    den += tf                       # tf + x     ==  x + tf
    num /= den
    return num


def block_upper_bound(idf_val: float, max_tf: np.ndarray, min_dl: np.ndarray,
                      avgdl: float, k1: float = BM25_K1, b: float = BM25_B) -> np.ndarray:
    """Valid per-block upper bound on the term weight.

    BM25's tf-normalization is increasing in tf and decreasing in dl, so
    w(tf, dl) <= w(max_tf, min_dl) over the block (codec stores max_tf /
    min_dl at build time; avgdl is only known globally at query time).
    """
    mt = np.asarray(max_tf, dtype=np.float64)
    md = np.asarray(min_dl, dtype=np.float64)
    return idf_val * mt * (k1 + 1.0) / (mt + k1 * (1.0 - b + b * md / avgdl))


def topk_from_scores(doc_ids: np.ndarray, scores: np.ndarray, k: int
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic top-k: score desc, doc_id asc.  ``k <= 0`` selects
    nothing (the ES ``size: 0`` request)."""
    if len(doc_ids) == 0 or k <= 0:
        return doc_ids[:0], scores[:0]
    k = min(k, len(doc_ids))
    if len(doc_ids) > 4 * k:
        # kth-largest score threshold, then keep every candidate at or
        # above it (ties included) so tie-breaking by doc_id stays exact
        thresh = np.partition(scores, len(scores) - k)[len(scores) - k]
        cand = np.flatnonzero(scores >= thresh)
    else:
        cand = np.arange(len(doc_ids))
    order = np.lexsort((doc_ids[cand], -scores[cand]))[:k]
    sel = cand[order]
    return doc_ids[sel], scores[sel]

"""Vectorized Levenshtein matching for Lucene fuzzy terms (``spark~1``).

ES query_string forwards ``term~N`` to Lucene's FuzzyQuery (the reference
passes user strings verbatim, /root/reference/app/helpers/es.py:238-250),
which expands the term against the index dictionary within edit distance
N.  The kernel here is a Wagner-Fischer DP vectorized ACROSS candidates:
one (n_candidates,) vector op per DP cell, with the row-internal
insertion dependency resolved by a running min of ``dp[k] - k`` (the
classic linear-chain trick: an insertion path from k to j costs j - k, so
``min_k (dp[k] - k) + j`` propagates transitively via one
``np.minimum.accumulate``).  m * L vector passes total — no per-candidate
Python in the distance computation.

Semantics match DuckDB ``levenshtein()`` exactly (unit-cost edits, no
transpositions) — which is BYTE-level over the UTF-8 encoding, not
character-level (validated: duckdb ``levenshtein('café','cafe') = 2``,
``levenshtein('héllo','hello') = 2``).  The DP therefore runs on the
UTF-8 bytes of both query and candidates, so non-ASCII queries get the
same answers the driver oracle computes instead of an all-False mask
(index terms are ``[a-z0-9]+`` so their bytes == chars; the byte path
only changes what a non-ASCII USER query matches).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _band_matrix(cands: pa.StringArray, m: int, max_dist: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The candidates whose UTF-8 byte length is within ``max_dist`` of
    ``m`` (a length-band prune — the edit distance is at least the
    length difference), gathered straight from the Arrow buffers: their
    indices, an (n, L) uint8 matrix (NUL-padded) and byte lengths."""
    n = len(cands)
    offs = np.frombuffer(cands.buffers()[1], dtype=np.int32,
                         count=n + 1, offset=4 * cands.offset)
    data = cands.buffers()[2]
    data = np.frombuffer(data, dtype=np.uint8) if data is not None \
        else np.zeros(1, dtype=np.uint8)
    lens = np.diff(offs)
    idx = np.flatnonzero(np.abs(lens - m) <= max_dist)
    lens, starts = lens[idx], offs[idx]
    cols = np.arange(int(lens.max()) if len(idx) else 0)
    pos = np.minimum(starts[:, None] + cols, len(data) - 1)
    mat = np.where(cols < lens[:, None], data[pos], np.uint8(0))
    return idx, mat, lens


def levenshtein_within(query: str, cands, max_dist: int) -> np.ndarray:
    """Boolean mask: which candidates (a list of str or an Arrow string
    array) are within ``max_dist`` edits of ``query`` under
    DuckDB/byte-level Levenshtein.  Candidates outside the length band
    are rejected up front."""
    if not isinstance(cands, pa.Array):
        cands = pa.array(cands, pa.string())
    out = np.zeros(len(cands), dtype=bool)
    if not len(cands):
        return out
    q = np.frombuffer(query.encode(), dtype=np.uint8)
    m = len(q)
    idx, mat, lens = _band_matrix(cands, m, max_dist)
    if not len(idx):
        return out
    nb, L = mat.shape
    cols = np.arange(L + 1, dtype=np.int32)
    dp = np.broadcast_to(cols, (nb, L + 1)).astype(np.int32)
    for i in range(1, m + 1):
        cost = (mat != q[i - 1]).astype(np.int32)
        new = np.empty_like(dp)
        new[:, 0] = i
        # substitution (diag) and deletion-from-candidate (vertical)
        np.minimum(dp[:, :-1] + cost, dp[:, 1:] + 1, out=new[:, 1:])
        # insertion (horizontal) chain: min_k<j (new[k] - k) + j
        a = new - cols
        np.minimum.accumulate(a, axis=1, out=a)
        np.minimum(new, a + cols, out=new)
        dp = new
        # a row's minimum never falls in later rows: drop candidates
        # already beyond max_dist
        alive = dp.min(axis=1) <= max_dist
        if not alive.all():
            idx, mat, lens, dp = idx[alive], mat[alive], lens[alive], \
                dp[alive]
    out[idx] = dp[np.arange(len(idx)), lens] <= max_dist
    return out

"""BM25 top-k query engines over the segment index: one scoring core.

``TaatSearcher`` owns everything a score depends on: the reader, the
(optionally injected, global) N / avgdl / df, and one budgeted cache of
per-term (doc_ids, weights) vectors.  Plain top-k and
``minimum_should_match`` (``min_match_topk``) both scatter term-at-a-time
into one dense float64 accumulator; one sparse/dense gate (``_sparse``)
decides only how candidates are found: ``np.unique`` of the terms' ids
for rare-term requests, a scan of a per-doc mark otherwise.
``BlockMaxPruning`` is the same searcher with a range-pruning dense path:
block-max bounds projected onto fixed doc ranges decide which ranges of
the cached vectors get scored.  Both follow the determinism contract in
``bm25.py`` (float64 accumulation in ascending term order; ties
score-desc/doc_id-asc), so they return **identical** (doc_id, score)
lists.  ``intersect_terms`` is the block-skipping AND path.

Replaces the reference's delegation of ``query_string`` scoring to
Elasticsearch/Lucene (ee-outliers ``app/helpers/es.py:238-250``).
"""

from __future__ import annotations

import numpy as np

from ..tokenizer import tokenize
from .bm25 import block_upper_bound, idf, term_weight, topk_from_scores
from .reader import IndexReader


def _query_terms(query: str) -> list[str]:
    """Unique query terms in ascending order (the fixed summation order)."""
    return sorted(set(tokenize(query)))


class TaatSearcher:
    """Vectorized term-at-a-time BM25 scorer with reusable accumulators.

    The in-sandbox serving path: decoding + scoring are numpy kernels, the
    accumulator array is allocated once per searcher and only the touched
    entries are reset between queries.  Scale note: a dense accumulator is
    bounded by the doc-partition size — at 10^12 docs the corpus is doc-
    sharded and each shard's searcher accumulates over its own range, with
    a top-k heap merge across shards; ``BlockMaxPruning`` subclasses it
    as the skip path.

    The sharded service injects GLOBAL N / avgdl / df through
    ``set_global_stats`` / ``add_dfs``: postings are shard-local, but
    per-shard scores must be directly mergeable and identical to a
    single-index run.
    """

    # postings held weighted across the cached terms of one searcher:
    # clear-on-overflow, then insert, so a long-lived actor stays within
    # the budget plus one term's postings
    WEIGHT_BUDGET = 30_000_000

    def __init__(self, reader: IndexReader):
        self.reader = reader
        self.n_docs = reader.n_docs
        self.avgdl = reader.avgdl
        self.df_lookup: dict[str, int] = {}
        self._acc = np.zeros(len(reader.doclens), dtype=np.float64)
        self._touched = np.zeros(len(reader.doclens), dtype=bool)
        # per-doc distinct-term counts of min_match requests
        self._cnt = np.zeros(len(reader.doclens), dtype=np.int16)
        # per-term BM25 weight vectors are query-independent (idf, dl,
        # avgdl are fixed per index) -> cache them; repeat queries reduce
        # to one scatter-add per term
        self._weights: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._weights_n = 0
        # bounded result cache for identical (terms, k) requests — the
        # analogue of Elasticsearch's shard request cache (the reference
        # relies on it implicitly when re-running use cases); safe here
        # because the index is immutable per reader
        self.result_cache_size = 65536
        self._results: dict[tuple, list] = {}

    def set_global_stats(self, n_docs: int, avgdl: float,
                         df_lookup: dict[str, int]) -> None:
        self.n_docs = n_docs
        self.avgdl = avgdl
        self.df_lookup = dict(df_lookup)
        self._weights.clear()
        self._weights_n = 0
        self._results.clear()

    def add_dfs(self, dfs: dict[str, int]) -> None:
        for t, v in dfs.items():
            if self.df_lookup.get(t) != v:
                self.df_lookup[t] = v
                self._weights.pop(t, None)
                self._results.clear()

    def local_df(self, term: str) -> int:
        return self.reader.df(term)

    def _term_vec(self, t: str):
        hit = self._weights.get(t)
        if hit is not None:
            return hit
        dec = self.reader.postings_decoded(t)
        if dec is None:
            return None
        doc_ids, tfs = dec
        df = self.df_lookup.get(t, len(doc_ids))
        w = term_weight(tfs, self.reader.doclens[doc_ids],
                        idf(self.n_docs, df), self.avgdl)
        if self._weights_n + len(doc_ids) > self.WEIGHT_BUDGET:
            self._weights.clear()
            self._weights_n = 0
        self._weights[t] = (doc_ids, w)
        self._weights_n += len(doc_ids)
        return doc_ids, w

    def topk(self, query: str, k: int = 10) -> list[tuple[int, float]]:
        terms = _query_terms(query)
        if self.result_cache_size <= 0:
            return self._topk_uncached(terms, k)
        ckey = (tuple(terms), k)
        hit = self._results.get(ckey)
        if hit is not None:
            return list(hit)
        out = self._topk_uncached(terms, k)
        if len(self._results) >= self.result_cache_size:
            self._results.clear()
        self._results[ckey] = out
        return list(out)

    def min_match_topk(self, terms, min_match: int, k: int = 10
                       ) -> list[tuple[int, int, float]]:
        """BM25 top-k with a ``minimum_should_match`` floor — the Lucene/
        ES OR-query knob the reference reaches through its es_query /
        query_string use-case configs (ee-outliers
        ``app/helpers/es.py:238-250``).  Candidates are docs matching at least ``min_match``
        DISTINCT query terms; each scores the BM25 sum over its matched
        terms with the same cached per-term weights, injected global
        stats and ascending-term float64 accumulation as ``topk``; ties
        (score desc, doc_id asc).  ``min_match=1`` is a pure OR query,
        ``min_match=len(terms)`` the AND set (``intersect_terms``),
        BM25-ranked.  Doc shards answer it exactly: their docs are
        disjoint, so per-shard match counts are complete.  Returns
        (doc_id, n_matched, score) tuples, scores unrounded."""
        min_match = max(int(min_match), 1)
        tkey = tuple(sorted(set(terms)))
        ckey = ("mm", tkey, min_match, k)
        if self.result_cache_size > 0:
            hit = self._results.get(ckey)
            if hit is not None:
                return list(hit)
        vecs = []
        for t in tkey:                    # ascending-term sum order
            vec = self._term_vec(t)
            if vec is not None and len(vec[0]):
                vecs.append(vec)
        out = []
        if len(vecs) >= min_match:        # absent terms cannot match
            acc, cnt = self._acc, self._cnt
            for ids, w in vecs:
                acc[ids] += w
                cnt[ids] += 1
            cand = _union(vecs) if self._sparse(vecs) \
                else np.flatnonzero(cnt)
            keep = cand[cnt[cand] >= min_match]
            d, s = topk_from_scores(keep, acc[keep], k)
            out = list(zip(d.tolist(), cnt[d].tolist(), s.tolist()))
            acc[cand] = 0.0
            cnt[cand] = 0
        if self.result_cache_size > 0:
            if len(self._results) >= self.result_cache_size:
                self._results.clear()
            self._results[ckey] = out
        return list(out)

    def _sparse(self, vecs: list) -> bool:
        """The one sparse/dense gate of top-k and min_match: requests
        whose postings total under 1/16 of the docs find their
        candidates as ``np.unique`` of the terms' (sorted) ids, which
        avoids the O(n_docs) scan that would otherwise floor every query
        at corpus-size cost; the rest scan a per-doc mark (or, in
        ``BlockMaxPruning``, prune ranges), since ``np.unique`` over a
        multi-million-id union was the measured hot loop of hot-term
        requests."""
        return sum(len(v[0]) for v in vecs) * 16 < len(self._acc)

    def _topk_uncached(self, terms: list[str], k: int
                       ) -> list[tuple[int, float]]:
        hit_terms, vecs = [], []
        for t in terms:
            vec = self._term_vec(t)
            if vec is not None:
                hit_terms.append(t)
                vecs.append(vec)
        if not vecs:
            return []
        if not self._sparse(vecs):
            return self._topk_dense(hit_terms, vecs, k)
        acc = self._acc
        for doc_ids, w in vecs:  # ascending-term order preserved
            acc[doc_ids] += w
        cand = _union(vecs)
        d, s = topk_from_scores(cand, acc[cand], k)
        acc[cand] = 0.0
        return list(zip(d.tolist(), s.tolist()))

    def _topk_dense(self, terms: list[str], vecs: list, k: int
                    ) -> list[tuple[int, float]]:
        """Score ``vecs`` (the cached (doc_ids, weights) of ``terms``,
        ascending) with one scatter pass and a touched-array scan."""
        acc = self._acc
        touched = self._touched
        for doc_ids, w in vecs:
            acc[doc_ids] += w
            touched[doc_ids] = True
        cand = np.flatnonzero(touched)
        d, s = topk_from_scores(cand, acc[cand], k)
        acc[cand] = 0.0  # reset only touched entries
        touched[cand] = False
        return list(zip(d.tolist(), s.tolist()))


def _union(vecs: list) -> np.ndarray:
    """Ascending union of the doc ids of ``vecs`` (each already sorted)."""
    return np.unique(np.concatenate([v[0] for v in vecs])) \
        if len(vecs) > 1 else vecs[0][0]


def taat_topk(reader: IndexReader, query: str, k: int = 10
              ) -> list[tuple[int, float]]:
    return TaatSearcher(reader).topk(query, k)


class BlockMaxPruning(TaatSearcher):
    """Vectorized range-at-a-time block-max pruning (BMP) top-k.

    A ``TaatSearcher`` that skips doc ranges: it shares TAAT's weight
    cache, injected global stats, result cache, ``min_match_topk`` and
    sparse union path, and replaces only the dense scan.  Per-term,
    per-block BM25 upper bounds are projected onto fixed-width doc-id
    ranges with two ``searchsorted`` passes and one ``maximum.reduceat``
    (no posting decode), computed from the same N / avgdl / df as the
    cached weights they bound.  Ranges are visited in descending
    aggregate-bound order; each visited range scatters the slices of the
    cached (doc_ids, weights) vectors that fall in it (one
    ``searchsorted`` per term per query gives every range's cut), in
    ascending term order, so (doc_id, score) results are bit-identical
    to TAAT (pytest-gated).  Visiting stops at the first range whose
    bound is STRICTLY below the current kth score: ``<=`` would be
    unsafe under the (score desc, doc_id asc) tie rule, because an
    unvisited doc tying the kth score with a smaller doc_id would still
    deserve the slot.

    After the range-pruning idea of Mallia, Suel & Tonellotto, "Faster
    Learned Sparse Retrieval with Block-Max Pruning" (SIGIR 2024, public),
    adapted to this codec's unaligned 128-posting blocks: a block
    straddling a range boundary contributes through the explicit
    ``ub[hi-1]`` term, so the projected bound stays valid without
    re-blocking the index.  The bound projection is O(n_ranges +
    n_blocks) per term, independent of posting count.
    """

    def __init__(self, reader: IndexReader, range_width: int = 4096):
        super().__init__(reader)
        self.range_width = int(range_width)

    def _topk_dense(self, terms: list[str], vecs: list, k: int
                    ) -> list[tuple[int, float]]:
        W = self.range_width
        n_ranges = max(1, -(-len(self._acc) // W))
        edges = np.arange(n_ranges + 1, dtype=np.int64) * W
        bound = np.zeros(n_ranges, dtype=np.float64)
        cuts = []
        for t, (doc_ids, _) in zip(terms, vecs):
            run = self.reader.postings(t)
            ub = block_upper_bound(
                idf(self.n_docs, self.df_lookup.get(t, len(doc_ids))),
                run.block_max_tf, run.block_min_dl, self.avgdl)
            nb = len(ub)
            # blocks intersecting range r: [lo_r, hi_r)
            lo = np.searchsorted(run.block_last_doc, edges[:-1], side="left")
            hi = np.searchsorted(run.block_first_doc, edges[1:], side="left")
            has = hi > lo
            # segment max over [lo_r, lo_{r+1}) via reduceat on a padded
            # array (pad makes index nb valid; empty segments are masked)
            ub_pad = np.append(ub, -np.inf)
            segmax = np.maximum.reduceat(ub_pad, np.minimum(lo, nb))
            seg_nonempty = np.diff(np.append(lo, nb)) > 0
            contrib = np.zeros(n_ranges, dtype=np.float64)
            contrib[has] = ub[np.maximum(hi - 1, 0)[has]]
            m = seg_nonempty & has
            contrib[m] = np.maximum(contrib[m], segmax[m])
            bound += contrib
            cuts.append(np.searchsorted(doc_ids, edges).tolist())

        acc, touched = self._acc, self._touched
        top_d = np.zeros(0, dtype=np.int64)
        top_s = np.zeros(0, dtype=np.float64)
        theta = -np.inf
        for o in np.argsort(-bound, kind="stable").tolist():
            b = bound[o]
            if b <= 0.0 or b < theta:
                break
            for (doc_ids, w), cut in zip(vecs, cuts):  # ascending terms
                s, e = cut[o], cut[o + 1]
                if s < e:
                    acc[doc_ids[s:e]] += w[s:e]
                    touched[doc_ids[s:e]] = True
            local = np.flatnonzero(touched[o * W:(o + 1) * W]) + o * W
            scores = acc[local]
            acc[local] = 0.0
            touched[local] = False
            keep = scores >= theta
            if keep.any():
                top_d, top_s = topk_from_scores(
                    np.concatenate([top_d, local[keep]]),
                    np.concatenate([top_s, scores[keep]]), k)
                if 0 < k <= len(top_d):
                    theta = top_s[-1]
        return list(zip(top_d.tolist(), top_s.tolist()))


def _run_members(run, cand: np.ndarray) -> np.ndarray:
    """Boolean membership of ascending candidate doc_ids in a posting
    run, decoding ONLY the blocks a candidate could land in (block-skip
    via the run's block_last_doc directory), all in one ``decode_run``
    gather, then one searchsorted.  Memory is O(blocks touched)."""
    from ..index.codec import decode_run

    bis = np.unique(np.searchsorted(run.block_last_doc, cand, side="left"))
    docs, _ = decode_run(run, bis[bis < len(run.block_last_doc)])
    pos = np.searchsorted(docs, cand)
    keep = pos < len(docs)
    keep[keep] = docs[pos[keep]] == cand[keep]
    return keep


def intersect_terms(reader: IndexReader, terms) -> np.ndarray:
    """Boolean-AND posting intersection WITHOUT materializing any full
    posting list: stream the rarest term's run ``DECODE_CHUNK`` blocks
    at a time and filter each candidate chunk through the other runs'
    block directories (``_run_members``).  Replaces the old
    decode-everything + np.intersect1d driver path — a hot term's
    multi-GB run now costs one block-directory binary search per
    candidate instead of a full decode.

    Reads through ``reader.postings`` so tombstone filtering applies
    (same filtered runs TAAT/BMP see).  Returns ascending doc_ids."""
    from ..index.codec import DECODE_CHUNK, decode_run

    runs = []
    for t in sorted(set(terms)):
        run = reader.postings(t)
        if run is None:
            return np.array([], dtype=np.int64)
        runs.append(run)
    if not runs:
        return np.array([], dtype=np.int64)
    runs.sort(key=lambda r: r.n_postings)
    lead, rest = runs[0], runs[1:]
    out: list[np.ndarray] = []
    for lo in range(0, len(lead.block_len), DECODE_CHUNK):
        cand, _ = decode_run(lead, slice(lo, lo + DECODE_CHUNK))
        for r in rest:
            if not len(cand):
                break
            cand = cand[_run_members(r, cand)]
        if len(cand):
            out.append(cand)
    if not out:
        return np.array([], dtype=np.int64)
    return np.concatenate(out)

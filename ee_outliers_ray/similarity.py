"""Similarity search over an embedding column (list<float>).

- ``cosine_topk``: brute-force cosine top-k — per-batch numpy matmul
  against a broadcast query matrix (the exact baseline).
- ``IvfIndex``: IVF-style coarse quantizer (seeded k-means on a sample)
  — the scale path: assign each vector to its nearest centroid at build
  time (one pass), probe only the closest ``nprobe`` centroid partitions
  at query time.
- ``embedding_near_dups``: cosine near-duplicate pairs via random
  hyperplane LSH banding + exact verify.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .functions import duck_round


def _batch_mat(b: pa.Table, col: str) -> np.ndarray:
    """(ndoc, dim) float64 matrix from a fixed-width list<float> column —
    zero-copy from the Arrow child buffer (one astype, no per-row
    ``to_pylist`` conversion)."""
    c = b[col]
    if isinstance(c, pa.ChunkedArray):
        c = c.combine_chunks()
    ndoc = len(c)
    if ndoc == 0:
        return np.zeros((0, 0), dtype=np.float64)
    off = c.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    widths = off[1:] - off[:-1]
    if c.null_count or widths.min() != widths.max():
        # ragged / null rows: rare slow path, keeps the old semantics
        return np.array(c.to_pylist(), dtype=np.float64)
    flat = c.flatten().to_numpy(zero_copy_only=False)
    return flat.reshape(ndoc, int(widths[0])).astype(np.float64, copy=False)


def _norm(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def cosine_topk(ds, query_vec: np.ndarray, k: int = 10,
                vec_col: str = "embedding", id_col: str = "vec_id",
                round_to: int = 6):
    """Exact brute-force cosine top-k, streaming: per-batch similarity +
    per-batch candidate pruning, global top-k via sort+limit on the tiny
    candidate set."""
    q = np.asarray(query_vec, dtype=np.float64)
    q = q / (np.linalg.norm(q) or 1.0)

    def sim(b: pa.Table) -> pa.Table:
        m = _norm(_batch_mat(b, vec_col))
        s = duck_round(m @ q, round_to)
        # per-batch prune — rounded BEFORE the cut and tie-aware (keep
        # everything tied with the k-th rounded value), so the global
        # (cosine desc, id asc) sort can never lose a boundary winner
        # to the prune
        if len(s) > k:
            kth = np.partition(s, len(s) - k)[len(s) - k]
            keep = np.flatnonzero(s >= kth)
        else:
            keep = np.arange(len(s))
        ids = b[id_col].to_numpy(zero_copy_only=False)[keep]
        return pa.table({id_col: pa.array(ids),
                         "cosine": pa.array(s[keep])})

    cand = ds.map_batches(sim, batch_format="pyarrow")
    return cand.sort(["cosine", id_col], descending=[True, False]).limit(k)


def deterministic_sample(ds, vec_col: str = "embedding",
                         max_sample: int = 4096) -> np.ndarray:
    """Bounded deterministic vector sample drawn distributed: rows whose
    vector-bytes hash falls under ``~max_sample/n`` of the key space are
    kept (2x margin), then the hash-thinned set is sorted BY HASH before
    the cut — a bare ``.limit()`` would keep whichever blocks finished
    first (block-order-dependent, the CLAUDE.md ann_ivf invariant).
    Independent of Ray's batching/parallelism; the full table never
    reaches the driver.  Used by the IvfIndex fit."""
    from .hashing import hash_bytes_segments

    n = max(1, ds.count())
    frac = min(1.0, (2.0 * max_sample) / n)  # 2x margin, then limit
    thresh = np.uint64(min(2**64 - 1, int(frac * 2.0**64)))

    def thin(b: pa.Table) -> pa.Table:
        col = b[vec_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.flatten()
        offsets = col.offsets.to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        offsets = offsets - offsets[0]  # flatten() already re-bases
        width = flat.type.bit_width // 8
        raw = np.frombuffer(
            flat.buffers()[1], dtype=np.uint8,
            count=len(flat) * width,
            offset=flat.offset * width)
        h = hash_bytes_segments(raw, offsets * width)
        keep = h <= thresh
        return pa.table({vec_col: col.filter(pa.array(keep)),
                         "_h": pa.array(h[keep].view(np.int64))})

    sample_tbl = ds.select_columns([vec_col]) \
        .map_batches(thin, batch_format="pyarrow") \
        .to_pandas()
    sample_tbl = sample_tbl.sort_values("_h", kind="stable") \
        .head(max_sample)
    return np.array(sample_tbl[vec_col].tolist(), dtype=np.float64)


class IvfIndex:
    """IVF coarse index: k-means centroids fit on a driver-side sample
    (seeded, deterministic), vectors assigned by one distributed pass."""

    def __init__(self, n_lists: int = 16, seed: int = 11, iters: int = 10):
        self.n_lists = n_lists
        self.seed = seed
        self.iters = iters
        self.centroids: np.ndarray | None = None

    def fit_dataset(self, ds, vec_col: str = "embedding",
                    max_sample: int = 4096) -> "IvfIndex":
        """Fit on a bounded deterministic sample drawn distributed
        (``deterministic_sample``) — independent of Ray's batching/
        parallelism, so the centroids (and the ANN results) are stable
        across runs.  The full table never reaches the driver."""
        return self.fit(deterministic_sample(ds, vec_col, max_sample))

    def fit(self, sample: np.ndarray) -> "IvfIndex":
        rng = np.random.default_rng(self.seed)
        x = _norm(np.asarray(sample, dtype=np.float64))
        c = x[rng.choice(len(x), size=min(self.n_lists, len(x)), replace=False)]
        for _ in range(self.iters):
            assign = np.argmax(x @ c.T, axis=1)
            for j in range(len(c)):
                members = x[assign == j]
                if len(members):
                    c[j] = members.mean(axis=0)
            c = _norm(c)
        self.centroids = c
        return self

    def assign_column(self, ds, vec_col: str = "embedding"):
        cents = self.centroids

        def f(b: pa.Table) -> pa.Table:
            m = _norm(_batch_mat(b, vec_col))
            lst = np.argmax(m @ cents.T, axis=1)
            return b.append_column("ivf_list", pa.array(lst.astype(np.int32)))

        return ds.map_batches(f, batch_format="pyarrow")

    def probe_topk(self, assigned_ds, query_vec: np.ndarray, k: int = 10,
                   nprobe: int = 4, vec_col: str = "embedding",
                   id_col: str = "vec_id"):
        q = np.asarray(query_vec, dtype=np.float64)
        q = q / (np.linalg.norm(q) or 1.0)
        order = np.argsort(-(self.centroids @ q))
        probe_arr = pa.array(order[:nprobe].astype(np.int32))

        def f(b: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            return b.filter(pc.is_in(b["ivf_list"], value_set=probe_arr))

        filtered = assigned_ds.map_batches(f, batch_format="pyarrow")
        return cosine_topk(filtered, query_vec, k=k, vec_col=vec_col,
                           id_col=id_col)

    def probe_topk_multi(self, assigned_ds, query_mat: np.ndarray,
                         query_ids: np.ndarray, k: int = 10,
                         nprobe: int = 4, vec_col: str = "embedding",
                         id_col: str = "vec_id", round_to: int = 6):
        """All queries' IVF-probed top-k in ONE corpus pass: per-query
        probe lists become a broadcast (n_lists x n_queries) boolean
        membership matrix; each batch does one (batch x queries) matmul
        with non-probed cells masked to -inf, prunes per-query
        candidates, and the global per-query top-k comes from the tiny
        candidate union — same answers as per-query ``probe_topk``
        without re-executing the assign stage once per query."""
        import ray

        from .broadcast import cached_get

        q = _norm(np.asarray(query_mat, dtype=np.float64))
        qids = np.asarray(query_ids, dtype=np.int64)
        order = np.argsort(-(q @ self.centroids.T), axis=1)
        allow = np.zeros((len(self.centroids), len(qids)), dtype=bool)
        for qi in range(len(qids)):
            allow[order[qi, :nprobe], qi] = True
        qref = ray.put((q, allow))

        def sim(b: pa.Table) -> pa.Table:
            qm, allow_ = cached_get(qref)
            m = _norm(_batch_mat(b, vec_col))
            s = m @ qm.T                                   # (ndoc, nq)
            lst = b["ivf_list"].to_numpy(zero_copy_only=False)
            finite = allow_[lst]                           # probed cells
            ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            n, nq = s.shape
            # round BEFORE any cut/selection (cosine_topk's convention —
            # the k boundary must see the same values the global rounded
            # sort does), and keep every row TIED with the per-query
            # 2k-th value so the deterministic id-asc tie-break cannot
            # lose its winner to the per-batch prune
            s = np.where(finite, duck_round(s, round_to), -np.inf)
            keep = finite
            if n > 2 * k:
                kth = np.partition(s, n - 2 * k, axis=0)[n - 2 * k]
                keep = finite & (s >= kth[None, :])
            rows, qi = np.nonzero(keep)
            return pa.table({
                "query_id": pa.array(qids[qi]),
                id_col: pa.array(ids[rows]),
                "cosine": pa.array(s[rows, qi]),
            })

        cand = assigned_ds.map_batches(sim, batch_format="pyarrow") \
            .to_pandas()
        cand = cand.sort_values(["query_id", "cosine", id_col],
                                ascending=[True, False, True], kind="stable")
        return cand.groupby("query_id", sort=True).head(k) \
            .reset_index(drop=True)


def embedding_near_dups(ds, *, threshold: float = 0.95, n_planes: int = 64,
                        bands: int = 4, seed: int = 13,
                        vec_col: str = "embedding", id_col: str = "vec_id",
                        max_driver_candidate_rows: int = 2_000_000):
    """Cosine near-dup pairs: random-hyperplane signatures -> band
    buckets (ids only — float vectors are NOT replicated through the
    shuffle) -> candidate pairs -> exact cosine verify against a
    hash-sharded vector store of the candidate ids."""
    rng = np.random.default_rng(seed)
    width = n_planes // bands
    planes = rng.standard_normal((n_planes, _first_dim(ds, vec_col)))

    def signer(b: pa.Table) -> pa.Table:
        # plain task stage: the plane matrix is a few KB, shipped in the
        # closure — an actor pool would only cap parallelism here
        m = _norm(_batch_mat(b, vec_col))
        bits = (m @ planes.T) > 0
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(ids)
        out_val = np.empty(n * bands, dtype=np.int64)
        pow2 = 1 << np.arange(width)
        for bi in range(bands):
            out_val[bi * n:(bi + 1) * n] = \
                bits[:, bi * width:(bi + 1) * width] @ pow2
        return pa.table({
            id_col: pa.array(np.tile(ids, bands)),
            "band_id": pa.array(
                np.repeat(np.arange(bands, dtype=np.int32), n)),
            "band_val": pa.array(out_val),
        })

    import ray.data

    from .dedup import candidate_id_filter, crowded_buckets, distinct_pairs
    from .lookup import ShardedStore

    filt, crowded = crowded_buckets(
        ds.map_batches(signer, batch_format="pyarrow"),
        ["band_id", "band_val"])

    def _empty():
        return ray.data.from_arrow(pa.table({
            "id_a": pa.array([], type=pa.int64()),
            "id_b": pa.array([], type=pa.int64()),
            "cosine": pa.array([], type=pa.float64())}))

    if crowded.empty:
        return _empty()

    def make_kv(b: pa.Table):
        # array-mode store push: one flat buffer + fixed lens per batch
        # (no per-row numpy slices through the RPC)
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        m = _norm(_batch_mat(b, vec_col))
        return ids, m.ravel(), np.full(len(ids), m.shape[1] if m.size
                                       else 0, dtype=np.int64)

    thr = threshold

    def _verify_closure(store):
        def verify(b: pa.Table) -> pa.Table:
            ia = b["id_a"].to_numpy(zero_copy_only=False).astype(np.int64)
            ib = b["id_b"].to_numpy(zero_copy_only=False).astype(np.int64)
            # within-block pre-dedupe: the same pair repeats across LSH
            # bands; unique-ing the block here bounds duplicate verify
            # work without any cross-block shuffle.  Packed-uint64 key
            # when ids fit 32 bits (one np.unique, ~20x the axis=0
            # struct-sort — same trick as dedup._distinct_sorted_pairs_df)
            if len(ia) and ia.min() >= 0 and ib.max() < (1 << 32):
                key = np.unique((ia.astype(np.uint64) << np.uint64(32))
                                | ib.astype(np.uint64))
                ia = (key >> np.uint64(32)).astype(np.int64)
                ib = (key & np.uint64(0xFFFFFFFF)).astype(np.int64)
            else:
                uq = np.unique(np.stack([ia, ib], axis=1), axis=0)
                ia, ib = uq[:, 0], uq[:, 1]
            # packed fetch: one buffer per shard RPC, then vectorized row
            # gathers for both pair sides (no per-pair Python)
            uids, flat, off, present = \
                store.get_array_segments(np.concatenate([ia, ib]))
            assert present.all(), "candidate vector missing from store"
            dim = int(off[1] - off[0]) if len(uids) else 0
            mat = flat.reshape(len(uids), dim)
            # einsum fuses multiply+reduce (no (n, dim) product temporary
            # — ~2.3x the (va*vb).sum form at 2M-pair blocks), float64
            # accumulation unchanged
            sims = np.einsum("ij,ij->i", mat[np.searchsorted(uids, ia)],
                             mat[np.searchsorted(uids, ib)])
            keep = sims >= thr
            return pa.table({
                "id_a": pa.array(ia[keep]),
                "id_b": pa.array(ib[keep]),
                "cosine": pa.array(duck_round(sims[keep], 6)),
            })
        return verify

    if int(crowded["n"].sum()) <= max_driver_candidate_rows:
        # driver-side pair generation (dup-cluster-bounded rows) — fully
        # vectorized lexsort + equal-size triu batching, no per-bucket
        # Python (dedup._pairs_from_bucket_rows)
        from .dedup import _pairs_from_bucket_rows

        id_df = _pairs_from_bucket_rows(filt.to_pandas(), id_col,
                                        bucket_cols=["band_id", "band_val"])
        if id_df.empty:
            return _empty()
        cand = ray.data.from_pandas(id_df)
        cand_ids = np.unique(np.concatenate(
            [id_df["id_a"].to_numpy(np.int64),
             id_df["id_b"].to_numpy(np.int64)]))
        store = ShardedStore().build(
            candidate_id_filter(ds.select_columns([id_col, vec_col]),
                                cand_ids, id_col),
            make_kv)
        # verify output is dup-cluster-bounded (small); materialize it so
        # the store actors can be released NOW rather than when GC drops
        # the closure — a lingering pool starves the next store build on
        # a small cluster
        out = cand.map_batches(_verify_closure(store),
                               batch_format="pyarrow").materialize()
        store.shutdown()
        return out

    # distributed branch: at corpus scale random band collisions dominate
    # the candidate stream (e.g. 16-bit bands over 1M vectors -> ~60M
    # candidate pairs for a few thousand true dups), so the pair stream
    # must NEVER be globally deduped or pulled to the driver before the
    # cheap vectorized verify.  Pairs flow map_groups -> verify as a
    # Dataset (block-local pre-dedupe only); the exact-cosine filter cuts
    # the stream down to the dup-bounded survivors, and only THOSE pay a
    # distinct shuffle.  The vector store is built over the full corpus
    # (the candidate id set is ~the corpus here, so pre-filtering would
    # only add a pass) — it is hash-sharded, the one structure that must
    # hold the vectors anyway.
    from .dedup import _pairs_distributed

    store = ShardedStore().build(ds.select_columns([id_col, vec_col]),
                                 make_kv)
    cand = _pairs_distributed(filt, id_col,
                              bucket_cols=["band_id", "band_val"])
    verified = cand.map_batches(_verify_closure(store),
                                batch_format="pyarrow").materialize()
    store.shutdown()
    if verified.count() == 0:
        return _empty()
    return distinct_pairs(verified, extra_max_col="cosine")


def _first_dim(ds, vec_col: str) -> int:
    row = ds.take(1)[0]
    return len(row[vec_col])


def cosine_topk_multi(ds, query_mat: np.ndarray, query_ids: np.ndarray,
                      k: int = 10, vec_col: str = "embedding",
                      id_col: str = "vec_id", round_to: int = 6):
    """Exact brute-force cosine top-k for a MATRIX of queries in one
    corpus pass: the normalized query matrix is broadcast once
    (``ray.put``), each batch computes one (batch x queries) matmul and
    prunes to per-query candidates, and the global per-query top-k comes
    from the tiny candidate union on the driver.  Returns a DataFrame
    (query_id, vec_id, cosine) with k rows per query."""
    import ray

    from .broadcast import cached_get

    q = _norm(np.asarray(query_mat, dtype=np.float64))
    qids = np.asarray(query_ids, dtype=np.int64)
    qref = ray.put(q)

    def sim(b: pa.Table) -> pa.Table:
        qm = cached_get(qref)
        m = _norm(_batch_mat(b, vec_col))
        s = m @ qm.T                                   # (ndoc, nq)
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        n, nq = s.shape
        # rounded before the cut + tie-aware per-query prune (keep all
        # rows tied with the k-th rounded value) — same convention as
        # cosine_topk / probe_topk_multi, so duplicate vectors at the
        # boundary cannot be dropped before the id-asc tie-break
        s = duck_round(s, round_to)
        if n > k:
            kth = np.partition(s, n - k, axis=0)[n - k]
            keep = s >= kth[None, :]
        else:
            keep = np.ones((n, nq), dtype=bool)
        rows, qi = np.nonzero(keep)
        return pa.table({
            "query_id": pa.array(qids[qi]),
            id_col: pa.array(ids[rows]),
            "cosine": pa.array(s[rows, qi]),
        })

    cand = ds.map_batches(sim, batch_format="pyarrow").to_pandas()
    cand = cand.sort_values(["query_id", "cosine", id_col],
                            ascending=[True, False, True], kind="stable")
    return cand.groupby("query_id", sort=True).head(k).reset_index(drop=True)


def exact_cosine_pairs(ds, *, threshold: float = 0.45,
                       vec_col: str = "embedding", id_col: str = "vec_id",
                       target_block_rows: int = 4096, round_to: int = 6):
    """EXACT all-pairs cosine similarity join — the truth baseline for
    the LSH ``embedding_near_dups`` path (the analogue of
    ``ngram_jaccard_dups`` vs minhash for text).

    The work IS O(n^2); it is distributed as block-pair matmul TASKS
    over the materialized normalized blocks (raw ``@ray.remote`` — the
    Dataset API cannot express a self-cross-product).  Per-pair cost is
    one (blk x blk) matmul; ~P^2/2 tasks for P blocks.  At corpus scale
    use ``embedding_near_dups``; this operator is for exact small-N
    joins and for auditing the LSH path's recall."""
    import ray
    import ray.data

    def prep(b: pa.Table) -> pa.Table:
        m = _norm(_batch_mat(b, vec_col))
        ids = pa.compute.cast(b[id_col], pa.int64())
        return pa.table({id_col: ids,
                         "_v": pa.FixedSizeListArray.from_arrays(
                             pa.array(m.reshape(-1)), m.shape[1] if m.size
                             else 1)})

    blocks = ds.map_batches(prep, batch_format="pyarrow",
                            batch_size=target_block_rows).materialize()
    refs = blocks.to_arrow_refs()

    thr = threshold

    @ray.remote
    def block_pair(ta: pa.Table, tb: pa.Table, same: bool) -> pa.Table:
        def mat(t):
            c = t["_v"]
            if isinstance(c, pa.ChunkedArray):
                c = c.combine_chunks()
            flat = c.flatten().to_numpy(zero_copy_only=False)
            return flat.reshape(len(c), -1)

        A, B = mat(ta), mat(tb)
        ia = ta[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ib = tb[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        s = A @ B.T
        hit = s >= thr
        if same:
            hit &= ia[:, None] < ib[None, :]
        r, c = np.nonzero(hit)
        a_ids, b_ids = ia[r], ib[c]
        lo = np.minimum(a_ids, b_ids)
        hi = np.maximum(a_ids, b_ids)
        return pa.table({
            "id_a": pa.array(lo),
            "id_b": pa.array(hi),
            "cosine": pa.array(duck_round(s[r, c], round_to)),
        })

    out_refs = []
    for i in range(len(refs)):
        for j in range(i, len(refs)):
            out_refs.append(block_pair.remote(refs[i], refs[j], i == j))
    if not out_refs:
        return ray.data.from_arrow(pa.table({
            "id_a": pa.array([], type=pa.int64()),
            "id_b": pa.array([], type=pa.int64()),
            "cosine": pa.array([], type=pa.float64())}))
    return ray.data.from_arrow_refs(out_refs)

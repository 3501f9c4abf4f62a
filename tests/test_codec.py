import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ee_outliers_ray.index.codec import (
    BLOCK_SIZE,
    EncodedRun,
    concat_runs,
    decode_block,
    decode_run,
    encode_blocks,
    encode_postings,
    gather_positions,
    scatter_words,
)


def _mk(n, rng, max_doc=10**9):
    doc_ids = np.sort(rng.choice(max_doc, size=n, replace=False)).astype(np.int64)
    tfs = rng.integers(1, 500, size=n).astype(np.int64)
    dls = rng.integers(1, 5000, size=n).astype(np.int64)
    return doc_ids, tfs, dls


def test_roundtrip_small():
    doc_ids = np.array([0, 1, 5, 1000, 10**12], dtype=np.int64)
    tfs = np.array([1, 2, 3, 1, 7], dtype=np.int64)
    dls = np.array([10, 20, 30, 40, 50], dtype=np.int64)
    run = encode_postings(doc_ids, tfs, dls)
    d, t = decode_run(run)
    np.testing.assert_array_equal(d, doc_ids)
    np.testing.assert_array_equal(t, tfs)


def test_roundtrip_multi_block():
    rng = np.random.default_rng(7)
    doc_ids, tfs, dls = _mk(1000, rng)
    run = encode_postings(doc_ids, tfs, dls)
    assert len(run.block_len) == 8
    d, t = decode_run(run)
    np.testing.assert_array_equal(d, doc_ids)
    np.testing.assert_array_equal(t, tfs)
    # block metadata
    np.testing.assert_array_equal(run.block_last_doc[-1:], doc_ids[-1:])
    assert run.block_max_tf[0] == tfs[:128].max()
    assert run.block_min_dl[0] == dls[:128].min()


def test_single_posting():
    run = encode_postings(np.array([42]), np.array([1]), np.array([7]))
    d, t = decode_run(run)
    assert list(d) == [42] and list(t) == [1]


def test_decode_single_block():
    rng = np.random.default_rng(3)
    doc_ids, tfs, dls = _mk(300, rng)
    run = encode_postings(doc_ids, tfs, dls)
    d, t = decode_block(run.payload, int(run.block_offset[1]),
                        int(run.block_len[1]), int(run.block_first_doc[1]))
    np.testing.assert_array_equal(d, doc_ids[128:256])
    np.testing.assert_array_equal(t, tfs[128:256])


def test_concat_runs_equals_single_encode():
    rng = np.random.default_rng(11)
    doc_ids, tfs, dls = _mk(700, rng)
    # split into doc-range-contiguous runs
    cut1, cut2 = 250, 600
    runs = [
        encode_postings(doc_ids[:cut1], tfs[:cut1], dls[:cut1]),
        encode_postings(doc_ids[cut1:cut2], tfs[cut1:cut2], dls[cut1:cut2]),
        encode_postings(doc_ids[cut2:], tfs[cut2:], dls[cut2:]),
    ]
    merged = concat_runs(runs)
    d, t = decode_run(merged)
    np.testing.assert_array_equal(d, doc_ids)
    np.testing.assert_array_equal(t, tfs)
    assert merged.n_postings == 700


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 400), st.integers(0, 2**31))
def test_roundtrip_property(n, seed):
    rng = np.random.default_rng(seed)
    doc_ids, tfs, dls = _mk(n, rng)
    run = encode_postings(doc_ids, tfs, dls)
    d, t = decode_run(run)
    np.testing.assert_array_equal(d, doc_ids)
    np.testing.assert_array_equal(t, tfs)


def test_run_members_and_intersection_fuzz():
    """Block-skip membership (_run_members) over synthetic encoded runs
    == plain np.isin, across random posting lists that straddle many
    blocks (the search_and cursor-intersection kernel, minus the
    reader)."""
    from ee_outliers_ray.index.codec import encode_postings
    from ee_outliers_ray.query.engine import _run_members

    rng = np.random.default_rng(41)
    for trial in range(30):
        n = int(rng.integers(1, 2000))
        docs = np.unique(rng.integers(0, 10_000, size=n)).astype(np.int64)
        tfs = rng.integers(1, 5, size=len(docs)).astype(np.int64)
        dls = rng.integers(5, 50, size=len(docs)).astype(np.int64)
        run = encode_postings(docs, tfs, dls)
        m = int(rng.integers(0, 500))
        cand = np.unique(rng.integers(0, 10_000, size=m)).astype(np.int64)
        got = _run_members(run, cand)
        want = np.isin(cand, docs)
        np.testing.assert_array_equal(got, want, err_msg=f"trial {trial}")


def _pack(vals: np.ndarray, width: int) -> bytes:
    """``vals`` packed at ``width`` bits by the one pack kernel."""
    nbytes = (len(vals) * width + 7) // 8
    words = np.zeros(nbytes // 8 + 2, dtype=np.uint64)
    scatter_words(words, vals, np.arange(len(vals), dtype=np.int64) * width)
    return words.astype("<u8").view(np.uint8)[:nbytes].tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 63), st.integers(1, 500), st.integers(0, 2**31))
def test_pack_unpack_width_sweep(width, n, seed):
    """Kernel-level pin across EVERY width: the one scatter pack (no
    cutoff) and the unpack (strided gather up to 57 bits, bit-matrix
    fallback above) must stay a bijection at every width, not just the
    ones real postings produce."""
    from ee_outliers_ray.index.codec import _unpack_bits

    rng = np.random.default_rng(seed)
    hi = (1 << width) - 1
    vals = rng.integers(0, hi, size=n, endpoint=True).astype(np.uint64)
    packed = np.frombuffer(_pack(vals, width), dtype=np.uint8)
    assert len(packed) == (n * width + 7) // 8
    got = _unpack_bits(packed, n, width)
    np.testing.assert_array_equal(got, vals)


def test_roundtrip_extreme_deltas():
    """Doc gaps and tfs wider than 57 bits force the unpack's bit-matrix
    fallbacks (``_unpack_bits`` >57, ``decode_blocks``' per-block
    fallback) — unreachable by realistic corpora, so pin it directly."""
    doc_ids = np.array([0, 1, (1 << 60) + 5, (1 << 62) + 9], dtype=np.int64)
    tfs = np.array([1, 7, 2, (1 << 58) + 3], dtype=np.int64)
    dls = np.array([10, 20, 30, 40], dtype=np.int64)
    run = encode_postings(doc_ids, tfs, dls)
    d, t = decode_run(run)
    np.testing.assert_array_equal(d, doc_ids)
    np.testing.assert_array_equal(t, tfs)
    # two blocks, each with a >57-bit delta and tf
    n = BLOCK_SIZE + 12
    doc_ids = np.arange(n, dtype=np.int64)
    doc_ids[2:] += 1 << 60
    doc_ids[BLOCK_SIZE + 1:] += 1 << 62
    tfs = np.ones(n, dtype=np.int64)
    tfs[3], tfs[BLOCK_SIZE + 2] = (1 << 58) + 3, (1 << 61) + 1
    run2 = encode_postings(doc_ids, tfs, np.full(n, 9))
    assert len(run2.block_len) == 2
    d2, t2 = decode_run(run2)
    np.testing.assert_array_equal(d2, doc_ids)
    np.testing.assert_array_equal(t2, tfs)


def test_write_segment_table_row_groups(tmp_path):
    """Size-aware segment writer: row groups respect the byte/row caps,
    terms stay in order, and the reassembled table is byte-identical."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(5)
    n = 40
    payloads = [rng.integers(0, 256, size=int(sz)).astype(np.uint8).tobytes()
                for sz in rng.integers(10, 5000, size=n)]
    t = pa.table({"term": [f"t{i:04d}" for i in range(n)],
                  "payload": pa.array(payloads, type=pa.binary())})
    from ee_outliers_ray.index.build import write_segment_table

    path = str(tmp_path / "seg.parquet")
    write_segment_table(t, path, target_bytes=8000, max_rows=7)
    pf = pq.ParquetFile(path)
    assert pf.metadata.num_row_groups > 1
    total = 0
    for gi in range(pf.metadata.num_row_groups):
        g = pf.read_row_group(gi)
        assert g.num_rows <= 7
        gbytes = sum(len(p) for p in g["payload"].to_pylist())
        assert gbytes <= 8000 or g.num_rows == 1  # single huge row allowed
        total += g.num_rows
    assert total == n
    back = pq.read_table(path)
    assert back.equals(t)
    # predicate pushdown finds single terms
    one = pq.read_table(path, filters=[("term", "=", "t0031")])
    assert one.num_rows == 1 and one["payload"][0].as_py() == payloads[31]


def test_gather_positions_equals_naive_slices():
    """The vectorized gather == one slice per selected posting, for an
    empty selection, all-tf=1 postings, a reordering and subsets."""
    def naive(flat, tfs, sel):
        cum = np.concatenate([[0], np.cumsum(tfs)])
        parts = [flat[cum[k]:cum[k + 1]] for k in sel]
        return np.concatenate(parts) if parts else flat[:0]

    rng = np.random.default_rng(5)
    cases = [(np.array([2, 1, 3]), np.array([], dtype=np.int64)),
             (np.ones(6, dtype=np.int64), np.array([5, 0, 3])),
             (np.array([3, 1, 2, 4]), np.array([3, 2, 1, 0]))]
    for _ in range(50):
        n = int(rng.integers(1, 30))
        tfs = rng.integers(1, 6, size=n)
        cases.append((tfs, rng.permutation(n)[:int(rng.integers(0, n + 1))]))
        cases.append((tfs, np.flatnonzero(rng.random(n) < 0.5)))
    for tfs, sel in cases:
        flat = rng.integers(0, 10**6, size=int(tfs.sum())).astype(np.int32)
        got = gather_positions(flat, tfs, sel)
        want = naive(flat, tfs, sel)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def _ref_decode(payload: bytes, offs, lens, firsts):
    """Pure-Python per-posting decoder: each block's deltas and tf-1
    values read bit by bit from Python ints, summed onto first_doc with
    int64 wrap-around (the kernel's numpy arithmetic)."""
    def wrap(v):
        return (v + (1 << 63)) % (1 << 64) - (1 << 63)

    docs, tfs = [], []
    for off, n, first in zip(offs, lens, firsts):
        wd, wt = payload[off], payload[off + 1]
        nd, nt = (n * wd + 7) // 8, (n * wt + 7) // 8
        dbits = int.from_bytes(payload[off + 2:off + 2 + nd], "little")
        tbits = int.from_bytes(payload[off + 2 + nd:off + 2 + nd + nt],
                               "little")
        doc = int(first)
        for i in range(n):
            doc += (dbits >> (i * wd)) & ((1 << wd) - 1)
            docs.append(wrap(doc))
            tfs.append(wrap(((tbits >> (i * wt)) & ((1 << wt) - 1)) + 1))
    return np.array(docs, dtype=np.int64), np.array(tfs, dtype=np.int64)


def _raw_run(rng, nblocks: int, width: int, short_every: int) -> EncodedRun:
    """Hand-packed blocks: the first block's deltas and tfs are exactly
    ``width`` bits wide, the others random widths 1-63; every
    ``short_every``-th block and the last are short."""
    body, offs, lens = [], [], []
    pos = 0
    for b in range(nblocks):
        short = b == nblocks - 1 or (short_every and b % short_every == 1)
        n = int(rng.integers(1, BLOCK_SIZE)) if short else BLOCK_SIZE
        wd, wt = ((width, width) if b == 0 else
                  (int(rng.integers(1, 64)), int(rng.integers(1, 64))))
        vals = []
        for w in (wd, wt):
            v = rng.integers(0, 1 << w, size=n, dtype=np.uint64)
            v[0] |= np.uint64(1 << (w - 1))       # width exactly w
            vals.append(_pack(v, w))
        blk = bytes([wd, wt]) + vals[0] + vals[1]
        body.append(blk)
        offs.append(pos)
        lens.append(n)
        pos += len(blk)
    z = np.zeros(nblocks, dtype=np.int64)
    return EncodedRun(payload=b"".join(body),
                      block_len=np.array(lens, dtype=np.int32),
                      block_offset=np.array(offs, dtype=np.int64),
                      block_first_doc=rng.integers(0, 1 << 40, size=nblocks),
                      block_last_doc=z, block_max_tf=z.astype(np.int32),
                      block_min_dl=z.astype(np.int32))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 63),
       st.sampled_from(["one", "few", "chunk", "chunk+1"]),
       st.sampled_from([0, 2, 3]), st.integers(0, 2**31))
def test_decode_kernel_equals_reference(width, size, short_every, seed):
    """The one decode kernel (``decode_run`` over a whole run, a block
    range from its middle and a block selection) equals a per-posting
    Python decoder at every width 1-63 (above 57 through the per-block
    bit-matrix fallback), with interior short blocks, and for runs of
    exactly one decode chunk and one chunk + 1 block."""
    from ee_outliers_ray.index.codec import DECODE_CHUNK

    rng = np.random.default_rng(seed)
    nblocks = {"one": 1, "few": int(rng.integers(2, 9)),
               "chunk": DECODE_CHUNK, "chunk+1": DECODE_CHUNK + 1}[size]
    run = _raw_run(rng, nblocks, width, short_every)
    lo = int(rng.integers(0, nblocks))
    hi = int(rng.integers(lo + 1, nblocks + 1))
    sel = np.flatnonzero(rng.random(nblocks) < 0.5)
    for blocks in (slice(None), slice(lo, hi), sel):
        want = _ref_decode(run.payload, run.block_offset[blocks],
                           run.block_len[blocks],
                           run.block_first_doc[blocks])
        got = decode_run(run, blocks)
        for g, w in zip(got, want):
            assert g.dtype == np.int64
            np.testing.assert_array_equal(g, w)
    # decode_block is the same kernel over one block
    b = nblocks // 2
    got = decode_block(run.payload, int(run.block_offset[b]),
                       int(run.block_len[b]), int(run.block_first_doc[b]))
    want = _ref_decode(run.payload, run.block_offset[b:b + 1],
                       run.block_len[b:b + 1], run.block_first_doc[b:b + 1])
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def _ref_encode(doc_ids, tfs, dls):
    """Pure-Python per-posting encoder, the mirror of ``_ref_decode``:
    per ``BLOCK_SIZE`` block, ``[wd, wt]`` then the deltas and tf-1
    values as little-endian ``int.to_bytes`` bitstreams at the block's
    exact ``bit_length`` widths.  -> (payload, per-block metadata); max
    tf and min dl wrap to int32, the width of their columns."""
    def i32(v):
        return (v + (1 << 31)) % (1 << 32) - (1 << 31)

    payload, meta = b"", []
    for s in range(0, len(doc_ids), BLOCK_SIZE):
        d = [int(x) for x in doc_ids[s:s + BLOCK_SIZE]]
        t = [int(x) - 1 for x in tfs[s:s + BLOCK_SIZE]]
        deltas = [0] + [b - a for a, b in zip(d, d[1:])]
        wd = max(1, max(deltas).bit_length())
        wt = max(1, max(t).bit_length())
        body = bytes([wd, wt])
        for vals, w in ((deltas, wd), (t, wt)):
            bits = sum(v << (i * w) for i, v in enumerate(vals))
            body += bits.to_bytes((len(vals) * w + 7) // 8, "little")
        meta.append((len(payload), len(d), d[0], d[-1], i32(max(t) + 1),
                     i32(int(min(dls[s:s + BLOCK_SIZE])))))
        payload += body
    return payload, meta


def _meta(run: EncodedRun) -> list[tuple]:
    return list(zip(*(a.tolist() for a in (
        run.block_offset, run.block_len, run.block_first_doc,
        run.block_last_doc, run.block_max_tf, run.block_min_dl))))


def _widest_run(rng, n: int, wd: int, wt: int, exact: bool):
    """``n`` doc-sorted postings whose widest delta has exactly ``wd``
    bits and widest tf-1 exactly ``wt`` bits (``2**k - 1`` when
    ``exact``), within int64."""
    top = (1 << 63) - 1
    first = 0 if exact else int(rng.integers(0, 1000))
    big = (1 << wd) - 1 if exact else int(rng.integers(1 << (wd - 1),
                                                       1 << wd))
    big = min(big, top - first - max(n - 2, 0))
    cap = max(1, min((1 << wd) - 1, (top - first - big) // n))
    gaps = rng.integers(1, cap, size=n, endpoint=True)
    gaps[0] = first
    if n > 1:
        gaps[int(rng.integers(1, n))] = big
    t_hi = min((1 << wt) - 1, top - 1)
    tf1 = rng.integers(0, t_hi, size=n, endpoint=True)
    tf1[int(rng.integers(0, n))] = t_hi if exact else max(
        int(tf1.max()), 1 << (wt - 1))
    return (np.cumsum(gaps).astype(np.int64), tf1 + 1,
            rng.integers(1, 5000, size=n))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 63), st.integers(1, 63), st.booleans(),
       st.lists(st.sampled_from([1, 2, 3, 127, 128, 129, 300])
                | st.integers(1, 400), min_size=1, max_size=5),
       st.integers(0, 2**31))
def test_encoder_equals_reference(wd, wt, exact, sizes, seed):
    """The one encoder equals a per-posting Python reference at every
    width 1-63 (maxima of exactly ``2**k - 1`` included): a one-term
    ``encode_postings`` gives the reference's bytes and block metadata,
    and in a multi-term ``encode_blocks`` batch (the build's call) each
    term's bytes and blocks equal its one-term encode.  The runs decode
    back to their postings."""
    rng = np.random.default_rng(seed)
    terms = [_widest_run(rng, n, wd, wt, exact) for n in sizes]
    singles = []
    for docs, tfs, dls in terms:
        run = encode_postings(docs, tfs, dls)
        payload, meta = _ref_encode(docs, tfs, dls)
        assert run.payload == payload
        assert _meta(run) == meta
        got = decode_run(run)
        np.testing.assert_array_equal(got[0], docs)
        np.testing.assert_array_equal(got[1], tfs)
        singles.append(run)
    starts = np.cumsum([0] + sizes[:-1])
    batch, first_block = encode_blocks(
        *(np.concatenate(c) for c in zip(*terms)), starts)
    bounds = np.append(first_block, len(batch.block_len))
    ends = np.append(batch.block_offset, len(batch.payload))
    for run, b0, b1 in zip(singles, bounds[:-1], bounds[1:]):
        base = int(batch.block_offset[b0])
        assert batch.payload[base:int(ends[b1])] == run.payload
        sub = EncodedRun(batch.payload, *(
            a[b0:b1] for a in (batch.block_len, batch.block_offset - base,
                               batch.block_first_doc, batch.block_last_doc,
                               batch.block_max_tf, batch.block_min_dl)))
        assert _meta(sub) == _meta(run)

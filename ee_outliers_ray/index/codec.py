"""Posting-list compression: frame-of-reference delta + bit-packing
(PForDelta-family) in fixed blocks with block-max metadata.

This layer existed *inside* Elasticsearch/Lucene in the reference (segment
postings; invisible in /root/reference code — see SURVEY.md §2.4 ST5); here
it is explicit.  All encode/decode paths are numpy-vectorized — no Python
per-posting loops; a run decodes in one gather per chunk of blocks.

Layout of one encoded posting run for a term (see ``encode_postings``):

    doc_ids : sorted int64  -> per block: first_doc (varint-free, stored in
              metadata), deltas (d[i]-d[i-1], first delta vs first_doc)
              bit-packed at the block's minimal width
    tfs     : int32         -> per block: (tf-1) bit-packed at minimal width

Block metadata (kept as plain arrays, stored as parquet list columns — the
metadata is tiny next to payloads and parquet compresses it):

    block_len      : number of postings in the block (<= BLOCK_SIZE; only
                     the last block of a run is short; after run
                     concatenation interior short blocks may occur and the
                     decoder masks their tails out)
    block_last_doc : last doc_id (skip pointer for block-max pruning)
    block_first_doc: first doc_id (frame of reference)
    block_max_tf   : max tf in block   } together these give a valid
    block_min_dl   : min doc length    } upper bound on the BM25 term
                     weight without needing global avgdl at build time:
                     w <= idf * (k1+1)*max_tf / (max_tf + k1*(1-b+b*min_dl/avgdl))

Payload bytes per block: 1 byte width_doc, 1 byte width_tf, then
ceil(n*wd/8) doc-delta bytes, then ceil(n*wt/8) tf bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BLOCK_SIZE = 128
DECODE_CHUNK = 128  # blocks per decode gather: best of 32-1024, 200k-2M runs

_POW2 = (1 << np.arange(64, dtype=np.uint64)).astype(np.uint64)
_MASKS = np.array([(1 << w) - 1 for w in range(65)], dtype=np.uint64)


def _bit_width(max_val: int) -> int:
    return max(1, int(max_val).bit_length())


def pack_words(vals: np.ndarray, width: int) -> np.ndarray:
    """Word-lane bit-pack (widths 4-57): (k, L) uint64 values ->
    (k, nbytes) uint8 little-endian packed rows.

    Each output uint64 word is the OR of the <= 64//width + 2 values
    overlapping its bit range, shifted into lane — ~2x the bit-matrix
    throughput at widths >= 8 and byte-identical by construction
    (width-sweep property test).  Words are serialized EXPLICITLY
    little-endian ('<u8'; a no-op on LE hosts) so the on-disk layout is
    platform-invariant like the packbits path it replaced.  This is the
    ONE copy of the lane math — codec._pack_bits and the build's
    grouped encoder both call it (CLAUDE.md: never fork it)."""
    k, L = vals.shape
    nbytes = (L * width + 7) // 8
    nw = (nbytes + 7) // 8
    q = np.arange(nw, dtype=np.int64) * 64
    m = 64 // width + 2
    idx = (q // width)[:, None] + np.arange(m, dtype=np.int64)[None, :]
    s = idx * width - q[:, None]
    np.minimum(idx, L, out=idx)
    vp = np.concatenate([vals, np.zeros((k, 1), dtype=np.uint64)], axis=1)
    vg = vp[:, idx]                                      # (k, nw, m)
    pos = np.where((s >= 0) & (s < 64), s, 0).astype(np.uint64)
    neg = np.where(s < 0, -s, 0).astype(np.uint64)
    contrib = np.where(s >= 0, vg << pos[None], vg >> neg[None])
    contrib[:, s >= 64] = 0
    words = np.ascontiguousarray(np.bitwise_or.reduce(contrib, axis=2)) \
        .astype("<u8", copy=False)
    return words.view(np.uint8).reshape(k, nw * 8)[:, :nbytes]


def _pack_bits(values: np.ndarray, width: int) -> bytes:
    """Pack uint64 values (< 2**width) into a little-endian bitstream.

    Width >= 4 routes through the shared ``pack_words`` lane kernel;
    narrow widths (1-3) keep the bit-matrix + packbits path, which wins
    there because the lane tables outgrow the bit expansion."""
    n = len(values)
    if 4 <= width <= 57 and n:
        v = values.astype(np.uint64, copy=False)
        return pack_words(v[None, :], width)[0].tobytes()
    bits = ((values[:, None] >> np.arange(width, dtype=np.uint64)) & 1).astype(np.uint8)
    flat = bits.reshape(-1)
    pad = (-len(flat)) % 8
    if pad:
        flat = np.concatenate([flat, np.zeros(pad, dtype=np.uint8)])
    return np.packbits(flat.reshape(-1, 8)[:, ::-1], axis=1).tobytes()


def bits_window(buf: np.ndarray) -> np.ndarray:
    """8-byte-pad ``buf`` (uint8) and return an unaligned stride-1
    little-endian uint64 window over it: ``win[i]`` is bytes [i, i+8)
    as one LE word.  The window keeps the padded copy alive via its
    ``.base`` reference."""
    b = np.concatenate([buf, np.zeros(8, dtype=np.uint8)])
    return np.ndarray(buffer=b, dtype="<u8", shape=(len(b) - 7,),
                      strides=(1,))


def gather_words(win: np.ndarray, byte0: np.ndarray, width: np.ndarray,
                 n: int) -> np.ndarray:
    """Strided-gather bit-unpack (widths <= 57): row ``i`` unpacks ``n``
    ``width[i]``-bit values starting at byte ``byte0[i]`` -> (k, n)
    uint64.  ONE gather + shift + mask over every row, whatever its
    width.  A row holding fewer than ``n`` values gets garbage past its
    end (positions are clipped into the window, so the read is always in
    bounds); the caller masks or trims it.  A value whose shift (<=7)
    plus width exceeds the 64-bit window would straddle a 9th byte,
    hence the <= 57 contract (callers fall back to the bit-matrix path
    above it).  This is the ONE copy of the gather math —
    ``_unpack_bits`` and ``decode_blocks`` both call it."""
    bitpos = np.arange(n, dtype=np.int64) * width[:, None]
    pos = bitpos >> 3
    pos += byte0[:, None]
    bitpos &= 7
    out = win.take(pos, mode="clip")  # take: ~3x a fancy index here
    out >>= bitpos.view(np.uint64)
    out &= _MASKS[width][:, None]
    return out


def _unpack_bits(buf: np.ndarray, n: int, width: int) -> np.ndarray:
    """Inverse of _pack_bits: buf is a uint8 array; returns uint64[n]."""
    if width > 57:
        bits = np.unpackbits(buf[:, None], axis=1)[:, ::-1].reshape(-1)
        bits = bits[: n * width].reshape(n, width).astype(np.uint64)
        return bits @ _POW2[:width]
    return gather_words(bits_window(buf), np.zeros(1, dtype=np.int64),
                        np.array([width]), n)[0]


@dataclass
class EncodedRun:
    """One compressed posting run (doc-sorted) for a single term."""

    payload: bytes
    block_len: np.ndarray        # int32[nblocks]
    block_offset: np.ndarray     # int64[nblocks] byte offset into payload
    block_first_doc: np.ndarray  # int64[nblocks]
    block_last_doc: np.ndarray   # int64[nblocks]
    block_max_tf: np.ndarray     # int32[nblocks]
    block_min_dl: np.ndarray     # int32[nblocks]

    @property
    def n_postings(self) -> int:
        return int(self.block_len.sum())


def encode_postings(doc_ids: np.ndarray, tfs: np.ndarray, dls: np.ndarray,
                    block_size: int = BLOCK_SIZE) -> EncodedRun:
    """Encode one term's postings (doc-sorted, unique doc_ids)."""
    n = len(doc_ids)
    assert n > 0
    doc_ids = np.asarray(doc_ids, dtype=np.int64)
    tfs = np.asarray(tfs, dtype=np.int64)
    dls = np.asarray(dls, dtype=np.int64)

    nblocks = (n + block_size - 1) // block_size
    starts = np.arange(nblocks, dtype=np.int64) * block_size
    ends = np.minimum(starts + block_size, n)

    block_len = (ends - starts).astype(np.int32)
    block_first = doc_ids[starts]
    block_last = doc_ids[ends - 1]
    # per-block max tf / min dl without Python loops
    block_max_tf = np.maximum.reduceat(tfs, starts).astype(np.int32)
    block_min_dl = np.minimum.reduceat(dls, starts).astype(np.int32)

    chunks: list[bytes] = []
    offsets = np.zeros(nblocks, dtype=np.int64)
    pos = 0
    for bi in range(nblocks):
        s, e = starts[bi], ends[bi]
        d = doc_ids[s:e]
        deltas = np.empty(e - s, dtype=np.uint64)
        deltas[0] = 0
        np.subtract(d[1:], d[:-1], out=deltas[1:], casting="unsafe")
        t = (tfs[s:e] - 1).astype(np.uint64)
        wd = _bit_width(int(deltas.max()))
        wt = _bit_width(int(t.max()))
        body = bytes([wd, wt]) + _pack_bits(deltas, wd) + _pack_bits(t, wt)
        offsets[bi] = pos
        pos += len(body)
        chunks.append(body)
    return EncodedRun(
        payload=b"".join(chunks),
        block_len=block_len,
        block_offset=offsets,
        block_first_doc=block_first,
        block_last_doc=block_last,
        block_max_tf=block_max_tf,
        block_min_dl=block_min_dl,
    )


def decode_blocks(payload: bytes | memoryview, offs: np.ndarray,
                  lens: np.ndarray, firsts: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Decode the blocks at ascending byte offsets ``offs`` (a run, a
    block range or any block selection) -> (doc_ids, tfs) int64, back to
    back.  Per ``DECODE_CHUNK`` blocks, their bytes become one window (a
    slice if adjacent, else a byte gather) and ``gather_words`` unpacks
    all deltas and tfs in ONE (2 * blocks, longest block) gather with
    per-row offset and width.  Short-block tails are garbage: trimmed
    when only the chunk's last block is short, masked out otherwise
    (doc-range concatenation leaves interior short blocks).  Rows wider
    than 57 bits are redone by the per-block bit-matrix fallback."""
    buf = np.frombuffer(payload, dtype=np.uint8)
    out_d = np.empty(int(lens.sum()), dtype=np.int64)
    out_t = np.empty(len(out_d), dtype=np.int64)
    o = 0
    for c in range(0, len(offs), DECODE_CHUNK):
        off, ln = offs[c:c + DECODE_CHUNK], lens[c:c + DECODE_CHUNK]
        k, n, m = len(off), int(ln.max()), int(ln.sum())
        w = buf[np.concatenate([off, off + 1])].astype(np.int64)  # wd, wt
        nb = (np.concatenate([ln, ln]) * w + 7) >> 3    # packed bytes
        size = nb[:k] + nb[k:] + 2
        base = np.cumsum(size) - size
        if int(off[-1] - off[0]) == int(base[-1]):         # adjacent
            span = buf[int(off[0]):int(off[-1] + size[-1])]
        else:
            span = buf[np.repeat(off - base, size)
                       + np.arange(int(size.sum()), dtype=np.int64)]
        b0 = np.concatenate([base, base + nb[:k]]) + 2
        vals = gather_words(bits_window(span), b0, w, n)
        for r in np.flatnonzero(w > 57):
            vals[r, :ln[r % k]] = _unpack_bits(span[b0[r]:], ln[r % k], w[r])
        docs = np.cumsum(vals[:k].view(np.int64), axis=1)
        docs += firsts[c:c + DECODE_CHUNK, None]
        tfs = vals[k:].view(np.int64)
        tfs += 1
        keep = (slice(m) if (ln[:-1] == n).all()
                else (np.arange(n) < ln[:, None]).reshape(-1))
        out_d[o:o + m] = docs.reshape(-1)[keep]
        out_t[o:o + m] = tfs.reshape(-1)[keep]
        o += m
    return out_d, out_t


def decode_block(payload: bytes | memoryview, offset: int, n: int,
                 first_doc: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode one block -> (doc_ids int64[n], tfs int64[n])."""
    return decode_blocks(payload, *np.array([[offset], [n], [first_doc]]))


def decode_run(run: EncodedRun, blocks=slice(None)
               ) -> tuple[np.ndarray, np.ndarray]:
    """Decode a run, or its ``blocks`` (a slice or ascending indices),
    -> (doc_ids, tfs): ``decode_blocks``, so a cold run of a few blocks
    of distinct (length, width) shapes costs one gather."""
    return decode_blocks(run.payload, run.block_offset[blocks],
                         run.block_len[blocks], run.block_first_doc[blocks])


def gather_positions(flat_pos: np.ndarray, tfs: np.ndarray,
                     sel: np.ndarray) -> np.ndarray:
    """Position slices of the postings ``sel`` (indices, in the order
    wanted), concatenated.  ``flat_pos`` holds every posting's in-doc
    positions back to back, ``tfs[i]`` of them for posting ``i``.  One
    repeat/arange gather index instead of a slice per posting."""
    cum = np.zeros(len(tfs) + 1, dtype=np.int64)
    np.cumsum(tfs, out=cum[1:])
    lens = cum[sel + 1] - cum[sel]
    out_start = np.cumsum(lens) - lens
    idx = np.repeat(cum[sel] - out_start, lens) \
        + np.arange(int(lens.sum()), dtype=np.int64)
    return flat_pos[idx]


def runs_chainable(runs: list[EncodedRun]) -> bool:
    """True when every run's last doc precedes the next run's first doc
    (runs already sorted by first_doc) — the byte-concat precondition."""
    return all(int(runs[i].block_last_doc[-1])
               < int(runs[i + 1].block_first_doc[0])
               for i in range(len(runs) - 1))


def merge_runs(runs: list[EncodedRun]) -> EncodedRun:
    """Merge one term's runs (sorted by first_doc): byte-concat when the
    runs are doc-disjoint and ordered (the normal tiered-merge layout);
    otherwise decode, doc-sort, re-encode — the interleaved-range case a
    part-split merge can leave when input batches straddle files.  The
    re-encode reuses each source block's min_dl for its postings: a lower
    bound of the true dls, so block-max upper bounds stay valid (exact
    scores always come from the doclens sidecar, not this metadata)."""
    if runs_chainable(runs):
        return concat_runs(runs)
    parts = [decode_run(r) for r in runs]
    d = np.concatenate([p[0] for p in parts])
    t = np.concatenate([p[1] for p in parts])
    dls = np.concatenate([
        np.repeat(np.asarray(r.block_min_dl, dtype=np.int64),
                  np.asarray(r.block_len, dtype=np.int64)) for r in runs])
    order = np.argsort(d, kind="stable")
    return encode_postings(d[order], t[order], dls[order])


def concat_runs(runs: list[EncodedRun]) -> EncodedRun:
    """Concatenate doc-range-ordered runs of the same term into one run.

    Pure metadata + byte concatenation — blocks are self-contained, so no
    re-decode is needed.  This is the log-structured tiered merge step: the
    level-1 shuffle produces per-(term-bucket, doc-range) runs; level 2
    concatenates each term's runs in doc-range order (doc_ids stay sorted
    because ranges are contiguous and disjoint).
    """
    if len(runs) == 1:
        return runs[0]
    payload = b"".join(r.payload for r in runs)
    sizes = np.array([len(r.payload) for r in runs], dtype=np.int64)
    base = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    return EncodedRun(
        payload=payload,
        block_len=np.concatenate([r.block_len for r in runs]),
        block_offset=np.concatenate([r.block_offset + base[i] for i, r in enumerate(runs)]),
        block_first_doc=np.concatenate([r.block_first_doc for r in runs]),
        block_last_doc=np.concatenate([r.block_last_doc for r in runs]),
        block_max_tf=np.concatenate([r.block_max_tf for r in runs]),
        block_min_dl=np.concatenate([r.block_min_dl for r in runs]),
    )

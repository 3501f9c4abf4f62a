"""Posting-list compression: frame-of-reference delta + bit-packing
(PForDelta-family) in fixed blocks with block-max metadata.

This layer existed *inside* Elasticsearch/Lucene in the reference (segment
postings; invisible in /root/reference code — see SURVEY.md §2.4 ST5); here
it is explicit, and this module is the only one that knows the payload
layout: one encoder (``encode_blocks``: one ``scatter_words`` pack per
stream over every block of one or many runs, no cutoff) and one decoder
(``decode_blocks``: one ``gather_words`` unpack per chunk of blocks).
Neither loops over postings, blocks or block shapes in Python.

Layout of one encoded posting run for a term (see ``encode_blocks``):

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


def _bit_widths(v: np.ndarray) -> np.ndarray:
    """Exact ``bit_length`` (at least 1) of uint64 values: the number of
    powers of two <= v, so it stays exact above 2**53, where a float
    ``frexp`` rounds 2**60 - 1 up to 61 bits."""
    return np.maximum(np.searchsorted(_POW2, v, side="right"), 1)


def scatter_words(words: np.ndarray, vals: np.ndarray,
                  bitpos: np.ndarray) -> None:
    """Bit-pack, the mirror of ``gather_words``: OR each uint64 value
    into ``words`` (uint64, one spare word at the end) at its absolute
    bit offset ``bitpos`` (ascending).  The values starting in one word
    are ORed together with ONE ``bitwise_or.reduceat``.  Only a word's
    last value can straddle into the next word; its spill
    ``(v >> 1) >> (63 - shift)`` (0 when it does not straddle, and never
    a 64-bit shift) is ORed there.  Every width 1-63 packs this way,
    with no cutoff.  This is the ONE copy of the pack math."""
    w = bitpos >> 6
    s = (bitpos & 63).view(np.uint64)
    k = (w[1:] != w[:-1]).nonzero()[0]
    first = np.concatenate(([0], k + 1))
    last = np.concatenate((k, [len(w) - 1]))
    words[w[first]] |= np.bitwise_or.reduceat(vals << s, first)
    words[w[last] + 1] |= (vals[last] >> np.uint64(1)) \
        >> (np.uint64(63) - s[last])


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
    bounds); the caller masks or trims it.  Each value is read from ONE
    unaligned word at its byte, so a value whose shift (<=7) plus width
    exceeds 64 bits would straddle a 9th byte, hence the <= 57 contract
    (callers fall back to the bit-matrix path above it); the pack side,
    ``scatter_words``, spills into the next aligned word instead and
    has no cutoff.  This is the ONE copy of the gather math —
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
    """Unpack ``n`` ``width``-bit values from the little-endian
    bitstream ``buf`` (uint8) -> uint64[n]."""
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


def encode_blocks(doc_ids: np.ndarray, tfs: np.ndarray, dls: np.ndarray,
                  run_starts=(0,)) -> tuple[EncodedRun, np.ndarray]:
    """The ONE encoder: the doc-sorted postings of one or many runs (run
    ``r`` starts at posting ``run_starts[r]``) cut into ``BLOCK_SIZE``
    blocks per run.  Block widths and metadata come from reduceats over
    the block starts, the ``[wd, wt]`` headers from two indexed stores,
    and all deltas, then all tf-1 values, from one ``scatter_words``
    call each.  Returns the runs back to back as one run (what
    ``concat_runs`` of per-run encodes gives) and the index of each
    run's first block."""
    doc_ids = np.asarray(doc_ids, dtype=np.int64)
    tfs = np.asarray(tfs, dtype=np.int64)
    n = len(doc_ids)
    i = np.arange(n, dtype=np.int64)
    bounds = np.concatenate((run_starts, [n]))
    in_run = i - bounds[:-1].repeat(bounds[1:] - bounds[:-1])
    starts = (in_run % BLOCK_SIZE == 0).nonzero()[0]
    bounds = np.concatenate((starts, [n]))
    lens = bounds[1:] - bounds[:-1]

    deltas = np.empty(n, dtype=np.uint64)
    np.subtract(doc_ids[1:], doc_ids[:-1], out=deltas[1:], casting="unsafe")
    deltas[starts] = 0
    t = (tfs - 1).view(np.uint64)
    wd = _bit_widths(np.maximum.reduceat(deltas, starts))
    wt = _bit_widths(np.maximum.reduceat(t, starts))
    nd = (lens * wd + 7) >> 3
    size = ((lens * wt + 7) >> 3) + nd + 2
    offs = size.cumsum() - size
    total = int(offs[-1] + size[-1])

    words = np.zeros((total >> 3) + 2, dtype=np.uint64)
    for vals, w, byte0 in ((deltas, wd, offs + 2), (t, wt, offs + 2 + nd)):
        # posting i of a block starting at posting s: byte0 * 8 + (i - s) * w
        bitpos = (byte0 * 8 - starts * w).repeat(lens)
        bitpos += i * w.repeat(lens)
        scatter_words(words, vals, bitpos)
    # little-endian bytes on every host (a no-op cast on LE ones)
    buf = words.astype("<u8", copy=False).view(np.uint8)[:total]
    buf[offs] = wd
    buf[offs + 1] = wt
    run = EncodedRun(
        payload=buf.tobytes(),
        block_len=lens.astype(np.int32),
        block_offset=offs,
        block_first_doc=doc_ids[starts],
        block_last_doc=doc_ids[starts + lens - 1],
        block_max_tf=np.maximum.reduceat(tfs, starts).astype(np.int32),
        block_min_dl=np.minimum.reduceat(np.asarray(dls), starts)
        .astype(np.int32),
    )
    return run, starts.searchsorted(run_starts)


def encode_postings(doc_ids: np.ndarray, tfs: np.ndarray,
                    dls: np.ndarray) -> EncodedRun:
    """Encode one term's postings (doc-sorted, unique doc_ids)."""
    assert len(doc_ids) > 0
    return encode_blocks(doc_ids, tfs, dls)[0]


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


def decode_merged(runs: list[EncodedRun], flat_pos: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                             np.ndarray | None]:
    """Decode one term's runs (sorted by first_doc) into doc order ->
    (doc_ids, tfs, dls, flat_pos).  Chainable runs decode back to back;
    otherwise (the interleaved-range case a part-split merge can leave
    when input batches straddle files) the postings are stably
    doc-sorted, and that order is applied to ``flat_pos`` (per-posting
    position slices, in run order).  dls repeat each source block's
    min_dl: a lower bound of the true dls, so block-max upper bounds
    stay valid (exact scores always come from the doclens sidecar, not
    this metadata)."""
    d, t = decode_run(concat_runs(runs))
    dls = np.repeat(np.concatenate([r.block_min_dl for r in runs])
                    .astype(np.int64),
                    np.concatenate([r.block_len for r in runs]))
    if runs_chainable(runs):
        return d, t, dls, flat_pos
    order = np.argsort(d, kind="stable")
    if flat_pos is not None:
        flat_pos = gather_positions(flat_pos, t, order)
    return d[order], t[order], dls[order], flat_pos


def merge_runs(runs: list[EncodedRun]) -> EncodedRun:
    """Merge one term's runs (sorted by first_doc): byte-concat when the
    runs are doc-disjoint and ordered (the normal tiered-merge layout);
    otherwise ``decode_merged`` and re-encode."""
    if runs_chainable(runs):
        return concat_runs(runs)
    return encode_postings(*decode_merged(runs)[:3])


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

"""Inverted-index build: stateless SPIMI encode tasks write compressed
run files, then one merge task per bucket (or per bucket doc-range
part) turns its runs into a term-sorted block-max posting segment, with
per-partition manifests.

Reference analogue: this work lived inside Elasticsearch/Lucene and was
invisible to /root/reference (SURVEY.md §2.4 ST5); the batch-accumulate
precedent is the analyzers' eval-batch dicts
(/root/reference/app/analyzers/terms.py:75-101).

Pipeline (Ray Data tasks; doc_id dense, assigned at corpus generation):

  read_parquet(pages, columns=[doc_id, html|text])
    -> map_batches(spimi_encode_batch, tasks)      # classic SPIMI: tokenize
         (inside the html buffer for html input), per-(doc,term) tf, sort,
         delta+bitpack (codec.encode_blocks) -> one COMPRESSED run row per
         (term, batch), rows clustered by bucket; doclens side files
    -> write runs/                                 # checkpoint boundary:
                                                   # resume skips re-tokenize
    -> one task per (bucket, doc-range part)       # planned on the driver
         reads only its runs row groups            # from runs footers: no
         -> _merge_bucket_group                    # shuffle, no all-to-all
    -> write segments/bucket=<b>/ (term-sorted)
  stats.json: N, total_len, avgdl, config, throughput metrics

Run rows stay columns from encode to segment: ``runs_table`` assembles a
run table from an ``encode_blocks`` result and ``flat_runs`` is its
inverse, so the SPIMI encode, the bucket merge and compaction
(index/mutate.py) work on flat block arrays, with no Python per row.

Why runs, not postings, cross the stage boundary: raw postings are ~50x
more rows than run rows (one row per (term, batch) instead of per
(term, doc)), and runs are already delta+bitpacked, so the merge reads
compressed bytes.

Skew handling: a Zipf-hot term's postings arrive as many doc-disjoint
runs (one per batch) that merge at the metadata level — block lists and
payload offsets regrouped at term boundaries — never a re-decode, never
a single giant group of raw postings.  ``merge_parts > 1`` makes the
merge hierarchical per (bucket, doc-range ``rng``) so each task's input
stays bounded; the query reader concats a term's segment rows across
part files in first_doc order, so both layouts read identically.
"""

from __future__ import annotations

import json
import os
import time
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..extract import HtmlExtract
from ..tokenizer import tokenize_column
from .codec import (EncodedRun, decode_blocks, encode_blocks,
                    gather_positions)

DEFAULT_NUM_BUCKETS = 32
DEFAULT_DOC_RANGE_SIZE = 1 << 20  # doc-range granularity recorded on runs


def term_bucket_of(terms: np.ndarray, num_buckets: int) -> np.ndarray:
    """Deterministic (process-independent) term -> bucket via crc32."""
    return np.fromiter(
        (zlib.crc32(t.encode()) % num_buckets for t in terms),
        dtype=np.int32,
        count=len(terms),
    )


def term_bucket_of_arrow(dictionary: pa.Array, num_buckets: int) -> np.ndarray:
    """``term_bucket_of`` for an Arrow string array without leaving
    numpy: vectorized crc32 straight off the Arrow byte buffers
    (bit-identical to zlib.crc32, so the segment bucket LAYOUT is
    unchanged — readers keep computing buckets with zlib.crc32)."""
    from ..hashing import crc32_segments, string_bytes

    data, offsets = string_bytes(dictionary)
    return (crc32_segments(data, offsets)
            % np.uint32(num_buckets)).astype(np.int32)


_RUN_SCHEMA = pa.schema([
    ("term", pa.string()),
    ("bucket", pa.int32()),
    ("rng", pa.int32()),
    ("first_doc", pa.int64()),
    ("df", pa.int64()),
    ("payload", pa.binary()),
    ("block_len", pa.list_(pa.int32())),
    ("block_offset", pa.list_(pa.int64())),
    ("block_first_doc", pa.list_(pa.int64())),
    ("block_last_doc", pa.list_(pa.int64())),
    ("block_max_tf", pa.list_(pa.int32())),
    ("block_min_dl", pa.list_(pa.int32())),
])

_RUN_SCHEMA_POS = _RUN_SCHEMA.append(pa.field("positions", pa.list_(pa.int32())))


def runs_table(enc: EncodedRun, run_blocks: np.ndarray, term: pa.Array,
               bucket: np.ndarray, rng: np.ndarray,
               positions: tuple[np.ndarray, np.ndarray] | None = None
               ) -> pa.Table:
    """The Arrow run table of ``enc``, an ``encode_blocks`` result (or a
    ``flat_runs`` view) holding runs back to back, run ``r`` from block
    ``run_blocks[r]`` on: one row per run with its ``term``, ``bucket``
    and ``rng``.  The payload bytes ARE the Binary column's data buffer,
    sliced per run; block offsets turn run-relative.  ``positions`` is
    (flat in-doc positions in posting order, count per run)."""
    r_bounds = np.append(run_blocks, len(enc.block_len))
    run_byte = np.append(enc.block_offset, len(enc.payload))[r_bounds]
    n = len(run_blocks)
    # py_buffer wraps the offsets and the payload bytes zero-copy
    payload = pa.BinaryArray.from_buffers(
        pa.binary(), n, [None, pa.py_buffer(run_byte.astype(np.int32)),
                         pa.py_buffer(enc.payload)])
    loff = pa.array(r_bounds, type=pa.int64())

    def lst(arr, typ):
        return pa.ListArray.from_arrays(loff, pa.array(arr.astype(typ)))

    cols = {
        "term": term,
        "bucket": pa.array(bucket, type=pa.int32()),
        "rng": pa.array(rng, type=pa.int32()),
        "first_doc": pa.array(enc.block_first_doc[run_blocks],
                              type=pa.int64()),
        "df": pa.array(np.add.reduceat(enc.block_len.astype(np.int64),
                                       run_blocks)),
        "payload": payload,
        "block_len": lst(enc.block_len, np.int32),
        "block_offset": lst(enc.block_offset
                            - run_byte[:-1].repeat(np.diff(r_bounds)),
                            np.int64),
        "block_first_doc": lst(enc.block_first_doc, np.int64),
        "block_last_doc": lst(enc.block_last_doc, np.int64),
        "block_max_tf": lst(enc.block_max_tf, np.int32),
        "block_min_dl": lst(enc.block_min_dl, np.int32),
    }
    if positions is None:
        return pa.table(cols).cast(_RUN_SCHEMA)
    flat, counts = positions
    cols["positions"] = pa.ListArray.from_arrays(
        pa.array(np.concatenate(([0], np.cumsum(counts))), type=pa.int64()),
        pa.array(flat.astype(np.int32)))
    return pa.table(cols).cast(_RUN_SCHEMA_POS)


def _array(col) -> pa.Array:
    """A (chunked) column as one array, not copied if it has one chunk."""
    if isinstance(col, pa.ChunkedArray):
        return col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
    return col


def flat_list(col) -> tuple[np.ndarray, np.ndarray]:
    """A list column's values and each row's (``n + 1``) offsets."""
    col = _array(col)
    offs = col.offsets.to_numpy().astype(np.int64)
    return col.values.to_numpy()[offs[0]:offs[-1]], offs - offs[0]


def flat_runs(table: pa.Table) -> tuple[EncodedRun, np.ndarray, np.ndarray]:
    """The inverse of ``runs_table``: a (non-empty) run table's rows back
    to back as ONE run — the payload is a view of the payload column's
    bytes, not a copy, and block offsets are absolute in it — plus each
    row's first block and each row's payload base (both ``n + 1``
    long).  Row ``i``'s run is blocks ``[blocks[i], blocks[i + 1])`` and
    bytes ``[base[i], base[i + 1])``."""
    pay = _array(table["payload"])
    p_off = np.frombuffer(pay.buffers()[1], dtype=np.int32)[
        pay.offset:pay.offset + len(pay) + 1].astype(np.int64)
    base = p_off - p_off[0]
    lens, blocks = flat_list(table["block_len"])

    def flat(name, typ):
        return flat_list(table[name])[0].astype(typ, copy=False)

    run = EncodedRun(
        payload=memoryview(pay.buffers()[2]).cast("B")[p_off[0]:p_off[-1]],
        block_len=lens.astype(np.int32, copy=False),
        block_offset=flat("block_offset", np.int64)
        + base[:-1].repeat(np.diff(blocks)),
        block_first_doc=flat("block_first_doc", np.int64),
        block_last_doc=flat("block_last_doc", np.int64),
        block_max_tf=flat("block_max_tf", np.int32),
        block_min_dl=flat("block_min_dl", np.int32),
    )
    return run, blocks, base


def decode_rows(run: EncodedRun, blocks: np.ndarray, rows: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The postings of rows ``rows`` of a ``flat_runs`` view, back to
    back, in ONE ``decode_blocks`` call -> (doc_ids, tfs, dls).  dls
    repeat each source block's min_dl: a lower bound of the true dls, so
    block-max bounds stay valid (codec.decode_merged; exact scores read
    the doclens sidecar)."""
    sel = gather_positions(np.arange(len(run.block_len)), np.diff(blocks),
                           rows)
    lens = run.block_len[sel]
    d, tf = decode_blocks(run.payload, run.block_offset[sel], lens,
                          run.block_first_doc[sel])
    return d, tf, run.block_min_dl[sel].astype(np.int64).repeat(lens)


def write_segment_table(table: pa.Table, path: str,
                        target_bytes: int = 4 << 20,
                        max_rows: int = 256) -> None:
    """Write a (term-sorted) segment table with SIZE-AWARE row groups: a
    new row group starts when the accumulated payload bytes would exceed
    ``target_bytes`` or the row count ``max_rows``.  Terms are sorted,
    so each row group holds a contiguous term range — the reader's term
    directory maps a term to its row group(s), and a lookup decodes only
    those instead of the whole bucket file.  A hot term's multi-MB
    payload forms (roughly) its own group; the old fixed
    row_group_size=4096 made one giant group whose EVERY payload was
    decompressed for EVERY term lookup — O(bucket bytes) read
    amplification per query term at web-scale vocabularies."""
    import pyarrow.compute as pc

    if table.num_rows == 0:
        pq.write_table(table, path)
        return
    sizes = pc.binary_length(table["payload"]).to_numpy(
        zero_copy_only=False).astype(np.int64)
    cuts = [0]
    acc = rows = 0
    for i, s in enumerate(sizes.tolist()):
        if rows and (acc + s > target_bytes or rows >= max_rows):
            cuts.append(i)
            acc = rows = 0
        acc += s
        rows += 1
    cuts.append(table.num_rows)
    with pq.ParquetWriter(path, table.schema) as w:
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            w.write_table(table.slice(lo, hi - lo))


def spimi_encode_batch(batch: pa.Table, *, doclens_dir: str,
                       num_buckets: int, doc_range_size: int,
                       from_html: bool = False,
                       store_positions: bool = False) -> pa.Table:
    """SPIMI stage body: (doc_id, text|html) batch -> compressed posting
    runs, one run per (term, batch).

    Vectorized tokenize, per-(doc, term) tf via one ``np.unique`` over
    composed int64 keys, then per-term delta+bitpack encode.  Runs of the
    same term from different batches are doc-disjoint, so the merge can
    byte-concat them ordered by ``first_doc``.

    Runs as STATELESS map_batches tasks, not an actor pool: the stage
    holds no per-worker state (the extract pattern is a constant, numpy
    kernels are module-level), and measured on 1M docs the task pool was
    ~2x faster than an actor pool at 8 CPUs (better pipelining, no pool
    startup/rebalance cost).

    Doclens are written as side parquet files named by the batch's min
    doc_id — deterministic and idempotent under task retry.
    """
    doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    if len(doc_ids) > 1 and not (doc_ids[1:] >= doc_ids[:-1]).all():
        # a batch may span non-adjacent blocks; keep runs doc-sorted
        batch = batch.take(pa.array(np.argsort(doc_ids, kind="stable")))
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    # split at doc_id discontinuities (a batch spanning non-adjacent files)
    # so every emitted run covers a CONTIGUOUS doc interval: runs of a term
    # then never interleave and the merge is always a metadata-level byte
    # concat, never a decode+re-encode.  False splits on sparse ids only
    # cost extra (still-correct) runs.
    if len(doc_ids) > 1:
        jumps = np.flatnonzero(np.diff(doc_ids) > _CONTIG_GAP) + 1
        if len(jumps):
            parts = []
            lo = 0
            for hi in list(jumps) + [len(doc_ids)]:
                parts.append(_encode_part(batch.slice(lo, hi - lo), doclens_dir,
                                          num_buckets, doc_range_size, from_html,
                                          store_positions))
                lo = hi
            return pa.concat_tables(parts).sort_by(
                [("bucket", "ascending"), ("term", "ascending")])
    return _encode_part(batch, doclens_dir, num_buckets, doc_range_size,
                        from_html, store_positions)


_CONTIG_GAP = 4096


def _encode_part(batch: pa.Table, doclens_dir: str, num_buckets: int,
                 doc_range_size: int, from_html: bool = False,
                 store_positions: bool = False) -> pa.Table:
    """Encode one doc-contiguous batch slice into run rows."""
    doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    toks = None
    if from_html:
        from ..tokenizer import tokenize_html_column

        # fused path: tokenize inside the html buffer (no text column
        # materialized); None -> non-ASCII payload, extract then tokenize
        toks = tokenize_html_column(batch["html"])
        if toks is None:
            batch = _EXTRACT(batch)
    if toks is None:
        toks = tokenize_column(batch["text"])
    offsets = toks.offsets.to_numpy(zero_copy_only=False)
    dls = (offsets[1:] - offsets[:-1]).astype(np.int64)
    _write_doclens(doclens_dir, doc_ids, dls)

    flat = toks.flatten()
    if len(flat) == 0:
        return (_RUN_SCHEMA_POS if store_positions
                else _RUN_SCHEMA).empty_table()
    enc = flat.dictionary_encode()
    n_rows = len(doc_ids)
    term_ids = enc.indices.to_numpy(zero_copy_only=False)
    doc_idx = np.repeat(np.arange(n_rows), offsets[1:] - offsets[:-1])
    # (term, doc) tf counts, sorted by (term_id, doc_idx) by key order;
    # int32 keys when they fit (halves the sort's memory traffic — the
    # unique() over composed keys is the hottest array in the stage)
    n_terms = len(enc.dictionary)
    if n_terms * n_rows < (1 << 31):
        keys = term_ids.astype(np.int32) * np.int32(n_rows) + \
            doc_idx.astype(np.int32)
    else:
        keys = term_ids.astype(np.int64) * n_rows + doc_idx
    uniq, tf = np.unique(keys, return_counts=True)
    uniq = uniq.astype(np.int64)
    u_term = (uniq // n_rows).astype(np.int64)
    u_doc = (uniq % n_rows).astype(np.int64)
    out_doc = doc_ids[u_doc]
    out_dl = dls[u_doc]

    bucket_per_dict = term_bucket_of_arrow(enc.dictionary, num_buckets)

    positions_sorted = None
    if store_positions:
        # token offset within its document, sorted to align with the
        # (term, doc) posting stream: lexsort primary=term, then doc,
        # then in-doc position (ascending)
        counts = (offsets[1:] - offsets[:-1])
        tok_pos = (np.arange(len(term_ids), dtype=np.int64)
                   - np.repeat(offsets[:-1], counts))
        order = np.lexsort((tok_pos, doc_idx, term_ids))
        positions_sorted = tok_pos[order].astype(np.int32)
    out = _encode_terms_vectorized(u_term, out_doc, tf, out_dl,
                                   enc.dictionary, bucket_per_dict,
                                   doc_range_size,
                                   positions=positions_sorted)
    # cluster by bucket so the per-bucket merge can prune row groups
    # (runs are written with small row groups; the merge reads only the
    # groups whose bucket-stat range matches)
    return out.sort_by([("bucket", "ascending"), ("term", "ascending")])


def _encode_terms_vectorized(u_term: np.ndarray, doc: np.ndarray,
                             tf: np.ndarray, dl: np.ndarray,
                             dictionary, bucket_per_dict: np.ndarray,
                             doc_range_size: int,
                             positions: np.ndarray | None = None) -> pa.Table:
    """Encode ALL terms' posting runs of one batch with ONE
    ``codec.encode_blocks`` call (no per-term Python) and assemble them
    with ``runs_table``.  ``positions`` are the flat in-doc positions
    aligned with the (term, doc) posting stream."""
    t_starts = np.flatnonzero(np.diff(u_term, prepend=-1))
    enc, r_bstarts = encode_blocks(doc, tf, dl, t_starts)
    run_term = u_term[t_starts]
    return runs_table(
        enc, r_bstarts, dictionary.take(pa.array(run_term)),
        bucket_per_dict[run_term], doc[t_starts] // doc_range_size,
        None if positions is None
        else (positions, np.add.reduceat(tf, t_starts)))


_EXTRACT = HtmlExtract()


def _write_doclens(doclens_dir: str, doc_ids: np.ndarray, dls: np.ndarray) -> None:
    if len(doc_ids) == 0:
        return
    os.makedirs(doclens_dir, exist_ok=True)
    name = f"doclens-{int(doc_ids.min()):014d}.parquet"
    path = os.path.join(doclens_dir, name)
    if os.path.exists(path):
        return
    t = pa.table({"doc_id": pa.array(doc_ids), "dl": pa.array(dls)})
    tmp = path + f".tmp{os.getpid()}"
    pq.write_table(t, tmp)
    os.rename(tmp, path)


def _merge_bucket_group(group: pa.Table) -> pa.Table:
    """Tiered merge: all runs of one bucket -> one run per term,
    term-sorted, each term's runs concatenated in first_doc order.

    A term whose runs chain (each run's docs all precede the next run's)
    concatenates at the metadata level: ``runs_table`` over the group's
    ``flat_runs`` regroups the list and payload offsets at term
    boundaries, with no Python per term and no copy of the payload
    bytes.  Interleaved terms (a batch reaching into a later doc range)
    go first, all together: one ``decode_blocks`` over their rows, a
    stable (term, doc) ``lexsort`` that carries the positions along, one
    ``encode_blocks``; their one-row replacements then chain.
    """
    import pyarrow.compute as pc

    has_pos = "positions" in group.column_names
    if group.num_rows == 0:
        return (_RUN_SCHEMA_POS if has_pos else _RUN_SCHEMA).empty_table()
    group = group.sort_by([("term", "ascending"), ("rng", "ascending"),
                           ("first_doc", "ascending")])
    n = group.num_rows
    run, blocks, _ = flat_runs(group)
    terms = _array(group["term"])
    bucket = group["bucket"].to_numpy()
    pos = flat_list(group["positions"]) if has_pos else None
    new_term = np.ones(n, dtype=bool)
    new_term[1:] = pc.not_equal(terms.slice(1), terms.slice(0, n - 1)) \
        .to_numpy(zero_copy_only=False)
    t_starts = np.flatnonzero(new_term)
    # a term's rows chain when each starts after the previous one ends
    chain = new_term.copy()
    chain[1:] |= run.block_last_doc[blocks[1:-1] - 1] \
        < run.block_first_doc[blocks[1:-1]]
    row_term = np.cumsum(new_term) - 1
    loose = ~np.logical_and.reduceat(chain, t_starts)[row_term]
    if loose.any():
        rows = np.flatnonzero(loose)
        d, tf, dl = decode_rows(run, blocks, rows)
        p_term = row_term[rows].repeat(group["df"].to_numpy()[rows])
        order = np.lexsort((d, p_term))
        starts = np.flatnonzero(np.diff(p_term, prepend=-1))
        enc, r_bstarts = encode_blocks(d[order], tf[order], dl[order], starts)
        first = t_starts[p_term[starts]]
        merged = runs_table(
            enc, r_bstarts, terms.take(first), bucket[first],
            np.zeros(len(first), dtype=np.int32),
            None if pos is None else (
                gather_positions(gather_positions(pos[0], np.diff(pos[1]),
                                                  rows), tf, order),
                np.add.reduceat(tf[order], starts)))
        return _merge_bucket_group(pa.concat_tables(
            [group.filter(pa.array(~loose)), merged.cast(group.schema)]))
    return runs_table(
        run, blocks[t_starts], terms.take(t_starts), bucket[t_starts],
        np.zeros(len(t_starts), dtype=np.int32),
        None if pos is None
        else (pos[0], np.add.reduceat(np.diff(pos[1]), t_starts)))


def build_index(pages_path: str, index_dir: str, *,
                num_buckets: int = DEFAULT_NUM_BUCKETS,
                doc_range_size: int = DEFAULT_DOC_RANGE_SIZE,
                from_html: bool = True,
                batch_size: int = 8192,
                merge_parts: int = 1,
                store_positions: bool = False,
                overwrite: bool = False) -> dict:
    """Build the full index under ``index_dir``.  Returns the stats manifest.

    Resumable: if ``runs/`` has a manifest but ``segments/`` does not, the
    build restarts from the compressed runs without re-tokenizing
    (SURVEY §7.5.8); if ``segments/`` has a manifest the build is a no-op.

    ``merge_parts > 1`` is the hierarchical-merge scale path: each
    bucket's merge splits into that many tasks, each covering a
    contiguous doc-range (``rng``) interval and writing its own
    ``part-<i>.parquet`` — so per-task input stays bounded at 10^12-doc
    scale instead of one task swallowing a whole bucket.  Part files are
    doc-disjoint per term by construction; the reader already concats a
    term's segment rows across files in first_doc order, so query
    results are bit-identical to a single-part merge (pytest-verified).
    """
    import ray.data

    t0 = time.time()
    runs_dir = os.path.join(index_dir, "runs")
    segments_dir = os.path.join(index_dir, "segments")
    doclens_dir = os.path.join(index_dir, "doclens")
    stats_path = os.path.join(index_dir, "stats.json")
    runs_manifest = os.path.join(index_dir, "runs.manifest.json")
    seg_manifest = os.path.join(index_dir, "segments.manifest.json")
    os.makedirs(index_dir, exist_ok=True)

    if overwrite:
        import shutil
        for p in (runs_manifest, seg_manifest, stats_path):
            if os.path.exists(p):
                os.remove(p)
        for d in (runs_dir, segments_dir, doclens_dir):
            shutil.rmtree(d, ignore_errors=True)

    if os.path.exists(seg_manifest):
        with open(stats_path) as f:
            return json.load(f)

    if not os.path.exists(runs_manifest):
        _write_runs(pages_path, index_dir, num_buckets=num_buckets,
                    doc_range_size=doc_range_size, from_html=from_html,
                    batch_size=batch_size, store_positions=store_positions)
        t_runs = time.time()
        with open(runs_manifest + ".tmp", "w") as f:
            json.dump({"pages_path": pages_path, "num_buckets": num_buckets,
                       "doc_range_size": doc_range_size,
                       "wall_s": t_runs - t0}, f)
        os.rename(runs_manifest + ".tmp", runs_manifest)

    # tiered merge WITHOUT an all-to-all: the runs write already clustered
    # rows by bucket (sorted + small row groups), so one task per bucket
    # reads just its slice.  The row-group -> bucket map is computed ONCE
    # on the driver from parquet footers and shipped to the tasks — per-
    # task footer scans of every runs file were the merge's serial cost.
    # This replaces a sort-shuffle whose scheduling overhead dominated the
    # merge at small block sizes; at multi-node scale the same layout
    # works because runs live in shared storage and each merge task pulls
    # only its row groups.
    t1 = time.time()
    import glob as _glob

    run_files = sorted(_glob.glob(os.path.join(runs_dir, "*.parquet")))
    rg_map: dict[int, list[tuple[int, int]]] = {b: [] for b in range(num_buckets)}
    rg_rng: dict[tuple[int, int], tuple[int, int]] = {}
    max_rng = 0
    for fi, f in enumerate(run_files):
        md = pq.read_metadata(f)
        sch = md.schema.to_arrow_schema()
        bucket_ci = sch.get_field_index("bucket")
        rng_ci = sch.get_field_index("rng")
        for gi in range(md.num_row_groups):
            st = md.row_group(gi).column(bucket_ci).statistics
            for b in range(int(st.min), int(st.max) + 1):
                rg_map[b].append((fi, gi))
            rst = md.row_group(gi).column(rng_ci).statistics
            rg_rng[(fi, gi)] = (int(rst.min), int(rst.max))
            max_rng = max(max_rng, int(rst.max))

    # doc-range intervals for the hierarchical merge: each (bucket, part)
    # task covers a contiguous rng interval, so per-task input is
    # ~1/merge_parts of the bucket and part outputs are doc-disjoint
    n_parts = max(1, min(int(merge_parts), max_rng + 1))
    bounds = np.linspace(0, max_rng + 1, n_parts + 1).astype(np.int64)
    part_ranges = [(int(bounds[i]), int(bounds[i + 1]) - 1)
                   for i in range(n_parts)]

    _MANIFEST_SCHEMA = pa.schema([
        ("bucket", pa.int32()), ("part", pa.int32()),
        ("n_terms", pa.int64()),
        ("n_postings", pa.int64()), ("n_bytes", pa.int64()),
        ("skipped", pa.bool_()), ("wall_s", pa.float64()),
    ])

    def _merge_bucket_task(batch: pa.Table) -> pa.Table:
        """One task per (bucket, doc-range part): read the row groups
        overlapping its rng interval, merge, write the part file
        ATOMICALLY (tmp+rename, skip when present) — the per-partition
        resume unit — and return a lineage/metrics row."""
        import pyarrow.compute as pc

        rows = []
        for r in batch.to_pylist():
            b, pi = int(r["bucket_id"]), int(r["part_id"])
            rlo, rhi = int(r["rng_lo"]), int(r["rng_hi"])
            tb0 = time.time()
            seg_dir = os.path.join(segments_dir, f"bucket={b}")
            fname = "segment.parquet" if n_parts == 1 \
                else f"part-{pi:05d}.parquet"
            seg_path = os.path.join(seg_dir, fname)
            if os.path.exists(seg_path):
                md = pq.read_metadata(seg_path)
                rows.append({"bucket": b, "part": pi,
                             "n_terms": md.num_rows,
                             "n_postings": -1, "n_bytes": -1,
                             "skipped": True, "wall_s": 0.0})
                continue
            groups: dict[int, list[int]] = {}
            for fi, gi in rg_map[b]:
                lo, hi = rg_rng[(fi, gi)]
                if hi < rlo or lo > rhi:
                    continue
                groups.setdefault(fi, []).append(gi)
            parts = []
            for fi, gis in groups.items():
                t = pq.ParquetFile(run_files[fi]).read_row_groups(gis)
                mask = pc.equal(t["bucket"], b)
                if n_parts > 1:
                    mask = pc.and_(mask, pc.and_(
                        pc.greater_equal(t["rng"], rlo),
                        pc.less_equal(t["rng"], rhi)))
                parts.append(t.filter(mask))
            m = _merge_bucket_group(pa.concat_tables(parts)) \
                if parts else (_RUN_SCHEMA_POS if store_positions
                               else _RUN_SCHEMA).empty_table()
            os.makedirs(seg_dir, exist_ok=True)
            tmp = seg_path + f".tmp{os.getpid()}"
            write_segment_table(m, tmp)
            os.rename(tmp, seg_path)
            rows.append({
                "bucket": b, "part": pi, "n_terms": m.num_rows,
                "n_postings": int(pc.sum(m["df"]).as_py() or 0),
                "n_bytes": int(pc.sum(pc.binary_length(m["payload"]))
                               .as_py() or 0),
                "skipped": False, "wall_s": round(time.time() - tb0, 4),
            })
        return pa.Table.from_pylist(rows, schema=_MANIFEST_SCHEMA)

    items = [{"bucket_id": b, "part_id": pi, "rng_lo": lo, "rng_hi": hi}
             for b in range(num_buckets)
             for pi, (lo, hi) in enumerate(part_ranges)]
    buckets_ds = ray.data.from_items(items, override_num_blocks=len(items))
    manifest_rows = buckets_ds.map_batches(
        _merge_bucket_task, batch_size=1,
        batch_format="pyarrow").to_pandas().to_dict("records")
    t2 = time.time()

    # corpus stats from the doclens sidecar, computed distributed: one Ray
    # task per file group returns (min_doc, max_doc, n, sum_dl); when the
    # files' doc intervals are pairwise disjoint (the normal case — docs
    # are unique per file) the totals are exact with no dedup.  Retried /
    # re-sliced tasks can produce overlapping files; that rare case falls
    # back to a full read + numpy dedup.
    import glob as _glob

    import ray as _ray

    t_stats0 = time.time()
    dl_files = sorted(_glob.glob(os.path.join(doclens_dir, "*.parquet")))

    @_ray.remote
    def _dl_partial(paths: list) -> list:
        out = []
        for p in paths:
            t = pq.read_table(p, columns=["doc_id", "dl"])
            d = t["doc_id"].to_numpy(zero_copy_only=False)
            out.append((int(d.min()), int(d.max()), len(d),
                        int(t["dl"].to_numpy(zero_copy_only=False).sum())))
        return out

    chunk = max(1, len(dl_files) // 32)
    parts = [p for ref in [
        _dl_partial.remote(dl_files[i:i + chunk])
        for i in range(0, len(dl_files), chunk)
    ] for p in _ray.get(ref)]
    parts.sort()
    disjoint = all(parts[i][1] < parts[i + 1][0] for i in range(len(parts) - 1))
    if disjoint:
        n_docs_total = sum(p[2] for p in parts)
        total_len = sum(p[3] for p in parts)
    else:
        dl_tbl = pq.read_table(doclens_dir, columns=["doc_id", "dl"])
        doc_np = dl_tbl["doc_id"].to_numpy(zero_copy_only=False)
        dl_np = dl_tbl["dl"].to_numpy(zero_copy_only=False)
        _, first_idx = np.unique(doc_np, return_index=True)
        n_docs_total = int(len(first_idx))
        total_len = int(dl_np[first_idx].sum())
    stats = {
        "n_docs": n_docs_total,
        "total_len": total_len,
        "avgdl": (total_len / n_docs_total) if n_docs_total else 0.0,
        "num_buckets": num_buckets,
        "doc_range_size": doc_range_size,
        "merge_parts": merge_parts,
        "store_positions": store_positions,
        "pages_path": pages_path,
        "wall_s_total": time.time() - t0,
        "wall_s_merge": t2 - t1,
        "wall_s_stats": time.time() - t_stats0,
        "build_docs_per_s": n_docs_total / max(1e-9, time.time() - t0),
    }
    with open(stats_path + ".tmp", "w") as f:
        json.dump(stats, f, indent=1)
    os.rename(stats_path + ".tmp", stats_path)
    with open(seg_manifest + ".tmp", "w") as f:
        json.dump({"segments_dir": segments_dir, "wall_s": t2 - t1,
                   "buckets": manifest_rows}, f, indent=1)
    os.rename(seg_manifest + ".tmp", seg_manifest)
    return stats


def _write_runs(pages_path, index_dir: str, *, num_buckets: int,
                doc_range_size: int, from_html: bool, batch_size: int,
                store_positions: bool) -> None:
    """The SPIMI stage: encode ``pages_path`` into run files under
    ``index_dir/runs`` (unique names, so an append adds files beside the
    existing ones) and doclens side files under ``index_dir/doclens``."""
    from functools import partial

    import ray.data

    cols = ["doc_id", "html"] if from_html else ["doc_id", "text"]
    ray.data.read_parquet(pages_path, columns=cols).map_batches(
        partial(spimi_encode_batch,
                doclens_dir=os.path.join(index_dir, "doclens"),
                num_buckets=num_buckets,
                doc_range_size=doc_range_size,
                from_html=from_html,
                store_positions=store_positions),
        batch_format="pyarrow", batch_size=batch_size,
    ).write_parquet(os.path.join(index_dir, "runs"), row_group_size=512)


def remerge_index(index_dir: str, stats: dict) -> dict:
    """Drop the merge outputs (``segments/``, their manifest and
    ``stats.json``) and re-run the per-bucket merge from ``runs/``: the
    runs manifest is kept, so ``build_index`` resumes from the runs and
    re-tokenizes nothing.  ``stats`` is the index's previous stats; the
    build's bucket, range, merge-part and position settings come from
    it."""
    import shutil

    shutil.rmtree(os.path.join(index_dir, "segments"), ignore_errors=True)
    for p in ("segments.manifest.json", "stats.json"):
        fp = os.path.join(index_dir, p)
        if os.path.exists(fp):
            os.remove(fp)
    return build_index(stats["pages_path"], index_dir,
                       num_buckets=stats["num_buckets"],
                       doc_range_size=stats["doc_range_size"],
                       merge_parts=stats.get("merge_parts", 1),
                       store_positions=stats.get("store_positions", False))


def append_to_index(new_pages_path, index_dir: str, *,
                    from_html: bool = True,
                    batch_size: int = 8192) -> dict:
    """Incrementally index an APPEND batch (new docs with ids beyond the
    existing corpus) into an existing index — the log-structured update
    path: tokenize+encode ONLY the new documents into additional run
    files, then re-run the per-bucket tiered merge over old+new runs
    (old documents are never re-tokenized).  Stats and segments refresh;
    the runs checkpoint stays the source of truth.
    """
    import glob as _glob

    with open(os.path.join(index_dir, "stats.json")) as f:
        old_stats = json.load(f)

    # append-only contract: new doc ids must lie beyond every existing
    # id, whose exact max is in the doc_id (column 0) footer statistics
    # of every doclens file — no data page is read
    max_existing = -1
    for fpath in _glob.glob(os.path.join(index_dir, "doclens", "*.parquet")):
        md = pq.read_metadata(fpath)
        for g in range(md.num_row_groups):
            st = md.row_group(g).column(0).statistics
            if st is not None and st.has_min_max:
                max_existing = max(max_existing, int(st.max))
    if isinstance(new_pages_path, str) and os.path.isfile(new_pages_path):
        new_files = [new_pages_path]
    elif isinstance(new_pages_path, str):
        new_files = sorted(_glob.glob(os.path.join(new_pages_path,
                                                   "*.parquet")))
    else:
        new_files = list(new_pages_path)
    new_min = None
    for fpath in new_files:
        d = pq.read_table(fpath, columns=["doc_id"])["doc_id"]
        mn = min(int(x) for x in d.to_pylist())
        new_min = mn if new_min is None else min(new_min, mn)
    if new_min is None or new_min <= max_existing:
        raise ValueError(
            f"append requires new doc_ids > {max_existing}; got min {new_min}")

    # positional indexes must append positional runs — mixed run schemas
    # would crash the per-bucket merge (flag persisted at build time)
    _write_runs(new_pages_path, index_dir,
                num_buckets=old_stats["num_buckets"],
                doc_range_size=old_stats["doc_range_size"],
                from_html=from_html, batch_size=batch_size,
                store_positions=old_stats.get("store_positions", False))

    # lineage: record the appended source paths so key-based upsert
    # resolution (mutate.resolve_doc_ids_by_key) can scan docs that
    # entered via append, not just the original pages_path
    with open(os.path.join(index_dir, "appends.jsonl"), "a") as f:
        f.write(json.dumps({"paths": (
            [new_pages_path] if isinstance(new_pages_path, str)
            else list(new_pages_path))}) + "\n")
    return remerge_index(index_dir, old_stats)

"""LSM-style index mutation: tombstone deletes, key-based upserts, and
physical compaction.

The index is log-structured (SURVEY §7.5.8: immutable compressed runs +
re-runnable tiered merge), so mutation follows the LSM playbook instead of
in-place rewrites:

- ``delete_from_index`` appends a TOMBSTONE file (sorted unique doc_ids)
  under ``index_dir/tombstones/``.  Nothing else changes on disk; the
  ``IndexReader`` applies tombstones at read time (filtered postings,
  adjusted N / avgdl / df), so query results are RANK-IDENTICAL — same
  doc_ids and bit-identical BM25 scores — to an index rebuilt over the
  corpus minus the deleted docs (pytest-verified).
- ``upsert_to_index`` replaces documents by key (default ``url``, the
  corpus identity column — BASELINE input_hint): tombstone every existing
  doc whose key appears in the new batch, then run the normal
  ``append_to_index`` path for the new versions (fresh doc_ids beyond the
  existing range, same contract as append).
- ``compact_index`` makes deletes physical: every runs file is rewritten
  without the tombstoned postings (decode -> mask -> re-encode of the
  rows whose doc span holds a tombstone), doclens drop the deleted rows,
  the tiered merge re-runs from the rewritten runs, and the tombstones
  are dropped LAST — so an interrupted compaction is harmless
  (tombstones still mask whatever wasn't rewritten, and re-running it
  converges).

Replaces what the reference delegates to Elasticsearch deletes/updates —
``remove_all_outliers`` / bulk update flushes
(/root/reference/app/helpers/es.py:173-200) — with engine-owned
log-structured semantics.

Scale notes: tombstones ship to compaction tasks as one ``ray.put``
broadcast (sorted int64 ids; a delete batch is small-side by definition).
Per-task input is one runs file, kept as columns (``build.flat_runs``):
the task decodes all its dirty rows in one ``decode_blocks`` call and
re-encodes the changed ones in one ``encode_blocks`` call, so its cost
follows the postings it touches, not its row count.  Re-encode reuses
each source block's min_dl expanded per posting — a documented lower
bound (codec.merge_runs), valid for block-max upper bounds, while exact
scoring always reads the doclens sidecar.
"""

from __future__ import annotations

import glob
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .build import (decode_rows, flat_list, flat_runs, remerge_index,
                    runs_table)
from .codec import encode_blocks, gather_positions


def _tombstone_files(index_dir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(index_dir, "tombstones",
                                         "*.parquet")))


def load_tombstones(index_dir: str) -> np.ndarray:
    """Union of all tombstone files -> sorted unique int64 doc_ids."""
    files = _tombstone_files(index_dir)
    if not files:
        return np.zeros(0, dtype=np.int64)
    parts = [pq.read_table(f, columns=["doc_id"])["doc_id"]
             .to_numpy(zero_copy_only=False).astype(np.int64)
             for f in files]
    return np.unique(np.concatenate(parts))


def delete_from_index(index_dir: str, doc_ids) -> dict:
    """Append one tombstone file for ``doc_ids``.  O(|batch|) — no index
    rewrite; readers created AFTER this call see the deletes."""
    ids = np.unique(np.asarray(doc_ids, dtype=np.int64))
    tomb_dir = os.path.join(index_dir, "tombstones")
    os.makedirs(tomb_dir, exist_ok=True)
    if len(ids) == 0:
        return {"n_new_tombstones": 0, "n_tombstones_total":
                len(load_tombstones(index_dir))}
    seq = len(_tombstone_files(index_dir))
    path = os.path.join(tomb_dir, f"del-{seq:05d}-{os.getpid()}.parquet")
    tmp = path + ".tmp"
    pq.write_table(pa.table({"doc_id": pa.array(ids, type=pa.int64())}), tmp)
    os.rename(tmp, path)
    return {"n_new_tombstones": len(ids),
            "n_tombstones_total": len(load_tombstones(index_dir)),
            "file": path}


def resolve_doc_ids_by_key(index_dir: str, keys, *,
                           key_col: str = "url") -> np.ndarray:
    """doc_ids of existing documents whose ``key_col`` is in ``keys`` —
    one column-pruned streaming scan of the indexed corpus with the key
    set broadcast into the filter (small side by definition: an upsert
    batch), never a shuffle join."""
    import pyarrow.compute as pc
    import ray
    import ray.data

    if not keys:
        return np.zeros(0, dtype=np.int64)
    with open(os.path.join(index_dir, "stats.json")) as f:
        pages_path = json.load(f)["pages_path"]
    paths = [pages_path] if isinstance(pages_path, str) else list(pages_path)
    lineage = os.path.join(index_dir, "appends.jsonl")
    if os.path.exists(lineage):  # docs that entered via append_to_index
        with open(lineage) as f:
            for line in f:
                paths.extend(json.loads(line)["paths"])
    key_arr = pa.array(sorted(set(keys)))
    key_ref = ray.put(key_arr)

    def match(b: pa.Table) -> pa.Table:
        return b.filter(pc.is_in(b[key_col], value_set=ray.get(key_ref))) \
            .select(["doc_id"])

    hits = ray.data.read_parquet(paths, columns=["doc_id", key_col]) \
        .map_batches(match, batch_format="pyarrow").to_pandas()
    return np.unique(hits["doc_id"].to_numpy(np.int64)) \
        if len(hits) else np.zeros(0, dtype=np.int64)


def upsert_to_index(new_pages_path, index_dir: str, *,
                    key_col: str = "url",
                    from_html: bool = True,
                    batch_size: int = 8192) -> dict:
    """Replace-by-key: tombstone old versions, append new ones.

    New rows follow the append contract (doc_id beyond every existing
    id); the old docs sharing a ``key_col`` value with any new row are
    tombstoned, so queries see exactly one (the new) version per key."""
    if isinstance(new_pages_path, str):
        files = [new_pages_path] if os.path.isfile(new_pages_path) else \
            sorted(glob.glob(os.path.join(new_pages_path, "*.parquet")))
    else:
        files = list(new_pages_path)
    keys: set = set()
    for f in files:
        keys.update(pq.read_table(f, columns=[key_col])[key_col].to_pylist())
    old_ids = resolve_doc_ids_by_key(index_dir, keys, key_col=key_col)
    del_info = delete_from_index(index_dir, old_ids)

    from .build import append_to_index

    stats = append_to_index(new_pages_path, index_dir,
                            from_html=from_html, batch_size=batch_size)
    return {**stats, "n_replaced": int(len(old_ids)),
            "n_tombstones_total": del_info["n_tombstones_total"]}


def _compact_runs(t: pa.Table, tombs: np.ndarray) -> pa.Table | None:
    """A runs table without the postings of ``tombs`` (sorted doc ids),
    or None when none of its postings is tombstoned.  The rows whose doc
    span holds a tombstone decode in ONE ``decode_blocks`` call, and the
    changed ones re-encode in ONE ``encode_blocks`` call; each keeps its
    ``rng`` and its place, and a row left with no posting is dropped."""
    if t.num_rows == 0:
        return None
    run, blocks, _ = flat_runs(t)
    # dirty rows: a tombstone falls inside the row's doc span
    dirty = np.flatnonzero(
        np.searchsorted(tombs, run.block_first_doc[blocks[:-1]])
        < np.searchsorted(tombs, run.block_last_doc[blocks[1:] - 1],
                          side="right"))
    d, tf, dl = decode_rows(run, blocks, dirty)
    keep = tombs[np.minimum(np.searchsorted(tombs, d), len(tombs) - 1)] != d
    df = t["df"].to_numpy()[dirty]
    n_kept = np.add.reduceat(keep.astype(np.int64), np.cumsum(df) - df)
    changed = n_kept < df
    if not changed.any():
        return None
    keep &= changed.repeat(df)
    fresh = changed & (n_kept > 0)
    repl = dirty[fresh]
    # output row order: a replacement (appended after ``t``) takes its
    # row's place, and an emptied row goes
    src = np.arange(t.num_rows)
    src[repl] = t.num_rows + np.arange(len(repl))
    src = np.delete(src, dirty[n_kept == 0])
    if not len(repl):
        return t.take(src)
    live = np.flatnonzero(keep)
    starts = np.cumsum(n_kept[fresh]) - n_kept[fresh]
    enc, r_bstarts = encode_blocks(d[live], tf[live], dl[live], starts)
    pos = None
    if "positions" in t.column_names:
        pv, po = flat_list(t["positions"])
        pos = (gather_positions(gather_positions(pv, np.diff(po), dirty),
                                tf, live),
               np.add.reduceat(tf[live], starts))
    fresh_rows = runs_table(enc, r_bstarts, t["term"].take(repl),
                            t["bucket"].to_numpy()[repl],
                            t["rng"].to_numpy()[repl], pos)
    return pa.concat_tables([t, fresh_rows.cast(t.schema)]).take(src)


def compact_index(index_dir: str) -> dict:
    """Physically remove tombstoned postings and re-run the tiered merge.

    One Ray task per runs file (the merge's own partition unit), each
    writing atomically (tmp+rename); files with no tombstoned posting
    are left untouched.  Crash-safe: tombstones are removed
    only after runs, doclens, and the re-merge all land — a partial
    compaction still serves correct (tombstone-masked) results and
    re-running converges."""
    import ray

    tombs = load_tombstones(index_dir)
    stats_path = os.path.join(index_dir, "stats.json")
    with open(stats_path) as f:
        stats = json.load(f)
    if len(tombs) == 0:
        return {**stats, "n_compacted": 0}
    runs_dir = os.path.join(index_dir, "runs")
    run_files = sorted(glob.glob(os.path.join(runs_dir, "*.parquet")))
    tomb_ref = ray.put(tombs)

    @ray.remote
    def _compact_file(path: str) -> int:
        t = pq.read_table(path)
        new = _compact_runs(t, ray.get(tomb_ref))
        if new is None:
            return 0
        tmp = path + f".tmp{os.getpid()}"
        pq.write_table(new, tmp, row_group_size=512)
        os.rename(tmp, path)
        return t.num_rows - new.num_rows

    n_rewritten = sum(ray.get([_compact_file.remote(p) for p in run_files]))

    # doclens: drop deleted rows (same atomic per-file rewrite)
    @ray.remote
    def _compact_doclens(path: str) -> int:
        t = pq.read_table(path)
        tb = ray.get(tomb_ref)
        d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(tb, d)
        inb = pos < len(tb)
        drop = np.zeros(len(d), dtype=bool)
        drop[inb] = tb[pos[inb]] == d[inb]
        if not drop.any():
            return 0
        tmp = path + f".tmp{os.getpid()}"
        pq.write_table(t.filter(pa.array(~drop)), tmp)
        os.rename(tmp, path)
        return int(drop.sum())

    dl_files = sorted(glob.glob(os.path.join(index_dir, "doclens",
                                             "*.parquet")))
    n_docs_removed = sum(ray.get([_compact_doclens.remote(p)
                                  for p in dl_files]))

    # the tiered merge re-runs FROM the rewritten runs
    new_stats = remerge_index(index_dir, stats)
    # tombstones drop LAST: until here every reader stays correct
    shutil.rmtree(os.path.join(index_dir, "tombstones"), ignore_errors=True)
    return {**new_stats, "n_compacted": int(len(tombs)),
            # whole run ROWS dropped (a row survives, shrunk, when only
            # some of its postings are tombstoned)
            "n_run_rows_removed": int(n_rewritten),
            "n_docs_removed": int(n_docs_removed)}

"""Index reader: segment/doclens/stats access for the query engines.

One ``IndexReader`` instance per query actor — loaded once in the actor's
``__init__`` (stats + doclens), per-term posting runs fetched lazily from
the term's segment bucket and cached.  One scan site, ``TermDirectory``
(which the sharded service also holds per shard, for exact global df
without an RPC), globs a bucket once, holds each segment file open and
reads its term and df columns once; two views are built from it:

- a per-bucket term directory, built on the bucket's first point
  lookup, maps each term to its (file, row group, row) locations: a
  lookup then reads only those row groups, and an absent term reads
  no file at all.  The reader keeps each row group's run columns
  (``ROW_GROUP_BUDGET`` bytes, clear-on-overflow), so the other terms
  of a row group slice their rows out of it with no file read;
- a reader-wide term dictionary (term-sorted Arrow strings + summed
  df), built on the first expansion or rarity call, answers wildcard,
  regexp and fuzzy expansion and ``rarest_terms`` without another file
  read.

Scale path: doclens as doc-partitioned shards per query shard; here (dense
doc_ids, sandbox scale) a single int32 numpy array.
"""

from __future__ import annotations

import dataclasses
import glob
import heapq
import itertools
import json
import os
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..index.codec import EncodedRun, gather_positions
from .fuzzy import levenshtein_within
from .parse import full_match, like_pattern

# the segment columns a reader needs to rebuild one row's run (one per
# EncodedRun field): BM25 and boolean reads project only these, so a
# positional index's position payloads (BASELINE.md: ~2/3 of a
# positional segment's bytes) never leave disk unless .positions() asks
RUN_COLUMNS = [f.name for f in dataclasses.fields(EncodedRun)]


def _row_group_columns(t: pa.Table) -> tuple:
    """A read row group as (``payload`` Arrow array, list column ->
    (values, offsets) numpy views): slicing out one row then copies
    nothing but that row's payload bytes."""
    lists = {}
    for name in t.column_names:
        a = t[name].combine_chunks()
        if name != "payload":
            lists[name] = (a.values.to_numpy(), a.offsets.to_numpy())
    return t["payload"].combine_chunks(), lists


class TermDirectory:
    """The one segment scan site of an index's ``segments_dir`` and its
    two cached views (module docstring).  Construction does no I/O."""

    def __init__(self, segments_dir: str, num_buckets: int):
        self.segments_dir = segments_dir
        self.num_buckets = num_buckets
        self._files: dict[int, list[tuple[pq.ParquetFile, pa.Table]]] = {}
        self._dirs: dict[int, dict[str, list]] = {}
        self._dict: tuple[pa.Array, np.ndarray] | None = None

    def bucket_files(self, bucket: int) -> list:
        """``bucket``'s files as (held ``ParquetFile``, its term and df
        columns), globbed, opened and read once per directory."""
        files = self._files.get(bucket)
        if files is None:
            files = []
            for p in sorted(glob.glob(os.path.join(
                    self.segments_dir, f"bucket={bucket}", "**",
                    "*.parquet"), recursive=True)):
                pf = pq.ParquetFile(p)
                files.append((pf, pf.read(columns=["term", "df"],
                                          use_threads=False)))
            self._files[bucket] = files
        return files

    def lookup(self, term: str) -> list | None:
        """``term``'s entry in its bucket's directory (built on the
        bucket's first lookup): [summed segment df, [(file, row group,
        row), ...]], or None for an absent term."""
        bucket = zlib.crc32(term.encode()) % self.num_buckets
        found = self._dirs.get(bucket)
        if found is None:
            found = {}
            for pf, t in self.bucket_files(bucket):
                md = pf.metadata
                locs = [(pf, g, row) for g in range(md.num_row_groups)
                        for row in range(md.row_group(g).num_rows)]
                for name, df, loc in zip(t["term"].to_pylist(),
                                         t["df"].to_pylist(), locs):
                    entry = found.setdefault(name, [0, []])
                    entry[0] += df
                    entry[1].append(loc)
            self._dirs[bucket] = found
        return found.get(term)

    def df(self, term: str) -> int:
        """Document frequency from SEGMENT METADATA only (the df column
        summed when the term's bucket directory is built — no posting
        payload bytes leave storage).  It equals the run's df in an
        index without tombstones (``merge_runs`` never drops a
        posting); under tombstones it is an UPPER bound."""
        entry = self.lookup(term)
        return entry[0] if entry is not None else 0

    def dictionary(self) -> tuple[pa.Array, np.ndarray]:
        """The directory-wide term dictionary, built on first use from
        every bucket's term/df columns: (terms, summed segment df),
        sorted by term."""
        if self._dict is None:
            tabs = [t for b in range(self.num_buckets)
                    for _, t in self.bucket_files(b)]
            t = pa.concat_tables(tabs) if tabs else pa.table(
                {"term": pa.array([], pa.string()),
                 "df": pa.array([], pa.int64())})
            # a sort, then a df sum over each run of equal terms (a term
            # has one row per doc-range and part file): about half the
            # cost of a hash group_by followed by the same sort
            terms = t["term"].combine_chunks()
            order = pc.array_sort_indices(terms)
            runs = pc.run_end_encode(terms.take(order))
            cum = np.cumsum(t["df"].to_numpy()[order.to_numpy()])
            self._dict = (runs.values, np.diff(
                cum[runs.run_ends.to_numpy() - 1], prepend=0))
        return self._dict


class IndexReader:
    # bytes of run-column row groups held for later terms of the same
    # row group (``_segment_rows``); clear-on-overflow, then insert, like
    # ``TaatSearcher.WEIGHT_BUDGET``
    ROW_GROUP_BUDGET = 64 << 20
    # terms per decode when rarest_terms verifies df under tombstones
    VERIFY_BATCH = 256

    def __init__(self, index_dir: str):
        with open(os.path.join(index_dir, "stats.json")) as f:
            self.stats = json.load(f)
        self.n_docs: int = self.stats["n_docs"]
        self.avgdl: float = float(self.stats["avgdl"])
        self.num_buckets: int = self.stats["num_buckets"]
        self.segments_dir = os.path.join(index_dir, "segments")
        dl_tbl = pq.read_table(os.path.join(index_dir, "doclens"),
                               columns=["doc_id", "dl"])
        doc_id = dl_tbl["doc_id"].to_numpy(zero_copy_only=False)
        dl = dl_tbl["dl"].to_numpy(zero_copy_only=False)
        self.doclens = np.zeros(int(doc_id.max()) + 1 if len(doc_id) else 0,
                                dtype=np.int32)
        self.doclens[doc_id] = dl
        # LSM tombstones (index/mutate.py): filter postings at read time
        # and adjust N / total_len / avgdl so BM25 results are RANK-
        # IDENTICAL to an index rebuilt without the deleted docs.  df
        # adjusts implicitly: df() counts the FILTERED run's postings.
        self.total_len: int = int(self.stats["total_len"])
        self.deleted: np.ndarray | None = None
        from ..index.mutate import load_tombstones

        tombs = load_tombstones(index_dir)
        if len(tombs) and len(doc_id):
            size = len(self.doclens)
            hit = np.zeros(size, dtype=bool)
            inb = tombs[(tombs >= 0) & (tombs < size)]
            hit[inb] = True
            present = np.zeros(size, dtype=bool)
            present[doc_id] = True
            hit &= present  # only tombstones naming an EXISTING doc count
            n_del = int(hit.sum())
            if n_del:
                self.deleted = hit
                self.n_docs -= n_del
                self.total_len -= int(self.doclens[hit].sum())
                self.avgdl = (self.total_len / self.n_docs
                              if self.n_docs else 0.0)
        self._cache: dict[str, EncodedRun | None] = {}
        self._row_groups: dict[tuple, tuple] = {}
        self._row_group_bytes = 0
        self._decoded: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._decoded_postings = 0
        self.decoded_cache_limit = 50_000_000  # postings held decoded
        # the persisted build flag; append and compaction trust it too
        self.has_positions: bool = self.stats.get("store_positions", False)
        self.directory = TermDirectory(self.segments_dir, self.num_buckets)
        self._rarity: np.ndarray | None = None

    def _segment_rows(self, term: str, positions: bool = False) -> list:
        """The term's segment rows as (EncodedRun, positions or None),
        in first_doc order; [] for an absent term, with no file read.
        Each touched row group is read projected to the run columns and
        kept (``_row_group``), so the other terms of a row group read no
        file; a ``positions`` read adds the position payloads (about
        2/3 of a positional segment) and so bypasses that cache."""
        entry = self.directory.lookup(term)
        if entry is None:
            return []
        out = []
        for (pf, g), locs in itertools.groupby(entry[1],
                                               key=lambda loc: loc[:2]):
            if positions:
                payload, lists = _row_group_columns(pf.read_row_group(
                    g, columns=RUN_COLUMNS + ["positions"],
                    use_threads=False))
            else:
                payload, lists = self._row_group(pf, g)
            for _, _, row in locs:
                v = {c: x[o[row]:o[row + 1]] for c, (x, o) in lists.items()}
                pos = v.pop("positions", None)
                out.append((EncodedRun(payload=payload[row].as_py(), **v),
                            pos))
        out.sort(key=lambda r: int(r[0].block_first_doc[0]))
        return out

    def _row_group(self, pf: pq.ParquetFile, g: int) -> tuple:
        """Row group ``g`` of ``pf``, run columns only, read once per
        reader while it fits ``ROW_GROUP_BUDGET``."""
        cols = self._row_groups.get((pf, g))
        if cols is None:
            # single-threaded: handing a row group's few columns to pool
            # threads costs more in wake-ups than it saves in decode
            t = pf.read_row_group(g, columns=RUN_COLUMNS, use_threads=False)
            if self._row_group_bytes + t.nbytes > self.ROW_GROUP_BUDGET:
                self._row_groups.clear()
                self._row_group_bytes = 0
            cols = self._row_groups[(pf, g)] = _row_group_columns(t)
            self._row_group_bytes += t.nbytes
        return cols

    def postings(self, term: str) -> EncodedRun | None:
        """Fetch (and cache) the merged posting run for one term."""
        if term in self._cache:
            return self._cache[term]
        rows = self._segment_rows(term)
        run = None
        if rows:
            # a hierarchical merge may leave one segment row per doc-range
            # (and per part file); concat them in first_doc order, with a
            # decode-merge-reencode fallback when part intervals interleave
            from ..index.codec import merge_runs

            run = merge_runs([r[0] for r in rows])
        if run is not None and self.deleted is not None:
            run = self._filter_tombstoned(run)
        self._cache[term] = run
        return run

    def _filter_tombstoned(self, run: EncodedRun) -> EncodedRun | None:
        """Re-encode a run without tombstoned postings (exact dls from
        the doclens sidecar, so block metadata stays tight).  Cached by
        ``postings``, so the cost is once per term per reader; BMP's
        block bounds, df() and TAAT all see the filtered run, keeping
        the paths bit-identical under deletes."""
        from ..index.codec import decode_run, encode_postings

        doc_ids, tfs = decode_run(run)
        keep = ~self.deleted[doc_ids]
        if keep.all():
            return run
        if not keep.any():
            return None
        d = doc_ids[keep]
        return encode_postings(d, tfs[keep], self.doclens[d])

    def postings_decoded(self, term: str) -> tuple[np.ndarray, np.ndarray] | None:
        """Decoded (doc_ids, tfs) with an LRU-ish cache — hot query terms
        (stopwords) decode once per actor, not once per query."""
        if term in self._decoded:
            return self._decoded[term]
        run = self.postings(term)
        if run is None:
            return None
        from ..index.codec import decode_run

        arrays = decode_run(run)
        if self._decoded_postings + len(arrays[0]) > self.decoded_cache_limit:
            self._decoded.clear()
            self._decoded_postings = 0
        self._decoded[term] = arrays
        self._decoded_postings += len(arrays[0])
        return arrays

    def df(self, term: str) -> int:
        run = self.postings(term)
        return run.n_postings if run is not None else 0

    def meta_df(self, term: str) -> int:
        """``TermDirectory.df``: segment-metadata df, an UPPER bound
        under tombstones — exactly what a size gate wants: a term that
        looks big by metadata is at least as big before deletes."""
        return self.directory.df(term)

    def _expand(self, hit, what: str, limit: int) -> list[str]:
        """The dictionary terms under the boolean mask ``hit`` — sorted,
        as the dictionary is.  Raises ``ValueError`` above ``limit``
        terms (the ES ``max_clause_count`` analogue): a bare ``*`` at
        web scale would otherwise union the whole dictionary."""
        out = self.directory.dictionary()[0].filter(hit)
        if len(out) > limit:
            raise ValueError(f"{what} expands to >{limit} terms")
        return out.to_pylist()

    def terms_matching(self, pattern: str, limit: int = 1024) -> list[str]:
        """Expand a Lucene wildcard pattern (``*`` = any run, ``?`` = one
        char) against the term dictionary: one ``match_like`` over it.
        Sorted and clause-capped (``_expand``)."""
        hit = pc.match_like(self.directory.dictionary()[0],
                            like_pattern(pattern))
        return self._expand(hit, f"wildcard {pattern!r}", limit)

    def rarest_terms(self, k: int) -> list[tuple[str, int]]:
        """The k rarest index terms by document frequency (df asc, term
        asc ties), answered from SEGMENT METADATA only — each segment row
        carries its run's df, so no posting payload is decoded.  This is
        the index-backed rarity scoring the terms models build on.  With
        tombstones present, metadata df overcounts, so the smallest
        candidates are re-verified (``_live_dfs``) before the cut."""
        terms, meta = self.directory.dictionary()
        if self._rarity is None:
            # stable over the term-sorted arrays: (df asc, term asc)
            self._rarity = np.argsort(meta, kind="stable")
        order = self._rarity
        if self.deleted is None or k <= 0:
            return list(zip(terms.take(order[:k]).to_pylist(),
                            meta[order[:k]].tolist()))
        # metadata df is an UPPER bound under tombstones (true_df >=
        # meta_df - n_tombstones), so verify candidates in ascending
        # metadata order and stop once no unverified term can still
        # beat the kth verified df.  The k best verified so far sit in a
        # heap as (-df, -i), worst on top; i (the term-sorted index)
        # orders ties by term
        tombs = np.flatnonzero(self.deleted)
        best: list[tuple[int, int]] = []
        for i, d in self._live_dfs(terms, order, tombs):
            if len(best) == k and meta[i] - len(tombs) > -best[0][0]:
                break
            if d > 0:
                item = (-d, -int(i))
                if len(best) < k:
                    heapq.heappush(best, item)
                elif item > best[0]:
                    heapq.heapreplace(best, item)
        return [(terms[-ni].as_py(), -nd)
                for nd, ni in sorted(best, reverse=True)]

    def _live_dfs(self, terms: pa.Array, order: np.ndarray,
                  tombs: np.ndarray):
        """Yield (i, df of ``terms[i]``) along ``order`` without
        filtering a run, ``VERIFY_BATCH`` terms at a time, from their
        cached row groups: a segment row whose [first_doc, last_doc]
        span holds none of the sorted ``tombs`` counts its block
        lengths; the batch's other rows are concatenated and decoded in
        one ``decode_run``, counting their doc_ids that are not deleted.
        Re-encodes nothing and puts nothing in ``_cache``."""
        from ..index.codec import concat_runs, decode_run

        for b in range(0, len(order), self.VERIFY_BATCH):
            batch = order[b:b + self.VERIFY_BATCH]
            df = np.zeros(len(batch), dtype=np.int64)
            dirty, owner = [], []
            for j, t in enumerate(terms.take(batch).to_pylist()):
                for run, _ in self._segment_rows(t):
                    s, e = np.searchsorted(tombs, [run.block_first_doc[0],
                                                   run.block_last_doc[-1] + 1])
                    if s == e:
                        df[j] += run.n_postings
                    else:
                        dirty.append(run)
                        owner.append(j)
            if dirty:
                live = ~self.deleted[decode_run(concat_runs(dirty))[0]]
                n = np.array([r.n_postings for r in dirty])
                np.add.at(df, owner, np.add.reduceat(live, np.cumsum(n) - n))
            yield from zip(batch.tolist(), df.tolist())

    def terms_regex(self, pattern: str, limit: int = 1024) -> list[str]:
        """Expand a Lucene regexp term (``/pattern/``, full-match
        semantics) against the term dictionary — RE2 via Arrow, matching
        DuckDB ``regexp_full_match`` in the oracle.  Sorted, clause-
        capped like ``terms_matching``."""
        hit = pc.match_substring_regex(self.directory.dictionary()[0],
                                       full_match(pattern))
        return self._expand(hit, f"regexp /{pattern}/", limit)

    def terms_fuzzy(self, term: str, max_dist: int,
                    limit: int = 1024) -> list[str]:
        """Expand a Lucene fuzzy term (``term~N``) against the term
        dictionary: every indexed term within ``max_dist`` Levenshtein
        edits (vectorized DP across candidates, query/fuzzy.py).  Sorted,
        deterministic, clause-capped like ``terms_matching``."""
        hit = pa.array(levenshtein_within(
            term, self.directory.dictionary()[0], max_dist))
        return self._expand(hit, f"fuzzy {term!r}~{max_dist}", limit)

    def positions(self, term: str):
        """(doc_ids, tfs, flat_positions) for a positional index, else
        None.  flat_positions splits per posting by tf (in-doc token
        offsets, ascending)."""
        if not self.has_positions:
            return None
        rows = self._segment_rows(term, positions=True)
        if not rows:
            return None
        from ..index.codec import decode_merged

        d, t, _, flat_pos = decode_merged(
            [r[0] for r in rows], np.concatenate([r[1] for r in rows]))
        return self._filter_positions(d, t, flat_pos)

    def _filter_positions(self, d: np.ndarray, t: np.ndarray,
                          flat_pos: np.ndarray):
        """Drop tombstoned postings and their position slices."""
        if self.deleted is None or not len(d):
            return d, t, flat_pos
        keep = ~self.deleted[d]
        if keep.all():
            return d, t, flat_pos
        return d[keep], t[keep], gather_positions(flat_pos, t,
                                                  np.flatnonzero(keep))

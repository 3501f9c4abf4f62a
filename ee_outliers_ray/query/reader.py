"""Index reader: segment/doclens/stats access for the query engines.

One ``IndexReader`` instance per query actor — loaded once in the actor's
``__init__`` (stats + doclens), per-term posting runs fetched lazily from
the term's segment bucket and cached.  A per-bucket term directory,
built from the term and df columns on the bucket's first lookup, maps
each term to its (file, row group, row) locations: a lookup then reads
only those row groups, and an absent term reads no file at all.

Scale path: doclens as doc-partitioned shards per query shard; here (dense
doc_ids, sandbox scale) a single int32 numpy array.
"""

from __future__ import annotations

import dataclasses
import glob
import itertools
import json
import os
import zlib

import numpy as np
import pyarrow.parquet as pq

from ..index.codec import EncodedRun

# the segment columns a reader needs to rebuild one row's run (one per
# EncodedRun field): BM25 and boolean reads project only these, so a
# positional index's position payloads (BASELINE.md: ~2/3 of a
# positional segment's bytes) never leave disk unless .positions() asks
RUN_COLUMNS = [f.name for f in dataclasses.fields(EncodedRun)]


def _list_values(t, name: str, row: int) -> np.ndarray:
    return t[name][row].values.to_numpy()


class IndexReader:
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
        self._decoded: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._decoded_postings = 0
        self.decoded_cache_limit = 50_000_000  # postings held decoded
        self._meta_df_cache: list[tuple[str, int]] | None = None
        self._dirs: dict[int, dict[str, list]] = {}

    def _directory(self, term: str) -> dict[str, list]:
        """The term directory of ``term``'s bucket, built on first use:
        term -> [summed segment df, [(file, row group, row), ...]].  Each
        segment file is opened once and held, so its footer is parsed
        once; only the term and df columns are read to build it."""
        bucket = zlib.crc32(term.encode()) % self.num_buckets
        found = self._dirs.get(bucket)
        if found is not None:
            return found
        found = {}
        paths = sorted(glob.glob(os.path.join(
            self.segments_dir, f"bucket={bucket}", "**", "*.parquet"),
            recursive=True))
        for p in paths:
            pf = pq.ParquetFile(p)
            md = pf.metadata
            locs = [(pf, g, row) for g in range(md.num_row_groups)
                    for row in range(md.row_group(g).num_rows)]
            t = pf.read(columns=["term", "df"], use_threads=False)
            for name, df, loc in zip(t["term"].to_pylist(),
                                     t["df"].to_pylist(), locs):
                entry = found.setdefault(name, [0, []])
                entry[0] += df
                entry[1].append(loc)
        self._dirs[bucket] = found
        return found

    def _segment_rows(self, term: str, positions: bool = False) -> list:
        """The term's segment rows as (EncodedRun, positions or None),
        in first_doc order; [] for an absent term, with no file read.
        Each touched row group is read once, projected to the run
        columns (plus ``positions`` only when asked for)."""
        entry = self._directory(term).get(term)
        if entry is None:
            return []
        cols = RUN_COLUMNS + ["positions"] if positions else RUN_COLUMNS
        out = []
        for (pf, g), locs in itertools.groupby(entry[1],
                                               key=lambda loc: loc[:2]):
            # single-threaded: handing a row group's few columns to pool
            # threads costs more in wake-ups than it saves in decode
            t = pf.read_row_group(g, columns=cols, use_threads=False)
            for _, _, row in locs:
                run = EncodedRun(payload=t["payload"][row].as_py(),
                                 **{c: _list_values(t, c, row)
                                    for c in RUN_COLUMNS[1:]})
                out.append((run, _list_values(t, "positions", row)
                            if positions else None))
        out.sort(key=lambda r: int(r[0].block_first_doc[0]))
        return out

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
        """Document frequency from SEGMENT METADATA only (the df column
        summed when the term directory is built — no posting payload
        bytes leave storage).  Under tombstones this is an UPPER bound on
        the true df, which is exactly what a size gate wants: a term that
        looks big by metadata is at least as big before deletes."""
        entry = self._directory(term).get(term)
        return entry[0] if entry is not None else 0

    def terms_matching(self, pattern: str, limit: int = 1024) -> list[str]:
        """Expand a Lucene wildcard pattern (``*`` = any run, ``?`` = one
        char) against the index's term dictionary.

        A trailing-``*`` prefix pattern reads only the prefix's term
        range (parquet predicate pushdown over the term-sorted segment
        row groups — terms are crc32-bucketed across directories, so
        every bucket is range-scanned, but within each file only the
        matching row groups decode).  Any other pattern scans the full
        term column once.  Deterministic: the expansion is sorted.
        Raises ``ValueError`` above ``limit`` distinct terms (the ES
        ``max_clause_count`` analogue) — a bare ``*`` at web scale would
        otherwise union the whole dictionary.
        """
        import pyarrow.compute as pc

        paths = glob.glob(os.path.join(self.segments_dir, "**", "*.parquet"),
                          recursive=True)
        body = pattern[:-1] if pattern.endswith("*") else None
        prefix = body if body and not any(c in "*?" for c in body) else None
        filters = None
        if prefix is not None:
            # tokens are [a-z0-9]+ and 0x7f sorts above both ranges, so
            # [prefix, prefix+\x7f) covers exactly the prefix interval
            filters = [("term", ">=", prefix), ("term", "<", prefix + "\x7f")]
        like = (pattern.replace("%", r"\%").replace("_", r"\_")
                .replace("*", "%").replace("?", "_"))
        out: set[str] = set()
        for p in paths:
            col = pq.read_table(p, columns=["term"], filters=filters)["term"]
            hit = col.filter(pc.match_like(col, like))
            out.update(hit.to_pylist())
            if len(out) > limit:
                raise ValueError(
                    f"wildcard {pattern!r} expands to >{limit} terms")
        return sorted(out)

    def _meta_df_sorted(self) -> list[tuple[str, int]]:
        """(term, metadata-df) for the WHOLE dictionary, df asc / term
        asc — one vectorized pyarrow group_by over the concatenated
        segment metadata columns (no per-row Python), cached on the
        reader (the index is immutable per reader version)."""
        if self._meta_df_cache is None:
            import pyarrow as pa

            paths = glob.glob(
                os.path.join(self.segments_dir, "**", "*.parquet"),
                recursive=True)
            tabs = [pq.read_table(p, columns=["term", "df"]) for p in paths]
            t = pa.concat_tables(tabs) if tabs else \
                pa.table({"term": pa.array([], type=pa.string()),
                          "df": pa.array([], type=pa.int64())})
            agg = t.group_by("term").aggregate([("df", "sum")]) \
                .sort_by([("df_sum", "ascending"), ("term", "ascending")])
            self._meta_df_cache = list(zip(
                agg["term"].to_pylist(),
                (int(x) for x in agg["df_sum"].to_numpy(
                    zero_copy_only=False))))
        return self._meta_df_cache

    def rarest_terms(self, k: int) -> list[tuple[str, int]]:
        """The k rarest index terms by document frequency (df asc, term
        asc ties), answered from SEGMENT METADATA only — each segment row
        carries its run's df, so no posting payload is decoded.  This is
        the index-backed rarity scoring the terms models build on.  With
        tombstones present, metadata df overcounts, so the smallest
        candidates are re-verified against filtered postings before the
        cut."""
        cand = self._meta_df_sorted()
        if self.deleted is None:
            return cand[:k]
        # metadata df is an UPPER bound under tombstones (true_df >=
        # meta_df - n_tombstones), so verify candidates in ascending
        # metadata order and stop once no unverified term can still
        # beat the kth verified df
        n_tomb = int(self.deleted.sum())
        verified: list[tuple[str, int]] = []
        for s, meta in cand:
            if len(verified) >= k:
                kth = sorted(verified, key=lambda kv: (kv[1], kv[0]))[k - 1]
                if meta - n_tomb > kth[1]:
                    break
            d = self.df(s)
            if d > 0:
                verified.append((s, d))
        return sorted(verified, key=lambda kv: (kv[1], kv[0]))[:k]

    def terms_regex(self, pattern: str, limit: int = 1024) -> list[str]:
        """Expand a Lucene regexp term (``/pattern/``, full-match
        semantics) against the term dictionary — RE2 via Arrow, matching
        DuckDB ``regexp_full_match`` in the oracle.  Sorted, clause-
        capped like ``terms_matching``."""
        import pyarrow.compute as pc

        paths = glob.glob(os.path.join(self.segments_dir, "**", "*.parquet"),
                          recursive=True)
        rx = f"^(?:{pattern})$"
        out: set[str] = set()
        for p in paths:
            col = pq.read_table(p, columns=["term"])["term"]
            hit = col.filter(pc.match_substring_regex(col, rx))
            out.update(hit.to_pylist())
            if len(out) > limit:
                raise ValueError(
                    f"regexp /{pattern}/ expands to >{limit} terms")
        return sorted(out)

    def terms_fuzzy(self, term: str, max_dist: int,
                    limit: int = 1024) -> list[str]:
        """Expand a Lucene fuzzy term (``term~N``) against the term
        dictionary: every indexed term within ``max_dist`` Levenshtein
        edits (vectorized DP across candidates, query/fuzzy.py).  Sorted,
        deterministic, clause-capped like ``terms_matching``."""
        from .fuzzy import levenshtein_within

        paths = glob.glob(os.path.join(self.segments_dir, "**", "*.parquet"),
                          recursive=True)
        out: set[str] = set()
        for p in paths:
            cands = pq.read_table(p, columns=["term"])["term"].to_pylist()
            hit = levenshtein_within(term, cands, max_dist)
            out.update(c for c, h in zip(cands, hit) if h)
            if len(out) > limit:
                raise ValueError(
                    f"fuzzy {term!r}~{max_dist} expands to >{limit} terms")
        return sorted(out)

    @property
    def has_positions(self) -> bool:
        if not hasattr(self, "_has_pos"):
            paths = glob.glob(os.path.join(self.segments_dir, "**",
                                           "*.parquet"), recursive=True)
            self._has_pos = bool(paths) and "positions" in \
                pq.read_schema(paths[0]).names
        return self._has_pos

    def positions(self, term: str):
        """(doc_ids, tfs, flat_positions) for a positional index, else
        None.  flat_positions splits per posting by tf (in-doc token
        offsets, ascending)."""
        if not self.has_positions:
            return None
        rows = self._segment_rows(term, positions=True)
        if not rows:
            return None
        from ..index.codec import concat_runs, decode_run, runs_chainable

        runs = [r[0] for r in rows]
        flat_pos = np.concatenate([r[1] for r in rows])
        if runs_chainable(runs):
            doc_ids, tfs = decode_run(concat_runs(runs))
            return self._filter_positions(doc_ids, tfs, flat_pos)
        # interleaved part intervals: doc-sort the merged postings and
        # reorder the per-posting position slices to match
        parts = [decode_run(r) for r in runs]
        d = np.concatenate([p[0] for p in parts])
        t = np.concatenate([p[1] for p in parts])
        order = np.argsort(d, kind="stable")
        cum = np.zeros(len(t) + 1, dtype=np.int64)
        np.cumsum(t, out=cum[1:])
        flat_pos = np.concatenate(
            [flat_pos[cum[k]:cum[k + 1]] for k in order]) \
            if len(order) else flat_pos[:0]
        return self._filter_positions(d[order], t[order], flat_pos)

    def _filter_positions(self, d: np.ndarray, t: np.ndarray,
                          flat_pos: np.ndarray):
        """Drop tombstoned postings and their position slices."""
        if self.deleted is None or not len(d):
            return d, t, flat_pos
        keep = ~self.deleted[d]
        if keep.all():
            return d, t, flat_pos
        cum = np.zeros(len(t) + 1, dtype=np.int64)
        np.cumsum(t, out=cum[1:])
        kept = np.flatnonzero(keep)
        flat_pos = np.concatenate(
            [flat_pos[cum[k]:cum[k + 1]] for k in kept]) \
            if len(kept) else flat_pos[:0]
        return d[keep], t[keep], flat_pos

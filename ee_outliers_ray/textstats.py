"""Text analysis operators over a text column, on top of the tokenizer:
language-id, quality scoring, token counting, sequence packing,
fixed-size chunking, corpus word-n-gram counts (``top_ngrams``) and
document fingerprinting.

All kernels are batch-vectorized: token membership and lengths via
pyarrow.compute, per-doc reductions via numpy reduceat, fingerprints via
the shared 64-bit poly-hash kernels (hashing.py).  No per-row or
per-char Python in any stage."""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .functions import duck_round
from .hashing import combine_sequences, hash_string_array
from .tokenizer import tokenize_column

# tiny per-language stopword profiles for the stopword heuristic; dict
# order is the tie-break order (first language reaching the max count
# wins), mirrored by the SQL oracle's CASE ordering
_LANG_STOPWORDS = {
    "en": {"the", "and", "of", "to", "in", "is", "that", "it", "for", "was"},
    "nl": {"de", "het", "een", "en", "van", "ik", "dat", "die", "niet", "zijn"},
    "fr": {"le", "la", "les", "et", "de", "un", "une", "est", "que", "pour"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "eine", "mit", "von"},
}

_STOP_EN = _LANG_STOPWORDS["en"]

# BPE-ish token split: word pieces, numbers, punctuation runs, whitespace
# collapsed — a deterministic proxy for subword token counting.
_BPE_RE = re.compile(r"[a-zA-Z]+|\d{1,3}|[^\sa-zA-Z\d]")


def _per_doc_sums(flat_vals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sum of flat token-level values per document (reduceat + empty-row
    fix)."""
    ndoc = len(offsets) - 1
    if len(flat_vals) == 0:
        return np.zeros(ndoc, dtype=flat_vals.dtype)
    out = np.add.reduceat(
        np.concatenate([flat_vals, flat_vals[:1] * 0]), offsets[:-1])[:ndoc]
    out[offsets[:-1] == offsets[1:]] = 0
    return out


class LangId:
    """Actor stage: stopword-profile language id.  State (Arrow value
    sets per language) built once per actor; scoring is one ``pc.is_in``
    per language + a per-doc reduceat — no per-row Python."""

    def __init__(self, text_col: str = "text", id_col: str = "doc_id"):
        self.langs = list(_LANG_STOPWORDS)
        self.value_sets = [pa.array(sorted(_LANG_STOPWORDS[lang]))
                           for lang in self.langs]
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, b: pa.Table) -> pa.Table:
        toks = tokenize_column(b[self.text_col])
        offsets = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        flat = toks.flatten()
        ndoc = len(offsets) - 1
        scores = np.zeros((ndoc, len(self.langs)), dtype=np.int64)
        for li, vs in enumerate(self.value_sets):
            hit = pc.is_in(flat, value_set=vs).to_numpy(zero_copy_only=False)
            scores[:, li] = _per_doc_sums(hit.astype(np.int64), offsets)
        best = np.argmax(scores, axis=1)  # ties -> first language in order
        preds = np.array(self.langs, dtype=object)[best]
        if ndoc:
            preds[scores.max(axis=1) == 0] = "und"
        return pa.table({self.id_col: b[self.id_col],
                         "lang_pred": pa.array(preds, type=pa.string())})


def langid(ds, text_col: str = "text", id_col: str = "doc_id"):
    # instance-callable -> elastic task pool: the stopword value sets are
    # tiny and shipped in the closure, so no actor spawn latency and no
    # fixed parallelism cap (VERDICT r2 item 3)
    return ds.map_batches(LangId(text_col=text_col, id_col=id_col),
                          batch_format="pyarrow")


def quality_scores(ds, text_col: str = "text", id_col: str = "doc_id",
                   round_to: int = 6):
    """Per-doc quality features: token count, mean token length, stopword
    ratio, alpha ratio.  Fully vectorized: token lengths/membership via
    pyarrow.compute kernels, per-doc sums via reduceat, alpha counts via
    a regex count kernel (definition matches the SQL oracle's
    ``regexp_replace(text, '[^a-zA-Z]', ...)``)."""
    stop_set = pa.array(sorted(_STOP_EN))

    def f(b: pa.Table) -> pa.Table:
        toks = tokenize_column(b[text_col])
        offsets = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        counts = (offsets[1:] - offsets[:-1]).astype(np.int64)
        flat = toks.flatten()
        flat_len = pc.utf8_length(flat).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        flat_stop = pc.is_in(flat, value_set=stop_set) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        sums_len = _per_doc_sums(flat_len, offsets)
        sums_stop = _per_doc_sums(flat_stop, offsets)
        nz = counts > 0
        mean_tok = np.where(nz, sums_len / np.maximum(counts, 1), 0.0)
        stop_ratio = np.where(nz, sums_stop / np.maximum(counts, 1), 0.0)
        text = pc.cast(b[text_col], pa.string())
        n_chars = pc.utf8_length(text).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        n_alpha = pc.count_substring_regex(text, "[a-zA-Z]") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        alpha_ratio = np.where(n_chars > 0, n_alpha / np.maximum(n_chars, 1), 0.0)
        return pa.table({
            id_col: b[id_col],
            "n_tokens": pa.array(counts),
            "mean_token_len": pa.array(duck_round(mean_tok, round_to)),
            "stopword_ratio": pa.array(duck_round(stop_ratio, round_to)),
            "alpha_ratio": pa.array(duck_round(alpha_ratio, round_to)),
        })

    return ds.map_batches(f, batch_format="pyarrow")


def bpe_token_counts(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Whitespace + BPE-ish regex token counts (subword-count proxy).
    Both counts are pyarrow regex-count kernels (no Python findall)."""

    def f(b: pa.Table) -> pa.Table:
        text = pc.cast(b[text_col], pa.string())
        ws = pc.count_substring_regex(text, r"\S+") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        bpe = pc.count_substring_regex(text, r"[a-zA-Z]+|\d{1,3}|[^\sa-zA-Z\d]") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({id_col: b[id_col],
                         "ws_tokens": pa.array(ws),
                         "bpe_tokens": pa.array(bpe)})

    return ds.map_batches(f, batch_format="pyarrow")


def pack_sequences(ds, *, max_tokens: int = 256, range_size: int = 100,
                   text_col: str = "text", id_col: str = "doc_id"):
    """Sequence packing for LLM training: assign docs to fixed-token-
    budget packs, first-fit-SEQUENTIAL in doc_id order (a doc larger
    than the budget gets its own pack).

    Partitioning: the pack group is ``doc_id // range_size`` — a
    DETERMINISTIC key independent of Ray's batching, so pack ids are
    stable across runs/parallelism.  Token counting is vectorized per
    batch; the sequential first-fit scan runs per group (the sequential
    dependency IS the op's semantics; each group is range_size-bounded,
    and per-group Python cost amortizes over range_size docs).
    Output: (doc_id, grp, pack_id, n_tokens); pack_id restarts per
    group — (grp, pack_id) is the global pack key."""

    def counts(b: pa.Table) -> pa.Table:
        toks = tokenize_column(b[text_col])
        off = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            id_col: pa.array(ids),
            "grp": pa.array(ids // range_size),
            "n_tokens": pa.array(off[1:] - off[:-1]),
        })

    import pandas as pd

    def pack(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(id_col).reset_index(drop=True)
        acc, pid, out = 0, 0, []
        for n in g["n_tokens"].to_numpy():
            if out and acc + n > max_tokens:
                pid += 1
                acc = 0
            acc += int(n)
            out.append(pid)
        g["pack_id"] = np.asarray(out, dtype=np.int64)
        return g

    return ds.map_batches(counts, batch_format="pyarrow") \
        .groupby("grp").map_groups(pack, batch_format="pandas")


def chunk_documents(ds, *, chunk_size: int = 64, min_tokens: int = 1,
                    text_col: str = "text", id_col: str = "doc_id"):
    """Fixed-size token chunking — the splitting counterpart of
    ``pack_sequences`` for training-context preparation: every document
    becomes ceil(n / chunk_size) contiguous chunks of ``chunk_size``
    tokens (last chunk partial; dropped when shorter than
    ``min_tokens``).  Fully vectorized: chunk boundaries are computed as
    one offsets array over the batch's flat token values, so the chunk
    ListArray shares the tokenized buffer (no per-chunk copies), and
    the chunk text is one ``binary_join`` over it.  Embarrassingly
    parallel — no shuffle, no state; chunk ids are per-document, so the
    output is deterministic under any batching/parallelism.

    Output: (doc_id, chunk_id, n_chunk_tokens, chunk_text) — chunk_text
    is the space-joined token sequence (normalized text, matching the
    SQL oracle's array_to_string over the same slice)."""

    def f(b: pa.Table) -> pa.Table:
        toks = tokenize_column(b[text_col])
        off = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        lens = off[1:] - off[:-1]
        nch = -(-lens // chunk_size)  # ceil; 0 for empty docs
        total = int(off[-1]) if len(off) else 0
        # one chunk-start per chunk: doc start + j*chunk_size
        doc_start = np.repeat(off[:-1], nch)
        within = _ranges_from_counts(nch)
        starts = doc_start + within * chunk_size
        # flatten() rebases a sliced list array's values — rebase the
        # absolute bounds the same way (off[0] is 0 for fresh arrays)
        bounds = np.append(starts, total) - (int(off[0]) if len(off) else 0)
        flat = toks.flatten()
        chunks = pa.ListArray.from_arrays(
            pa.array(bounds, type=pa.int32()), flat)
        doc_end = np.repeat(off[1:], nch)
        clen = np.minimum(starts + chunk_size, doc_end) - starts
        ids = b[id_col].to_numpy(zero_copy_only=False)
        out = pa.table({
            id_col: pa.array(np.repeat(ids, nch)),
            "chunk_id": pa.array(within),
            "n_chunk_tokens": pa.array(clen),
            "chunk_text": pc.binary_join(chunks, " "),
        })
        if min_tokens > 1:
            out = out.filter(pa.array(clen >= min_tokens))
        return out

    return ds.map_batches(f, batch_format="pyarrow")


def _ranges_from_counts(counts: np.ndarray) -> np.ndarray:
    """[0..c0-1, 0..c1-1, ...] for int counts — vectorized."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    idx = np.arange(total, dtype=np.int64)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    return idx - starts


def _gram_partial(toks, n: int, use_int_keys: bool | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Per-batch unique (gram string, count) over within-doc n-gram
    windows of a tokenized ListArray.

    Two pinned-equal paths (tests/test_ngrams.py runs both on the same
    batches): the INT-KEY fast path dictionary-encodes the tokens and
    uniques base-|dict| composite int64 keys, materializing gram
    strings only for the block-UNIQUE windows (measured 3-4x over the
    string path at 2M docs — np.unique over fixed-width strings was the
    hot loop, BASELINE.md r5); the STRING path builds every window's
    string and is the fallback when |dict|**n would overflow the int64
    key space.  ``use_int_keys=None`` auto-selects."""
    off = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    # a sliced ListArray keeps its parent's offsets while flatten()
    # returns only the slice's values: rebase so boundaries line up
    off = off - off[0]
    flat = toks.flatten()
    L = len(flat)
    if L < n:
        return np.zeros(0, dtype=object), np.zeros(0, dtype=np.int64)
    # window start validity: boundary b invalidates starts b-n+1 .. b-1
    # (n is small -> tiny loop, vectorized body)
    valid = np.ones(L - n + 1, dtype=bool)
    bounds = off[1:-1]
    for shift in range(1, n):
        inv = bounds - shift
        inv = inv[(inv >= 0) & (inv < L - n + 1)]
        valid[inv] = False
    enc = flat.dictionary_encode()
    nt = max(len(enc.dictionary), 1)
    if use_int_keys is None:
        use_int_keys = float(nt) ** n <= 2.0 ** 62
    if use_int_keys:
        ids = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        key = ids[:L - n + 1].copy()
        for shift in range(1, n):
            key *= nt
            key += ids[shift:L - n + 1 + shift]
        uk, c = np.unique(key[valid], return_counts=True)
        if not len(uk):
            return np.zeros(0, dtype=object), np.zeros(0, dtype=np.int64)
        dic = enc.dictionary.to_numpy(zero_copy_only=False).astype(np.str_)
        pos = []
        rem = uk
        for _ in range(n):
            pos.append(rem % nt)
            rem = rem // nt
        g = dic[pos[-1]]
        for p in pos[-2::-1]:
            g = np.char.add(np.char.add(g, " "), dic[p])
        # composite keys sort positionally, not lexicographically ->
        # re-sort by gram string so both paths return the same order
        order = np.argsort(g, kind="stable")
        return g[order].astype(object), c[order].astype(np.int64)
    s = flat.to_numpy(zero_copy_only=False).astype(np.str_)
    g = s[:L - n + 1]
    for shift in range(1, n):
        g = np.char.add(np.char.add(g, " "), s[shift:L - n + 1 + shift])
    w, c = np.unique(g[valid], return_counts=True)
    return w.astype(object), c.astype(np.int64)


def ngram_counts(ds, *, n: int = 2, min_count: int = 1,
                 max_vocab_rows: int = 50_000_000, text_col: str = "text",
                 parts_batch_rows: int = 65536):
    """Corpus word-n-gram frequency table as (sorted gram string, count)
    arrays on the driver — the raw material for n-gram LM inspection,
    contamination screens and collocation stats.  Windows never cross a
    document boundary.  Per-batch partials stream to a driver fold (the
    n-gram table must land on the driver anyway for top-k / broadcast;
    a distributed groupby on model-sized partials measured 6-10x
    slower, BASELINE.md r5), and ``max_vocab_rows`` fails loudly
    instead of accumulating an unbounded table; ``min_count`` prunes
    the tail.  Per-batch uniquing takes the int-key fast path of
    ``_gram_partial``; the fold itself is a pandas HASH groupby (no
    per-fold string sort — measured 11.2 s -> 7.4 s on the
    13M-partial-row 2M-doc bench, identical table) with one final sort,
    so grams return in code-point order.

    ``parts_batch_rows`` sizes the partial-uniquing tasks LARGE on
    purpose: per-batch dedup saturates with batch size (4096-doc
    batches shipped 13.0M partial rows at 2M docs; 131072-doc batches
    4.4M), and the driver fold runs interleaved with the stream — every
    shipped row stalls the executor loop it shares (BASELINE.md r5
    datum: the fold backpressure, not the map, dominated the first
    version's wall)."""
    import pandas as pd

    if n < 1:
        raise ValueError("n must be >= 1")

    def parts_fn(b: pa.Table) -> pa.Table:
        w, c = _gram_partial(tokenize_column(b[text_col]), n)
        if not len(w):
            return pa.table({"gram": pa.array([], type=pa.string()),
                             "c": pa.array([], type=pa.int64())})
        return pa.table({"gram": pa.array(w, type=pa.string()),
                         "c": pa.array(c)})

    merge_rows = 4_000_000
    acc = pd.DataFrame({"gram": pd.Series(dtype=object),
                        "c": pd.Series(dtype=np.int64)})
    buf: list = []
    buffered = 0

    def _fold() -> None:
        nonlocal acc, buf, buffered
        acc = pd.concat([acc] + buf, ignore_index=True) \
            .groupby("gram", sort=False, as_index=False)["c"].sum()
        buf, buffered = [], 0
        if len(acc) > max_vocab_rows:
            raise ValueError(
                f"n-gram table exceeds max_vocab_rows={max_vocab_rows} "
                "mid-stream; raise min_count or max_vocab_rows")

    for bt in ds.map_batches(parts_fn, batch_format="pyarrow",
                             batch_size=parts_batch_rows) \
            .iter_batches(batch_format="pyarrow"):
        buf.append(bt.to_pandas())
        buffered += bt.num_rows
        if buffered >= merge_rows:
            _fold()
    if buf or buffered == 0:
        _fold()
    if min_count > 1:
        acc = acc[acc["c"] >= min_count]
    if len(acc) > max_vocab_rows:
        raise ValueError(
            f"n-gram table has {len(acc)} rows > max_vocab_rows="
            f"{max_vocab_rows}; raise min_count or max_vocab_rows")
    acc = acc.sort_values("gram", kind="stable")
    return (acc["gram"].to_numpy(), acc["c"].to_numpy().astype(np.int64))


def fingerprint(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Deterministic order-sensitive 64-bit rolling fingerprint over the
    token stream: every token poly-hashed once (vectorized), then a
    position-weighted combine per document — one pass over the batch."""

    def f(b: pa.Table) -> pa.Table:
        toks = tokenize_column(b[text_col])
        th = hash_string_array(toks.flatten())
        offsets = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        fps = combine_sequences(th, offsets)
        # int64 bit-pattern view: matches the BIGINT SQL oracle and the
        # engine-wide convention for hash columns (CLAUDE.md)
        return pa.table({id_col: b[id_col],
                         "fingerprint": pa.array(fps.view(np.int64))})

    return ds.map_batches(f, batch_format="pyarrow")

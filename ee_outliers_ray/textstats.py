"""Text analysis operators: language-id, quality scoring, token counting,
document fingerprinting — vectorized map_batches stages over a text
column (the training-data-pipeline layer on top of the tokenizer).

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


def _per_doc_run_stats(doc: np.ndarray, ndoc: int, *keys: np.ndarray):
    """Per-document group stats over parallel label arrays: returns
    ``(n_distinct, top_count)`` — the number of distinct key tuples per
    doc and the multiplicity of the most frequent tuple per doc.

    Exact (integer dictionary codes, not hashes): one lexsort groups
    equal tuples adjacently within each doc, then a run-length pass +
    ``bincount`` / ``maximum.reduceat`` produce both stats — no per-row
    Python, no collision risk."""
    n = len(doc)
    n_distinct = np.zeros(ndoc, dtype=np.int64)
    top = np.zeros(ndoc, dtype=np.int64)
    if n == 0:
        return n_distinct, top
    order = np.lexsort(tuple(reversed(keys)) + (doc,))
    d = doc[order]
    diff = d[1:] != d[:-1]
    for k in keys:
        ks = k[order]
        diff |= ks[1:] != ks[:-1]
    change = np.empty(n, dtype=bool)
    change[0] = True
    change[1:] = diff
    run_starts = np.flatnonzero(change)
    run_lens = np.diff(np.append(run_starts, n))
    run_doc = d[run_starts]
    n_distinct = np.bincount(run_doc, minlength=ndoc).astype(np.int64)
    doc_change = np.empty(len(run_doc), dtype=bool)
    doc_change[0] = True
    doc_change[1:] = run_doc[1:] != run_doc[:-1]
    doc_starts = np.flatnonzero(doc_change)
    top[run_doc[doc_starts]] = np.maximum.reduceat(run_lens, doc_starts)
    return n_distinct, top


def repetition_scores(ds, text_col: str = "text", id_col: str = "doc_id",
                      round_to: int = 6):
    """Gopher-style repetition signals per document (Rae et al. 2021,
    "Scaling Language Models: ... Gopher", App. A repetition filters):

      dup_token_frac  — fraction of tokens that repeat an already-seen
                        token: ``(n_tokens - n_distinct) / n_tokens``
      top_token_frac  — occurrences of the most frequent token
                        / ``n_tokens``
      top_bigram_frac — occurrences of the most frequent bigram
                        / ``(n_tokens - 1)`` bigrams

    Exact and fully vectorized: tokens are dictionary-encoded to integer
    codes (pyarrow, collision-free), unigram and bigram multiplicities
    come from one lexsort + run-length pass each (``_per_doc_run_stats``);
    bigrams are adjacent code pairs masked to stay within a document.
    Zero-token docs score 0.0 everywhere; one-token docs have no bigrams
    (0.0).  Shuffle-free: per-batch map only."""

    def f(b: pa.Table) -> pa.Table:
        toks = tokenize_column(b[text_col])
        offsets = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        counts = (offsets[1:] - offsets[:-1]).astype(np.int64)
        ndoc = len(offsets) - 1
        enc = toks.flatten().dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        doc_idx = np.repeat(np.arange(ndoc, dtype=np.int64), counts)
        n_distinct, top_tok = _per_doc_run_stats(doc_idx, ndoc, codes)
        same_doc = doc_idx[1:] == doc_idx[:-1]
        bd = doc_idx[:-1][same_doc]
        _, top_big = _per_doc_run_stats(
            bd, ndoc, codes[:-1][same_doc], codes[1:][same_doc])
        n_big = np.maximum(counts - 1, 0)
        nz = counts > 0
        dup_frac = np.where(
            nz, (counts - n_distinct) / np.maximum(counts, 1), 0.0)
        top_frac = np.where(nz, top_tok / np.maximum(counts, 1), 0.0)
        big_frac = np.where(n_big > 0, top_big / np.maximum(n_big, 1), 0.0)
        return pa.table({
            id_col: b[id_col],
            "dup_token_frac": pa.array(duck_round(dup_frac, round_to)),
            "top_token_frac": pa.array(duck_round(top_frac, round_to)),
            "top_bigram_frac": pa.array(duck_round(big_frac, round_to)),
        })

    return ds.map_batches(f, batch_format="pyarrow")


def gopher_filter(ds, text_col: str = "text", id_col: str = "doc_id",
                  *, min_tokens: int = 20, max_dup_frac: float = 0.6,
                  max_top_frac: float = 0.12, min_stop_ratio: float = 0.01,
                  round_to: int = 6):
    """Fused Gopher-style quality FILTER (Rae et al. 2021 App. A): one
    tokenize pass emits the four gate signals and the keep decision —
    keep iff ``n_tokens >= min_tokens`` AND ``dup_token_frac <=
    max_dup_frac`` AND ``top_token_frac <= max_top_frac`` AND
    ``stopword_ratio >= min_stop_ratio``.

    Thresholds are gates on the ROUNDED signals (duck_round, 6 dp) so
    the decision is bit-reproducible against the SQL oracle — a raw
    float at the boundary can round across it.  Defaults are adapted to
    the test corpus (10-99-token docs) from Gopher's web-scale values;
    they are parameters, not constants.  Shuffle-free single pass:
    tokens dictionary-encode once, multiplicities via
    ``_per_doc_run_stats``, stopword hits via one ``pc.is_in``.
    Output: (doc_id, n_tokens, dup_token_frac, top_token_frac,
    stopword_ratio, keep[int64 0/1])."""
    stop_set = pa.array(sorted(_STOP_EN))

    def f(b: pa.Table) -> pa.Table:
        toks = tokenize_column(b[text_col])
        offsets = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        counts = (offsets[1:] - offsets[:-1]).astype(np.int64)
        ndoc = len(offsets) - 1
        flat = toks.flatten()
        enc = flat.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        doc_idx = np.repeat(np.arange(ndoc, dtype=np.int64), counts)
        n_distinct, top_tok = _per_doc_run_stats(doc_idx, ndoc, codes)
        flat_stop = pc.is_in(flat, value_set=stop_set) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        sums_stop = _per_doc_sums(flat_stop, offsets)
        nz = counts > 0
        denom = np.maximum(counts, 1)
        dup_frac = duck_round(
            np.where(nz, (counts - n_distinct) / denom, 0.0), round_to)
        top_frac = duck_round(np.where(nz, top_tok / denom, 0.0), round_to)
        stop_ratio = duck_round(np.where(nz, sums_stop / denom, 0.0),
                                round_to)
        keep = ((counts >= min_tokens) & (dup_frac <= max_dup_frac)
                & (top_frac <= max_top_frac)
                & (stop_ratio >= min_stop_ratio)).astype(np.int64)
        return pa.table({
            id_col: b[id_col],
            "n_tokens": pa.array(counts),
            "dup_token_frac": pa.array(dup_frac),
            "top_token_frac": pa.array(top_frac),
            "stopword_ratio": pa.array(stop_ratio),
            "keep": pa.array(keep),
        })

    return ds.map_batches(f, batch_format="pyarrow")


# PII patterns (RE2 syntax; the IDENTICAL strings are interpolated into
# the SQL oracle — pyarrow.compute and DuckDB both run RE2, so counts and
# replacements match byte-for-byte).  Tuple order IS the redaction order
# (EMAIL -> IPV4 -> PHONE on both sides): an earlier replacement can
# consume text a later pattern would have matched, so order is part of
# the contract.  Counts are measured on the ORIGINAL text; redaction is
# the sequential rewrite.
PII_PATTERNS = (
    ("n_emails", "<EMAIL>",
     r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"),
    ("n_ipv4", "<IP>",
     r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"),
    ("n_phones", "<PHONE>",
     r"\b\d{3}-\d{3}-\d{4}\b"),
)


def pii_scrub(ds, text_col: str = "text", id_col: str = "doc_id"):
    """PII detection + redaction over a text column (the C4/RefinedWeb
    'clean before train' stage): per-doc match counts for email / IPv4 /
    phone patterns plus the redacted text with each match replaced by
    its tag.  Everything is RE2 kernels (``pc.count_substring_regex`` /
    ``pc.replace_substring_regex``) — no Python regex, no per-row loop;
    shuffle-free map, so the 100-TB cost is the corpus scan.
    Output: (doc_id, n_emails, n_ipv4, n_phones, redacted)."""

    def f(b: pa.Table) -> pa.Table:
        text = pc.cast(b[text_col], pa.string())
        cols: dict = {id_col: b[id_col]}
        red = text
        for name, tag, pat in PII_PATTERNS:
            cols[name] = pc.cast(pc.count_substring_regex(text, pat),
                                 pa.int64())
            red = pc.replace_substring_regex(red, pat, tag)
        cols["redacted"] = red
        return pa.table(cols)

    return ds.map_batches(f, batch_format="pyarrow")


def decontaminate(ds, bench_ngrams, *, n: int = 6,
                  text_col: str = "text", id_col: str = "doc_id"):
    """Benchmark decontamination: flag documents containing any of the
    benchmark token n-grams (GPT-3 App. C / Llama-style eval-overlap
    removal).  ``bench_ngrams`` is the SMALL side — an iterable of
    space-joined lowercase token n-grams (each exactly ``n`` tokens of
    the engine tokenizer's ``[a-z0-9]+`` alphabet) — hashed ONCE on the
    driver and shipped in the task closure (broadcast, never a shuffle
    join); the corpus streams through one map.

    Matching is exact token-sequence equality via the shared k-gram
    rolling hash (``hashing.shingle_hashes``: windows never cross a
    document boundary; a doc with < n tokens cannot match — its single
    short-doc shingle uses the length-xor'd ``combine_sequences``
    formula, disjoint from the k-gram formula).  Membership is one
    ``searchsorted`` against the sorted benchmark hashes per batch.

    Output: (doc_id, n_bench_hits = #DISTINCT benchmark n-grams present,
    contaminated 0/1)."""
    from .hashing import shingle_hashes

    bench = sorted({str(g) for g in bench_ngrams})
    btoks = [g.split(" ") for g in bench]
    bad = [g for g, t in zip(bench, btoks) if len(t) != n]
    if bad:
        raise ValueError(f"bench n-grams must have exactly {n} tokens: "
                         f"{bad[:3]}")
    if bench:
        flat = pa.array([t for ts in btoks for t in ts], type=pa.string())
        boff = np.zeros(len(bench) + 1, dtype=np.int64)
        np.cumsum([len(t) for t in btoks], out=boff[1:])
        bh, _ = shingle_hashes(hash_string_array(flat), boff, n)
        bench_sorted = np.unique(bh)  # unique: searchsorted -> one slot
    else:
        bench_sorted = np.zeros(0, dtype=np.uint64)
    nb = len(bench_sorted)

    def f(b: pa.Table) -> pa.Table:
        toks = tokenize_column(b[text_col])
        off = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        ndoc = len(off) - 1
        nhits = np.zeros(ndoc, dtype=np.int64)
        if nb and ndoc:
            th = hash_string_array(toks.flatten())
            sh, soff = shingle_hashes(th, off, n)
            lens = soff[1:] - soff[:-1]
            doc_idx = np.repeat(np.arange(ndoc, dtype=np.int64), lens)
            # mask short docs' whole-doc shingles (different formula —
            # can't match anyway; the mask makes that explicit)
            full = np.repeat((off[1:] - off[:-1]) >= n, lens)
            if len(sh):
                idx = np.minimum(np.searchsorted(bench_sorted, sh), nb - 1)
                hit = (bench_sorted[idx] == sh) & full
                if hit.any():
                    pairs = np.unique(
                        doc_idx[hit] * np.int64(nb) + idx[hit])
                    nhits = np.bincount(pairs // nb, minlength=ndoc) \
                        .astype(np.int64)
        return pa.table({
            id_col: b[id_col],
            "n_bench_hits": pa.array(nhits),
            "contaminated": pa.array((nhits > 0).astype(np.int64)),
        })

    return ds.map_batches(f, batch_format="pyarrow")


def resample_by_weight(ds, weight_col: str, *, id_col: str = "doc_id"):
    """Deterministic importance/temperature resampling (DoReMi /
    data-mixing style): each row is emitted ``floor(w)`` times plus one
    more with probability ``frac(w)`` — decided by ``mix64(doc_id)``,
    not an RNG, so the sample is reproducible across runs, parallelism
    and retries (same contract as hash_split/hash_sample).  Weights < 1
    downsample, weights > 1 upsample; w <= 0 drops the row.

    Shuffle-free flat-map: per batch, copies via one np.repeat; the
    fractional accept compares mix64 as float64 against
    ``frac(w) * 2^64`` (both engines round the uint64 to double the
    same way — the SQL oracle uses ``mx::DOUBLE``).

    Output: (doc_id, copy) with copy in [0, n)."""
    from .hashing import mix64

    def f(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        w = b[weight_col].to_numpy(zero_copy_only=False).astype(np.float64)
        mx = mix64(ids.astype(np.uint64)).astype(np.float64)
        fl = np.floor(np.maximum(w, 0.0))
        frac = np.maximum(w, 0.0) - fl
        n = (fl + (mx < frac * 2.0 ** 64)).astype(np.int64)
        total = int(n.sum())
        off = np.zeros(len(n) + 1, dtype=np.int64)
        np.cumsum(n, out=off[1:])
        copy = np.arange(total, dtype=np.int64) - np.repeat(off[:-1], n)
        return pa.table({id_col: pa.array(np.repeat(ids, n)),
                         "copy": pa.array(copy)})

    return ds.map_batches(f, batch_format="pyarrow")


def lm_perplexity(ds, *, alpha: float = 0.1, prune_min_count: int = 1,
                  max_model_rows: int = 20_000_000,
                  text_col: str = "text", id_col: str = "doc_id"):
    """CCNet-style n-gram LM quality scoring: per-doc mean negative
    log-probability under an add-alpha bigram model
    (``P(w|v) = (c(v,w)+a) / (c(v)+a*V)``, V = distinct-unigram count).

    Two passes.  (1) COUNTS: one tokenize pass emits per-batch partial
    unigram/bigram hash counts (pre-aggregated with np.unique inside the
    task, so only model-sized — not corpus-sized — rows leave it); the
    partials then STREAM to the driver through ``iter_batches`` and fold
    into the model with amortized sorted merges.  The driver is the
    right reducer here — the model must land on the driver anyway to be
    broadcast, and a distributed ``groupby(kind, key).sum`` of the same
    partials measured 6-10x slower than the streamed fold at 2M docs
    (112 s shuffle vs ~12 s map + seconds of driver merge, BASELINE.md)
    while producing the identical table.  Driver memory stays bounded:
    the buffer folds every ``merge_rows`` partial rows, so residency is
    O(model + merge_rows) regardless of corpus size.  (2) SCORE: the
    count arrays are sorted, ``ray.put`` once, and every task looks
    bigram/unigram hashes up with one searchsorted each.

    Scale stance: in production (CCNet) the LM is a FIXED external
    artifact — small by design, hence the broadcast shape.  The
    corpus-trained variant here exists so the gate is self-contained and
    SQL-oracle-able; its bigram table grows with the corpus, so
    ``prune_min_count`` bounds the broadcast (pruned bigrams score as
    count 0 — the smoothing already handles unseen pairs) and
    ``max_model_rows`` fails loudly instead of silently shipping a
    corpus-sized closure.  Bigram hashes are the shared k-gram rolling
    hash (k=2; 1-token docs' short-doc shingles masked out, same as
    decontaminate); count keys cross the groupby as int64 views
    (CLAUDE.md invariant).

    Output: (doc_id, n_tokens, bigram_nll) — nll in nats over the doc's
    n-1 bigrams, 0.0 for docs with < 2 tokens, duck-rounded to 6 dp."""
    import ray

    from .broadcast import cached_get
    from .hashing import shingle_hashes

    def part_counts(b: pa.Table) -> pa.Table:
        toks = tokenize_column(b[text_col])
        off = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        th = hash_string_array(toks.flatten())
        lens = off[1:] - off[:-1]
        uk, uc = np.unique(th, return_counts=True)
        bh, boff = shingle_hashes(th, off, 2)
        full = np.repeat(lens >= 2, boff[1:] - boff[:-1])
        bk, bc = np.unique(bh[full], return_counts=True)
        return pa.table({
            "kind": pa.array(np.concatenate([
                np.zeros(len(uk), np.int64), np.ones(len(bk), np.int64)])),
            "key": pa.array(np.concatenate([uk, bk]).view(np.int64)),
            "c": pa.array(np.concatenate([uc, bc]).astype(np.int64)),
        })

    def _fold(key_parts: list, cnt_parts: list) -> tuple:
        """Sum duplicate keys across sorted-or-not parts; returns
        (sorted unique keys, exact int64 counts)."""
        k = np.concatenate(key_parts)
        c = np.concatenate(cnt_parts)
        uk, inv = np.unique(k, return_inverse=True)
        uc = np.zeros(len(uk), dtype=np.int64)
        np.add.at(uc, inv, c)
        return uk, uc

    merge_rows = 8_000_000
    acc = {0: (np.zeros(0, np.uint64), np.zeros(0, np.int64)),
           1: (np.zeros(0, np.uint64), np.zeros(0, np.int64))}
    buf: dict = {0: ([], []), 1: ([], [])}
    buffered = 0

    def flush() -> None:
        nonlocal buffered
        for kd in (0, 1):
            ks, cs = buf[kd]
            if ks:
                acc[kd] = _fold([acc[kd][0]] + ks, [acc[kd][1]] + cs)
                buf[kd] = ([], [])
        buffered = 0
        if len(acc[0][0]) + len(acc[1][0]) > max_model_rows:
            raise ValueError(
                f"LM model exceeds max_model_rows={max_model_rows} "
                "mid-stream; raise prune_min_count (pruned bigrams "
                "score as unseen) or max_model_rows")

    parts = ds.map_batches(part_counts, batch_format="pyarrow")
    for bt in parts.iter_batches(batch_format="pyarrow"):
        kd_col = bt["kind"].to_numpy(zero_copy_only=False)
        key = np.ascontiguousarray(
            bt["key"].to_numpy(zero_copy_only=False)).view(np.uint64)
        c = bt["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        for kd in (0, 1):
            m = kd_col == kd
            buf[kd][0].append(key[m])
            buf[kd][1].append(c[m])
        buffered += len(kd_col)
        if buffered >= merge_rows:
            flush()
    flush()

    ukeys, ucnt = acc[0]
    bkeys, bcnt = acc[1]
    if prune_min_count > 1:
        keep = bcnt >= prune_min_count
        bkeys, bcnt = bkeys[keep], bcnt[keep]
    n_model = len(ukeys) + len(bkeys)
    if n_model > max_model_rows:
        raise ValueError(
            f"LM model has {n_model} rows > max_model_rows="
            f"{max_model_rows}; raise prune_min_count (pruned bigrams "
            "score as unseen) or max_model_rows")
    n_vocab = len(ukeys)
    ref = ray.put((ukeys, ucnt, bkeys, bcnt))

    def score(b: pa.Table) -> pa.Table:
        ukeys, ucnt, bkeys, bcnt = cached_get(ref)
        toks = tokenize_column(b[text_col])
        off = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        th = hash_string_array(toks.flatten())
        lens = off[1:] - off[:-1]
        ndoc = len(lens)
        bh, boff = shingle_hashes(th, off, 2)
        full = np.repeat(lens >= 2, boff[1:] - boff[:-1])
        bh = bh[full]
        # context hash per bigram = token hash at every non-last position
        vmask = np.ones(len(th), dtype=bool)
        vmask[(off[1:] - 1)[lens > 0]] = False
        vh = th[vmask]
        nb = np.maximum(lens - 1, 0)
        if len(bh):
            cv = ucnt[np.searchsorted(ukeys, vh)]
            if len(bkeys):
                bi = np.minimum(np.searchsorted(bkeys, bh), len(bkeys) - 1)
                cb = np.where(bkeys[bi] == bh, bcnt[bi], 0)
            else:  # every bigram pruned: all score as unseen
                cb = np.zeros(len(bh), dtype=np.int64)
            lp = np.log((cb + alpha) / (cv + alpha * n_vocab))
            soff = np.zeros(ndoc + 1, dtype=np.int64)
            np.cumsum(nb, out=soff[1:])
            sums = _per_doc_sums(lp, soff)
        else:
            sums = np.zeros(ndoc, dtype=np.float64)
        nll = np.where(nb > 0, -sums / np.maximum(nb, 1), 0.0)
        return pa.table({
            id_col: b[id_col],
            "n_tokens": pa.array(lens),
            "bigram_nll": pa.array(duck_round(nll, 6)),
        })

    return ds.map_batches(score, batch_format="pyarrow")


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


def mix_stats(ds, group_cols=("source", "lang"), *, text_col: str = "text"):
    """Data-mixing stats per group (e.g. per (source, lang)): doc count,
    token count, mean doc length, and share of the total token budget —
    the table a training-mix designer reads before setting per-source
    weights.  Each task pre-aggregates its batch to at most |groups|
    partial rows (code-based composite via per-column np.unique — never
    string concat: numpy strips trailing-'\\x00' separators as
    fixed-width padding), and the tiny partials stream to a driver fold
    — the same shape as lm_perplexity's count pass; a distributed
    groupby would shuffle the same rows for no benefit at this
    cardinality.  Returns pandas, sorted by the group columns."""
    import pandas as pd

    group_cols = tuple(group_cols)

    def parts(b: pa.Table) -> pa.Table:
        from .tokenizer import token_counts_column
        n = token_counts_column(b[text_col])
        uniqs, invs = [], []
        for c in group_cols:
            u, i = np.unique(
                b[c].to_numpy(zero_copy_only=False).astype(np.str_),
                return_inverse=True)
            uniqs.append(u)
            invs.append(i)
        code = invs[0]
        for u, i in zip(uniqs[1:], invs[1:]):
            code = code * len(u) + i
        uc, inv = np.unique(code, return_inverse=True)
        nd = np.bincount(inv, minlength=len(uc)).astype(np.int64)
        nt = np.zeros(len(uc), dtype=np.int64)
        np.add.at(nt, inv, n)
        cols = {}
        rem = uc
        for c, u in zip(reversed(group_cols), reversed(uniqs)):
            cols[c] = u[rem % len(u)]
            rem = rem // len(u)
        return pa.table({
            **{c: pa.array(cols[c].tolist(), type=pa.string())
               for c in group_cols},
            "n_docs": pa.array(nd), "n_tokens": pa.array(nt)})

    acc: dict[tuple, list[int]] = {}
    for bt in ds.map_batches(parts, batch_format="pyarrow") \
            .iter_batches(batch_format="pyarrow"):
        keys = list(zip(*(bt[c].to_pylist() for c in group_cols)))
        for k, nd, nt in zip(keys, bt["n_docs"].to_pylist(),
                             bt["n_tokens"].to_pylist()):
            e = acc.setdefault(k, [0, 0])
            e[0] += nd
            e[1] += nt
    total = float(sum(v[1] for v in acc.values()))
    rows = []
    for k in sorted(acc):
        nd, nt = acc[k]
        rows.append((*k, nd, nt,
                     float(duck_round(np.float64(nt / nd), 6)),
                     float(duck_round(np.float64(nt / total), 6))))
    return pd.DataFrame(rows, columns=[
        *group_cols, "n_docs", "n_tokens", "mean_tokens",
        "token_share"]).astype({"n_docs": np.int64, "n_tokens": np.int64})


def stratified_sample(ds, *, cap: int, group_col: str = "source",
                      id_col: str = "doc_id", keep_cols=None):
    """Deterministic stratified downsample: every group contributes at
    most ~``cap`` rows in expectation — the mixing op that flattens
    over-represented sources.  Pass 1 folds tiny per-batch partial
    group counts on the driver (group cardinality is bounded); pass 2
    keeps rows whose mix64(id), viewed as float64, falls below
    (cap / n_group) * 2^64 — RNG-free, parallelism-independent, and
    bit-reproducible because at-or-under-cap groups keep all rows
    through an explicit branch (no threshold ever reaches 2^64).  The
    rate table is tiny and ships by closure capture (a broadcast
    lookup, never a shuffle join)."""
    from .hashing import mix64

    keep_cols = [id_col, group_col] if keep_cols is None else list(keep_cols)

    def cnts(b: pa.Table) -> pa.Table:
        g = b[group_col].to_numpy(zero_copy_only=False).astype(np.str_)
        uk, c = np.unique(g, return_counts=True)
        return pa.table({"g": pa.array(uk.tolist(), type=pa.string()),
                         "n": pa.array(c.astype(np.int64))})

    acc: dict[str, int] = {}
    for bt in ds.map_batches(cnts, batch_format="pyarrow") \
            .iter_batches(batch_format="pyarrow"):
        for s, n in zip(bt["g"].to_pylist(), bt["n"].to_pylist()):
            acc[s] = acc.get(s, 0) + n
    if not acc:
        # zero input rows: Ray would skip the map fn entirely and lose
        # the schema — return an explicitly-schema'd empty dataset
        import ray

        sch = ds.schema()
        types = dict(zip(sch.names, sch.types))
        return ray.data.from_arrow(pa.table({
            c: pa.array([], type=types[c]) for c in keep_cols}))
    us = np.asarray(sorted(acc), dtype=np.str_)
    un = np.asarray([acc[s] for s in sorted(acc)], dtype=np.int64)
    thr = (float(cap) / un.astype(np.float64)) * 18446744073709551616.0

    def f(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        h = mix64(ids.view(np.uint64)).astype(np.float64)
        g = b[group_col].to_numpy(zero_copy_only=False).astype(np.str_)
        gi = np.searchsorted(us, g)
        keep = (un[gi] <= cap) | (h < thr[gi])
        return pa.table({c: b[c] for c in keep_cols}).filter(pa.array(keep))

    return ds.map_batches(f, batch_format="pyarrow")


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


def word_counts(ds, *, min_count: int = 1, max_vocab_rows: int = 50_000_000,
                text_col: str = "text"):
    """Corpus word-frequency table as (sorted word, count) numpy arrays on
    the driver: one tokenize pass emits per-batch partial (word, count)
    rows (np.unique inside the task, so only vocab-sized rows leave it),
    which stream to the driver through ``iter_batches`` and fold with
    amortized sorted merges — the same streamed-driver-fold shape as
    ``lm_perplexity``'s count pass (measured 6-10x faster than a
    distributed groupby on model-sized partials, BASELINE.md r5).  The
    vocabulary must land on the driver anyway for tokenizer training /
    broadcast; ``min_count`` prunes the long tail and ``max_vocab_rows``
    fails loudly instead of silently accumulating an unbounded table."""

    def parts_fn(b: pa.Table) -> pa.Table:
        toks = tokenize_column(b[text_col])
        flat = toks.flatten().to_numpy(zero_copy_only=False)
        w, c = np.unique(flat, return_counts=True)
        return pa.table({"word": pa.array(w, type=pa.string()),
                         "c": pa.array(c.astype(np.int64))})

    def _fold(word_parts: list, cnt_parts: list) -> tuple:
        w = np.concatenate(word_parts)
        c = np.concatenate(cnt_parts)
        uw, inv = np.unique(w, return_inverse=True)
        uc = np.zeros(len(uw), dtype=np.int64)
        np.add.at(uc, inv, c)
        return uw, uc

    merge_rows = 4_000_000
    acc_w = np.zeros(0, dtype=object)
    acc_c = np.zeros(0, dtype=np.int64)
    buf_w: list = []
    buf_c: list = []
    buffered = 0
    for bt in ds.map_batches(parts_fn, batch_format="pyarrow") \
            .iter_batches(batch_format="pyarrow"):
        buf_w.append(bt["word"].to_numpy(zero_copy_only=False))
        buf_c.append(bt["c"].to_numpy(zero_copy_only=False).astype(np.int64))
        buffered += bt.num_rows
        if buffered >= merge_rows:
            acc_w, acc_c = _fold([acc_w] + buf_w, [acc_c] + buf_c)
            buf_w, buf_c, buffered = [], [], 0
            if len(acc_w) > max_vocab_rows:
                raise ValueError(
                    f"vocabulary exceeds max_vocab_rows={max_vocab_rows} "
                    "mid-stream; raise min_count or max_vocab_rows")
    if buf_w:
        acc_w, acc_c = _fold([acc_w] + buf_w, [acc_c] + buf_c)
    if min_count > 1:
        keep = acc_c >= min_count
        acc_w, acc_c = acc_w[keep], acc_c[keep]
    if len(acc_w) > max_vocab_rows:
        raise ValueError(
            f"vocabulary has {len(acc_w)} rows > max_vocab_rows="
            f"{max_vocab_rows}; raise min_count or max_vocab_rows")
    return acc_w, acc_c


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
    document boundary.  Same streamed-driver-fold shape and loud
    ``max_vocab_rows`` guard as ``word_counts`` (the n-gram table must
    land on the driver anyway for top-k / broadcast; a distributed
    groupby on model-sized partials measured 6-10x slower, BASELINE.md
    r5); ``min_count`` prunes the tail.  Per-batch uniquing takes the
    int-key fast path of ``_gram_partial``; the fold itself is a pandas
    HASH groupby (no per-fold string sort — measured 11.2 s -> 7.4 s on
    the 13M-partial-row 2M-doc bench, identical table) with one final
    code-point sort so the return order matches ``word_counts``.

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


def bpe_train(ds, *, num_merges: int = 30, min_count: int = 1,
              text_col: str = "text"):
    """BPE tokenizer training (Sennrich et al. 2016): learn the top
    ``num_merges`` byte-pair merges over the corpus.

    The scalable shape is the one every production trainer
    (SentencePiece, HF tokenizers) uses: the CORPUS pass only aggregates
    word frequencies (``word_counts`` — distributed partial counts
    streaming to a driver fold), and the merge loop then runs over the
    vocabulary-sized (word, count) table in driver memory — corpus size
    never enters the loop.  Each iteration counts weighted adjacent
    symbol pairs across the vocabulary (vectorized numpy over a flat
    symbol array) and merges the most frequent pair; ties break on the
    lexicographically smallest (left, right), so the merge table is
    fully deterministic and independent of Ray parallelism / batch
    boundaries (pinned by tests/test_bpe_train.py against an
    independently-coded dict-based reference).

    Output (pandas): rank | left | right | pair_count, one row per
    learned merge, ordered by rank.  Stops early when no pair occurs
    at least twice."""
    import pandas as pd

    words, counts = word_counts(ds, min_count=min_count, text_col=text_col)
    # flat symbol representation: one object array of current symbols,
    # one repeat-expanded weight array, and word-boundary ids so pairs
    # never span words
    sym: list = []
    wid: list = []
    wt: list = []
    for i, (w, c) in enumerate(zip(words, counts)):
        for ch in w:
            sym.append(ch)
            wid.append(i)
            wt.append(c)
    sym_a = np.asarray(sym, dtype=object)
    wid_a = np.asarray(wid, dtype=np.int64)
    wt_a = np.asarray(wt, dtype=np.int64)

    merges = []
    for rank in range(num_merges):
        if len(sym_a) < 2:
            break
        adj = wid_a[1:] == wid_a[:-1]
        if not adj.any():
            break
        left = sym_a[:-1][adj]
        right = sym_a[1:][adj]
        w = wt_a[:-1][adj]
        # space separator: symbols are [a-z0-9] concatenations, so a
        # space never occurs inside one (and numpy would silently strip
        # a trailing '\x00' separator as fixed-width padding)
        pair = np.char.add(np.char.add(left.astype(np.str_), " "),
                           right.astype(np.str_))
        up, inv = np.unique(pair, return_inverse=True)
        pc_ = np.zeros(len(up), dtype=np.int64)
        np.add.at(pc_, inv, w)
        # highest count, ties -> lexicographically smallest pair string
        # (np.unique sorted up ascending, so the first argmax wins ties)
        best = int(np.argmax(pc_))
        if pc_[best] < 2:
            break
        l_s, r_s = up[best].split(" ")
        merges.append((rank, l_s, r_s, int(pc_[best])))
        # merge every adjacent (l_s, r_s) occurrence left-to-right:
        # within a run of overlapping candidates (e.g. 'aaa' for pair
        # a+a) only non-overlapping leftmost matches merge, matching
        # the reference dict-based algorithm
        cand = adj & (sym_a[:-1] == l_s) & (sym_a[1:] == r_s)
        idx = np.flatnonzero(cand)
        if l_s == r_s:
            # symbols are atomic, so overlapping candidates exist only
            # for identical halves (runs like 'aaa' for pair a+a):
            # resolve to leftmost non-overlapping, matching the
            # reference left-to-right scan
            taken = []
            last = -2
            for i in idx:
                if i == last + 1:
                    continue
                taken.append(i)
                last = i
            idx = np.asarray(taken, dtype=np.int64)
        sym_a = sym_a.copy()
        sym_a[idx] = l_s + r_s
        drop = np.zeros(len(sym_a), dtype=bool)
        drop[idx + 1] = True
        keep = ~drop
        sym_a, wid_a, wt_a = sym_a[keep], wid_a[keep], wt_a[keep]

    return pd.DataFrame(merges,
                        columns=["rank", "left", "right", "pair_count"]) \
        .astype({"rank": np.int64, "pair_count": np.int64})


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

"""Deterministic synthetic Common-Crawl-style ``pages`` corpus.

Schema (BASELINE.json input_hint / FIXTURES.md §1):

    url:     string        unique key
    warc_ts: timestamp[us] fixed epoch + 1 s per row (no wall clock)
    html:    binary        deterministic wrapper around ``text``
    lang:    string        skewed categorical {en,nl,fr,de}
    doc_id:  int64         dense, = file_idx * rows_per_file + row_idx —
                           stable across parallelism levels (SURVEY §4.2
                           "Ordering": doc_id derives from (file, row), not
                           from block arrival order)

``text`` is NOT written — it must be recovered byte-identically from
``html`` by the extract stage (the per-row invariant the driver checks).
Reference test-generator analogue:
/root/reference/app/tests/unit_tests/utils/dummy_documents_generate.py:34-180
(1 s timestamp stepping, hex/base64/url payload pools).

Generation is one Ray task per output file, each seeded with
``seed + file_idx`` — rerunning with any parallelism yields identical
files.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

EPOCH_US = 1_704_067_200_000_000  # 2024-01-01T00:00:00Z, fixed (no wall clock)

# Edge-case payload pool, mirroring the reference's test generator pools
# (dummy_documents_generate.py:19-23): hex, base64, url strings.
PAYLOADS = [
    "5468697320697320612074657374",
    "VGhpcyBpcyBhIHRleHQ=",
    "http://www.dance.com/",
]

LANGS = np.array(["en", "nl", "fr", "de"])
LANG_P = np.array([0.7, 0.1, 0.1, 0.1])


def _vocab(size: int = 2000) -> np.ndarray:
    base = [
        "the", "of", "and", "to", "data", "web", "page", "search", "index",
        "query", "ray", "arrow", "crawl", "text", "engine", "term", "score",
        "fast", "slow", "merge", "batch", "shard", "block", "spark", "table",
    ]
    words = base + [f"w{i:04d}" for i in range(size - len(base))]
    return np.array(words)


def _gen_file_table(file_idx: int, rows: int, seed: int,
                    vocab_size: int = 2000) -> pa.Table:
    rng = np.random.default_rng(seed + file_idx)
    vocab = _vocab(vocab_size)
    # Zipf-distributed token draws — heavy-hitter terms present by design
    # (exercises the skew/salting path of the index build).
    doc_lens = rng.integers(10, 120, size=rows)
    total = int(doc_lens.sum())
    ranks = rng.zipf(1.35, size=total)
    idx = np.minimum(ranks - 1, vocab_size - 1)
    tokens = vocab[idx]
    offsets = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(doc_lens, out=offsets[1:])

    texts = []
    payload_rows = set(int(x) for x in rng.choice(rows, size=max(1, rows // 50), replace=False))
    for i in range(rows):
        t = " ".join(tokens[offsets[i]: offsets[i + 1]])
        if i in payload_rows:
            t = t + " " + PAYLOADS[i % len(PAYLOADS)]
        texts.append(t)

    base = file_idx * rows
    doc_id = np.arange(base, base + rows, dtype=np.int64)
    urls = [f"https://site{d % 97}.example/p/{d}" for d in doc_id]
    # 1 s per row, spread over > 8 days for window-filter tests
    ts = EPOCH_US + doc_id * 1_000_000
    html = [
        f"<html><head><title>{u}</title></head><body><p>{t}</p></body></html>".encode()
        for u, t in zip(urls, texts)
    ]
    lang = LANGS[rng.choice(len(LANGS), size=rows, p=LANG_P)]
    return pa.table({
        "doc_id": doc_id,
        "url": pa.array(urls, type=pa.string()),
        "warc_ts": pa.array(ts, type=pa.timestamp("us")),
        "html": pa.array(html, type=pa.binary()),
        "lang": pa.array(lang, type=pa.string()),
    })


@ray.remote
def _write_file(out_dir: str, file_idx: int, rows: int, seed: int) -> str:
    path = os.path.join(out_dir, f"pages-{file_idx:05d}.parquet")
    if os.path.exists(path):  # resumable: skip completed partitions
        return path
    table = _gen_file_table(file_idx, rows, seed)
    tmp = path + ".tmp"
    pq.write_table(table, tmp, row_group_size=65536)
    os.rename(tmp, path)  # atomic per-partition commit
    return path


def generate_pages(out_dir: str, total_rows: int, num_files: int = 8,
                   seed: int = 42) -> list[str]:
    """Generate the synthetic corpus as ``num_files`` parquet files."""
    os.makedirs(out_dir, exist_ok=True)
    rows_per_file = total_rows // num_files
    refs = [
        _write_file.remote(out_dir, i, rows_per_file, seed)
        for i in range(num_files)
    ]
    return sorted(ray.get(refs))


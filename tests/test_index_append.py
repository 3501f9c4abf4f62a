"""Incremental append: index(batch1) + append(batch2) must equal a
fresh index over batch1+batch2 — without re-tokenizing batch1."""

import glob
import os

import pytest

from ee_outliers_ray.corpus import _gen_file_table, generate_pages
from ee_outliers_ray.index.build import append_to_index, build_index
from ee_outliers_ray.query.engine import taat_topk
from ee_outliers_ray.query.reader import IndexReader


def test_append_equals_full_rebuild(tmp_path):
    import pyarrow.parquet as pq

    all_dir = str(tmp_path / "all")
    first_dir = str(tmp_path / "first")
    os.makedirs(first_dir)
    generate_pages(all_dir, total_rows=600, num_files=3, seed=42)
    files = sorted(glob.glob(os.path.join(all_dir, "*.parquet")))
    # first corpus = files 0-1; append batch = file 2
    for f in files[:2]:
        os.link(f, os.path.join(first_dir, os.path.basename(f)))

    inc = str(tmp_path / "inc")
    build_index(first_dir, inc, num_buckets=4, batch_size=100)
    n_runs_before = len(glob.glob(os.path.join(inc, "runs", "*.parquet")))
    append_to_index([files[2]], inc, batch_size=100)
    n_runs_after = len(glob.glob(os.path.join(inc, "runs", "*.parquet")))
    assert n_runs_after > n_runs_before  # new runs appended, old kept

    full = str(tmp_path / "full")
    build_index(all_dir, full, num_buckets=4, batch_size=100)

    r_inc, r_full = IndexReader(inc), IndexReader(full)
    assert r_inc.n_docs == r_full.n_docs == 600
    assert r_inc.avgdl == pytest.approx(r_full.avgdl)
    for q in ["the data", "w0042", "search engine crawl", "fast merge"]:
        assert taat_topk(r_inc, q, 10) == taat_topk(r_full, q, 10), q


def test_append_to_positional_index(tmp_path):
    """Appending to a store_positions=True index must write positional
    runs (flag persisted in stats.json) and keep phrase support for BOTH
    old and new docs."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    d = tmp_path / "src"
    d.mkdir()
    first = str(d / "a.parquet")
    second = str(d / "b.parquet")
    pq.write_table(pa.Table.from_pandas(pd.DataFrame({
        "doc_id": range(0, 6),
        "text": ["alpha beta gamma", "beta alpha", "gamma alpha beta",
                 "alpha beta", "solo here", "beta gamma"]})), first)
    pq.write_table(pa.Table.from_pandas(pd.DataFrame({
        "doc_id": range(6, 10),
        "text": ["alpha beta extra", "extra alpha", "beta gamma alpha beta",
                 "gamma beta"]})), second)

    idx = str(tmp_path / "idx")
    build_index(first, idx, from_html=False, num_buckets=2, batch_size=4,
                store_positions=True)
    append_to_index([second], idx, from_html=False, batch_size=4)

    full = str(tmp_path / "full")
    build_index([first, second], full, from_html=False, num_buckets=2,
                batch_size=4, store_positions=True)

    r_inc, r_full = IndexReader(idx), IndexReader(full)
    assert r_inc.has_positions and r_full.has_positions
    for term in ("alpha", "beta", "extra"):
        got = r_inc.positions(term)
        want = r_full.positions(term)
        assert got[0].tolist() == want[0].tolist()
        assert got[2].tolist() == want[2].tolist()
    for q in ("alpha beta", "gamma"):
        assert taat_topk(r_inc, q, 10) == taat_topk(r_full, q, 10)


def test_append_rejects_overlapping_ids(tmp_path):
    d = str(tmp_path / "pages")
    generate_pages(d, total_rows=200, num_files=1, seed=42)
    idx = str(tmp_path / "idx")
    build_index(d, idx, num_buckets=2, batch_size=100)
    with pytest.raises(ValueError, match="append requires"):
        append_to_index(sorted(glob.glob(os.path.join(d, "*.parquet"))), idx)


def test_append_rejects_ids_below_max_of_any_doclens_file(tmp_path):
    """Doc 599 swapped into the first batch: the doclens files are then
    named ...000, ...020, ...100 ... ...400, and the largest id sits in
    the file named ...000.  Ids 550-699 collide with existing docs and
    must be refused."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    gen = str(tmp_path / "gen")
    generate_pages(gen, total_rows=600, num_files=1, seed=42)
    t = pq.read_table(gen).sort_by("doc_id")
    order = np.arange(600)
    order[[20, 599]] = order[[599, 20]]
    os.makedirs(tmp_path / "pages")
    pq.write_table(t.take(order), str(tmp_path / "pages" / "p.parquet"))
    idx = str(tmp_path / "idx")
    build_index(str(tmp_path / "pages"), idx, num_buckets=2, batch_size=100)
    names = sorted(os.listdir(os.path.join(idx, "doclens")))
    assert names[:2] == ["doclens-00000000000000.parquet",
                         "doclens-00000000000020.parquet"]

    new = t.slice(0, 150).set_column(
        0, "doc_id", pa.array(range(550, 700), type=pa.int64()))
    new_file = str(tmp_path / "new.parquet")
    pq.write_table(new, new_file)
    with pytest.raises(ValueError, match="append requires new doc_ids > 599"):
        append_to_index([new_file], idx, batch_size=100)
    assert IndexReader(idx).n_docs == 600


def test_heavy_hitter_term_skew_split_across_merge_parts(tmp_path):
    """Worst-case term skew (a stopword in EVERY doc — the north-star's
    heavy-hitter case): the engine never shuffles raw postings, so the
    hot term costs nothing in exchange volume; its merged run must SPLIT
    across the hierarchical merge's doc-range parts (bounded task
    input), the parts must be doc-disjoint, and query results must be
    bit-identical to the single-part merge."""
    import glob
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ee_outliers_ray.index.build import build_index
    from ee_outliers_ray.index.codec import decode_run
    from ee_outliers_ray.query.engine import taat_topk
    from ee_outliers_ray.query.reader import IndexReader

    n = 4000
    rng = np.random.default_rng(17)
    texts = ["hot " + " ".join(f"w{rng.integers(0, 500):03d}"
                               for _ in range(int(rng.integers(3, 12))))
             for _ in range(n)]
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({"doc_id": pa.array(range(n), type=pa.int64()),
                             "text": texts}), src)

    flat = str(tmp_path / "flat")
    split = str(tmp_path / "split")
    build_index(src, flat, from_html=False, num_buckets=4,
                doc_range_size=512, batch_size=500, merge_parts=1)
    build_index(src, split, from_html=False, num_buckets=4,
                doc_range_size=512, batch_size=500, merge_parts=4)

    # the hot term's postings live in >1 part file, each doc-disjoint
    hot_parts = []
    for p in glob.glob(os.path.join(split, "segments", "**", "*.parquet"),
                       recursive=True):
        t = pq.read_table(p, filters=[("term", "=", "hot")])
        if t.num_rows:
            hot_parts.append((p, t))
    assert len({p for p, _ in hot_parts}) > 1, \
        "hot term should span multiple merge part files"
    seen = []
    for _, t in hot_parts:
        from ee_outliers_ray.index.build import flat_runs
        seen.append(decode_run(flat_runs(t)[0])[0])
    all_docs = np.sort(np.concatenate(seen))
    assert len(all_docs) == n                      # every doc, exactly once
    assert len(np.unique(all_docs)) == n           # disjoint parts

    rf, rs = IndexReader(flat), IndexReader(split)
    assert rs.df("hot") == n
    for q in ("hot", "hot w001", "w001 w002 w003"):
        assert taat_topk(rs, q, 10) == taat_topk(rf, q, 10), q

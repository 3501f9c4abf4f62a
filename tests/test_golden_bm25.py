"""Golden BM25 fixture: frozen top-k (docIDs + rounded scores) on the
deterministic sf0.001 documents index — guards rank/score stability
across rounds and refactors (SURVEY §7.2 milestone 5).  Regenerate ONLY
on a deliberate scoring-semantics change:
    python tests/test_golden_bm25.py --regen
"""

import json
import os
import sys

import pytest

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_bm25.json")

QUERIES = ["spark merge batch", "table scan", "key value", "the",
           "window sort column", "vector stream"]


def _compute():
    from ee_outliers_ray.pipelines import documents_index
    from ee_outliers_ray.query.engine import BlockMaxPruning, taat_topk
    from ee_outliers_ray.query.reader import IndexReader

    reader = IndexReader(documents_index("/root/testdata/sf0.001"))
    bmp = BlockMaxPruning(reader, range_width=512)
    out = {}
    for q in QUERIES:
        t = taat_topk(reader, q, k=10)
        assert t == bmp.topk(q, k=10), f"BMP disagrees on {q!r}"
        out[q] = [[d, round(s, 6)] for d, s in t]
    return out


def test_matches_golden():
    with open(GOLDEN_PATH) as f:
        golden = json.load(f)
    got = _compute()
    for q in QUERIES:
        assert got[q] == golden[q], q


if __name__ == "__main__" and "--regen" in sys.argv:
    import ray

    ray.init(address="local", num_cpus=4, include_dashboard=False,
             logging_level="ERROR")
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(GOLDEN_PATH, "w") as f:
        json.dump(_compute(), f, indent=1)
    print(f"regenerated {GOLDEN_PATH}")
    ray.shutdown()

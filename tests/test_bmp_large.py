"""BMP vs TAAT exactness on the (large) bench index when present —
multi-thousand-block posting lists, mid- and low-frequency query mix.
Skipped when the bench artifacts don't exist (created by bench.py)."""

import os

import pytest

BENCH_INDEX = "/tmp/eor_bench_index_2000000_32"

pytestmark = pytest.mark.skipif(
    not os.path.exists(os.path.join(BENCH_INDEX, "stats.json")),
    reason="bench index not built (run bench.py first)")

# mid/low-frequency terms take the sparse union path when their
# postings stay under 1/16 of the corpus; the stopword pair runs the
# range-pruning loop over ~490 ranges of 4096 docs
QUERIES = ["w0042 w0100", "w0007 w1500 w0333", "w1899", "the data"]


def test_bmp_matches_taat_on_bench_index():
    from ee_outliers_ray.query.engine import BlockMaxPruning, TaatSearcher
    from ee_outliers_ray.query.reader import IndexReader

    reader = IndexReader(BENCH_INDEX)
    taat = TaatSearcher(reader)
    bmp = BlockMaxPruning(reader)
    assert reader.n_docs == 2_000_000
    for q in QUERIES:
        t = taat.topk(q, k=10)
        b = bmp.topk(q, k=10)
        assert b == t, q  # bit-identical at 2M docs

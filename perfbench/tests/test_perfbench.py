"""Tests of the benchmark itself: seeded inputs, cache-miss accounting on
the two serving workloads, span arithmetic and BENCHMARK.json.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import glob
import json
import os

import pyarrow.parquet as pq
import pytest

from perfbench import inputs, trace, workloads
from perfbench.oracle import Oracle, matches

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SMALL_DOCS = 4000


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(inputs, "N_DOCS", SMALL_DOCS)
    monkeypatch.setattr(workloads, "N_SETUPS", 1)


def _corpus(tmp_path, name, seed):
    d = str(tmp_path / name)
    inputs.make_corpus(d, seed)
    return pq.read_table(sorted(glob.glob(os.path.join(d, "*.parquet"))))


def _query_lists(pages, work, seed):
    oracle = Oracle(pages, work)
    vocab = oracle.vocabulary()
    oracle.close()
    rng = inputs.rng_for(seed, "serve_hot")
    pool = inputs.hot_pool(vocab, rng)
    return (pool, inputs.hot_stream(pool, 100, rng),
            inputs.cold_list(vocab, inputs.rng_for(seed, "serve_cold")))


def test_seed_fixes_corpus_and_queries(traced_ray, small, tmp_path):
    a, b, c = (_corpus(tmp_path, "a", 7), _corpus(tmp_path, "b", 7),
               _corpus(tmp_path, "c", 8))
    assert a.equals(b)
    assert not a.equals(c)
    qa = _query_lists(str(tmp_path / "a"), str(tmp_path / "da"), 7)
    qb = _query_lists(str(tmp_path / "b"), str(tmp_path / "db"), 7)
    qc = _query_lists(str(tmp_path / "c"), str(tmp_path / "dc"), 8)
    assert qa == qb
    assert all(x != y for x, y in zip(qa, qc))


def test_cold_list_uses_each_term_once():
    vocab = [(f"t{i}", 100 - i) for i in range(100)]
    queries = inputs.cold_list(vocab, inputs.rng_for(1, "serve_cold"))
    terms = [t for q in queries for t in q.split()]
    assert len(terms) == len(set(terms))
    assert {t for t in terms if t.startswith("t")} == {t for t, _ in vocab}
    assert sum(t.startswith("zq") for t in terms) >= 5


def _traced_phase(trace_dir, workload, seed, tmp_path, seconds):
    bench = workloads.Bench(workload, seed, str(tmp_path), trace_dir)
    try:
        bench.setup()
        for f in glob.glob(os.path.join(trace_dir, "spans-*")):
            os.remove(f)
        phase = workloads.Phase(seconds, live=True)
        bench.measure(phase)
    finally:
        bench.close()
    assert bench.failed == 0
    return bench, phase, trace.load_spans(trace_dir)


def test_serve_cold_misses_once_per_term_per_shard(traced_ray, small,
                                                   tmp_path):
    bench, phase, spans = _traced_phase(traced_ray, "serve_cold", 3,
                                        tmp_path, 3.0)
    served = bench.queries[:phase.ops]
    assert phase.ops < len(bench.queries)
    reads = [s for s in spans if s["name"] == "query.reader.postings"]
    terms = sum(len(set(q.split())) for q in served)
    assert sum(s["n"] for s in reads) == terms * workloads.N_SHARDS
    decoded = [s for s in spans
               if s["name"] == "query.reader.postings_decoded"]
    assert decoded and sum(s["n"] for s in decoded) == 0


def test_serve_hot_never_misses_after_warm_up(traced_ray, small, tmp_path):
    bench, phase, spans = _traced_phase(traced_ray, "serve_hot", 3,
                                        tmp_path, 2.0)
    assert phase.ops > 0
    assert sum(s["name"] == "query.engine.topk" for s in spans) == phase.ops
    reads = [s for s in spans if s["name"] == "query.reader.postings"]
    assert sum(s["n"] for s in reads) == 0


def _span(sid, parent, start, end, pid=1):
    return {"pid": pid, "id": sid, "parent": parent, "name": str(sid),
            "start": start, "end": end, "n": 1}


def test_self_time_subtracts_covered_child_interval():
    spans = [
        _span(1, 0, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),     # children 2 and 3 overlap on [3, 4]
        _span(3, 1, 3.0, 6.0),
        _span(4, 2, 2.0, 3.0),     # grandchild: counts against 2 only
        _span(5, 1, 8.0, 12.0),    # clipped to the parent's end
        _span(1, 0, 0.0, 2.0, pid=2),  # same id in another process
    ]
    trace.self_times(spans)
    got = [round(s["self"], 9) for s in spans]
    assert got == [3.0, 2.0, 3.0, 1.0, 4.0, 2.0]


def test_latency_windows_keep_ten_requests_beyond_p90():
    lat = [float(i) for i in range(250)]
    windows = workloads.latency_windows(lat)
    assert [len(w) for w in windows] == [100, 100]
    assert workloads.nearest_rank(windows[1], 0.9) == 189.0
    assert sum(x > 189.0 for x in windows[1]) == 10
    assert workloads.latency_windows(lat[:40]) == [lat[:40]]


def test_matches_accepts_ties_and_rejects_wrong_scores():
    truth = [(5, 3.0), (2, 2.0), (7, 1.0), (9, 1.0)]
    assert matches([(5, 3.0), (2, 2.0), (9, 1.0)], truth, k=3)
    assert not matches([(5, 3.0), (7, 2.0), (9, 1.0)], truth, k=3)
    assert not matches([(5, 3.0), (2, 2.0)], truth, k=3)
    assert not matches([(5, 3.0), (2, 2.0), (2, 2.0)],
                       [(5, 3.0), (2, 2.0), (8, 2.0)], k=3)


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [m[:3] for m in workloads.LAYER_METRICS]
    assert {m["name"] for m in spec["end_to_end"]} == \
        set(workloads.END_TO_END_UNITS)

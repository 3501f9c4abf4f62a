"""CLI surface: python -m ee_outliers_ray run (in-process main())."""

import pyarrow.compute as pc
import pyarrow.parquet as pq

from ee_outliers_ray.__main__ import main

USE_CASES = """
[terms_rare_users]
aggregator=event_type
target=user_id
target_count_method=within_aggregator
trigger_on=low
trigger_method=pct_of_median_value
trigger_sensitivity=50
outlier_type=rare user
outlier_reason=rarely seen user for type
outlier_summary=rare user {target} in {aggregator}
run_model=1

[metrics_skip_me]
aggregator=event_type
target=value
metric=numerical_value
trigger_method=mad
trigger_sensitivity=1
trigger_on=high
run_model=0
"""


def test_cli_run(tmp_path):
    uc = tmp_path / "uc.conf"
    uc.write_text(USE_CASES)
    out_dir = str(tmp_path / "out")
    rc = main(["run", "--use-cases", str(uc),
               "--input", "/root/testdata/sf0.001/events.parquet",
               "--output", out_dir])
    assert rc == 0
    t = pq.read_table(out_dir)
    assert t.num_rows == 1000
    tagged = t.filter(pc.is_valid(t["outliers"]))
    assert tagged.num_rows > 0
    o = tagged["outliers"][0].as_py()
    assert o["model_type"] == ["terms"]  # run_model=0 section skipped
    assert o["summary"][0].startswith("rare user ")
    assert "outlier" in tagged["tags"][0].as_py()


def test_cli_observations_column(tmp_path):
    """terms/metrics outliers carry the seeded non-outlier sample."""
    import ray.data

    from ee_outliers_ray.models.terms import terms_model

    events = ray.data.read_parquet("/root/testdata/sf0.001/events.parquet")
    out = terms_model(events, "event_type", "user_id",
                      target_count_method="within_aggregator",
                      trigger_method="pct_of_median_value",
                      trigger_sensitivity=50, trigger_on="low").to_pandas()
    assert "non_outlier_values_sample" in out.columns
    if len(out):
        s = out["non_outlier_values_sample"].iloc[0]
        assert s == "" or 1 <= len(s.split(",")) <= 3
        # deterministic across runs
        out2 = terms_model(events, "event_type", "user_id",
                           target_count_method="within_aggregator",
                           trigger_method="pct_of_median_value",
                           trigger_sensitivity=50, trigger_on="low").to_pandas()
        assert sorted(out["non_outlier_values_sample"]) == \
            sorted(out2["non_outlier_values_sample"])


def test_cli_arbitrary_config_keys(tmp_path):
    """Non-functional section keys are copied verbatim onto the outlier
    entries (reference analyzer.py:125-142), JSON-encoded in 'extra'."""
    import json

    uc = tmp_path / "uc2.conf"
    uc.write_text("""
[terms_rare_users]
aggregator=event_type
target=user_id
target_count_method=within_aggregator
trigger_on=low
trigger_method=pct_of_median_value
trigger_sensitivity=50
es_query_filter=event_type:*
mitre_tactic=T1078
custom_note=check with SOC
run_model=1
""")
    out_dir = str(tmp_path / "out2")
    rc = main(["run", "--use-cases", str(uc),
               "--input", "/root/testdata/sf0.001/events.parquet",
               "--output", out_dir])
    assert rc == 0
    t = pq.read_table(out_dir)
    tagged = t.filter(pc.is_valid(t["outliers"]))
    assert tagged.num_rows > 0
    o = tagged["outliers"][0].as_py()
    extra = json.loads(o["extra"][0])
    assert extra["mitre_tactic"] == "T1078"
    assert extra["custom_note"] == "check with SOC"
    # query filters surface as elasticsearch_filter (analyzer.py:139-141)
    assert extra["elasticsearch_filter"] == "event_type:*"
    # functional keys are NOT copied
    assert "trigger_method" not in extra


def test_metrics_observation_columns():
    """hex/base64/url metric observations ride along to outliers
    (reference metrics.py:276-311)."""
    import base64 as b64

    import pandas as pd
    import ray.data

    from ee_outliers_ray.models.metrics import metrics_model

    payload = b64.b64encode(b"secret payload here").decode()
    rows = [{"event_id": i, "etype": "x", "cmd": f"run step {i}"}
            for i in range(30)]
    rows.append({"event_id": 99, "etype": "x",
                 "cmd": f"run {payload} now"})
    ds = ray.data.from_pandas(pd.DataFrame(rows))
    out = metrics_model(ds, "etype", "cmd", metric="base64_encoded_length",
                        trigger_method="stdev", trigger_sensitivity=1,
                        trigger_on="high").to_pandas()
    assert {"max_base64_decoded_length", "max_base64_decoded_word",
            "confidence", "decision_frontier"} <= set(out.columns)
    flagged = out[out["event_id"] == 99]
    assert len(flagged) == 1
    assert flagged["max_base64_decoded_word"].iloc[0] == \
        "secret payload here"
    assert flagged["max_base64_decoded_length"].iloc[0] == \
        len("secret payload here")

    urls = [{"event_id": i, "etype": "x", "cmd": "plain text"}
            for i in range(20)]
    urls.append({"event_id": 77, "etype": "x",
                 "cmd": "go to https://evil.example.com/p now"})
    ds2 = ray.data.from_pandas(pd.DataFrame(urls))
    out2 = metrics_model(ds2, "etype", "cmd", metric="url_length",
                         trigger_method="stdev", trigger_sensitivity=1,
                         trigger_on="high").to_pandas()
    f2 = out2[out2["event_id"] == 77]
    assert len(f2) == 1
    assert f2["extracted_urls"].iloc[0] == "https://evil.example.com/p"

    hexes = [{"event_id": i, "etype": "x", "cmd": "word"}
             for i in range(20)]
    hexes.append({"event_id": 55, "etype": "x",
                  "cmd": "blob deadbeefdeadbeef end"})
    ds3 = ray.data.from_pandas(pd.DataFrame(hexes))
    out3 = metrics_model(ds3, "etype", "cmd", metric="hex_encoded_length",
                         trigger_method="stdev", trigger_sensitivity=1,
                         trigger_on="high").to_pandas()
    f3 = out3[out3["event_id"] == 55]
    assert len(f3) == 1
    assert f3["max_hex_encoded_word"].iloc[0] == "deadbeefdeadbeef"


def test_cron_schedule_and_watcher(tmp_path):
    import datetime as dt

    from ee_outliers_ray.cron import CronSchedule, FileModificationWatcher

    s = CronSchedule("*/15 * * * *")
    t = s.next_run(dt.datetime(2024, 3, 7, 12, 7, 30))
    assert t == dt.datetime(2024, 3, 7, 12, 15)
    assert s.next_run(t) == dt.datetime(2024, 3, 7, 12, 30)
    s2 = CronSchedule("30 2 * * 0")  # Sundays 02:30
    t2 = s2.next_run(dt.datetime(2024, 3, 7, 0, 0))  # Thursday
    assert t2 == dt.datetime(2024, 3, 10, 2, 30)
    assert t2.weekday() == 6
    s3 = CronSchedule("0 0 1 1,7 *")
    assert s3.next_run(dt.datetime(2024, 3, 1)) == dt.datetime(2024, 7, 1)

    p = tmp_path / "w.conf"
    p.write_text("a")
    w = FileModificationWatcher([str(p)])
    assert not w.files_changed()
    import os
    os.utime(p, (1e9, 1e9))
    assert w.files_changed()
    assert not w.files_changed()  # re-armed


def test_cli_run_join_threshold_matches_driver_path(tmp_path):
    """--join-threshold 0 forces the distributed sharded-store
    enrichment; its snapshot must equal the driver-dict path's."""
    import pandas as pd

    uc = tmp_path / "uc.conf"
    uc.write_text(USE_CASES)
    out_a = str(tmp_path / "out_driver")
    out_b = str(tmp_path / "out_sharded")
    assert main(["run", "--use-cases", str(uc),
                 "--input", "/root/testdata/sf0.001/events.parquet",
                 "--output", out_a]) == 0
    assert main(["run", "--use-cases", str(uc),
                 "--input", "/root/testdata/sf0.001/events.parquet",
                 "--output", out_b, "--join-threshold", "0"]) == 0

    def load(d):
        df = pq.read_table(d).to_pandas()
        df["outliers"] = df["outliers"].map(
            lambda o: None if o is None else sorted(o.items()))
        df["tags"] = df["tags"].map(
            lambda t: None if t is None else list(t))
        return df.sort_values("event_id").reset_index(drop=True) \
            .astype({"event_id": "int64"})

    a, b = load(out_a), load(out_b)
    pd.testing.assert_frame_equal(a, b)


def test_apply_outliers_sharded_matches_broadcast():
    """Distributed sharded-store enrichment == broadcast-dict enrichment
    on the same entries (corpus-scale-outlier design, VERDICT r2 #5)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from ee_outliers_ray.enrich import apply_outliers, apply_outliers_sharded

    n = 5000
    corpus = ray.data.from_arrow(pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "event_type": pa.array((np.arange(n) % 3).astype(str)),
    }))
    # model 0 flags every even id, model 1 flags multiples of 3 — a
    # corpus-scale outlier volume with overlapping docs
    rows = []
    for seq, (step, mname) in enumerate([(2, "evens"), (3, "thirds")]):
        for i in range(0, n, step):
            rows.append({"event_id": i, "type": "t", "reason": "r",
                         "summary": f"s{seq} doc {i}", "model_name": mname,
                         "model_type": "terms", "extra": "", "seq": seq})
    entries_ds = ray.data.from_pandas(pd.DataFrame(rows))

    entries_dict: dict[int, list] = {}
    for r in rows:
        entries_dict.setdefault(r["event_id"], []).append(
            {k: r[k] for k in ("type", "reason", "summary", "model_name",
                               "model_type", "extra")})

    a = apply_outliers(corpus, entries_dict, id_col="event_id") \
        .to_pandas().sort_values("event_id").reset_index(drop=True)
    b = apply_outliers_sharded(corpus, entries_ds, id_col="event_id") \
        .to_pandas().sort_values("event_id").reset_index(drop=True)
    for df in (a, b):
        df["outliers"] = df["outliers"].map(
            lambda o: None if o is None else sorted(o.items()))
        df["tags"] = df["tags"].map(lambda t: None if t is None else list(t))
    pd.testing.assert_frame_equal(a, b)


def test_index_cli_lifecycle(tmp_path, capsys):
    """python -m ee_outliers_ray index build/query/delete/compact/upsert —
    the ray-job-submit lifecycle surface, in-process."""
    import json

    import pyarrow as pa
    import pyarrow.parquet as pq

    from ee_outliers_ray.__main__ import main

    pages = tmp_path / "pages"
    pages.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array(range(8), type=pa.int64()),
        "url": pa.array([f"https://x/{i}" for i in range(8)]),
        "text": ["alpha beta", "beta gamma", "alpha alpha", "delta",
                 "beta", "alpha beta gamma", "epsilon", "gamma gamma"],
    }), str(pages / "a.parquet"))
    idx = str(tmp_path / "idx")

    def run(argv):
        assert main(argv) == 0
        return json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    out = run(["index", "build", "--index", idx, "--pages", str(pages),
               "--from-text", "--num-buckets", "2", "--batch-size", "4"])
    assert out["n_docs"] == 8
    q = ["index", "query", "--index", idx, "--query", "alpha beta", "-k", "3"]
    res = run(q)["results"]
    assert [r["doc_id"] for r in res] == [0, 5, 2]
    run(["index", "delete", "--index", idx, "--ids", "0,5"])
    res2 = run(q + ["--engine", "taat"])["results"]
    assert not {0, 5} & {r["doc_id"] for r in res2}
    out = run(["index", "compact", "--index", idx])
    assert out["n_docs_removed"] == 2
    assert run(q)["results"] == res2
    # upsert: replace url 2's doc with a new version
    newf = str(tmp_path / "new.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array([100], type=pa.int64()),
        "url": pa.array(["https://x/2"]),
        "text": ["zulu zulu"]}), newf)
    out = run(["index", "upsert", "--index", idx, "--pages", newf,
               "--from-text", "--batch-size", "4"])
    assert out["n_replaced"] == 1
    res3 = run(["index", "query", "--index", idx, "--query", "zulu"])
    assert [r["doc_id"] for r in res3["results"]] == [100]
    # minimum_should_match through the CLI: equals the searcher's
    from ee_outliers_ray.query.engine import TaatSearcher
    from ee_outliers_ray.query.reader import IndexReader

    mm = run(["index", "query", "--index", idx, "--query", "alpha beta",
              "--min-match", "2", "-k", "5"])
    assert mm["engine"] == "min_match" and mm["min_match"] == 2
    want = TaatSearcher(IndexReader(idx)).min_match_topk(
        ("alpha", "beta"), 2, k=5)
    assert [r["doc_id"] for r in mm["results"]] == [w[0] for w in want]
    assert [r["n_matched"] for r in mm["results"]] == [w[1] for w in want]
    assert all(r["n_matched"] >= 2 for r in mm["results"])

"""Dedup / similarity / hashing kernel tests: vectorized kernels vs
plain-Python references, LSH recall against exhaustive truth, and
pipeline goldens."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from ee_outliers_ray.dedup import (
    MinHasher,
    SimHasher,
    _shingles,
    batch_shingle_hashes,
    minhash_near_dups,
    ngram_jaccard,
    simhash_candidates,
)
from ee_outliers_ray.hashing import (
    hash_string_array,
    shingle_hashes,
    unique_per_segment,
)
from ee_outliers_ray.tokenizer import tokenize, tokenize_column

DOCS = [
    "the quick brown fox jumps over the lazy dog",
    "the quick brown fox jumps over the lazy cat",
    "the quick brown fox jumps over the lazy dog",   # exact dup of 0
    "completely different content about ray data pipelines",
    "completely different content about ray data engines",
    "one two",
    "",
    "singleword",
    "shared prefix tokens then totally divergent tail words here",
    "shared prefix tokens then absolutely unrelated ending part now",
]


def test_hash_string_array_distinct_and_stable():
    toks = [t for d in DOCS for t in tokenize(d)]
    arr = pa.array(toks)
    h1 = hash_string_array(arr)
    h2 = hash_string_array(arr)
    assert (h1 == h2).all()
    by_tok = {}
    for t, h in zip(toks, h1):
        assert by_tok.setdefault(t, h) == h
    vals = list(by_tok.values())
    assert len(set(vals)) == len(vals)  # no collisions on this vocab


def test_shingle_hash_sets_match_exact_shingles():
    """Hashed-shingle intersections/sizes == exact token-tuple shingles
    for every doc pair (collision-free at this scale)."""
    col = pa.array(DOCS)
    sh, off = batch_shingle_hashes(col, 3)
    usha, uoff = unique_per_segment(sh, off)
    hashed_sets = [set(usha[uoff[i]:uoff[i + 1]].tolist())
                   for i in range(len(DOCS))]
    exact_sets = [_shingles(d, 3) for d in DOCS]
    for hs, es in zip(hashed_sets, exact_sets):
        assert len(hs) == len(es)
    for i in range(len(DOCS)):
        for j in range(i + 1, len(DOCS)):
            assert len(hashed_sets[i] & hashed_sets[j]) == \
                len(exact_sets[i] & exact_sets[j]), (i, j)


def test_shingle_short_and_empty_docs():
    toks = tokenize_column(pa.array(["", "one two", "single"]))
    th = hash_string_array(toks.flatten())
    off = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    sh, sh_off = shingle_hashes(th, off, 3)
    counts = (sh_off[1:] - sh_off[:-1]).tolist()
    assert counts == [0, 1, 1]  # empty->none, short->one whole-doc shingle


def test_minhash_signature_approximates_jaccard():
    m = MinHasher(num_perm=256, bands=16)
    sig, n_sh = m.signature_matrix(pa.array(DOCS))
    assert (sig[0] == sig[2]).all()  # exact dup -> identical signature
    agree = (sig[3] == sig[4]).mean()
    true_j = ngram_jaccard(DOCS[3], DOCS[4], 3)
    assert abs(agree - true_j) < 0.15
    assert n_sh[6] == 0  # empty doc has no shingles


@pytest.mark.parametrize("path", ["driver", "distributed"])
def test_minhash_near_dups_pipeline_matches_exhaustive(path, monkeypatch):
    """Pipeline output == exhaustive threshold Jaccard over all pairs
    (recall 1 at these similarities), with exact jaccard values — on
    BOTH the driver pair-gen/verify branch and the fully distributed
    branch (groupby pair gen + sharded-store verify), forced by zeroing
    the gates."""
    kw = {}
    if path == "distributed":
        from ee_outliers_ray import dedup as D

        kw["max_driver_candidate_rows"] = 0
        monkeypatch.setattr(D, "_DRIVER_VERIFY_MAX_PAIRS", 0)
    ds = ray.data.from_pandas(pd.DataFrame(
        {"doc_id": range(len(DOCS)), "text": DOCS}))
    got = minhash_near_dups(ds, threshold=0.5, **kw).to_pandas() \
        .sort_values(["id_a", "id_b"]).reset_index(drop=True)
    want = []
    for i in range(len(DOCS)):
        for j in range(i + 1, len(DOCS)):
            if not _shingles(DOCS[i], 3) and not _shingles(DOCS[j], 3):
                continue  # shingle-less docs never enter LSH
            jac = ngram_jaccard(DOCS[i], DOCS[j], 3)
            if jac >= 0.5:
                want.append((i, j, round(jac, 6)))
    assert list(map(tuple, got[["id_a", "id_b"]].itertuples(index=False))) \
        == [(a, b) for a, b, _ in want]
    assert np.allclose(got["jaccard"].to_numpy(),
                       [j for _, _, j in want], atol=1e-9)


def test_simhash_batch_equals_single():
    col = pa.array([d for d in DOCS if d])
    batch_out = SimHasher.simhash_column(col)
    for d, h in zip([d for d in DOCS if d], batch_out):
        assert SimHasher.simhash64(d) == int(h)
    assert SimHasher.simhash64("") == 0


def test_simhash_candidates_exact_for_small_hamming():
    """Pigeonhole: with 4 bands and max_hamming=3 the candidate set is
    COMPLETE — output must equal brute-force hamming<=3 over all pairs."""
    docs = [d for d in DOCS if d]
    ds = ray.data.from_pandas(pd.DataFrame(
        {"doc_id": range(len(docs)), "text": docs}))
    got = simhash_candidates(ds).to_pandas() \
        .sort_values(["id_a", "id_b"]).reset_index(drop=True)
    sh = [SimHasher.simhash64(d) for d in docs]
    want = []
    for i in range(len(docs)):
        for j in range(i + 1, len(docs)):
            ham = bin(sh[i] ^ sh[j]).count("1")
            if ham <= 3:
                want.append((i, j, ham))
    assert list(map(tuple, got[["id_a", "id_b", "hamming"]]
                    .itertuples(index=False))) == want


def test_fingerprint_order_sensitive_deterministic():
    from ee_outliers_ray.textstats import fingerprint

    ds = ray.data.from_pandas(pd.DataFrame({
        "doc_id": [0, 1, 2, 3],
        "text": ["alpha beta gamma", "gamma beta alpha",
                 "alpha beta gamma", ""]}))
    out = fingerprint(ds).to_pandas().sort_values("doc_id")
    fps = out["fingerprint"].tolist()
    assert fps[0] == fps[2]       # identical text -> identical fp
    assert fps[0] != fps[1]       # order-sensitive
    out2 = fingerprint(ds).to_pandas().sort_values("doc_id")
    assert fps == out2["fingerprint"].tolist()


def test_langid_vectorized_matches_heuristic():
    from ee_outliers_ray.textstats import _LANG_STOPWORDS, langid

    texts = ["the cat is in the house and it was good",
             "de kat is niet in het huis en ik ben",
             "le chat est dans la maison et il est",
             "der Hund ist nicht in das Haus und er",
             "xyzzy plugh nothing matches here",
             ""]
    ds = ray.data.from_pandas(pd.DataFrame(
        {"doc_id": range(len(texts)), "text": texts}))
    out = langid(ds).to_pandas().sort_values("doc_id")

    def ref_predict(text):
        toks = tokenize(text)
        best, best_score = "und", 0
        for lang, stops in _LANG_STOPWORDS.items():
            score = sum(1 for t in toks if t in stops)
            if score > best_score:
                best, best_score = lang, score
        return best

    assert out["lang_pred"].tolist() == [ref_predict(t) for t in texts]


def test_embedding_dups_verified_cosine():
    rng = np.random.default_rng(3)
    base = rng.standard_normal(16)
    vecs = [base + rng.standard_normal(16) * 0.01 for _ in range(3)]
    vecs += [rng.standard_normal(16) for _ in range(20)]
    ds = ray.data.from_pandas(pd.DataFrame({
        "vec_id": range(len(vecs)),
        "embedding": [v.astype(np.float32).tolist() for v in vecs]}))
    from ee_outliers_ray.similarity import embedding_near_dups

    out = embedding_near_dups(ds, threshold=0.95).to_pandas()
    got_pairs = set(map(tuple, out[["id_a", "id_b"]].itertuples(index=False)))
    assert {(0, 1), (0, 2), (1, 2)} <= got_pairs
    m = np.stack([v / np.linalg.norm(v) for v in vecs])
    sims = m @ m.T
    for a, b in got_pairs:
        assert sims[a, b] >= 0.95 - 1e-9


def test_embedding_dups_distributed_branch_equals_driver():
    """Forcing the distributed candidate path (max_driver_candidate_rows=0:
    pairs stream -> store-backed verify -> survivor-only distinct) must
    produce exactly the driver branch's pair set and cosines."""
    from ee_outliers_ray.similarity import embedding_near_dups

    rng = np.random.default_rng(17)
    vecs = []
    for c in range(6):  # 6 planted clusters of 3 near-identical vectors
        base = rng.standard_normal(24)
        vecs += [base + rng.standard_normal(24) * 0.02 for _ in range(3)]
    vecs += [rng.standard_normal(24) for _ in range(60)]
    ds = ray.data.from_pandas(pd.DataFrame({
        "vec_id": range(len(vecs)),
        "embedding": [v.astype(np.float32).tolist() for v in vecs]}))

    drv = embedding_near_dups(ds, threshold=0.95).to_pandas() \
        .sort_values(["id_a", "id_b"]).reset_index(drop=True)
    dist = embedding_near_dups(
        ds, threshold=0.95, max_driver_candidate_rows=0).to_pandas() \
        .sort_values(["id_a", "id_b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(drv, dist[drv.columns], check_like=False)
    assert len(drv) >= 6 * 3  # every planted cluster contributes pairs


def test_ann_ivf_recall_vs_brute_force():
    """ann_ivf_recall is the production-nprobe recall table (one row per
    fixed query, deterministic); the floor here is the pytest gate for
    the approximate setting — the driver-oracled gate is ann_ivf."""
    from ee_outliers_ray import pipelines as P

    out = P.ann_ivf_recall("/root/testdata/sf0.001")
    assert list(out.columns) == ["query_id", "k", "n_overlap", "recall_at_k"]
    assert len(out) == 5
    assert (out["recall_at_k"] >= 0.8).all()
    # determinism: a second run reproduces the table exactly
    out2 = P.ann_ivf_recall("/root/testdata/sf0.001")
    pd.testing.assert_frame_equal(out, out2)


def test_ann_ivf_full_probe_is_exact():
    """ann_ivf (the driver gate) probes ALL lists, so its per-query
    top-k must equal brute force exactly — (query_id, vec_id) sets AND
    rounded cosines, across two sf dirs."""
    from ee_outliers_ray import pipelines as P

    for sf in ("/root/testdata/sf0.001", "/root/testdata/sf0.01"):
        ivf = P.ann_ivf(sf).reset_index(drop=True)
        brute = P.ann_cosine_multi(sf).reset_index(drop=True)
        assert list(ivf.columns) == ["query_id", "vec_id", "cosine"]
        pd.testing.assert_frame_equal(
            ivf[["query_id", "vec_id"]], brute[["query_id", "vec_id"]])
        assert np.allclose(ivf["cosine"], brute["cosine"], atol=1e-9)


def _ngram_exhaustive_want(docs, threshold=0.5):
    want = []
    for i in range(len(docs)):
        for j in range(i + 1, len(docs)):
            si, sj = _shingles(docs[i], 3), _shingles(docs[j], 3)
            if not si and not sj:
                continue
            jac = ngram_jaccard(docs[i], docs[j], 3)
            if jac >= threshold:
                want.append((i, j, round(jac, 6)))
    return want


@pytest.mark.parametrize("path", ["incidence", "prefix", "distributed"])
def test_ngram_jaccard_dups_exact_vs_exhaustive(path, monkeypatch):
    """All three exact join paths — driver incidence join (default at
    small scale), driver df-ordered prefix filter + packed verify
    (forced by zeroing the incidence gate), and the fully distributed
    path (forced by zeroing the driver row gate) — must equal exhaustive
    pairwise Jaccard, incl. near-threshold pairs that LSH could miss."""
    from ee_outliers_ray import dedup as D

    base = "w{} x{} common tokens run alpha beta gamma delta epsilon"
    docs = [base.format(i, i) for i in range(12)]  # borderline family
    docs += DOCS
    ds = ray.data.from_pandas(pd.DataFrame(
        {"doc_id": range(len(docs)), "text": docs}))
    kw = {}
    if path == "prefix":
        monkeypatch.setattr(D, "_INCIDENCE_JOIN_MAX", 0)
    elif path == "distributed":
        kw["max_driver_candidate_rows"] = 0
    got = D.ngram_jaccard_dups(ds, threshold=0.5, **kw).to_pandas() \
        .sort_values(["id_a", "id_b"]).reset_index(drop=True)
    want = _ngram_exhaustive_want(docs)
    assert list(map(tuple, got[["id_a", "id_b"]].itertuples(index=False))) \
        == [(a, b) for a, b, _ in want]
    assert np.allclose(got["jaccard"].to_numpy(),
                       [j for _, _, j in want], atol=1e-9)
    assert len(want) > 10  # the borderline family actually exercises it


def test_connected_components_distributed_matches_numpy():
    """The distributed min-label-propagation path (forced with
    max_driver_pairs=0) must equal the driver numpy union-find."""
    import numpy as np
    import pandas as pd
    import ray.data

    from ee_outliers_ray.dedup import _components_numpy, connected_components

    rng = np.random.default_rng(3)
    # a few chains + rings + singleton pairs over sparse ids
    edges = []
    base = 0
    for clen in (2, 3, 5, 8, 13):
        ids = rng.choice(10_000, size=clen, replace=False) + base
        for i in range(clen - 1):
            edges.append((int(ids[i]), int(ids[i + 1])))
        edges.append((int(ids[-1]), int(ids[0])))  # close the ring
        base += 20_000
    df = pd.DataFrame(edges, columns=["id_a", "id_b"])
    pairs = ray.data.from_pandas(df)

    ids, lbl = _components_numpy(df["id_a"].to_numpy(np.int64),
                                 df["id_b"].to_numpy(np.int64))
    exp = pd.DataFrame({"doc_id": ids, "cluster_id": lbl})
    got = connected_components(pairs, max_driver_pairs=0) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got.astype(np.int64),
                                  exp.astype(np.int64))


def test_exact_cosine_pairs_multi_block():
    """Block-pair matmul with several blocks == single-block truth."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from ee_outliers_ray.similarity import exact_cosine_pairs

    rng = np.random.default_rng(5)
    n, d = 300, 8
    base = rng.standard_normal((n, d))
    base[50] = base[10] * 2.0          # exact duplicates across blocks
    base[250] = base[10] + 0.01 * rng.standard_normal(d)
    tbl = pa.table({"vec_id": pa.array(np.arange(n, dtype=np.int64)),
                    "embedding": pa.array(list(base))})
    ds = ray.data.from_arrow(tbl)

    got = exact_cosine_pairs(ds, threshold=0.9, target_block_rows=64) \
        .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    # numpy truth
    m = base / np.linalg.norm(base, axis=1, keepdims=True)
    s = m @ m.T
    exp = []
    for i in range(n):
        for j in range(i + 1, n):
            if s[i, j] >= 0.9:
                exp.append((i, j))
    assert list(map(tuple, got[["id_a", "id_b"]].to_numpy())) == exp
    assert (10, 50) in exp and (10, 250) in exp


def test_dedup_keep_list_consistent_with_clusters():
    """keep list == all docs minus non-representative cluster members."""
    import numpy as np

    from ee_outliers_ray import pipelines as P

    sf = "/root/testdata/sf0.001"
    clusters = P.dedup_clusters(sf).to_pandas()
    keep = P.dedup_keep_list(sf).to_pandas()["doc_id"].to_numpy()
    drop = clusters[clusters["doc_id"] != clusters["cluster_id"]]["doc_id"]
    n_docs = P.count_documents(sf) if hasattr(P, "count_documents") else \
        P.read(sf, "documents", columns=["doc_id"]).count()
    assert len(keep) == n_docs - len(drop)
    assert not np.isin(keep, drop.to_numpy()).any()


def test_ivf_probe_multi_equals_single():
    """probe_topk_multi (one corpus pass for all queries) must return
    exactly what per-query probe_topk returns."""
    import pyarrow.parquet as pq

    from ee_outliers_ray import pipelines as P
    from ee_outliers_ray.similarity import IvfIndex

    sf = "/root/testdata/sf0.001"
    t = pq.read_table(P._t(sf, "embeddings"), columns=["vec_id", "embedding"],
                      filters=[("vec_id", "<", 3)])
    order = np.argsort(t["vec_id"].to_numpy())
    qm = np.array(t["embedding"].to_pylist(), dtype=np.float64)[order]
    qids = t["vec_id"].to_numpy()[order]
    ds = P.read(sf, "embeddings", columns=["vec_id", "embedding"])
    idx = IvfIndex(n_lists=16).fit_dataset(ds, max_sample=4096)
    assigned = idx.assign_column(ds)
    multi = idx.probe_topk_multi(assigned, qm, qids, k=10, nprobe=12)
    for qid, qv in zip(qids, qm):
        single = idx.probe_topk(assigned, qv, k=10, nprobe=12).to_pandas()
        m = multi[multi["query_id"] == qid].reset_index(drop=True)
        assert single["vec_id"].tolist() == m["vec_id"].tolist()
        assert np.allclose(single["cosine"], m["cosine"], atol=1e-9)


def test_crowded_buckets_checkpoint_path_identical():
    """Forcing checkpoint_min_rows=0 (with the driver gate also 0) sends
    crowded_buckets through the /tmp parquet checkpoint; the filtered
    rows and crowded sizes must equal both the driver fast path and the
    in-object-store distributed path."""
    import ray.data

    from ee_outliers_ray.dedup import crowded_buckets

    rng = np.random.default_rng(11)
    tbl = pa.table({
        "doc_id": pa.array(np.arange(3000, dtype=np.int64)),
        "bucket": pa.array(rng.integers(0, 1200, size=3000)),
    })

    def run(**kw):
        filt, crowded = crowded_buckets(ray.data.from_arrow(tbl),
                                        ["bucket"], **kw)
        f = filt.to_pandas().sort_values(["bucket", "doc_id"]) \
            .reset_index(drop=True)
        c = crowded.sort_values("bucket").reset_index(drop=True) \
            .astype({"bucket": np.int64, "n": np.int64})
        return f, c

    f_drv, c_drv = run()                                   # driver path
    f_dist, c_dist = run(max_driver_rows=0)                # distributed
    f_ck, c_ck = run(max_driver_rows=0, checkpoint_min_rows=0)
    pd.testing.assert_frame_equal(f_dist, f_drv)
    pd.testing.assert_frame_equal(f_ck, f_drv)
    pd.testing.assert_frame_equal(c_dist, c_drv)
    pd.testing.assert_frame_equal(c_ck, c_drv)
    assert (c_drv["n"] >= 2).all() and len(c_drv) > 0

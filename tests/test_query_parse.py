import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from ee_outliers_ray.query.parse import (
    And,
    EvalCtx,
    Exists,
    FieldMatch,
    Not,
    Or,
    Phrase,
    Term,
    filter_by_query_string,
    parse_query_string,
)


def _batch():
    return pa.table({
        "doc_id": pa.array([0, 1, 2, 3], type=pa.int64()),
        "text": ["spark merge fast", "merge slow", "spark table", ""],
        "lang": ["en", "fr", None, "en"],
        "port": pa.array([0, 443, 80, 0], type=pa.int64()),
        "tags": pa.array([["endpoint"], [], ["endpoint", "x"], None],
                         type=pa.list_(pa.string())),
    })


CTX = EvalCtx(text_col="text", id_col="doc_id")


def test_parse_shapes():
    ast = parse_query_string(
        'tags:endpoint AND name:"get conns" AND -port:0', "and")
    assert isinstance(ast, And)
    kinds = [type(c) for c in ast.children]
    assert kinds == [FieldMatch, FieldMatch, Not]
    assert ast.children[1].value == "get conns"
    ast2 = parse_query_string("_exists_:lang OR spark")
    assert isinstance(ast2, Or)
    assert isinstance(ast2.children[0], Exists)
    assert isinstance(ast2.children[1], Term)
    ast3 = parse_query_string('"spark merge"')
    assert isinstance(ast3, Phrase)


def test_term_mask_scan():
    m = Term("spark").mask(_batch(), CTX)
    assert list(m) == [True, False, True, False]
    m = Term("spark merge").mask(_batch(), CTX)  # multi-token AND
    assert list(m) == [True, False, False, False]


def test_phrase_mask():
    m = Phrase("spark merge").mask(_batch(), CTX)
    assert list(m) == [True, False, False, False]
    m = Phrase("merge spark").mask(_batch(), CTX)
    assert list(m) == [False, False, False, False]


def test_field_and_exists():
    m = FieldMatch("lang", "en").mask(_batch(), CTX)
    assert list(m) == [True, False, False, True]
    m = FieldMatch("port", "0").mask(_batch(), CTX)  # stringified compare
    assert list(m) == [True, False, False, True]
    m = FieldMatch("tags", "endpoint").mask(_batch(), CTX)  # list column
    assert list(m) == [True, False, True, False]
    m = Exists("lang").mask(_batch(), CTX)
    assert list(m) == [True, True, False, True]


def test_bool_combination():
    ast = parse_query_string("lang:en AND -port:0", "and")
    m = ast.mask(_batch(), CTX)
    assert list(m) == [False, False, False, False]
    ast = parse_query_string("lang:en OR lang:fr")
    assert list(ast.mask(_batch(), CTX)) == [True, True, False, True]
    ast = parse_query_string("(lang:en OR lang:fr) AND spark", "and")
    assert list(ast.mask(_batch(), CTX)) == [True, False, False, False]


def test_reference_style_filter():
    # surface from terms_rarely_seen_outbound_connections.conf:5
    q = 'tags:endpoint AND -port:0'
    ast = parse_query_string(q, "and")
    assert list(ast.mask(_batch(), CTX)) == [False, False, True, False]


def test_filter_by_query_string_ds():
    ds = ray.data.from_arrow(_batch())
    out = filter_by_query_string(ds, "lang:en AND spark",
                                 default_operator="and").to_pandas()
    assert sorted(out["doc_id"]) == [0]


def test_index_backed_term(tmp_path):
    import ray

    from ee_outliers_ray.index.build import build_index
    from ee_outliers_ray.query.reader import IndexReader

    df = pd.DataFrame({
        "doc_id": range(6),
        "text": ["alpha beta", "beta gamma", "alpha", "delta", "", "beta"],
    })
    src = str(tmp_path / "docs.parquet")
    pa.parquet.write_table(pa.Table.from_pandas(df), src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, from_html=False, num_buckets=4, batch_size=3)
    reader = IndexReader(idx)
    ds = ray.data.read_parquet(src)
    out = filter_by_query_string(ds, "beta -gamma", reader=reader,
                                 default_operator="and").to_pandas()
    assert sorted(out["doc_id"]) == [0, 5]


def test_terms_collection():
    ast = parse_query_string('spark AND "merge fast" AND lang:en', "and")
    assert sorted(ast.terms()) == ["fast", "merge", "spark"]


def test_parser_edge_cases():
    # quoted value with colon-ish content, escaped-ish forms, stray parens
    ast = parse_query_string('field:"value with spaces"')
    assert isinstance(ast, FieldMatch) and ast.value == "value with spaces"
    ast = parse_query_string("a AND (b OR c) AND -d", "and")
    assert isinstance(ast, And) and len(ast.children) == 3
    ast = parse_query_string("))((")  # malformed input must not crash
    assert ast is not None
    ast = parse_query_string("")  # empty query
    m = ast.mask(_batch(), CTX)
    assert len(m) == 4
    ast = parse_query_string("NOT spark")
    assert isinstance(ast, Not)
    assert list(ast.mask(_batch(), CTX)) == [False, True, False, True]
    # _exists_ with quoted field
    ast = parse_query_string('_exists_:"lang"')
    assert isinstance(ast, Exists) and ast.field == "lang"


def test_parser_or_default_operator():
    # Lucene default operator OR: bare juxtaposition unions
    ast = parse_query_string("lang:en lang:fr")
    assert list(ast.mask(_batch(), CTX)) == [True, True, False, True]
    # explicit AND overrides
    ast = parse_query_string("lang:en AND lang:fr")
    assert list(ast.mask(_batch(), CTX)) == [False, False, False, False]


def test_wildcard_and_range_scan():
    from ee_outliers_ray.query.parse import FieldRange, FieldWildcard, Wildcard

    # full-text wildcard over the tokenized text column (no index)
    ast = parse_query_string("sp*")
    assert isinstance(ast, Wildcard)
    assert list(ast.mask(_batch(), CTX)) == [True, False, True, False]
    ast = parse_query_string("s?ow")  # ? = exactly one char
    assert list(ast.mask(_batch(), CTX)) == [False, True, False, False]
    # field wildcard: whole-value LIKE, incl. list columns
    ast = parse_query_string("lang:e*")
    assert isinstance(ast, FieldWildcard)
    assert list(ast.mask(_batch(), CTX)) == [True, False, False, True]
    ast = parse_query_string("tags:end*")
    assert list(ast.mask(_batch(), CTX)) == [True, False, True, False]
    # numeric ranges: [] inclusive, {} exclusive, one-sided, * unbounded
    ast = parse_query_string("port:[80 TO 443]")
    assert isinstance(ast, FieldRange)
    assert list(ast.mask(_batch(), CTX)) == [False, True, True, False]
    ast = parse_query_string("port:{80 TO 443]")
    assert list(ast.mask(_batch(), CTX)) == [False, True, False, False]
    ast = parse_query_string("port:>=443")
    assert list(ast.mask(_batch(), CTX)) == [False, True, False, False]
    ast = parse_query_string("port:<80")
    assert list(ast.mask(_batch(), CTX)) == [True, False, False, True]
    ast = parse_query_string("port:[443 TO *]")
    assert list(ast.mask(_batch(), CTX)) == [False, True, False, False]
    # string range on a varchar column
    ast = parse_query_string("lang:[en TO fr}")
    assert list(ast.mask(_batch(), CTX)) == [True, False, False, True]
    # missing column -> matches nothing (ES: unmapped field)
    ast = parse_query_string("nope:[1 TO 2]")
    assert list(ast.mask(_batch(), CTX)) == [False] * 4


def test_timestamp_range():
    b = pa.table({
        "doc_id": pa.array([0, 1, 2], type=pa.int64()),
        "ts": pa.array([np.datetime64("2026-01-01 06:00:00", "us"),
                        np.datetime64("2026-02-01 00:00:00", "us"),
                        np.datetime64("2026-03-01 00:00:00", "us")]),
    })
    ast = parse_query_string("ts:[2026-01-01 TO 2026-02-15]")
    assert list(ast.mask(b, CTX)) == [True, True, False]


def test_index_backed_wildcard(tmp_path):
    """Index expansion path must equal the tokenized-scan path."""
    import ray

    from ee_outliers_ray.index.build import build_index
    from ee_outliers_ray.query.reader import IndexReader

    rng = np.random.default_rng(7)
    vocab = ["scan", "scatter", "spark", "shark", "merge", "table", "s"]
    texts = [" ".join(rng.choice(vocab, size=rng.integers(0, 6)))
             for _ in range(40)]
    df = pd.DataFrame({"doc_id": range(40), "text": texts})
    src = str(tmp_path / "docs.parquet")
    pa.parquet.write_table(pa.Table.from_pandas(df), src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, from_html=False, num_buckets=4, batch_size=16)
    reader = IndexReader(idx)
    # expansion is sorted + deduped across segment part rows
    assert reader.terms_matching("sc*") == ["scan", "scatter"]
    assert reader.terms_matching("s?ark") == ["shark", "spark"]
    assert reader.terms_matching("zzz*") == []
    with pytest.raises(ValueError):
        reader.terms_matching("*", limit=3)
    ds = ray.data.read_parquet(src)
    def ids(out):
        df = out.to_pandas()
        return sorted(df["doc_id"]) if "doc_id" in df.columns else []

    for q in ("sc*", "s?ark OR merge", "sc* AND -scatter", "zzz*"):
        with_idx = ids(filter_by_query_string(ds, q, reader=reader))
        scan = ids(filter_by_query_string(ds, q, reader=None))
        assert with_idx == scan, q
        if q == "sc*":
            assert len(with_idx) > 0


def test_fuzzy_kernel_matches_pure_python():
    from ee_outliers_ray.query.fuzzy import levenshtein_within

    def ref(a, b):
        dp = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            prev, dp[0] = dp[0], i
            for j, cb in enumerate(b, 1):
                prev, dp[j] = dp[j], min(dp[j] + 1, dp[j - 1] + 1,
                                         prev + (ca != cb))
        return dp[-1]

    rng = np.random.default_rng(3)
    alpha = list("ab01")
    for _ in range(120):
        q = "".join(rng.choice(alpha, size=rng.integers(0, 7)))
        cands = ["".join(rng.choice(alpha, size=rng.integers(0, 7)))
                 for _ in range(13)]
        for d in (0, 1, 2):
            got = levenshtein_within(q, cands, d)
            exp = np.array([ref(q, c) <= d for c in cands])
            assert (got == exp).all(), (q, cands, d)


def test_fuzzy_kernel_unicode_property():
    """Property pin for the BYTE-level contract: over random mixed-width
    unicode strings (1/2/3-byte code points), the vectorized DP equals a
    pure-Python Levenshtein run on the UTF-8 BYTES of both sides — the
    same semantics DuckDB's levenshtein() implements."""
    from ee_outliers_ray.query.fuzzy import levenshtein_within

    def ref_bytes(a: str, b: str) -> int:
        a, b = a.encode(), b.encode()
        dp = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            prev, dp[0] = dp[0], i
            for j, cb in enumerate(b, 1):
                prev, dp[j] = dp[j], min(dp[j] + 1, dp[j - 1] + 1,
                                         prev + (ca != cb))
        return dp[-1]

    rng = np.random.default_rng(17)
    alpha = list("ab0") + ["é", "ü", "ß", "日", "語"]   # 1/2/3-byte chars
    for _ in range(80):
        q = "".join(rng.choice(alpha, size=rng.integers(0, 5)))
        cands = ["".join(rng.choice(alpha, size=rng.integers(0, 5)))
                 for _ in range(11)]
        for d in (0, 1, 2, 3):
            got = levenshtein_within(q, cands, d)
            exp = np.array([ref_bytes(q, c) <= d for c in cands])
            assert (got == exp).all(), (q, cands, d)


def test_fuzzy_non_ascii_matches_duckdb():
    """The fuzzy == DuckDB levenshtein() invariant holds for NON-ASCII
    query input too: DuckDB's levenshtein is byte-level over UTF-8
    (levenshtein('café','cafe') = 2), and the kernel runs the same
    byte DP instead of returning an all-False mask."""
    import duckdb

    from ee_outliers_ray.query.fuzzy import levenshtein_within

    con = duckdb.connect()
    cands = ["cafe", "caff", "cafes", "coffee", "xyz", "café", "hello",
             "héllo", "ue", "u"]
    for q in ("café", "héllo", "ü", "cafe"):
        for d in (0, 1, 2, 3):
            got = levenshtein_within(q, cands, d)
            exp = np.array([
                con.execute("SELECT levenshtein(?, ?)", [q, c])
                .fetchone()[0] <= d for c in cands])
            assert (got == exp).all(), (q, d, list(got), list(exp))


def test_fuzzy_scan_and_index(tmp_path):
    import ray

    from ee_outliers_ray.index.build import build_index
    from ee_outliers_ray.query.parse import Fuzzy
    from ee_outliers_ray.query.reader import IndexReader

    b = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], type=pa.int64()),
        "text": ["spark merge", "shark attack", "sparkle dust", "merge"],
    })
    ast = parse_query_string("spark~1")
    assert isinstance(ast, Fuzzy) and ast.max_dist == 1
    # spark(0), shark(1 sub); sparkle is distance 2 -> out
    assert list(ast.mask(b, CTX)) == [True, True, False, False]
    ast = parse_query_string("spark~")  # bare ~ = 2 (Lucene AUTO cap)
    assert ast.max_dist == 2
    assert list(ast.mask(b, CTX)) == [True, True, True, False]

    src = str(tmp_path / "docs.parquet")
    pa.parquet.write_table(b, src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, from_html=False, num_buckets=4, batch_size=2)
    reader = IndexReader(idx)
    assert reader.terms_fuzzy("spark", 1) == ["shark", "spark"]
    with pytest.raises(ValueError):
        reader.terms_fuzzy("spark", 30, limit=3)
    ds = ray.data.read_parquet(src)
    out = filter_by_query_string(ds, "spark~1 AND -attack", reader=reader,
                                 default_operator="and").to_pandas()
    assert sorted(out["doc_id"]) == [0]


def test_regexp_scan_and_index(tmp_path):
    import ray

    from ee_outliers_ray.index.build import build_index
    from ee_outliers_ray.query.parse import Regexp
    from ee_outliers_ray.query.reader import IndexReader

    b = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], type=pa.int64()),
        "text": ["spark merge", "spook", "slow scan", ""],
        "lang": ["en", "fr", None, "en"],
    })
    ast = parse_query_string("/sp[a-z]+k/")
    assert isinstance(ast, Regexp)
    # FULL-match semantics: 'spark'/'spook' yes, 'scan' no
    assert list(ast.mask(b, CTX)) == [True, True, False, False]
    ast = parse_query_string("lang:/e./")  # whole-field regex
    assert list(ast.mask(b, CTX)) == [True, False, False, True]

    src = str(tmp_path / "docs.parquet")
    pa.parquet.write_table(b, src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, from_html=False, num_buckets=4, batch_size=2)
    reader = IndexReader(idx)
    assert reader.terms_regex("sp[a-z]+k") == ["spark", "spook"]
    with pytest.raises(ValueError):
        reader.terms_regex("[a-z]+", limit=2)
    ds = ray.data.read_parquet(src)
    out = filter_by_query_string(ds, "/s(park|can)/ AND -lang:fr",
                                 reader=reader,
                                 default_operator="and").to_pandas()
    assert sorted(out["doc_id"]) == [0, 2]


def test_occurrence_flags_es_semantics():
    """ES query_string filter-context occurrence rules: '+' = required,
    '-' = prohibited (even under default OR), bare = should; shoulds
    only gate matching when no required clause exists; an explicit AND
    requires BOTH neighbors (classic Lucene promotion)."""
    cases = [
        ("spark -merge", "or", [False, False, True, False]),
        ("+spark merge", "or", [True, False, True, False]),
        ("spark merge", "or", [True, True, True, False]),
        ("spark AND merge fast", "or", [True, False, False, False]),
        ("-spark", "or", [False, True, False, True]),
        ("+lang:en +spark", "or", [True, False, False, False]),
        ("spark -merge", "and", [False, False, True, False]),
    ]
    for q, op, exp in cases:
        got = list(parse_query_string(q, op).mask(_batch(), CTX))
        assert got == exp, (q, op, got, exp)


def test_sloppy_phrase_scan_and_positions(tmp_path):
    """Sloppy phrase "a b"~N: Lucene 2-term metric |p1-p0-1| <= N
    (transposition costs 2), identical via the positional index and the
    tokenized-text scan path."""
    import ray

    from ee_outliers_ray.index.build import build_index
    from ee_outliers_ray.query.parse import Phrase
    from ee_outliers_ray.query.reader import IndexReader

    b = pa.table({
        "doc_id": pa.array(range(6), type=pa.int64()),
        "text": ["spark merge", "spark fast merge", "merge spark",
                 "spark a b merge", "spark", ""],
    })
    expect = {'"spark merge"': [0], '"spark merge"~1': [0, 1],
              '"spark merge"~2': [0, 1, 2, 3]}
    for q, exp in expect.items():
        ast = parse_query_string(q)
        assert isinstance(ast, Phrase)
        got = [int(i) for i in np.flatnonzero(ast.mask(b, CTX))]
        assert got == exp, (q, got, exp)

    src = str(tmp_path / "docs.parquet")
    pa.parquet.write_table(b, src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, from_html=False, num_buckets=4, batch_size=2,
                store_positions=True)
    reader = IndexReader(idx)
    assert reader.has_positions
    ds = ray.data.read_parquet(src)
    for q, exp in expect.items():
        out = filter_by_query_string(ds, q, reader=reader).to_pandas()
        assert sorted(out["doc_id"]) == exp, (q, "positional path")


def test_boost_suffix_stripped():
    """Boosts (term^2) are score-side only; in this filter surface they
    must strip cleanly instead of leaking '^2' into tokenization."""
    assert list(parse_query_string("spark^2").mask(_batch(), CTX)) == \
        [True, False, True, False]
    assert list(parse_query_string('"spark merge"^0.5').mask(_batch(), CTX)) \
        == [True, False, False, False]
    assert list(parse_query_string("lang:en^2").mask(_batch(), CTX)) == \
        [True, False, False, True]


def test_sloppy_phrase_repeated_term_distinct_positions(tmp_path):
    """Lucene's distinct-position rule for repeated terms: "a a"~1 must
    NOT match a document holding a single 'a' (the anchor can't serve
    both occurrences); both the scan and positional-index paths agree."""
    import ray

    from ee_outliers_ray.index.build import build_index
    from ee_outliers_ray.query.reader import IndexReader

    b = pa.table({
        "doc_id": pa.array(range(5), type=pa.int64()),
        "text": ["a", "a a", "a x a", "x a x", "a x x a"],
    })
    expect = {'"a a"~1': [1, 2], '"a a"~2': [1, 2, 4], '"a a"~3': [1, 2, 4],
              '"a a"': [1], '"a x a"~1': [2, 4]}
    for q, exp in expect.items():
        ast = parse_query_string(q)
        got = [int(i) for i in np.flatnonzero(ast.mask(b, CTX))]
        assert got == exp, (q, got, exp)

    src = str(tmp_path / "docs.parquet")
    pa.parquet.write_table(b, src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, from_html=False, num_buckets=4, batch_size=2,
                store_positions=True)
    reader = IndexReader(idx)
    ds = ray.data.read_parquet(src)
    for q, exp in expect.items():
        out = filter_by_query_string(ds, q, reader=reader).to_pandas()
        assert sorted(out["doc_id"]) == exp, (q, "positional path")


def test_fuzzy_kernel_non_ascii_safe():
    """Byte-level (UTF-8) contract == DuckDB levenshtein(): 'café' is 2
    BYTE edits from 'cafe' (é is 2 bytes), matches itself at 0, and
    mixed-width candidates cannot corrupt the byte-matrix reshape."""
    from ee_outliers_ray.query.fuzzy import levenshtein_within

    got = levenshtein_within("café", ["cafe", "café", "caff"], 1)
    assert got.tolist() == [False, True, False]
    got = levenshtein_within("café", ["cafe", "café", "caff"], 2)
    assert got.tolist() == [True, True, True]
    got = levenshtein_within("cafe", ["café", "cafe", "caff", "caféx"], 1)
    assert got.tolist() == [False, True, True, False]

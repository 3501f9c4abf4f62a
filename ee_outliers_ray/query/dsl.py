"""Structured (ES-DSL-style) predicate filters -> per-batch Arrow masks
(SURVEY Q2, reference ``filter_by_dsl_query``
/root/reference/app/helpers/es.py:252-270) and the search-plan composer
(Q3, ``build_search_query`` es.py:664-710).

Supported DSL subset (dict or list of dicts = AND of clauses, mirroring
the reference's list handling):

    {"term":   {field: value}}
    {"terms":  {field: [v1, v2]}}
    {"range":  {field: {"gte"|"gt"|"lte"|"lt": value}}}
    {"exists": {"field": name}}
    {"query_string": {"query": "...", "default_operator": "and"|"or"}}
    {"bool": {"must": [...], "should": [...], "must_not": [...]}}
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .parse import EvalCtx, parse_query_string, preresolve_index_clauses


def _clause_mask(clause: dict, batch: pa.Table, ctx: EvalCtx) -> np.ndarray:
    n = batch.num_rows
    if "bool" in clause:
        b = clause["bool"]
        out = np.ones(n, dtype=bool)
        for c in b.get("must", []):
            out &= _clause_mask(c, batch, ctx)
        should = b.get("should", [])
        if should:
            m = np.zeros(n, dtype=bool)
            for c in should:
                m |= _clause_mask(c, batch, ctx)
            out &= m
        for c in b.get("must_not", []):
            out &= ~_clause_mask(c, batch, ctx)
        return out
    if "term" in clause:
        (field, value), = clause["term"].items()
        col = pc.cast(batch[field], pa.string()) if field in batch.column_names \
            else pa.nulls(n, pa.string())
        return pc.fill_null(pc.equal(col, str(value)), False) \
            .to_numpy(zero_copy_only=False)
    if "terms" in clause:
        (field, values), = clause["terms"].items()
        if field not in batch.column_names:
            return np.zeros(n, dtype=bool)
        col = pc.cast(batch[field], pa.string())
        return pc.fill_null(
            pc.is_in(col, value_set=pa.array([str(v) for v in values])),
            False).to_numpy(zero_copy_only=False)
    if "range" in clause:
        (field, conds), = clause["range"].items()
        if field not in batch.column_names:
            return np.zeros(n, dtype=bool)
        col = batch[field]
        out = np.ones(n, dtype=bool)
        ops = {"gte": pc.greater_equal, "gt": pc.greater,
               "lte": pc.less_equal, "lt": pc.less}
        for op, v in conds.items():
            if pa.types.is_timestamp(col.type) and isinstance(v, str):
                v = np.datetime64(v, "us")
            m = ops[op](col, pa.scalar(v))
            out &= pc.fill_null(m, False).to_numpy(zero_copy_only=False)
        return out
    if "exists" in clause:
        field = clause["exists"]["field"]
        if field not in batch.column_names:
            return np.zeros(n, dtype=bool)
        return pc.is_valid(batch[field]).to_numpy(zero_copy_only=False)
    if "query_string" in clause:
        return clause["query_string"].mask(batch, ctx)
    raise ValueError(f"unsupported DSL clause {list(clause)}")


def _parse_clause(clause: dict, reader) -> dict:
    """``clause`` with each query_string parsed once, on the driver, and
    its index-answerable clauses resolved there when ``reader`` is
    given: map tasks get ASTs of id arrays, never the reader."""
    if "bool" in clause:
        return {"bool": {k: [_parse_clause(c, reader)
                             for c in clause["bool"].get(k, [])]
                         for k in ("must", "should", "must_not")}}
    if "query_string" in clause:
        q = clause["query_string"]
        ast = parse_query_string(q["query"],
                                 q.get("default_operator", "or"))
        return {"query_string": ast if reader is None
                else preresolve_index_clauses(ast, reader)}
    return clause


def filter_by_dsl(ds, dsl: dict | list, *, reader=None,
                  text_col: str = "text", id_col: str = "doc_id"):
    """Q2: apply a structured DSL filter as a streaming map_batches mask.
    A list of clauses is a conjunction (es.py:252-270).  With a
    ``reader`` and ``id_col`` in the dataset, query_string clauses
    resolve through the index as in ``filter_by_query_string``."""
    if reader is not None and id_col not in ds.schema().names:
        reader = None
    clauses = [_parse_clause(c, reader)
               for c in (dsl if isinstance(dsl, list) else [dsl])]
    ctx = EvalCtx(text_col=text_col, id_col=id_col)

    def f(b: pa.Table) -> pa.Table:
        out = np.ones(b.num_rows, dtype=bool)
        for c in clauses:
            out &= _clause_mask(c, b, ctx)
        return b.filter(pa.array(out))

    return ds.map_batches(f, batch_format="pyarrow")


def build_search(ds, *, query_string: str | None = None,
                 dsl: dict | list | None = None,
                 ts_col: str | None = None, ts_range: tuple | None = None,
                 columns: list[str] | None = None,
                 sort_by: str | None = None, descending: bool = False,
                 limit: int | None = None, reader=None,
                 text_col: str = "text", id_col: str = "doc_id",
                 default_operator: str = "or"):
    """Q3 logical plan builder: bool filter + time range + projection +
    sort (+ limit), composed as a lazy Ray Data plan."""
    from .parse import filter_by_query_string

    if ts_range is not None and ts_col is not None:
        lo, hi = ts_range
        ds = filter_by_dsl(ds, {"range": {ts_col: {"gte": lo, "lte": hi}}},
                           reader=reader, text_col=text_col, id_col=id_col)
    if dsl is not None:
        ds = filter_by_dsl(ds, dsl, reader=reader, text_col=text_col,
                           id_col=id_col)
    if query_string is not None:
        ds = filter_by_query_string(ds, query_string, reader=reader,
                                    text_col=text_col, id_col=id_col,
                                    default_operator=default_operator)
    if columns is not None:
        ds = ds.select_columns(columns)
    if sort_by is not None:
        ds = ds.sort(sort_by, descending=descending)
    if limit is not None:
        ds = ds.limit(limit)
    return ds


def add_matched_values(ds, query_string: str, *, text_col: str = "text",
                       default_operator: str = "or"):
    """Q7 highlight: which of the query's terms appear in each row's text
    (the reference re-parses ES highlight tags, simplequery.py:83-93; we
    know the terms from the parse tree, so no regex round-trip)."""
    ast = parse_query_string(query_string, default_operator)
    q_terms = sorted(set(ast.terms()))

    from ..tokenizer import tokenize_column

    def f(b: pa.Table) -> pa.Table:
        toks = tokenize_column(b[text_col])
        offsets = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        flat = toks.flatten()
        nrow = len(offsets) - 1
        # one vectorized membership pass per query term (few terms),
        # per-row any() via reduceat — no per-row Python sets
        present = np.zeros((nrow, len(q_terms)), dtype=bool)
        for ti, term in enumerate(q_terms):
            hit = pc.equal(flat, term).to_numpy(zero_copy_only=False)
            if hit.any():
                s = np.add.reduceat(
                    np.concatenate([hit.astype(np.int32), [0]]),
                    offsets[:-1])[:nrow]
                s[offsets[:-1] == offsets[1:]] = 0
                present[:, ti] = s > 0
        terms_arr = np.array(q_terms, dtype=object)
        matched = [terms_arr[present[i]].tolist() for i in range(nrow)]
        return b.append_column("matched_values",
                               pa.array(matched, type=pa.list_(pa.string())))

    return ds.map_batches(f, batch_format="pyarrow")

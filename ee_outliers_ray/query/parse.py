"""Lucene-style ``query_string`` parser + Ray-Data evaluation.

The reference wraps user query strings as ES ``query_string`` filters
(/root/reference/app/helpers/es.py:238-250; example surface in
/root/reference/use_cases/examples/terms_rarely_seen_outbound_connections.conf:5:
``tags:endpoint AND meta.command.name:"get_outbound_conns" AND
-OsqueryFilter.remote_port.keyword:0``).  This module owns that surface:

grammar   or_expr   := and_expr (OR and_expr)*
          and_expr  := unary ((AND)? unary)*      # bare juxtaposition uses
                                                  # default_operator (OR,
                                                  # Lucene's default)
          unary     := '-' unary | NOT unary | '(' or_expr ')' | clause
          clause    := '_exists_' ':' name | name ':' value
                       | '"' phrase '"' | term

Evaluation is a per-batch boolean mask (``Node.mask``): full-text
clauses scan the batch's tokenized text column, field clauses are
vectorized Arrow comparisons, and the boolean operators combine masks.
With an index, ``preresolve_index_clauses`` first resolves the
full-text clauses on the driver to sorted doc_id arrays (``IdSet``,
membership via searchsorted — a broadcast semi-join, no shuffle).
``filter_by_query_string`` applies the mask as a streaming
``map_batches`` filter.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..tokenizer import tokenize, tokenize_column

_TOKEN_SPLIT = re.compile(
    r"""\s*(\(|\)|AND\b|OR\b|NOT\b|-|\+|"[^"]*"(?:~\d+)?|/[^/]*/|"""
    r"""[^\s():]+:(?:"[^"]*"|[\[{][^\]}]*[\]}]|/[^/]*/|[^\s()]+)|[^\s()]+)""")

_RANGE = re.compile(r"^([\[{])\s*(\S+)\s+TO\s+(\S+)\s*([\]}])$")
_CMP = re.compile(r"^(>=|<=|>|<)(.+)$")


@dataclass
class EvalCtx:
    text_col: str = "text"
    id_col: str = "doc_id"


class Node:
    def mask(self, batch: pa.Table, ctx: EvalCtx) -> np.ndarray:
        raise NotImplementedError

    def terms(self) -> list[str]:
        return []


@dataclass
class Term(Node):
    text: str

    def mask(self, batch, ctx):
        toks = tokenize(self.text)
        col = tokenize_column(batch[ctx.text_col])
        out = np.ones(batch.num_rows, dtype=bool)
        for t in toks:
            # vectorized containment: flatten + per-row hit count
            flat = col.flatten()
            offsets = col.offsets.to_numpy(zero_copy_only=False)
            hit = pc.equal(flat, t).to_numpy(zero_copy_only=False)
            per_row = np.add.reduceat(
                np.concatenate([hit.astype(np.int64), [0]]), offsets[:-1])
            per_row[offsets[:-1] == offsets[1:]] = 0
            out &= per_row[: batch.num_rows] > 0
        return out

    def terms(self):
        return tokenize(self.text)


@dataclass
class Phrase(Node):
    """Exact (``"a b"``) or sloppy (``"a b"~N``) phrase.  Slop semantics:
    term i must occur within N positions of its expected slot (anchor of
    term 0 + i) — for two terms this is exactly Lucene's sloppy-phrase
    metric (``|p1 - p0 - 1| <= N``; a transposition costs 2); for longer
    phrases it is the documented anchor-displacement variant (Lucene's
    n-term repositioning algorithm differs in rare multi-occurrence
    corners)."""
    text: str
    slop: int = 0

    def mask(self, batch, ctx):
        toks = tokenize(self.text)
        if not toks:
            return np.ones(batch.num_rows, dtype=bool)
        cand = Term(" ".join(toks)).mask(batch, ctx)
        if not cand.any():
            return cand
        # verify positions against the batch's own text
        texts = batch[ctx.text_col].to_pylist()
        out = np.zeros(batch.num_rows, dtype=bool)
        for i in np.flatnonzero(cand):
            dt = np.asarray(tokenize(texts[i]), dtype=object)
            out[i] = _slop_match(
                [np.flatnonzero(dt == t) for t in toks], self.slop, toks)
        return out

    def terms(self):
        return tokenize(self.text)


def _slop_match(pos_lists: list[np.ndarray], slop: int,
                toks: list[str] | None = None) -> bool:
    """True when some anchor occurrence of term 0 has every later term i
    within ``slop`` of position anchor + i (sorted position arrays).

    Lucene's distinct-position rule for REPEATED terms is enforced when
    ``toks`` is given: occurrences of the same term must match distinct
    positions ("a a"~1 does not match a document with a single 'a').
    With slop == 0 the windows are disjoint singletons, so distinctness
    is automatic and the vectorized pass is exact."""
    anchors = pos_lists[0].astype(np.int64)
    ok = np.ones(len(anchors), dtype=bool)
    for i, p in enumerate(pos_lists[1:], 1):
        if not len(p):
            return False
        lo = np.searchsorted(p, anchors + i - slop, side="left")
        ok &= (lo < len(p)) & \
            (p[np.minimum(lo, len(p) - 1)] <= anchors + i + slop)
    if not ok.any():
        return False
    if slop == 0 or toks is None or len(set(toks)) == len(toks):
        return True
    # repeated terms + slop: exact injective assignment per surviving
    # anchor (windows per occurrence form a staircase, so greedy
    # smallest-unused-feasible-position is optimal)
    return any(_injective_slop_match(int(a), pos_lists, slop, toks)
               for a in anchors[ok])


def _injective_slop_match(anchor: int, pos_lists: list[np.ndarray],
                          slop: int, toks: list[str]) -> bool:
    """Exact distinct-position check for one anchor: every occurrence i
    of each repeated term needs its own position inside
    [anchor+i-slop, anchor+i+slop] (occurrence 0 is pinned to the
    anchor itself)."""
    groups: dict[str, list[int]] = {}
    for i, t in enumerate(toks):
        groups.setdefault(t, []).append(i)
    for t, occ in groups.items():
        positions = pos_lists[occ[0]]
        used: set[int] = set()
        for i in occ:
            lo_b = anchor if i == 0 else anchor + i - slop
            hi_b = anchor if i == 0 else anchor + i + slop
            j = int(np.searchsorted(positions, lo_b, side="left"))
            while (j < len(positions) and positions[j] <= hi_b
                   and int(positions[j]) in used):
                j += 1
            if j >= len(positions) or positions[j] > hi_b:
                return False
            used.add(int(positions[j]))
    return True


@dataclass
class FieldMatch(Node):
    field: str
    value: str

    def mask(self, batch, ctx):
        if self.field not in batch.column_names:
            return np.zeros(batch.num_rows, dtype=bool)
        col = batch[self.field]
        if pa.types.is_list(col.type) or pa.types.is_large_list(col.type):
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            flat = pc.cast(col.flatten(), pa.string())
            offsets = col.offsets.to_numpy(zero_copy_only=False)
            hit = pc.equal(flat, self.value).to_numpy(zero_copy_only=False)
            per_row = np.add.reduceat(
                np.concatenate([hit.astype(np.int64), [0]]), offsets[:-1])
            per_row[offsets[:-1] == offsets[1:]] = 0
            return per_row[: batch.num_rows] > 0
        s = pc.cast(col, pa.string())
        m = pc.equal(s, self.value)
        return pc.fill_null(m, False).to_numpy(zero_copy_only=False)


def _id_member_mask(ids: np.ndarray, batch, ctx) -> np.ndarray:
    """Membership of batch[ctx.id_col] in the SORTED id array (the
    broadcast semi-join used by all index-resolved clauses)."""
    doc_ids = batch[ctx.id_col].to_numpy(zero_copy_only=False)
    if not len(ids):
        return np.zeros(len(doc_ids), dtype=bool)
    pos = np.minimum(np.searchsorted(ids, doc_ids), len(ids) - 1)
    return ids[pos] == doc_ids


def _union_postings(reader, terms: list[str]) -> np.ndarray:
    """Sorted unique doc_ids appearing in ANY of the expanded terms."""
    arrs = []
    for t in terms:
        dec = reader.postings_decoded(t)
        if dec is not None:
            arrs.append(dec[0])
    return np.unique(np.concatenate(arrs)) if arrs else \
        np.zeros(0, dtype=np.int64)


def _token_hit_mask(col, hit: np.ndarray, num_rows: int) -> np.ndarray:
    """Per-row any(token matched) from a flat per-token hit vector."""
    offsets = col.offsets.to_numpy(zero_copy_only=False)
    per_row = np.add.reduceat(
        np.concatenate([hit.astype(np.int64), [0]]), offsets[:-1])
    per_row[offsets[:-1] == offsets[1:]] = 0
    return per_row[:num_rows] > 0


def like_pattern(pattern: str) -> str:
    """Lucene wildcard -> SQL LIKE (``*``->%, ``?``->_), literal %/_
    escaped."""
    return (pattern.replace("%", r"\%").replace("_", r"\_")
            .replace("*", "%").replace("?", "_"))


def full_match(pattern: str) -> str:
    """A Lucene regexp body as an RE2 pattern that must match the whole
    term (or field value), as ``regexp_full_match`` does."""
    return f"^(?:{pattern})$"


@dataclass
class Wildcard(Node):
    """Full-text wildcard term (``inter*``, ``s?ark``) — ES query_string
    passes these to Lucene's wildcard query (the reference forwards user
    strings verbatim, /root/reference/app/helpers/es.py:238-250).  With
    an index (``preresolve_index_clauses``): term-dictionary expansion
    (sorted, clause-capped) and a union of posting lists.  The mask is
    the scan: vectorized LIKE over the batch's tokenized text column."""
    text: str

    def mask(self, batch, ctx):
        col = tokenize_column(batch[ctx.text_col])
        hit = pc.match_like(col.flatten(), like_pattern(self.text)) \
            .to_numpy(zero_copy_only=False)
        return _token_hit_mask(col, hit, batch.num_rows)


@dataclass
class Fuzzy(Node):
    """Lucene fuzzy term ``term~N`` (bare ``~`` = 2, Lucene's AUTO cap):
    every term within N Levenshtein edits matches.  With an index
    (``preresolve_index_clauses``): dictionary expansion via the
    vectorized DP (query/fuzzy.py) + a posting-list union.  The mask is
    the scan: distances computed once per DISTINCT token in the batch,
    then mapped back by membership."""
    text: str
    max_dist: int = 2

    def mask(self, batch, ctx):
        from .fuzzy import levenshtein_within

        col = tokenize_column(batch[ctx.text_col])
        flat = col.flatten()
        uniq = pc.unique(flat)
        good = uniq.filter(pa.array(levenshtein_within(
            self.text, uniq, self.max_dist)))
        hit = pc.is_in(flat, value_set=good).to_numpy(zero_copy_only=False)
        return _token_hit_mask(col, hit, batch.num_rows)


@dataclass
class Regexp(Node):
    """Lucene regexp term ``/pattern/`` — full-match against each token
    (or, for ``field:/pattern/``, the whole field value).  RE2 dialect on
    both the engine (Arrow) and the oracle (DuckDB regexp_full_match)."""
    pattern: str
    field: str | None = None

    def mask(self, batch, ctx):
        rx = full_match(self.pattern)
        if self.field is not None:
            if self.field not in batch.column_names:
                return np.zeros(batch.num_rows, dtype=bool)
            m = pc.match_substring_regex(
                pc.cast(batch[self.field], pa.string()), rx)
            return pc.fill_null(m, False).to_numpy(zero_copy_only=False)
        col = tokenize_column(batch[ctx.text_col])
        hit = pc.match_substring_regex(col.flatten(), rx) \
            .to_numpy(zero_copy_only=False)
        return _token_hit_mask(col, hit, batch.num_rows)


@dataclass
class FieldWildcard(Node):
    """``field:val*`` — whole-value LIKE on the (stringified) column."""
    field: str
    pattern: str

    def mask(self, batch, ctx):
        if self.field not in batch.column_names:
            return np.zeros(batch.num_rows, dtype=bool)
        col = batch[self.field]
        like = like_pattern(self.pattern)
        if pa.types.is_list(col.type) or pa.types.is_large_list(col.type):
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            flat = pc.cast(col.flatten(), pa.string())
            offsets = col.offsets.to_numpy(zero_copy_only=False)
            hit = pc.match_like(flat, like).to_numpy(zero_copy_only=False)
            per_row = np.add.reduceat(
                np.concatenate([hit.astype(np.int64), [0]]), offsets[:-1])
            per_row[offsets[:-1] == offsets[1:]] = 0
            return per_row[: batch.num_rows] > 0
        m = pc.match_like(pc.cast(col, pa.string()), like)
        return pc.fill_null(m, False).to_numpy(zero_copy_only=False)


@dataclass
class FieldRange(Node):
    """``field:[a TO b]`` / ``{a TO b}`` / ``field:>=v`` — bounds cast to
    the column's own type (numeric, timestamp, or string compare), ``*``
    endpoint = unbounded.  Lucene range semantics: [] inclusive, {}
    exclusive."""
    field: str
    lo: str | None
    hi: str | None
    lo_inc: bool = True
    hi_inc: bool = True

    def _bound(self, col_type, s: str):
        return pc.cast(pa.array([s]), col_type)[0]

    def mask(self, batch, ctx):
        if self.field not in batch.column_names:
            return np.zeros(batch.num_rows, dtype=bool)
        col = batch[self.field]
        m = None
        if self.lo is not None:
            op = pc.greater_equal if self.lo_inc else pc.greater
            m = op(col, self._bound(col.type, self.lo))
        if self.hi is not None:
            op = pc.less_equal if self.hi_inc else pc.less
            hi = op(col, self._bound(col.type, self.hi))
            m = hi if m is None else pc.and_(m, hi)
        if m is None:
            m = pc.is_valid(col)
        return pc.fill_null(m, False).to_numpy(zero_copy_only=False)


@dataclass
class Exists(Node):
    field: str

    def mask(self, batch, ctx):
        if self.field not in batch.column_names:
            return np.zeros(batch.num_rows, dtype=bool)
        return pc.is_valid(batch[self.field]).to_numpy(zero_copy_only=False)


@dataclass
class Not(Node):
    child: Node

    def mask(self, batch, ctx):
        return ~self.child.mask(batch, ctx)

    def terms(self):
        return []


@dataclass
class And(Node):
    children: list

    def mask(self, batch, ctx):
        out = None
        for c in self.children:
            m = c.mask(batch, ctx)
            out = m if out is None else out & m
        if out is None:  # empty conjunction (e.g. empty query) matches all
            out = np.ones(batch.num_rows, dtype=bool)
        return out

    def terms(self):
        return [t for c in self.children for t in c.terms()]


@dataclass
class Or(Node):
    children: list

    def mask(self, batch, ctx):
        out = None
        for c in self.children:
            m = c.mask(batch, ctx)
            out = m if out is None else out | m
        if out is None:
            out = np.zeros(batch.num_rows, dtype=bool)
        return out

    def terms(self):
        return [t for c in self.children for t in c.terms()]


def _phrase_docs_from_positions(reader, toks: list[str],
                                slop: int = 0) -> np.ndarray:
    """Sorted doc_ids matching the phrase (within ``slop``), computed
    from the positional index: intersect per-term doc sets, then run the
    anchor-window check (``_slop_match``) over each candidate's position
    lists."""
    per_term = []
    for t in toks:
        p = reader.positions(t)
        if p is None:
            return np.zeros(0, dtype=np.int64)
        doc_ids, tfs, flat = p
        starts = np.zeros(len(doc_ids) + 1, dtype=np.int64)
        np.cumsum(tfs, out=starts[1:])
        per_term.append((doc_ids, starts, flat))
    cand = per_term[0][0]
    for d, _, _ in per_term[1:]:
        cand = np.intersect1d(cand, d)
    out = []
    for doc in cand:
        pos_lists = []
        for d, starts, flat in per_term:
            j = int(np.searchsorted(d, doc))
            pos_lists.append(flat[starts[j]:starts[j + 1]].astype(np.int64))
        if _slop_match(pos_lists, slop, toks):
            out.append(int(doc))
    return np.asarray(out, dtype=np.int64)


def _lex(q: str) -> list[str]:
    return [m.group(1) for m in _TOKEN_SPLIT.finditer(q)]


class _Parser:
    def __init__(self, tokens: list[str], default_operator: str):
        self.toks = tokens
        self.i = 0
        self.default_op = default_operator

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self):
        t = self.peek()
        self.i += 1
        return t

    def parse_or(self) -> Node:
        children = [self.parse_and()]
        while self.peek() == "OR":
            self.next()
            children.append(self.parse_and())
        return children[0] if len(children) == 1 else Or(children)

    def parse_and(self) -> Node:
        """One boolean group (between OR connectors): occurrence flags
        follow ES query_string filter-context semantics — ``+`` / an
        explicit AND neighbor / default_operator=and make a clause
        REQUIRED, ``-``/NOT make it PROHIBITED, bare clauses under
        default OR are SHOULD.  A document matches when every required
        clause matches, no prohibited clause matches, and (only when no
        required clause exists) at least one should clause matches."""
        items = [self._grab()]
        while True:
            t = self.peek()
            if t == "AND":
                self.next()
                # classic Lucene: AND binds BOTH neighbors to required
                n, f = items[-1]
                if f == "should":
                    items[-1] = (n, "must")
                items.append(self._grab(force_must=True))
            elif t is not None and t not in (")", "OR"):
                items.append(self._grab())
            else:
                break
        if len(items) == 1:
            return items[0][0]
        musts = [n for n, f in items if f == "must"]
        nots = [n for n, f in items if f == "must_not"]
        shoulds = [n for n, f in items if f == "should"]
        children = musts + nots
        if shoulds and not musts:
            children.append(shoulds[0] if len(shoulds) == 1
                            else Or(shoulds))
        return children[0] if len(children) == 1 else And(children)

    def _grab(self, force_must: bool = False) -> tuple[Node, str]:
        must = force_must or self.default_op == "and"
        if self.peek() == "+":
            self.next()
            must = True
        node = self.parse_unary()
        if isinstance(node, Not):
            return node, "must_not"
        return node, "must" if must else "should"

    def parse_unary(self) -> Node:
        t = self.peek()
        if t in ("-", "NOT"):
            self.next()
            return Not(self.parse_unary())
        if t == "(":
            self.next()
            node = self.parse_or()
            if self.peek() == ")":
                self.next()
            return node
        return self.parse_clause()

    def parse_clause(self) -> Node:
        t = self.next()
        if t is None:
            return And([])
        # Lucene boost suffix (term^2, "phrase"^0.5): purely score-side,
        # and this surface is ES FILTER context (es.py:238-250) where
        # boosts don't affect matching — strip it rather than letting
        # '^2' leak into tokenization as a bogus extra term
        b = re.match(r"^(.+)\^\d+(?:\.\d+)?$", t)
        if b:
            t = b.group(1)
        if t.startswith('"'):
            m = re.match(r'^"([^"]*)"(?:~(\d+))?$', t)
            if m:
                return Phrase(m.group(1),
                              slop=int(m.group(2)) if m.group(2) else 0)
        if len(t) >= 2 and t.startswith("/") and t.endswith("/"):
            return Regexp(t[1:-1])
        if ":" in t:
            field, _, value = t.partition(":")
            if len(value) >= 2 and value.startswith("/") \
                    and value.endswith("/"):
                return Regexp(value[1:-1], field=field)
            r = _RANGE.match(value)
            if r:
                lo, hi = r.group(2), r.group(3)
                return FieldRange(field,
                                  None if lo == "*" else lo,
                                  None if hi == "*" else hi,
                                  lo_inc=r.group(1) == "[",
                                  hi_inc=r.group(4) == "]")
            c = _CMP.match(value)
            if c:
                op, v = c.group(1), c.group(2)
                if op.startswith(">"):
                    return FieldRange(field, v, None, lo_inc=op == ">=")
                return FieldRange(field, None, v, hi_inc=op == "<=")
            if value.startswith('"') and value.endswith('"'):
                value = value[1:-1]
            if field == "_exists_":
                return Exists(value)
            if "*" in value or "?" in value:
                return FieldWildcard(field, value)
            return FieldMatch(field, value)
        if "*" in t or "?" in t:
            return Wildcard(t)
        f = re.match(r"^([^~]+)~(\d*)$", t)
        if f:
            return Fuzzy(f.group(1),
                         int(f.group(2)) if f.group(2) else 2)
        return Term(t)


def parse_query_string(q: str, default_operator: str = "or") -> Node:
    """Parse a Lucene-style query string into an AST.

    ``default_operator``: how bare juxtaposed clauses combine ("or" is
    Lucene's query_string default).
    """
    toks = _lex(q)
    p = _Parser(toks, default_operator)
    node = p.parse_or()
    # implicit OR at the top level when multiple clauses remain (the
    # parser consumed greedy with default op; leftover only on malformed
    # input like stray ')')
    rest = []
    while p.peek() is not None:
        if p.peek() == ")":
            p.next()
            continue
        rest.append(p.parse_or())
    if rest:
        combine = And if default_operator == "and" else Or
        node = combine([node] + rest)
    return node


@dataclass
class IdSet(Node):
    """A clause pre-resolved (on the driver, once) to a sorted doc_id
    array — the shipped side of the broadcast semi-join."""
    ids: np.ndarray

    def mask(self, batch, ctx):
        return _id_member_mask(self.ids, batch, ctx)


# phrase clauses whose RAREST term is denser than this fraction of the
# corpus (floor _PHRASE_INDEX_MIN_GATE docs) stay on the distributed
# text-verify path instead of driver-side positional resolution
_PHRASE_INDEX_MAX_DF_FRAC = 0.05
_PHRASE_INDEX_MIN_GATE = 50_000


def preresolve_index_clauses(node: Node, reader) -> Node:
    """Resolve every index-answerable clause to an ``IdSet`` ONCE on the
    driver, so the distributed filter ships compact sorted id arrays
    instead of an ``IndexReader`` (whose term-dictionary scans and
    posting fetches would otherwise repeat inside every map task).
    ``Phrase`` pre-resolves only on a positional index; otherwise it
    keeps its per-batch text-adjacency verify."""
    if isinstance(node, Term):
        ids = None
        for t in tokenize(node.text):
            dec = reader.postings_decoded(t)
            d = dec[0] if dec is not None else np.zeros(0, dtype=np.int64)
            ids = d if ids is None else np.intersect1d(ids, d)
        return IdSet(ids if ids is not None else np.zeros(0, dtype=np.int64))
    if isinstance(node, Wildcard):
        return IdSet(_union_postings(reader,
                                     reader.terms_matching(node.text)))
    if isinstance(node, Fuzzy):
        return IdSet(_union_postings(
            reader, reader.terms_fuzzy(node.text, node.max_dist)))
    if isinstance(node, Regexp) and node.field is None:
        return IdSet(_union_postings(reader,
                                     reader.terms_regex(node.pattern)))
    if isinstance(node, Phrase) and reader.has_positions:
        toks = tokenize(node.text)
        # df gate (the search_and pattern): positional resolution runs
        # on the DRIVER and its cost scales with the rarest term's
        # postings+positions, while the per-batch text verify
        # distributes over the cluster.  Measured at 2M docs: a
        # stopword phrase took 60 s driver-side vs 7 s scanned.  Dense
        # phrases therefore keep their Phrase node; meta_df is a cheap
        # metadata-only upper bound.
        rarest = min((reader.meta_df(t) for t in toks), default=0)
        gate = max(_PHRASE_INDEX_MIN_GATE,
                   int(reader.n_docs * _PHRASE_INDEX_MAX_DF_FRAC))
        if rarest <= gate:
            return IdSet(_phrase_docs_from_positions(reader, toks,
                                                     node.slop))
        return node
    if isinstance(node, Not):
        return Not(preresolve_index_clauses(node.child, reader))
    if isinstance(node, (And, Or)):
        kids = [preresolve_index_clauses(c, reader) for c in node.children]
        return type(node)(kids)
    return node


def filter_by_query_string(ds, query: str, *, reader=None,
                           text_col: str = "text", id_col: str = "doc_id",
                           default_operator: str = "or"):
    """Q1 as a pure filter: streaming map_batches mask over the corpus.

    With a ``reader``, index-answerable clauses are resolved driver-side
    to sorted id arrays (``preresolve_index_clauses``) when the dataset
    carries ``id_col`` — the map tasks then evaluate pure vectorized
    membership.  Without ``id_col`` every clause scans the text column.
    Either way the map tasks never ship the reader."""
    ast = parse_query_string(query, default_operator)
    if reader is not None and id_col in ds.schema().names:
        ast = preresolve_index_clauses(ast, reader)
    ctx = EvalCtx(text_col=text_col, id_col=id_col)

    def f(b: pa.Table) -> pa.Table:
        return b.filter(pa.array(ast.mask(b, ctx)))

    return ds.map_batches(f, batch_format="pyarrow")

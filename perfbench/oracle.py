"""BM25 truth computed in DuckDB, sharing no code with the engine.

Text comes from the raw ``html`` column with ``<p>(.*)</p>``, tokens from
``regexp_extract_all(lower(text), '[a-z0-9]+')``, and scores from the
Okapi BM25 formula of ``__ray_entry__._bm25_sql`` (k1 = 1.2,
b = 0.75, idf = ln(1 + (N - df + 0.5) / (df + 0.5))).  Built once per
seed at set-up; every run checks the served results of a seeded sample
of its queries against it.
"""

from __future__ import annotations

import os

import duckdb

K1, B = 1.2, 0.75
# per-score tolerance: the engine and DuckDB sum float64 terms in
# different orders, so scores agree to a few ulps, not bit for bit
SCORE_TOL = 1e-9


class Oracle:
    def __init__(self, pages_dir: str, work_dir: str):
        os.makedirs(work_dir, exist_ok=True)
        self.con = duckdb.connect()
        self.con.execute("SET threads = 1")
        self.con.execute("SET memory_limit = '1GB'")
        self.con.execute(f"SET temp_directory = '{work_dir}'")
        glob = os.path.join(pages_dir, "*.parquet")
        self.con.execute(f"""
            CREATE TABLE docs AS
            SELECT doc_id, regexp_extract(CAST(html AS VARCHAR),
                                          '<p>(.*)</p>', 1) AS text
            FROM read_parquet('{glob}')""")
        self.con.execute("""
            CREATE TABLE tok AS
            SELECT doc_id, unnest(regexp_extract_all(lower(text),
                                                     '[a-z0-9]+')) AS term
            FROM docs""")
        self.con.execute("""
            CREATE TABLE tf AS
            SELECT doc_id, term, count(*)::DOUBLE AS tf
            FROM tok GROUP BY doc_id, term""")
        self.con.execute("""
            CREATE TABLE dl AS
            SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id""")
        self.con.execute("""
            CREATE TABLE df AS
            SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term""")
        self.n_docs, self.total_len = self.con.execute(
            "SELECT (SELECT count(*) FROM docs), (SELECT count(*) FROM tok)"
        ).fetchone()

    def vocabulary(self) -> list[tuple[str, int]]:
        """(term, df) for every corpus term, df descending, term asc."""
        rows = self.con.execute("SELECT term, df::BIGINT FROM df "
                                "ORDER BY df DESC, term").fetchall()
        return [(t, int(d)) for t, d in rows]

    def topk(self, queries: list[str], k: int = 10
             ) -> dict[str, list[tuple[int, float]]]:
        """Top-k (doc_id, score) per query, score desc then doc_id asc,
        extended with every doc tying the kth score within SCORE_TOL."""
        pairs = sorted({(q, t) for q in queries
                        for t in duckdb_tokens(self.con, q)})
        self.con.execute("CREATE OR REPLACE TEMP TABLE q (q VARCHAR, "
                         "term VARCHAR)")
        if pairs:
            self.con.executemany("INSERT INTO q VALUES (?, ?)", pairs)
        avgdl = self.total_len / self.n_docs
        rows = self.con.execute(f"""
            WITH s AS (
              SELECT q.q, tf.doc_id,
                     sum(ln(1 + ({self.n_docs} - df.df + 0.5) / (df.df + 0.5))
                         * tf.tf * ({K1} + 1)
                         / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl
                                             / {avgdl}::DOUBLE))) AS s
              FROM q JOIN tf USING (term) JOIN df USING (term)
                     JOIN dl ON dl.doc_id = tf.doc_id
              GROUP BY q.q, tf.doc_id
            )
            SELECT q, doc_id, s FROM s
            QUALIFY s >= coalesce(nth_value(s, {k}) OVER (
                PARTITION BY q ORDER BY s DESC, doc_id
                ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING),
                -1e300) - {SCORE_TOL}
            ORDER BY q, s DESC, doc_id""").fetchall()
        out: dict[str, list[tuple[int, float]]] = {q: [] for q in queries}
        for q, d, s in rows:
            out[q].append((int(d), float(s)))
        return out

    def close(self) -> None:
        self.con.close()


def duckdb_tokens(con, text: str) -> list[str]:
    return con.execute(
        "SELECT list_distinct(regexp_extract_all(lower(?), '[a-z0-9]+'))",
        [text]).fetchone()[0]


def matches(served: list[tuple[int, float]],
            truth: list[tuple[int, float]], k: int = 10) -> bool:
    """True when ``served`` is a correct top-k for ``truth`` (an oracle
    list extended with the kth-score ties): same length, the same score
    at every rank, and distinct served docs each carrying its true score."""
    if len(served) != min(k, len(truth)) or \
            len({d for d, _ in served}) != len(served):
        return False
    true_score = dict(truth)
    for (d, s), (_, ts) in zip(served, truth):
        if abs(s - ts) > SCORE_TOL * max(1.0, abs(ts)):
            return False
        if d not in true_score or \
                abs(true_score[d] - s) > SCORE_TOL * max(1.0, abs(s)):
            return False
    return True

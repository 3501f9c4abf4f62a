"""ee_outliers_ray — a Ray-Data-native inverted-index build + BM25 query
engine with the query and data-processing capabilities of
NVISOsecurity/ee-outliers (reference at /root/reference, study-only).

Architecture (Ray-Data-first, see SURVEY.md):

- corpus:    deterministic synthetic Common-Crawl-style ``pages`` corpus
             (url, warc_ts, html, text, lang) + stable doc_id ingest.
- extract:   HTML -> text actor-pool ``map_batches`` stage (byte-identical
             per url; the Grok-extractor slot of the reference,
             ``app/helpers/es.py:489-517``).
- tokenizer: the single deterministic analysis chain shared by index build
             and query side (reference ``app/helpers/utils.py:522-534``).
- index:     SPIMI posting construction in ``map_batches`` tasks, then
             one merge task per term bucket (x doc-range part) into
             delta-encoded bit-packed block-max posting segments with
             per-partition manifests (resumable).
- query:     exact TAAT BM25 oracle + block-max pruning top-k engine;
             query-string parsing (reference ``app/helpers/es.py:238-270``).
- models:    terms / metrics / simplequery / sudden_appearance analyzer
             pipelines re-expressed as Ray Data plans (reference
             ``app/analyzers/*.py``), incl. decision frontiers and the
             whitelist fixpoint.
- dedup / similarity / textstats: large-scale training-data
             pipeline operators (exact + MinHash-LSH + SimHash dedup,
             brute-force & LSH cosine ANN, language-id / quality /
             token-count / fingerprint).

No module in this package calls ``ray.init``/``ray.shutdown`` — sessions
are owned by the driver, ``bench.py`` and the pytest fixture only.
"""

__version__ = "0.1.0"

BM25_K1 = 1.2
BM25_B = 0.75

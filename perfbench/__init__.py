"""Benchmark of the index build and BM25 serving layers (see run.py)."""

"""Span tracing installed from outside the engine.

A traced run wraps the public calls of each layer at the name its caller
looks up, in the benchmark's own process and in every Ray worker (through the
job's ``worker_process_setup_hook``).  Each wrapped call records a span
``(id, parent, name, start, end, n)``; ``n`` is the count the layer did
(postings decoded, candidates ranked, a cache miss, ...).  Spans stay in
memory and are appended to ``<trace dir>/spans-<pid>.jsonl`` whenever a
process's outermost span ends, so nothing is lost when an actor is
killed.

Tracing is live only while the sentinel file ``<trace dir>/ON`` exists,
checked once per outermost call: the benchmark toggles it to compare a
traced and an untraced phase inside one run.  Untraced benchmark runs
install nothing at all.

Times come from ``time.perf_counter`` (CLOCK_MONOTONIC on Linux), which
is one clock across the processes of a machine, so a client interval in
the benchmark process and an actor span can be compared directly.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


class _State(threading.local):
    def __init__(self) -> None:
        self.stack: list[int] = []
        self.done: list[list] = []


_STATE = _State()
_IDS = itertools.count(1)
_DIR: str | None = None


def _live() -> bool:
    return _DIR is not None and os.path.exists(os.path.join(_DIR, "ON"))


def _flush() -> None:
    if not _STATE.done:
        return
    with open(os.path.join(_DIR, f"spans-{os.getpid()}.jsonl"), "a") as f:
        f.write(json.dumps(_STATE.done) + "\n")
    _STATE.done = []


def traced(name: str, fn, before=None, after=None):
    """Wrap ``fn`` so each call records a span called ``name``.

    ``before(args)`` runs ahead of the call and its value goes to
    ``after(args, result, pre)``, which returns the span's count."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        st = _STATE
        if not st.stack and not _live():
            return fn(*args, **kwargs)
        sid = next(_IDS)
        parent = st.stack[-1] if st.stack else 0
        pre = before(args) if before else None
        st.stack.append(sid)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            st.stack.pop()
        n = after(args, out, pre) if after else 1
        st.done.append([sid, parent, name, t0, t1, n])
        if not st.stack:
            _flush()
        return out

    wrapper.__wrapped_by_perfbench__ = True
    return wrapper


# --- counts taken at the layer boundaries ---------------------------------

def _n_postings(args, out, pre):
    return 0 if out is None else len(out[0])


def _n_weights(args, out, pre):
    return len(out)


def _reader_miss(args):
    return args[1] not in args[0]._cache


def _reader_decoded_hit(args):
    return args[1] in args[0]._decoded


def _flag(args, out, pre):
    return int(pre)


def _n_candidates(args, out, pre):
    return len(args[0])


def _scored_postings(args, out, pre):
    from ee_outliers_ray.tokenizer import tokenize

    searcher = args[0]
    return sum(len(searcher._weights[t][0]) for t in set(tokenize(args[1]))
               if t in searcher._weights)


def _df_cache_size(args):
    return len(args[0]._df_cache)


def _df_round(args, out, pre):
    return int(len(args[0]._df_cache) > pre)


# (module, attribute path, span name, before, after).  Each attribute is
# the one the caller looks up: ``query.engine`` imported ``term_weight``
# and ``topk_from_scores`` at module top, so they are wrapped there;
# ``index.build`` and ``query.reader`` import ``tokenize_html_column``
# and ``decode_run`` at call time, so the defining module is wrapped.
TARGETS = [
    ("ee_outliers_ray.index.build", "spimi_encode_batch",
     "index.build.spimi_encode_batch", None, None),
    ("ee_outliers_ray.tokenizer", "tokenize_html_column",
     "tokenizer.tokenize_html_column", None, None),
    ("ee_outliers_ray.index.codec", "decode_run",
     "index.codec.decode_run", None, _n_postings),
    ("ee_outliers_ray.query.reader", "IndexReader.__init__",
     "query.reader.open", None, None),
    ("ee_outliers_ray.query.reader", "IndexReader.postings",
     "query.reader.postings", _reader_miss, _flag),
    ("ee_outliers_ray.query.reader", "IndexReader.postings_decoded",
     "query.reader.postings_decoded", _reader_decoded_hit, _flag),
    ("ee_outliers_ray.query.engine", "term_weight",
     "query.bm25.term_weight", None, _n_weights),
    ("ee_outliers_ray.query.engine", "topk_from_scores",
     "query.bm25.topk_from_scores", None, _n_candidates),
    ("ee_outliers_ray.query.engine", "TaatSearcher.topk",
     "query.engine.topk", None, _scored_postings),
    ("ee_outliers_ray.query.engine", "TaatSearcher.local_df",
     "query.engine.local_df", None, None),
    ("ee_outliers_ray.query.sharded", "ShardedQueryService.topk",
     "query.sharded.topk", None, None),
    ("ee_outliers_ray.query.sharded", "ShardedQueryService._global_dfs",
     "query.sharded.local_df", _df_cache_size, _df_round),
]


def install(trace_dir: str) -> None:
    """Wrap every target in this process; spans go to ``trace_dir``."""
    global _DIR
    _DIR = trace_dir
    for mod_name, path, name, before, after in TARGETS:
        owner = importlib.import_module(mod_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        fn = getattr(owner, attr)
        if getattr(fn, "__wrapped_by_perfbench__", False):
            continue
        setattr(owner, attr, traced(name, fn, before, after))


def worker_setup() -> None:
    """Ray ``worker_process_setup_hook``: trace this worker process."""
    install(os.environ[TRACE_DIR_ENV])


def set_live(trace_dir: str, on: bool) -> None:
    path = os.path.join(trace_dir, "ON")
    if on:
        open(path, "w").close()
    elif os.path.exists(path):
        os.remove(path)


def load_spans(trace_dir: str) -> list[dict]:
    """Every span written under ``trace_dir``, keyed by (pid, id)."""
    spans = []
    for fname in sorted(os.listdir(trace_dir)):
        if not fname.startswith("spans-"):
            continue
        pid = int(fname[len("spans-"):-len(".jsonl")])
        with open(os.path.join(trace_dir, fname)) as f:
            for line in f:
                for sid, parent, name, t0, t1, n in json.loads(line):
                    spans.append({"pid": pid, "id": sid, "parent": parent,
                                  "name": name, "start": t0, "end": t1,
                                  "n": n})
    return spans


def covered(intervals: list[tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> None:
    """Set ``span["self"]``: its duration minus the part of its interval
    that its child spans cover."""
    children: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"]:
            children.setdefault((s["pid"], s["parent"]), []).append(
                (s["start"], s["end"]))
    for s in spans:
        kids = children.get((s["pid"], s["id"]), [])
        s["self"] = (s["end"] - s["start"]) - covered(kids, s["start"],
                                                      s["end"])

"""Seeded benchmark inputs: the pages corpus and each workload's queries.

The program receives only what is generated here: the corpus written by
``corpus.generate_pages(seed=...)`` and query strings.  Query lists are
drawn from the corpus vocabulary as the oracle counts it (term, df), with
a generator seeded by the workload seed, so the same seed always gives the
same corpus and the same queries.
"""

from __future__ import annotations

import numpy as np

N_DOCS = 48_000
N_FILES = 4
K = 10

# hot pool: stopword pairs, "the <mid term>" and 4-5-term mixes
N_HOT_PAIRS, N_HOT_THE, N_HOT_MIX = 16, 16, 32
# cold list: terms per block (one per df stratum) and how a block's
# terms form queries (1 = single term, 2 = pair); an absent term follows
COLD_STRATA = 12
BLOCK_SHAPE = (1, 2, 1, 2, 1, 1, 2, 1, 1)


def make_corpus(pages_dir: str, seed: int) -> None:
    from ee_outliers_ray.corpus import generate_pages

    generate_pages(pages_dir, total_rows=N_DOCS, num_files=N_FILES, seed=seed)


def rng_for(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, stream))])


def hot_pool(vocab: list[tuple[str, int]], rng: np.random.Generator
             ) -> list[str]:
    """Distinct hot queries: every term is among the corpus's most
    frequent ones, except the one mid-frequency term of "the <term>"."""
    terms = [t for t, _ in vocab]
    top8, top64 = terms[:8], terms[:64]
    mid = terms[len(terms) // 10: len(terms) // 2]
    pool: list[str] = []

    def add(q: str) -> None:
        if q not in pool:
            pool.append(q)

    while len(pool) < N_HOT_PAIRS:
        a, b = rng.choice(len(top8), size=2, replace=False)
        add(f"{top8[a]} {top8[b]}")
    while len(pool) < N_HOT_PAIRS + N_HOT_THE:
        add(f"{terms[0]} {mid[rng.integers(len(mid))]}")
    # a mix takes one term of the top 8, one of ranks 8-23 and two or
    # three of ranks 24-63, so every mix costs about the same
    while len(pool) < N_HOT_PAIRS + N_HOT_THE + N_HOT_MIX:
        picks = [top64[rng.integers(8)], top64[rng.integers(8, 24)]]
        picks += [top64[i] for i in rng.choice(
            np.arange(24, 64), size=int(rng.integers(2, 4)), replace=False)]
        add(" ".join(picks))
    return pool


def hot_stream(pool: list[str], n: int, rng: np.random.Generator
               ) -> list[str]:
    return [pool[i] for i in rng.integers(len(pool), size=n)]


def cold_list(vocab: list[tuple[str, int]], rng: np.random.Generator
              ) -> list[str]:
    """One query per distinct corpus term, in a seeded order: single
    terms, pairs of two fresh terms and absent terms.  No term occurs in
    two queries, so a fresh service reads, decodes and weighs each term
    exactly once.

    The terms are cut into COLD_STRATA equal df-rank strata and the list
    is a run of blocks, each taking one term of every stratum (strata in
    a seeded order, terms seeded within a stratum) and shaping them as
    BLOCK_SHAPE, then one absent term.  Every prefix of the list thus
    holds the same mix of frequent and rare terms whatever the seed, and
    a run that stops part-way measures the same work."""
    terms = [t for t, _ in vocab]
    known = set(terms)
    size = len(terms) // COLD_STRATA
    strata = [[terms[j * size + i] for i in rng.permutation(size)]
              for j in range(COLD_STRATA)]
    out: list[str] = []
    n_absent = 0
    for b in range(size):
        block = [strata[j][b] for j in rng.permutation(COLD_STRATA)]
        for width in BLOCK_SHAPE:
            out.append(" ".join(block[:width]))
            block = block[width:]
        absent = f"zq{n_absent:05d}x"
        n_absent += 1
        if absent not in known:
            out.append(absent)
    out.extend(terms[COLD_STRATA * size:])
    return out

"""The benchmark's own exact answers: plain numpy, no index class.

The oracle scores in float64 over the float32 tables the store holds.
Products of float32 values are exact in float64, so a near-tie resolves the
same way here as in any exact scan that widens before it sums, which is
what makes id-for-id parity a fair demand on ``sharded_process``.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


def exact_top_k(
    queries: np.ndarray, services: np.ndarray, query_ids: Sequence[int], k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(ids, scores)`` of the exact top-``k``: score descending, then id.

    Scored in blocks of 256 queries so the oracle's own score matrix never
    shows in the workload's ``peak_rss_mb``.
    """
    table = np.asarray(services, dtype=np.float64).T
    wanted = np.asarray(query_ids)
    id_blocks, score_blocks = [], []
    for start in range(0, len(wanted), 256):
        block = np.asarray(queries[wanted[start:start + 256]], dtype=np.float64)
        scores = block @ table
        keep = np.argpartition(-scores, k - 1, axis=1)[:, :k]
        kept = np.take_along_axis(scores, keep, axis=1)
        order = np.lexsort((keep, -kept), axis=-1)
        id_blocks.append(np.take_along_axis(keep, order, axis=1))
        score_blocks.append(np.take_along_axis(kept, order, axis=1))
    return np.concatenate(id_blocks), np.concatenate(score_blocks)


def recall_at_k(answers: Sequence[np.ndarray], exact_ids: np.ndarray) -> float:
    """Mean share of each exact top-k list that the answer recovered."""
    k = exact_ids.shape[1]
    hits = [
        np.intersect1d(np.asarray(answer)[:k], exact).size
        for answer, exact in zip(answers, exact_ids)
    ]
    return float(np.mean(hits)) / k


def id_parity(answers: Sequence[np.ndarray], exact_ids: np.ndarray) -> int:
    """How many answers differ from the oracle in any position."""
    return sum(
        not np.array_equal(np.asarray(answer), exact)
        for answer, exact in zip(answers, exact_ids)
    )


def score_error(
    queries: np.ndarray,
    services: np.ndarray,
    query_ids: Sequence[int],
    answers: Sequence[Tuple[np.ndarray, np.ndarray]],
) -> float:
    """Largest gap between a returned score and these tables' score.

    An answer computed from another version's query or service table (a
    stale or mixed-version read) is off by the refresh step, orders of
    magnitude above rounding.
    """
    worst = 0.0
    for query_id, (ids, scores) in zip(query_ids, answers):
        expected = services[np.asarray(ids)].astype(np.float64) @ queries[
            query_id
        ].astype(np.float64)
        worst = max(worst, float(np.max(np.abs(expected - np.asarray(scores)))))
    return worst


def invalid_answers(id_rows: Sequence[np.ndarray], k: int, num_services: int) -> int:
    """Answers that are not ``k`` unique in-range service ids."""
    full = [row for row in id_rows if len(row) == k]
    short = len(id_rows) - len(full)
    if not full:
        return short
    ordered = np.sort(np.stack(full), axis=1)
    bad = (ordered[:, 0] < 0) | (ordered[:, -1] >= num_services)
    bad |= (np.diff(ordered, axis=1) == 0).any(axis=1)
    return int(short + bad.sum())

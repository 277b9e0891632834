"""Seeded inputs of the benchmark: tables, request ids, arrival times.

Everything the program under test sees is generated here from ``--seed``;
nothing is imported from ``benchmarks/serving_load.py`` or
``repro.serving.gateway.workload``, which live outside the benchmark's
``paths`` and may be edited by the changes this benchmark judges.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Derived-stream tags, mixed with ``--seed`` so the tables, the request
#: ids and the arrival process are independent but reproducible.
_STREAMS = {
    "tables": 11,
    "ids": 23,
    "hot": 29,
    "arrivals": 37,
    "probe": 41,
    "publish": 53,
}


_CENTRES = 7


def stream(seed: int, name: str, index: int = 0) -> np.random.Generator:
    """The seeded generator of one named input stream."""
    return np.random.default_rng([int(seed), _STREAMS[name], int(index)])


def clustered_tables(
    num_queries: int,
    num_services: int,
    dim: int,
    seed: int,
    num_clusters: int = 16,
    spread: float = 0.25,
) -> Tuple[np.ndarray, np.ndarray]:
    """float32 query/service tables drawn around shared unit-norm centres.

    Intra-cluster inner products dominate inter-cluster ones, the regime in
    which a coarse quantizer (IVF / IVF-PQ) recovers exact top-K lists.
    """
    # The category structure is a constant of the benchmark; the seed draws
    # the members.  Recall then varies across seeds by sampling noise only,
    # not by how hard one seed's geometry happens to be.
    centres = np.random.default_rng([_CENTRES, num_clusters, dim]).normal(
        size=(num_clusters, dim))
    centres /= np.linalg.norm(centres, axis=1, keepdims=True)
    rng = stream(seed, "tables")
    queries = centres[rng.integers(num_clusters, size=num_queries)]
    queries = queries + spread * rng.normal(size=queries.shape)
    services = centres[rng.integers(num_clusters, size=num_services)]
    services = services + spread * rng.normal(size=services.shape)
    return queries.astype(np.float32), services.astype(np.float32)


def perturbed_tables(
    queries: np.ndarray, services: np.ndarray, seed: int, index: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``index``-th refresh of the base tables: both tables move.

    The step is large enough that every score changes far beyond float32
    rounding (so the version check can tell which tables answered) and
    small enough that the cluster structure, and with it recall, survives.
    """
    rng = stream(seed, "publish", index)
    step = np.float32(0.05)
    new_queries = queries + step * rng.normal(size=queries.shape).astype(np.float32)
    new_services = services + step * rng.normal(size=services.shape).astype(np.float32)
    return new_queries, new_services


def uniform_ids(num_queries: int, count: int, seed: int, index: int) -> np.ndarray:
    """The tail: every query id equally likely, so nothing repeats enough
    for a result cache to help."""
    return stream(seed, "ids", index).integers(num_queries, size=count)


def zipf_ids(
    num_queries: int, count: int, seed: int, index: int, exponent: float = 1.1
) -> np.ndarray:
    """The head: rank ``r`` drawn with probability ~ ``r ** -exponent``.

    Ranks are shuffled onto ids by a permutation that depends on the seed
    only, so the hot set is the same in every segment of one run.
    """
    weights = np.arange(1, num_queries + 1, dtype=np.float64) ** -exponent
    weights /= weights.sum()
    ranks = stream(seed, "ids", index).choice(num_queries, size=count, p=weights)
    return stream(seed, "hot").permutation(num_queries)[ranks]


def poisson_offsets(count: int, rate: float, seed: int, index: int) -> np.ndarray:
    """Due times (seconds from the segment start) of a Poisson process."""
    gaps = stream(seed, "arrivals", index).exponential(1.0 / rate, size=count)
    return np.cumsum(gaps)


def probe_ids(num_queries: int, count: int, seed: int) -> np.ndarray:
    """Distinct query ids for the correctness probe."""
    count = min(count, num_queries)
    return stream(seed, "probe").choice(num_queries, size=count, replace=False)

"""Synthetic serving workloads for the gateway bench and tests.

Production search traffic is far from uniform: service embeddings live on a
cluster structure (categories / intention sub-trees) and query popularity is
heavy-tailed.  These helpers produce seeded workloads with both properties:

* :func:`clustered_embeddings` — query and service embeddings drawn around
  shared cluster centres, the regime in which ANN indexes are meaningful;
* :func:`zipf_query_ids` — a Zipf-distributed stream of query ids, the
  load shape used by the throughput bench (hot queries repeat, which also
  exercises the result cache);
* :func:`poisson_gaps` — seeded inter-arrival gaps of a stationary
  Poisson process, for open-loop replay.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def clustered_embeddings(num_queries: int, num_services: int, dim: int,
                         num_clusters: int = 16, spread: float = 0.25,
                         seed: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """Seeded query/service embeddings sharing ``num_clusters`` centres.

    Centres are drawn on the unit sphere scaled to norm 1; members add
    isotropic noise with standard deviation ``spread``, so intra-cluster
    inner products dominate inter-cluster ones and exact top-K lists are
    recoverable by a coarse quantizer.
    """
    if num_clusters <= 0:
        raise ValueError("num_clusters must be positive")
    rng = np.random.default_rng(seed)
    centres = rng.normal(size=(num_clusters, dim))
    centres /= np.linalg.norm(centres, axis=1, keepdims=True) + 1e-12
    query_cells = rng.integers(num_clusters, size=num_queries)
    service_cells = rng.integers(num_clusters, size=num_services)
    queries = centres[query_cells] + spread * rng.normal(size=(num_queries, dim))
    services = centres[service_cells] + spread * rng.normal(size=(num_services, dim))
    return queries, services


def zipf_query_ids(num_queries: int, num_requests: int, exponent: float = 1.1,
                   seed: int = 0) -> np.ndarray:
    """A Zipf-distributed request stream over ``num_queries`` distinct ids.

    Rank ``r`` (1-based) is drawn with probability proportional to
    ``r ** -exponent``; ranks are then shuffled onto query ids so the hot
    set is not simply the lowest ids.
    """
    if num_queries <= 0 or num_requests <= 0:
        raise ValueError("num_queries and num_requests must be positive")
    if exponent <= 0:
        raise ValueError("exponent must be positive")
    rng = np.random.default_rng(seed)
    weights = np.arange(1, num_queries + 1, dtype=np.float64) ** -exponent
    weights /= weights.sum()
    ranks = rng.choice(num_queries, size=num_requests, p=weights)
    permutation = rng.permutation(num_queries)
    return permutation[ranks].astype(np.int64)


def poisson_gaps(num_requests: int, qps: float, seed: int = 0) -> np.ndarray:
    """Seeded inter-arrival gaps of a stationary Poisson process at ``qps``."""
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    if qps <= 0:
        raise ValueError("qps must be positive")
    return np.random.default_rng(seed).exponential(1.0 / qps, size=num_requests)

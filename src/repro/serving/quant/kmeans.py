"""Seeded Lloyd k-means shared by the coarse and product quantizers.

Every quantizer in this package — the IVF coarse partitioner, the PQ
sub-space codebooks and the IVF-PQ residual codebooks — reduces to the same
primitive: cluster a point set into ``k`` cells with a fixed seed so index
builds are reproducible across the daily refresh (Sec. V-F / Fig. 9).  The
assignment step uses the expanded-distance identity

    argmin_c ||x - c||^2  ==  argmax_c  x.c - ||c||^2 / 2

so each iteration is one BLAS matmul instead of a pairwise-distance tensor,
and the update step is one :func:`grouped_mean` over all cells instead of a
python loop of per-cell masks.  Empty cells are re-seeded on a random point,
which keeps all ``k`` centroids live even on degenerate inputs (fewer
distinct points than cells).

Initialisation defaults to **k-means++** (the ROADMAP's "smarter PQ
codebooks" first step): each successive seed is sampled proportionally to
its squared distance from the seeds chosen so far, which spreads the
codebook across the data instead of betting on a lucky uniform draw.  With
the few Lloyd iterations the quantizers run, the init quality carries
straight into ADC recall at the same code budget; ``init="random"`` keeps
the PR-2 behaviour for A/B comparisons.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

RngLike = Union[int, np.random.Generator]

INIT_KINDS = ("kmeans++", "random")


def _kmeanspp_init(points: np.ndarray, num_clusters: int,
                   rng: np.random.Generator) -> np.ndarray:
    """D²-weighted seeding (Arthur & Vassilvitskii), one matvec per seed.

    Maintains the running squared distance to the nearest chosen seed and
    samples the next seed proportionally to it; duplicate-heavy inputs
    (total mass zero) fall back to uniform draws so ``k`` seeds always
    come back.
    """
    num_points = points.shape[0]
    sq_norms = np.sum(points ** 2, axis=1)
    chosen = np.empty(num_clusters, dtype=np.int64)
    chosen[0] = rng.integers(num_points)
    d2 = sq_norms + sq_norms[chosen[0]] - 2.0 * (points @ points[chosen[0]])
    np.maximum(d2, 0.0, out=d2)
    for seed in range(1, num_clusters):
        total = float(d2.sum())
        if total <= 0.0:  # all remaining points coincide with a chosen seed
            chosen[seed] = rng.integers(num_points)
        else:
            chosen[seed] = rng.choice(num_points, p=d2 / total)
        candidate = sq_norms + sq_norms[chosen[seed]] - 2.0 * (points @ points[chosen[seed]])
        np.minimum(d2, np.maximum(candidate, 0.0), out=d2)
    return points[chosen].copy()


def grouped_mean(points: np.ndarray, assignment: np.ndarray,
                 num_groups: int) -> Tuple[np.ndarray, np.ndarray]:
    """Mean row of every group at once: ``(means, counts)``.

    Equal, bit for bit, to ``points[assignment == g].mean(axis=0)`` per
    group: ``np.add.at`` is unbuffered, so each group's rows accumulate in
    index order in the input's float dtype — the arithmetic of the
    per-group loop without its ``num_groups`` full-length masks, and without
    a sorted copy of ``points``.  Empty groups come back as zero rows with
    count 0.
    """
    sums = np.zeros((num_groups, points.shape[1]),
                    dtype=np.result_type(points.dtype, np.float32))
    np.add.at(sums, assignment, points)
    counts = np.bincount(assignment, minlength=num_groups)
    live = counts > 0
    sums[live] /= counts[live, None].astype(sums.dtype)
    return sums, counts


def kmeans(points: np.ndarray, num_clusters: int, iters: int = 8,
           rng: RngLike = 0, init: str = "kmeans++") -> Tuple[np.ndarray, np.ndarray]:
    """Cluster ``points`` into ``num_clusters`` cells.

    Returns ``(centroids, assignment)`` where ``centroids`` has shape
    ``(num_clusters, dim)`` in the input dtype's float flavour and
    ``assignment`` maps each point to its final cell (``int64``).
    ``num_clusters`` is clamped to the number of points.  ``init`` picks the
    seeding strategy: ``"kmeans++"`` (default, D²-weighted) or ``"random"``
    (uniform without replacement, the PR-2 behaviour).
    """
    points = np.asarray(points)
    if points.ndim != 2:
        raise ValueError("points must be a (num_points, dim) matrix")
    if num_clusters <= 0:
        raise ValueError("num_clusters must be positive")
    if iters <= 0:
        raise ValueError("iters must be positive")
    if init not in INIT_KINDS:
        known = ", ".join(INIT_KINDS)
        raise ValueError(f"unknown init {init!r} (known: {known})")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    num_points = points.shape[0]
    num_clusters = min(num_clusters, num_points)
    if init == "kmeans++":
        centroids = _kmeanspp_init(points, num_clusters, rng)
    else:
        centroids = points[rng.choice(num_points, size=num_clusters, replace=False)].copy()
    assignment = np.zeros(num_points, dtype=np.int64)
    for _ in range(iters):
        affinity = points @ centroids.T - 0.5 * np.sum(centroids ** 2, axis=1)
        assignment = np.argmax(affinity, axis=1)
        centroids, counts = grouped_mean(points, assignment, num_clusters)
        for cell in np.flatnonzero(counts == 0):  # re-seed on a random point
            centroids[cell] = points[rng.integers(num_points)]
    return centroids, assignment


def assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid (squared euclidean) assignment, one matmul."""
    affinity = points @ centroids.T - 0.5 * np.sum(centroids ** 2, axis=1)
    return np.argmax(affinity, axis=1)

"""Seeded Lloyd k-means shared by the coarse and product quantizers.

Every quantizer in this package — the IVF coarse partitioner, the PQ
sub-space codebooks and the IVF-PQ residual codebooks — reduces to the same
primitive: cluster a point set into ``k`` cells with a fixed seed so index
builds are reproducible across the daily refresh (Sec. V-F / Fig. 9).  The
assignment step uses the expanded-distance identity

    argmin_c ||x - c||^2  ==  argmax_c  x.c - ||c||^2 / 2

so the assignment step (:func:`assign`) is BLAS matmuls instead of a
pairwise-distance tensor, and the update step is one :func:`grouped_mean`
over all cells instead of a python loop of per-cell masks: a weighted
``np.bincount`` over the flat ``(cell, column)`` index for float64 input,
which sums each bucket in row order exactly as the loop does.  The affinity is
formed ``ASSIGN_BLOCK_ROWS`` rows at a time and argmaxed block by block, so
the step's temporary is one cache-sized block rather than an ``(n, k)``
matrix.  The block is a multiple of 96 rows because blocks of that size
reproduce the one-shot product bit for bit (measured, see the constant), so
the blocked step makes exactly the whole-matrix step's decisions and a
rebuild yields the same index byte for byte.  Empty cells are re-seeded on a random point, which keeps
all ``k`` centroids live even on degenerate inputs (fewer distinct points
than cells).

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

#: Rows per affinity block in :func:`assign`.  Measured with OpenBLAS 0.3.31
#: (Haswell kernel) on a 2-vCPU Xeon, with one and with two BLAS threads:
#: blocks of 960, 1920, 3072, 4032 or 4800 rows reproduce the one-shot
#: product bit for bit on every benchmark shape (24,000 x 64 x 465,
#: 24,000 x 8 x 256, 12,000 x 48 x 110, 24,000 x 48 x 155; float32 and
#: float64), while 4096- and 8192-row blocks leave 20-81 of those rows off.
#: A 960 x 465 float64 block is 3.4 MiB against 85 MiB for the whole matrix.
ASSIGN_BLOCK_ROWS = 960


def _kmeanspp_init(points: np.ndarray, num_clusters: int,
                   rng: np.random.Generator) -> np.ndarray:
    """D²-weighted seeding (Arthur & Vassilvitskii), one matvec per seed.

    Maintains the running squared distance to the nearest chosen seed and
    samples the next seed proportionally to it; duplicate-heavy inputs
    (total mass zero) fall back to uniform draws so ``k`` seeds always
    come back.  A draw is ``rng.choice(num_points, p=d2 / total)`` without
    that call's validation of ``p``: the same float64 cumulative sum, one
    ``rng.random()`` and a right-sided search, so the seeds and the
    generator state match it exactly.
    """
    num_points = points.shape[0]
    sq_norms = np.sum(points ** 2, axis=1)
    chosen = np.empty(num_clusters, dtype=np.int64)
    chosen[0] = rng.integers(num_points)
    d2 = sq_norms + sq_norms[chosen[0]] - 2.0 * (points @ points[chosen[0]])
    np.maximum(d2, 0.0, out=d2)
    dots = np.empty_like(d2)
    candidate = np.empty_like(d2)
    for seed in range(1, num_clusters):
        total = float(d2.sum())
        if total <= 0.0:  # all remaining points coincide with a chosen seed
            chosen[seed] = rng.integers(num_points)
        else:
            cdf = np.cumsum(d2 / total, dtype=np.float64)
            cdf /= cdf[-1]
            chosen[seed] = cdf.searchsorted(rng.random(), side="right")
        # (sq_norms + s_c) - 2 * dot: the arithmetic order of the first d2.
        np.matmul(points, points[chosen[seed]], out=dots)
        dots *= 2.0
        np.add(sq_norms, sq_norms[chosen[seed]], out=candidate)
        candidate -= dots
        np.maximum(candidate, 0.0, out=candidate)
        np.minimum(d2, candidate, out=d2)
    return points[chosen].copy()


def grouped_mean(points: np.ndarray, assignment: np.ndarray,
                 num_groups: int) -> Tuple[np.ndarray, np.ndarray]:
    """Mean row of every group at once: ``(means, counts)``.

    Equal, bit for bit, to ``points[assignment == g].mean(axis=0)`` per
    group: each group's rows accumulate in index order, from 0.0, in the
    input's float dtype — the arithmetic of the per-group loop without its
    ``num_groups`` full-length masks.  Float64 sums are one weighted
    ``np.bincount`` over the flat index ``assignment * dim + column`` (an
    ``(n, dim)`` int64 temporary); ``bincount`` accumulates in float64, so
    float32 sums stay on the unbuffered ``np.add.at``.  Empty groups come
    back as zero rows with count 0.
    """
    dim = points.shape[1]
    dtype = np.result_type(points.dtype, np.float32)
    if dtype == np.float64:
        flat = assignment[:, None] * dim + np.arange(dim)
        sums = np.bincount(flat.ravel(), weights=points.ravel(),
                           minlength=num_groups * dim).reshape(num_groups, dim)
    else:
        sums = np.zeros((num_groups, dim), dtype=dtype)
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
        assignment = assign(points, centroids)
        centroids, counts = grouped_mean(points, assignment, num_clusters)
        for cell in np.flatnonzero(counts == 0):  # re-seed on a random point
            centroids[cell] = points[rng.integers(num_points)]
    return centroids, assignment


def assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid (squared euclidean) assignment, one row block at a time.

    Each block's affinity is ``block @ centroids.T`` minus the centroids'
    half squared norms, argmaxed straight into the output, so the only
    temporary is one ``(ASSIGN_BLOCK_ROWS, k)`` block.
    """
    points = np.asarray(points)
    if not np.issubdtype(np.result_type(points, centroids), np.inexact):
        points = points.astype(np.float64)  # integer affinity can't take -= half
    half_sq_norms = 0.5 * np.sum(centroids ** 2, axis=1)
    num_points = points.shape[0]
    assignment = np.empty(num_points, dtype=np.int64)
    for start in range(0, num_points, ASSIGN_BLOCK_ROWS):
        stop = start + ASSIGN_BLOCK_ROWS
        affinity = points[start:stop] @ centroids.T
        affinity -= half_sq_norms
        np.argmax(affinity, axis=1, out=assignment[start:stop])
    return assignment

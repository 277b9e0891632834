"""Reproduction of GARCIA (ICDE 2023).

GARCIA powers representations of long-tail queries in service search with a
graph encoder, an intention-tree encoder and a multi-granularity contrastive
learning objective.  This package re-implements the full system — including
every substrate the paper depends on (autograd engine, GNN layers, synthetic
long-tail data, service-search graph, serving stack and A/B simulator) —
in pure NumPy-backed Python.

High-level entry points:

* :func:`repro.pipeline.prepare_scenario` — dataset → splits → graph → forest.
* :class:`repro.models.GARCIA` and :func:`repro.models.garcia.model.build_garcia`.
* :func:`repro.training.finetuner.train_garcia` — pre-train then fine-tune.
* :class:`repro.eval.Evaluator` — head / tail / overall AUC, GAUC, NDCG@K.
* :mod:`repro.experiments` — one driver per table / figure of the paper.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]

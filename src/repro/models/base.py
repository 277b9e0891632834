"""Shared model infrastructure.

Every ranking model in the reproduction (GARCIA and the baselines) follows
the same contract:

* it is built from a :class:`~repro.graph.ServiceSearchGraph` so the number
  of queries/services and their attributes are known up front;
* :meth:`RankingModel.training_loss` returns the loss tensor of one
  mini-batch (used by the generic trainer);
* :meth:`RankingModel.predict` returns click probabilities for aligned
  (query, service) id arrays without recording gradients, and
  :meth:`RankingModel.rank` ranks the whole catalogue by them;
* :meth:`RankingModel.query_embeddings` / :meth:`RankingModel.service_embeddings`
  expose final representations for the inner-product serving stack.

:class:`NodeFeatureEncoder` provides the attribute-aware initial node
representations ``Z^(0)`` shared by all graph models (the paper extends the
baselines with the same node/edge attributes for a fair comparison).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.data.schema import CORRELATION_ATTRIBUTES
from repro.graph.search_graph import ServiceSearchGraph
from repro.nn import Embedding, Linear, Module


class NodeFeatureEncoder(Module):
    """Initial node representations from id and correlation-attribute embeddings.

    ``Z^(0)[v] = id_embedding[v] + Σ_attr attr_embedding[attr_value(v)]`` —
    an additive composition keeps the dimensionality fixed while letting
    attribute signals flow to sparsely-interacted (tail) nodes.
    """

    def __init__(self, graph: ServiceSearchGraph, embedding_dim: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.embedding_dim = embedding_dim
        self.num_nodes = graph.num_nodes
        self.id_embedding = Embedding(graph.num_nodes, embedding_dim, rng=rng)
        # One embedding table per correlation attribute, shared by queries and
        # services so that "same brand" lands in the same region of the space.
        cardinalities = self._attribute_cardinalities(graph)
        self.attribute_names = tuple(sorted(cardinalities))
        for name in self.attribute_names:
            self.register_module(
                f"attr_{name}", Embedding(cardinalities[name], embedding_dim, rng=rng)
            )
        self._attribute_indices = self._stack_attribute_indices(graph)

    @staticmethod
    def _attribute_cardinalities(graph: ServiceSearchGraph) -> Dict[str, int]:
        cardinalities: Dict[str, int] = {}
        for name in CORRELATION_ATTRIBUTES:
            query_values = graph.query_attributes.get(name, np.zeros(0, dtype=np.int64))
            service_values = graph.service_attributes.get(name, np.zeros(0, dtype=np.int64))
            max_value = 0
            if query_values.size:
                max_value = max(max_value, int(query_values.max()))
            if service_values.size:
                max_value = max(max_value, int(service_values.max()))
            cardinalities[name] = max_value + 1
        return cardinalities

    def _stack_attribute_indices(self, graph: ServiceSearchGraph) -> Dict[str, np.ndarray]:
        indices: Dict[str, np.ndarray] = {}
        for name in self.attribute_names:
            query_values = graph.query_attributes.get(name, np.zeros(graph.num_queries, dtype=np.int64))
            service_values = graph.service_attributes.get(name, np.zeros(graph.num_services, dtype=np.int64))
            indices[name] = np.concatenate([query_values, service_values]).astype(np.int64)
        return indices

    def forward(self) -> Tensor:
        """Return the full ``(num_nodes, embedding_dim)`` initial representation."""
        output = self.id_embedding(np.arange(self.num_nodes))
        for name in self.attribute_names:
            table: Embedding = getattr(self, f"attr_{name}")
            output = output + table(self._attribute_indices[name])
        return output


class ScoringHead(Module):
    """Two-layer MLP head predicting the click probability from ``[z_q || z_s]``.

    Mirrors Eq. 12 of the paper.  :meth:`RankingModel.rank` (the offline
    A/B replay and the Fig. 11 case study) ranks with this head; the
    serving gateway replaces it with an inner product over the exported
    embeddings for efficient retrieval (Sec. V-F.1), see
    :func:`repro.serving.gateway.deploy_gateway`.
    """

    def __init__(self, embedding_dim: int, hidden_dim: Optional[int] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        hidden = hidden_dim if hidden_dim is not None else embedding_dim
        self.layer1 = Linear(2 * embedding_dim, hidden, rng=rng)
        self.layer2 = Linear(hidden, 1, rng=rng)

    def forward(self, query_repr: Tensor, service_repr: Tensor) -> Tensor:
        hidden = Tensor.concat([query_repr, service_repr], axis=1)
        hidden = self.layer1(hidden).relu()
        logits = self.layer2(hidden).reshape(-1)
        return logits.sigmoid()


class RankingModel(Module):
    """Base class for every click-prediction model in the reproduction."""

    #: Human-readable name used in benchmark tables.
    name: str = "model"

    def __init__(self, graph: ServiceSearchGraph) -> None:
        super().__init__()
        self.graph = graph
        self._cached_query_embeddings: Optional[np.ndarray] = None
        self._cached_service_embeddings: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # Training interface
    # ------------------------------------------------------------------ #
    def training_loss(self, batch) -> Tensor:
        """Loss of one mini-batch; overridden by each concrete model."""
        raise NotImplementedError

    def invalidate_cache(self) -> None:
        """Drop cached inference embeddings (call after every optimiser step)."""
        self._cached_query_embeddings = None
        self._cached_service_embeddings = None

    # ------------------------------------------------------------------ #
    # Inference interface
    # ------------------------------------------------------------------ #
    def compute_embeddings(self) -> Dict[str, np.ndarray]:
        """Return final query/service embeddings as plain arrays (no grad)."""
        raise NotImplementedError

    def _ensure_cache(self) -> None:
        if self._cached_query_embeddings is None or self._cached_service_embeddings is None:
            with no_grad():
                embeddings = self.compute_embeddings()
            self._cached_query_embeddings = embeddings["query"]
            self._cached_service_embeddings = embeddings["service"]

    def query_embeddings(self) -> np.ndarray:
        """Final query representations, ``(num_queries, d)``."""
        self._ensure_cache()
        return self._cached_query_embeddings

    def service_embeddings(self) -> np.ndarray:
        """Final service representations, ``(num_services, d)``."""
        self._ensure_cache()
        return self._cached_service_embeddings

    def score_pairs(self, query_repr: Tensor, service_repr: Tensor) -> Tensor:
        """Differentiable click probability for aligned representation rows."""
        raise NotImplementedError

    def predict(self, query_ids: Sequence[int], service_ids: Sequence[int]) -> np.ndarray:
        """Click probabilities for aligned (query, service) id arrays."""
        query_ids = np.asarray(query_ids, dtype=np.int64)
        service_ids = np.asarray(service_ids, dtype=np.int64)
        self._ensure_cache()
        with no_grad():
            query_repr = Tensor(self._cached_query_embeddings[query_ids])
            service_repr = Tensor(self._cached_service_embeddings[service_ids])
            return self.score_pairs(query_repr, service_repr).numpy().reshape(-1)

    def rank(self, query_id: int, k: int) -> List[int]:
        """Top-``k`` service ids for one query by :meth:`predict` over the
        whole catalogue, best first.

        This is the click-head ranking the offline tables evaluate; no
        deployment serves it (every gateway ranks by the inner product).
        Fig. 10's notes compare the two scorers' expected CTR.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        services = np.arange(self.graph.num_services, dtype=np.int64)
        scores = self.predict(np.full(len(services), query_id, dtype=np.int64), services)
        k = min(k, len(services))
        top = np.argpartition(-scores, k - 1)[:k]
        return [int(service_id) for service_id in top[np.argsort(-scores[top], kind="stable")]]

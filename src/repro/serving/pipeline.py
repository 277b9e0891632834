"""The hybrid offline–online serving pipeline (Fig. 9).

:func:`deploy_model` packages the offline side — export embeddings from a
trained model into an :class:`~repro.serving.embedding_store.EmbeddingStore`
— and returns a :class:`ServingPipeline`, the online side, which answers
requests through retrieval + ranking and can be handed directly to the
A/B-test simulator (it satisfies the ``rank(query_id, k)`` ranker protocol).

Scoring modes:

* ``"model"`` (default) — every candidate service is scored with the model's
  own click head; exact but O(catalogue) per request.  Affordable at
  reproduction scale and keeps offline/online rankings consistent.
* ``"inner_product"`` — the paper's deployment choice (Sec. V-F.1): the MLP
  head is replaced by an inner product over exported embeddings so retrieval
  reduces to a maximum-inner-product search.

Approximate and quantized search (IVF, int8, IVF-PQ), the full serving stack
(micro-batching, caching, hot-swap, telemetry) and the sharded scatter/gather
deployment all live behind :func:`repro.serving.gateway.deploy_gateway`
(``index=...``, ``num_shards > 1``).

For *concurrent* serving use the gateway tier directly: every gateway
returned by :func:`repro.serving.gateway.deploy_gateway` is asyncio-native —
``await gateway.search_async(query_id)`` holds thousands of in-flight
requests as futures on one event loop at the same micro-batch deadlines,
with bounded-queue admission control, per-request deadline shedding and
cooperative cancellation; the gateway's synchronous ``rank`` / ``search``
run that same path to completion.  See
``src/repro/serving/README.md`` for the layered architecture and when to
pick each scoring mode.
"""

from __future__ import annotations

from typing import List, Optional

from repro.data.schema import ServiceSearchDataset
from repro.serving.embedding_store import EmbeddingStore
from repro.serving.ranking import RankedService, RankingModule
from repro.serving.retrieval import InnerProductRetriever, ModelScoringRetriever


class ServingPipeline:
    """Online request path: embedding lookup → retrieval → ranking."""

    def __init__(self, store: EmbeddingStore, dataset: Optional[ServiceSearchDataset] = None,
                 top_k: int = 5, normalize: bool = False, model=None,
                 scoring: str = "inner_product") -> None:
        if scoring not in ("inner_product", "model"):
            raise ValueError(f"unknown scoring mode {scoring!r}")
        if scoring == "model" and model is None:
            raise ValueError("scoring='model' requires the trained model")
        self.store = store
        self.scoring = scoring
        if scoring == "model":
            self.retriever = ModelScoringRetriever(model, store.num_services)
        else:
            self.retriever = InnerProductRetriever(store, normalize=normalize)
        self.ranking = RankingModule(self.retriever, dataset=dataset, top_k=top_k)

    # The A/B simulator's ranker protocol.
    def rank(self, query_id: int, k: Optional[int] = None) -> List[int]:
        """Top-K service ids for one query request."""
        return self.ranking.rank(query_id, k)

    def rank_with_metadata(self, query_id: int, k: Optional[int] = None) -> List[RankedService]:
        """Top-K services with MAU / rating metadata (case studies)."""
        return self.ranking.rank_with_metadata(query_id, k)

    def refresh_from_model(self, model) -> int:
        """Re-export embeddings from a newly trained model (daily refresh)."""
        return self.store.refresh(model.query_embeddings(), model.service_embeddings())


def deploy_model(model, dataset: Optional[ServiceSearchDataset] = None,
                 top_k: int = 5, normalize: bool = False,
                 scoring: str = "model") -> ServingPipeline:
    """Export a trained model's embeddings and wrap them in a serving pipeline."""
    store = EmbeddingStore.from_model(model)
    return ServingPipeline(store, dataset=dataset, top_k=top_k, normalize=normalize,
                           model=model, scoring=scoring)

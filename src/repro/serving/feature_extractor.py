"""Node-feature and relation extractors (the data-processing boxes of Fig. 9).

In production these components mine node attributes and high-quality edges
from raw logs before the graph builder assembles the service-search graph.
Here they wrap the dataset and the :class:`~repro.graph.builder.GraphBuilder`
so the serving package mirrors the paper's deployment diagram one-to-one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.data.schema import CORRELATION_ATTRIBUTES, Interaction, ServiceSearchDataset
from repro.data.splits import HeadTailSplit
from repro.graph.builder import GraphBuildConfig, GraphBuilder
from repro.graph.search_graph import ServiceSearchGraph


class NodeFeatureExtractor:
    """Extract per-node attribute features from the dataset entities."""

    def __init__(self, dataset: ServiceSearchDataset) -> None:
        self.dataset = dataset

    def query_features(self) -> Dict[str, np.ndarray]:
        """Correlation attributes of every query, keyed by attribute name."""
        features = {key: np.zeros(self.dataset.num_queries, dtype=np.int64) for key in CORRELATION_ATTRIBUTES}
        for query in self.dataset.queries:
            for key in CORRELATION_ATTRIBUTES:
                features[key][query.query_id] = query.attributes.get(key, 0)
        return features

    def service_features(self) -> Dict[str, np.ndarray]:
        """Correlation attributes plus quality signals of every service."""
        features = {key: np.zeros(self.dataset.num_services, dtype=np.int64) for key in CORRELATION_ATTRIBUTES}
        features["mau"] = np.zeros(self.dataset.num_services, dtype=np.int64)
        features["rating"] = np.zeros(self.dataset.num_services, dtype=np.int64)
        for service in self.dataset.services:
            for key in CORRELATION_ATTRIBUTES:
                features[key][service.service_id] = service.attributes.get(key, 0)
            features["mau"][service.service_id] = service.mau
            features["rating"][service.service_id] = service.rating
        return features


@dataclass
class ExtractedRelations:
    """Counts of the relations mined by the relation extractor."""

    num_interaction_pairs: int
    num_correlation_pairs: int


class RelationExtractor:
    """Mine interaction and correlation relations and build the graph."""

    def __init__(self, dataset: ServiceSearchDataset, config: GraphBuildConfig = GraphBuildConfig()) -> None:
        self.dataset = dataset
        self.config = config
        self._builder = GraphBuilder(config)

    def build_graph(self, train_interactions: Sequence[Interaction],
                    head_tail: HeadTailSplit) -> ServiceSearchGraph:
        """Assemble the service-search graph from the mined relations."""
        return self._builder.build(self.dataset, train_interactions, head_tail)

    def relation_summary(self, graph: ServiceSearchGraph) -> ExtractedRelations:
        """Summarise how many pairs each condition contributed."""
        interaction_pairs = int((graph.ctr > 0).sum()) // 2
        correlation_pairs = int((graph.correlation > 0).sum()) // 2
        return ExtractedRelations(
            num_interaction_pairs=interaction_pairs,
            num_correlation_pairs=correlation_pairs,
        )

"""Evaluation: ranking metrics, per-slice evaluators, the A/B test's click
accounting and serving-side load-test metrics (ANN recall, QPS, memory footprint)."""

from repro.eval.ab_test import ABTestResult
from repro.eval.evaluator import EvaluationReport, Evaluator, SliceMetrics
from repro.eval.metrics import auc, ctr, gauc, hit_rate_at_k, ndcg_at_k
from repro.eval.reporting import format_float_table, format_table
from repro.eval.serving_metrics import (
    LoadTestSummary,
    compression_report,
    memory_footprint,
    recall_at_k,
    summarize_gateway,
)

__all__ = [
    "auc",
    "gauc",
    "ndcg_at_k",
    "ctr",
    "hit_rate_at_k",
    "SliceMetrics",
    "EvaluationReport",
    "Evaluator",
    "ABTestResult",
    "format_table",
    "format_float_table",
    "LoadTestSummary",
    "compression_report",
    "memory_footprint",
    "recall_at_k",
    "summarize_gateway",
]

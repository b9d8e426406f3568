"""Query-level estimators: each maps a featurized corpus to one total per plan.

SCALING and MART are views of :func:`registry.operator_estimates`; LINEAR
scores each operator type's rows at once; all three read the batch's one
featurization pass.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from . import evalkit, registry as reg
from .evalkit import EstimatorFn, LinearOpModel
from .features import FeatureBatch
from .plan import OperatorType, QueryPlan
from .registry import ModelRegistry, collect_examples


def scaling_estimator(registry: ModelRegistry, resource: str) -> EstimatorFn:
    """Full model-selection estimator (default model + scaled fallbacks): the
    total of :func:`registry.estimate_query`."""

    def estimate(batch: FeatureBatch) -> list[float]:
        return [e.total for e in reg.estimate_batch(registry, batch, resource)]

    return estimate


def mart_estimator(registry: ModelRegistry, resource: str) -> EstimatorFn:
    """Plain tree-ensemble estimator: always the unscaled model, no selection."""

    def estimate(batch: FeatureBatch) -> list[float]:
        values = reg.operator_estimates(registry, batch, resource, plain=True)
        return batch.plan_sums(values.tolist())

    return estimate


def train_linear_estimator(
    train_corpus: Sequence[QueryPlan], resource: str, source: str = "true", seed: int = 0
) -> EstimatorFn:
    """Per-operator OLS models with forward feature selection, summed per query."""
    by_op = collect_examples(train_corpus, resource, source)
    models: dict[OperatorType, LinearOpModel] = {
        op: evalkit.fit_linear_baseline(op, X, y, seed=seed)
        for op, (X, y) in by_op.items()
        if len(y) >= 2
    }

    def estimate(batch: FeatureBatch) -> list[float]:
        values = np.empty(len(batch.nodes))
        for op, X in batch.raw.items():
            model = models.get(op)
            if model is None:
                raise reg.RegistryError(f"no model for operator {op.name}")
            pred = model.predict_rows(X)
            values[batch.at[op]] = np.where(pred > 0.0, pred, 0.0)
        return batch.plan_sums(values.tolist())

    return estimate


def train_opt_estimator(
    train_corpus: Sequence[QueryPlan], resource: str
) -> EstimatorFn:
    """Optimizer cost estimate times a per-operator least-squares adjustment."""
    samples: dict[OperatorType, list[tuple[float, float]]] = {}
    for plan in train_corpus:
        for node, label in zip(plan.root.walk(), plan.labels(resource)):
            samples.setdefault(node.op, []).append((node.est_io_cost, label))
    alphas = evalkit.fit_opt_baseline(samples)

    def estimate(batch: FeatureBatch) -> list[float]:
        values = []
        for node in batch.nodes:
            alpha = alphas.get(node.op)
            if alpha is None:
                raise reg.RegistryError(f"no model for operator {node.op.name}")
            values.append(max(0.0, alpha * node.est_io_cost))
        return batch.plan_sums(values)

    return estimate

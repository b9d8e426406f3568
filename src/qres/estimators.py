"""Query-level estimator functions wrapping the registry and the baselines."""
from __future__ import annotations

from typing import Sequence

from . import evalkit, registry as reg
from .evalkit import EstimatorFn, LinearOpModel
from .features import featurize
from .plan import OperatorType, QueryPlan
from .registry import ModelRegistry, collect_examples


def scaling_estimator(
    registry: ModelRegistry, resource: str, source: str = "true"
) -> EstimatorFn:
    """Full model-selection estimator (default model + scaled fallbacks)."""

    def estimate(plan: QueryPlan) -> float:
        return reg.estimate_query(registry, plan, resource, source).total

    return estimate


def mart_estimator(
    registry: ModelRegistry, resource: str, source: str = "true"
) -> EstimatorFn:
    """Plain tree-ensemble estimator: always the unscaled model, no selection."""

    def estimate(plan: QueryPlan) -> float:
        total = 0.0
        for node, fv in featurize(plan.root, source):
            entry = registry.entry(node.op, resource)
            total += reg.estimate_with_model(entry.models[0], fv)
        return total

    return estimate


def train_linear_estimator(
    train_corpus: Sequence[QueryPlan], resource: str, source: str = "true", seed: int = 0
) -> EstimatorFn:
    """Per-operator OLS models with forward feature selection, summed per query."""
    by_op = collect_examples(train_corpus, resource, source)
    models: dict[OperatorType, LinearOpModel] = {
        op: evalkit.fit_linear_baseline(examples, seed=seed)
        for op, examples in by_op.items()
        if len(examples) >= 2
    }

    def estimate(plan: QueryPlan) -> float:
        total = 0.0
        for node, fv in featurize(plan.root, source):
            model = models.get(node.op)
            if model is None:
                raise reg.RegistryError(f"no model for operator {node.op.name}")
            total += max(0.0, model.predict(fv))
        return total

    return estimate


def train_opt_estimator(
    train_corpus: Sequence[QueryPlan], resource: str
) -> EstimatorFn:
    """Optimizer cost estimate times a per-operator least-squares adjustment."""
    samples: dict[OperatorType, list[tuple[float, float]]] = {}
    for plan in train_corpus:
        for node in plan.root.walk():
            if node.observed is None or resource not in node.observed:
                raise reg.RegistryError(
                    f"plan {plan.query_id}: node lacks observed {resource!r} label"
                )
            samples.setdefault(node.op, []).append(
                (node.est_io_cost, node.observed[resource])
            )
    alphas = evalkit.fit_opt_baseline(samples)

    def estimate(plan: QueryPlan) -> float:
        total = 0.0
        for node in plan.root.walk():
            alpha = alphas.get(node.op)
            if alpha is None:
                raise reg.RegistryError(f"no model for operator {node.op.name}")
            total += max(0.0, alpha * node.est_io_cost)
        return total

    return estimate

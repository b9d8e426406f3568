"""Per-operator model families: training, runtime selection, and serialization.

Each (operator type, resource) entry holds a plain tree-ensemble model plus a
family of combined models (scaling term x per-unit ensemble), none when its
training labels are all 0. At estimation time the model whose training
ranges best cover the incoming feature values is chosen via the out-of-range
ratio heuristic. The whole registry round-trips through a compact binary
format (magic "QRES").
"""
from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from . import gbrt
from .features import (
    FEATURE_SPACE,
    NEVER_SCALE_IO,
    SCALE_CANDIDATES,
    FeatureBatch,
    FeatureError,
    FeatureId,
    FeatureVector,
    applicable_features,
    dependents,
    extract_features,
    featurize_many,
)
from .gbrt import MartModel, TrainConfig, TrainingError
from .plan import (
    JOIN_OPS, OP_NAME, OperatorType, PlanNode, QueryPlan, ordered_sum, pipeline_lists,
    pipeline_preorder,
)
from .scaling import (
    POWER_EXPONENT_GRID,
    SINGLE_FEATURE_CANDIDATES,
    TWO_FEATURE_CANDIDATES,
    TWO_FEATURE_KINDS,
    FormKind,
    ScalingError,
    basis,
    select_form,
)

RESOURCES = ("cpu_us", "logical_io")
_RESOURCE_CODE = {"cpu_us": 0, "logical_io": 1}
_RESOURCE_NAME = {v: k for k, v in _RESOURCE_CODE.items()}

MAGIC = b"QRES"
FORMAT_VERSION = 1

#: Model files store feature ranges, thresholds and leaf values as float32.
_FLOAT32_MAX = float(np.finfo(np.float32).max)


class RegistryError(ValueError):
    """Raised for missing entries, bad payloads, or invalid training input."""


@dataclass(frozen=True)
class ScaleTerm:
    """One scaling-function term of a combined model (alpha fixed at 1).

    The per-unit ensemble supplies the magnitude, so only the functional form
    and its exponent are retained.
    """

    kind: FormKind
    features: tuple[FeatureId, ...]
    beta: float = 1.0

    def unit_value(self, raw: dict[FeatureId, float]) -> float:
        vals = []
        for f in self.features:
            v = raw.get(f)
            if v is None or v <= 0:
                raise FeatureError(
                    f"degenerate scaling feature: {f.name} absent or non-positive"
                )
            vals.append(v)
        return basis(self.kind, vals, self.beta)


@dataclass
class CombinedModel:
    terms: list[ScaleTerm]
    scaled_model: MartModel
    _selection: Optional["_SelectionTable"] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def scale_feature_ids(self) -> list[FeatureId]:
        return [f for t in self.terms for f in t.features]


def model_label(model) -> str:
    """A model's name in reports: ``mart`` for a plain model, else
    ``combined:`` and its scale terms, a Power term with its exponent, e.g.
    ``combined:Power(TSIZE;3)``."""
    if isinstance(model, CombinedModel):
        return "combined:" + "/".join(map(_term_label, model.terms))
    return "mart"


def _term_label(term: ScaleTerm) -> str:
    names = ",".join(f.name for f in term.features)
    if term.kind is FormKind.Power:
        names += ";" + repr(term.beta).removesuffix(".0")
    return f"{term.kind.name}({names})"


@functools.cache
def _divisor_chains(scale_ids: tuple[FeatureId, ...]) -> dict[FeatureId, tuple[FeatureId, ...]]:
    """Normalization by the scale features ``scale_ids``, the one map every
    normalization reads: each feature's divisor chain, the scale features, in
    order, whose dependents include it. A feature is divided by the raw value
    of each in turn; the scale features themselves are dropped."""
    return {f: tuple(s for s in scale_ids if f in dependents(s)) for f in FeatureId}


def transform_for_scaling(
    fv: FeatureVector, terms: Sequence[ScaleTerm]
) -> FeatureVector:
    """Normalize dependents by raw scale-feature values and drop the features.

    Divisors are always the raw (pre-normalization) values, applied in scale
    feature order.
    """
    raw = fv.values
    scale_ids = tuple(f for t in terms for f in t.features)
    for fid in scale_ids:
        v = raw.get(fid)
        if v is None or v <= 0:
            raise FeatureError(f"degenerate scaling feature: {fid.name} absent or non-positive")
    chains = _divisor_chains(scale_ids)
    work = {}
    for f, v in raw.items():
        if f not in scale_ids:
            for s in chains[f]:
                v = v / raw[s]
            work[f] = v
    return FeatureVector(op=fv.op, values=work)


def _scale_factor(terms: Sequence[ScaleTerm], raw: dict[FeatureId, float]) -> float:
    """The product of the terms' unit values: a combined model's scale factor g."""
    g = 1.0
    for term in terms:
        g *= term.unit_value(raw)
    return g


def _scale_factors(terms: Sequence[ScaleTerm], X: np.ndarray) -> list[float]:
    """:func:`_scale_factor` of every row of ``X``, an op's raw rows."""
    ids = [f for t in terms for f in t.features]
    return [_scale_factor(terms, dict(zip(ids, row))) for row in X[:, ids].tolist()]


def _combined_problem(
    op: OperatorType, X: np.ndarray, y: np.ndarray, terms: Sequence[ScaleTerm], seed: int
) -> gbrt.Problem:
    """The per-unit problem of a combined model on op's raw rows ``X``:
    normalized features and targets divided by the scale factor. A scale
    factor, feature or target beyond the float32 range of model files raises
    :class:`TrainingError`."""
    g = np.array(_scale_factors(terms, X))
    X, _, kept = _normalize_rows(X, op, [f for t in terms for f in t.features])
    schema = sorted(kept)
    X = X[:, schema]
    with np.errstate(all="ignore"):
        y = y / g
    if not all((np.abs(a) <= _FLOAT32_MAX).all() for a in (g, X, y)):
        raise TrainingError("per-unit training data beyond the float32 range of model files")
    return gbrt.Problem(schema, X, y, seed)


def estimate_with_model(model, fv: FeatureVector) -> float:
    """Evaluate one model on a raw feature vector; negative output clamps to 0
    and a non-finite one raises :class:`ScalingError`. A combined model's
    scale factor is computed first, so an absent or non-positive scale
    feature raises :class:`FeatureError`."""
    if isinstance(model, CombinedModel):
        g, mart = _scale_factor(model.terms, fv.values), model.scaled_model
    else:
        g, mart = 1.0, model
    value = g * mart.layout().predict(_selection_table(model).normalized(fv.values))
    if not math.isfinite(value):
        raise ScalingError("non-finite estimate")
    return max(0.0, value)


def out_ratio(value: float, low: float, high: float) -> float:
    """Normalized distance of a value outside the training range [low, high].

    Outside the range one of the two distances below and above it is 0.0,
    so only the other is computed; :class:`_SelectionTable` inlines this."""
    if high == low:
        return 0.0 if value == high else math.inf
    if value > high:
        return (value - high) / (high - low)
    if value >= low:
        return 0.0
    return (low - value) / (high - low)


class _SelectionTable:
    """What the selection rule needs of one model, computed on its first
    use and cached on the model (:func:`_selection_table`).

    ``scale_ids`` are the model's scale features; ``schema`` holds, for each
    feature of its ensemble's schema, ``(feature, code, divisor chain, kept)``,
    where a feature is not kept when normalization drops it; ``checks`` holds
    ``(feature, divisor chain, low, high, high - low)`` for each of them but
    OUTPUTUSAGE. Every method takes a raw feature dict.
    """

    __slots__ = ("scale_ids", "schema", "checks", "complete")

    def __init__(self, model):
        mart, scale_ids = _parts(model)
        self.scale_ids = tuple(scale_ids)
        chains = _divisor_chains(self.scale_ids)
        self.schema = tuple((f, int(f), chains[f], f not in scale_ids) for f in mart.schema)
        self.checks = tuple(
            (f, chains[f], low, high, high - low)
            for f in mart.schema if f is not FeatureId.OUTPUTUSAGE
            for low, high in [mart.feature_stats[f]]
        )
        self.complete = all(kept for f, *_, kept in self.schema if f is not FeatureId.OUTPUTUSAGE)

    def out_ratios(self, values: dict) -> list[float]:
        """:func:`model_out_ratios`."""
        if not self.complete:
            return [math.inf]
        for s in self.scale_ids:
            v = values.get(s)
            if v is None or v <= 0:
                return [math.inf]
        ratios = []
        for f, chain, low, high, span in self.checks:
            v = values.get(f)
            if v is None:
                return [math.inf]
            for s in chain:
                v = v / values[s]
            if v > high:
                ratios.append((v - high) / span if span else math.inf)
            elif v >= low:
                ratios.append(0.0)
            else:
                ratios.append((low - v) / span if span else math.inf)
        return ratios or [0.0]

    def normalized(self, values: dict) -> np.ndarray:
        """The code-indexed dense vector of :func:`transform_for_scaling`'s
        output over the schema, as :func:`gbrt.dense_vector` builds it (for a
        plain model, its vector and its error on an absent feature); the
        scale features must be present and positive."""
        x = np.zeros(FEATURE_SPACE, dtype=np.float64)
        for f, code, chain, kept in self.schema:
            v = values.get(f)
            if v is None or not kept:
                raise TrainingError(f"feature {f.name} absent from input vector")
            for s in chain:
                v = v / values[s]
            x[code] = v
        return x


def _selection_table(model) -> _SelectionTable:
    """The model's selection table, built on first use and cached."""
    table = model._selection
    if table is None:
        table = model._selection = _SelectionTable(model)
    return table


def model_out_ratios(model, fv: FeatureVector) -> list[float]:
    """out_ratio of every numeric model feature against its own training stats.

    Combined models are evaluated in their normalized feature space. A vector
    that cannot be normalized (non-positive scale feature) yields [inf].
    """
    return _selection_table(model).out_ratios(fv.values)


@dataclass
class RegistryEntry:
    op: OperatorType
    resource: str
    models: list  # MartModel | CombinedModel; index 0 is always the plain model
    default_idx: int = 0
    #: The default model's RMSE over its training examples; set by training,
    #: not stored in the model file.
    train_rmse: Optional[float] = None


@dataclass
class ModelRegistry:
    entries: dict[tuple[OperatorType, str], RegistryEntry] = field(default_factory=dict)

    def entry(self, op: OperatorType, resource: str) -> RegistryEntry:
        try:
            return self.entries[(op, resource)]
        except KeyError:
            raise RegistryError(
                f"no model for operator {op.name} / resource {resource}"
            ) from None


def _parts(model) -> tuple[MartModel, list[FeatureId]]:
    """A model's ensemble and the features that normalize its input."""
    if isinstance(model, CombinedModel):
        return model.scaled_model, model.scale_feature_ids
    return model, []


def select_model(
    registry: ModelRegistry, op: OperatorType, resource: str, fv: FeatureVector
) -> tuple[object, int]:
    """Pick the model for one operator instance.

    The default model wins whenever every feature value lies inside its
    training ranges. Otherwise each model has a key and the least key wins:
    the largest out_ratio, then the count of scale features, then the other
    out_ratios in descending order, where a list that begins another orders
    first; exact ties go to the lower model index. The one model of an entry
    is returned unchecked.
    """
    entry = registry.entry(op, resource)
    default_idx = entry.default_idx
    default = entry.models[default_idx]
    if len(entry.models) == 1:
        return default, default_idx
    default_ratios = _selection_table(default).out_ratios(fv.values)
    if not any(default_ratios):
        return default, default_idx

    def key(idx: int) -> tuple:
        model = entry.models[idx]
        ratios = default_ratios if idx == default_idx else model_out_ratios(model, fv)
        ratios = sorted(ratios, reverse=True)
        return ratios[0], len(_selection_table(model).scale_ids), ratios[1:]

    idx = min(range(len(entry.models)), key=key)
    return entry.models[idx], idx


@dataclass
class QueryEstimate:
    total: float
    per_pipeline: list[float]
    per_operator: list[tuple[str, float]]  # (operator name, estimate) in pre-order


def estimate_query(
    registry: ModelRegistry, plan: QueryPlan, resource: str, source: str = "true"
) -> QueryEstimate:
    """Operator, pipeline, and query-level estimates; the total is the exact
    sum of the pipeline subtotals."""

    def value_of(node: PlanNode, parent_op: int) -> float:
        fv = extract_features(node, parent_op, source)
        model, _ = select_model(registry, node.op, resource, fv)
        return estimate_with_model(model, fv)

    return _query_estimate(plan.root, value_of)


def _query_estimate(root: PlanNode, value_of) -> QueryEstimate:
    """The estimate of the plan under ``root`` from one
    :func:`pipeline_preorder` walk, each visit's operator valued by
    ``value_of(node, parent_op)``."""
    levels: list[list[list[float]]] = []
    per_operator = []
    for node, parent_op, pipeline, depth in pipeline_preorder(root):
        value = value_of(node, parent_op)
        per_operator.append((OP_NAME[node.op], value))
        if pipeline == len(levels):
            levels.append([])
        rows = levels[pipeline]
        if depth == len(rows):
            rows.append([value])
        else:
            rows[depth].append(value)
    per_pipeline = [ordered_sum(values) for values in pipeline_lists(levels)]
    return QueryEstimate(ordered_sum(per_pipeline), per_pipeline, per_operator)


# ---------------------------------------------------------------------------
# Batch estimation: the rules above, applied to one op's rows at a time.


def estimate_many(
    registry: ModelRegistry, plans: Sequence[QueryPlan], resource: str, source: str = "true"
) -> list[QueryEstimate]:
    """``[estimate_query(registry, p, resource, source) for p in plans]``, bit
    for bit, from one featurization pass."""
    return list(estimate_batch(registry, featurize_many(plans, source), resource))


def estimate_batch(
    registry: ModelRegistry, batch: FeatureBatch, resource: str
) -> Iterator[QueryEstimate]:
    """Each plan's :func:`estimate_query`, in plan order, from a featurized
    batch; a caller that keeps only part of each estimate holds one at a time."""
    values = operator_estimates(registry, batch, resource).tolist()
    b = batch.bounds
    for i, plan in enumerate(batch.plans):
        value = iter(values[b[i] : b[i + 1]]).__next__
        yield _query_estimate(plan.root, lambda node, parent_op: value())


def operator_estimates(
    registry: ModelRegistry, batch: FeatureBatch, resource: str, plain: bool = False
) -> np.ndarray:
    """Every operator's :func:`estimate_with_model` in batch order, by the
    model :func:`select_model` picks, or by the plain model when ``plain``.
    Each picked model scores all of its rows in one kernel call."""
    out = np.empty(len(batch.nodes))
    for op, X in batch.raw.items():
        entry = registry.entry(op, resource)
        if plain:
            pick = np.zeros(len(X), dtype=np.intp)
        else:
            pick = _select_rows(entry, X)
        values = np.empty(len(X))
        for idx in np.unique(pick):
            rows = np.flatnonzero(pick == idx)
            values[rows] = _estimate_rows(entry.models[idx], X[rows], op)
        out[batch.at[op]] = values
    return out


def _normalize_rows(X: np.ndarray, op: OperatorType, scale_ids: Sequence[FeatureId]) -> tuple:
    """:func:`transform_for_scaling` of every row of ``X`` (op's raw rows)
    by the scale features ``scale_ids``, with the same divisions in the same
    order. Returns ``(rows, degenerate, kept)``: the rows that cannot be
    normalized, and the features the normalized rows keep."""
    degenerate = np.zeros(len(X), dtype=bool)
    kept = set(applicable_features(op)).difference(scale_ids)
    if scale_ids:
        raw, X = X, X.copy()
        chains = _divisor_chains(tuple(scale_ids))
        with np.errstate(divide="ignore", invalid="ignore"):
            for fid in scale_ids:
                degenerate |= raw[:, fid] <= 0  # 0 where op lacks the feature
            for f in kept:
                for fid in chains[f]:
                    X[:, f] = X[:, f] / raw[:, fid]
    return X, degenerate, kept


def _out_ratio_rows(X: np.ndarray, op: OperatorType, model) -> tuple:
    """:func:`model_out_ratios` of every row of ``X``: a (rows, features)
    matrix of ratios, and a mask of the rows whose ratios are ``[inf]``."""
    table = _selection_table(model)
    X, degenerate, _ = _normalize_rows(X, op, table.scale_ids)
    columns = []
    for f, _, low, high, span in table.checks:
        v = X[:, f]
        if not span:
            columns.append(np.where(v == high, 0.0, math.inf))
        else:
            excursion = np.maximum(low - v, 0.0) + np.maximum(v - high, 0.0)
            columns.append(excursion / span)
    ratios = np.column_stack(columns or [np.zeros(len(X))])
    return ratios, degenerate | (not table.complete)


def _select_rows(entry: RegistryEntry, X: np.ndarray) -> np.ndarray:
    """:func:`select_model`'s pick for every row of ``X``: the default model
    where its ratios are all 0, else the model of the least key. Keys padded
    to one width with -inf, below every ratio, order as select_model's do (a
    key that begins another first), and a stable sort gives exact ties to the
    lower index. Featurization keeps every row finite, so no ratio is NaN."""
    op, default_idx = entry.op, entry.default_idx
    pick = np.full(len(X), default_idx, dtype=np.intp)
    if len(entry.models) == 1:
        return pick
    ratios, inf_rows = _out_ratio_rows(X, op, entry.models[default_idx])
    out = np.flatnonzero(inf_rows | (ratios != 0.0).any(axis=1))
    if not out.size:
        return pick
    X_out, keys = X[out], []
    for idx, model in enumerate(entry.models):
        if idx == default_idx:
            r, inf = ratios[out], inf_rows[out]
        else:
            r, inf = _out_ratio_rows(X_out, op, model)
        r = np.sort(r, axis=1)[:, ::-1]
        r[inf] = [math.inf] + [-math.inf] * (r.shape[1] - 1)  # the ratios [inf]
        keys.append(np.insert(r, 1, len(_selection_table(model).scale_ids), axis=1))
    stack = np.full((max(k.shape[1] for k in keys), out.size, len(keys)), -math.inf)
    for idx, k in enumerate(keys):
        stack[: k.shape[1], :, idx] = k.T
    # lexsort's last key is its first: reverse the key columns.
    pick[out] = np.lexsort(stack[::-1], axis=-1)[:, 0]
    return pick


def _estimate_rows(model, X: np.ndarray, op: OperatorType) -> np.ndarray:
    """:func:`estimate_with_model` of every row of ``X``; each row's scale
    factor comes from :func:`_scale_factor` itself."""
    mart, scale_ids = _parts(model)
    g = _scale_factors(model.terms, X) if scale_ids else None
    X, _, kept = _normalize_rows(X, op, scale_ids)
    absent = [f for f in mart.schema if f not in kept]
    if absent:
        raise gbrt.TrainingError(f"feature {absent[0].name} absent from input vector")
    value = mart.layout().predict_rows(X)
    if g is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            value = np.array(g) * value
    if not np.isfinite(value).all():
        raise ScalingError("non-finite estimate")
    return np.where(value > 0.0, value, 0.0)


# ---------------------------------------------------------------------------
# Training


def collect_examples(
    plans: Sequence[QueryPlan], resource: str, source: str = "true"
) -> dict[OperatorType, tuple[np.ndarray, np.ndarray]]:
    """Every operator instance, featurized in one pass and grouped by
    operator type: ``{op: (X, y)}``, X the raw rows of
    :attr:`FeatureBatch.raw` and y their labels by :meth:`QueryPlan.labels`."""
    y = np.array([v for plan in plans for v in plan.labels(resource)], dtype=np.float64)
    batch = featurize_many(plans, source)
    return {op: (X, y[batch.at[op]]) for op, X in batch.raw.items()}


def eligible_scale_features(op: OperatorType, resource: str, X: np.ndarray) -> list[FeatureId]:
    """Features usable as scaling candidates: data-size-driven counts that are
    positive everywhere and varying across op's raw rows ``X``."""
    out = []
    for f in applicable_features(op):
        if f not in SCALE_CANDIDATES:
            continue
        if resource == "logical_io" and f in NEVER_SCALE_IO:
            continue
        low, high = X[:, f].min(), X[:, f].max()
        if low > 0 and high > low:
            out.append(f)
    return out


def _join_scale_pair(op: OperatorType) -> Optional[tuple[FeatureId, FeatureId]]:
    if op is OperatorType.NestedLoopJoin:
        return (FeatureId.CIN1, FeatureId.SSEKTABLE)
    if op in JOIN_OPS:
        return (FeatureId.CIN1, FeatureId.CIN2)
    return None


def _training_sse(model, X: np.ndarray, op: OperatorType, y: np.ndarray) -> float:
    """The model's SSE over its training rows, ``err * err`` added in row
    order as one estimate at a time would."""
    err = _estimate_rows(model, X, op) - y
    return float(np.cumsum(err * err)[-1])


def _model_seed(cfg: TrainConfig, salt: int) -> int:
    return (cfg.rng_seed * 1000003 + salt) % (2**31)


def _entry_problems(
    op: OperatorType, resource: str, X: np.ndarray, y: np.ndarray, cfg: TrainConfig
) -> tuple[list, list[gbrt.Problem]]:
    """The training problems of one operator/resource family on op's raw
    rows ``X`` and targets ``y``, with each one's scale terms (None for the
    plain model): the plain problem plus one combined problem per eligible
    scale feature (two-feature variant for joins). A candidate whose form fit
    fails, or whose per-unit problem leaves float32, is left out. Targets
    that are all 0 get the plain problem alone: every model of such a family
    predicts exactly 0."""
    schema = list(applicable_features(op))
    problems = [gbrt.Problem(schema, X[:, schema], y, _model_seed(cfg, 0))]
    terms: list = [None]
    if not y.any():
        return terms, problems
    eligible = eligible_scale_features(op, resource, X)
    fits = [(SINGLE_FEATURE_CANDIDATES, [f]) for f in eligible]
    pair = _join_scale_pair(op)
    if pair is not None and set(pair) <= set(eligible):
        fits.append((TWO_FEATURE_CANDIDATES, list(pair)))
    targets = y.tolist()
    for salt, (candidates, features) in enumerate(fits, 1):
        try:
            form = select_form(candidates, features, list(zip(X[:, features].tolist(), targets)))
            term = ScaleTerm(kind=form.kind, features=form.features, beta=form.beta)
            problems.append(_combined_problem(op, X, y, [term], _model_seed(cfg, salt)))
            terms.append([term])
        except (ScalingError, FeatureError, TrainingError):
            pass
    return terms, problems


def _build_entry(
    op: OperatorType, resource: str, X: np.ndarray, y: np.ndarray, terms: list, marts: list
) -> RegistryEntry:
    """The entry of the ensembles ``marts`` trained on the problems of
    :func:`_entry_problems`, with the minimum-training-error model as default."""
    models = [
        mart if t is None else CombinedModel(terms=t, scaled_model=mart)
        for t, mart in zip(terms, marts)
    ]
    sses = [_training_sse(model, X, op, y) for model in models]
    default_idx = min(range(len(models)), key=lambda i: (sses[i], i))
    return RegistryEntry(
        op=op,
        resource=resource,
        models=models,
        default_idx=default_idx,
        train_rmse=(sses[default_idx] / len(y)) ** 0.5,
    )


def train_entry(
    op: OperatorType, resource: str, X: np.ndarray, y: np.ndarray, cfg: TrainConfig
) -> RegistryEntry:
    """Train the model family for one operator/resource on op's raw rows
    ``X`` and targets ``y``, all models boosted in lock step."""
    terms, problems = _entry_problems(op, resource, X, y, cfg)
    return _build_entry(op, resource, X, y, terms, gbrt.train_family(problems, cfg))


def train_registry(
    plans: Sequence[QueryPlan],
    resources: Sequence[str],
    cfg: TrainConfig,
    source: str = "true",
) -> ModelRegistry:
    """One entry per operator type and resource, each as :func:`train_entry`
    trains it. The rows of every resource are collected and checked before
    any model is trained. Every entry trains by ``cfg``, each model with a
    seed of its own, so every problem of one row count, across operators and
    resources, is boosted in one lock-step :func:`gbrt.train_family` call."""
    cfg.validate()
    rows = {}
    for resource in resources:
        if resource not in RESOURCES:
            raise RegistryError(f"unknown resource {resource!r}")
        rows[resource] = collect_examples(plans, resource, source)
        for op, (X, y) in rows[resource].items():
            if max(np.abs(X).max(), np.abs(y).max()) > _FLOAT32_MAX:
                raise RegistryError(
                    f"{op.name} {resource} training data beyond the float32 range of model files"
                )
    pending = []
    by_rows: dict[int, list[gbrt.Problem]] = {}
    for resource, by_op in rows.items():
        for op in sorted(by_op):
            X, y = by_op[op]
            terms, problems = _entry_problems(op, resource, X, y, cfg)
            pending.append((op, resource, X, y, terms))
            by_rows.setdefault(len(y), []).extend(problems)
    families = {n: gbrt.train_family(problems, cfg) for n, problems in by_rows.items()}
    # Every model is laid out in one pass before _build_entry scores it.
    gbrt.lay_out([mart for family in families.values() for mart in family])
    trained = {n: iter(family) for n, family in families.items()}
    registry = ModelRegistry()
    for op, resource, X, y, terms in pending:
        marts = [next(trained[len(y)]) for _ in terms]
        registry.entries[(op, resource)] = _build_entry(op, resource, X, y, terms, marts)
    return registry


# ---------------------------------------------------------------------------
# Serialization

#: One stored tree node: right-child offset, feature code, value.
_NODE = np.dtype([("child", "u1"), ("feature", "u1"), ("value", "<f4")])


def _encode_mart(model: MartModel, out: bytearray) -> None:
    out += struct.pack("<ff", np.float32(model.init), np.float32(model.learning_rate))
    out.append(len(model.schema))
    for f in model.schema:
        out.append(int(f))
    for f in model.schema:
        low, high = model.feature_stats[f]
        out += struct.pack("<ff", np.float32(low), np.float32(high))
    if len(model.trees) > 0xFFFF:
        raise RegistryError("too many trees for the two-byte tree count")
    out += struct.pack("<H", len(model.trees))
    # Every node of every tree in one write, each tree led by its node count.
    starts, child, feat, val = model.packed()
    sizes = np.diff(starts)
    if (sizes > 255).any():
        raise RegistryError("tree too large for one-byte node count")
    nodes = np.empty(len(child), dtype=_NODE)
    nodes["child"], nodes["feature"], nodes["value"] = child, feat, val
    out += np.insert(nodes.view(np.uint8), starts[:-1] * _NODE.itemsize, sizes).tobytes()


def serialize(registry: ModelRegistry) -> bytes:
    out = bytearray(MAGIC)
    out.append(FORMAT_VERSION)
    keys = sorted(registry.entries, key=lambda k: (int(k[0]), _RESOURCE_CODE[k[1]]))
    out += struct.pack("<H", len(keys))
    for key in keys:
        entry = registry.entries[key]
        out.append(int(entry.op))
        out.append(_RESOURCE_CODE[entry.resource])
        out += struct.pack("<HH", entry.default_idx, len(entry.models))
        for model in entry.models:
            if isinstance(model, CombinedModel):
                out.append(1)
                _encode_mart(model.scaled_model, out)
                out.append(len(model.terms))
                for term in model.terms:
                    out.append(int(term.kind))
                    out += struct.pack("<f", np.float32(term.beta))
                    out.append(len(term.features))
                    for f in term.features:
                        out.append(int(f))
            else:
                out.append(0)
                _encode_mart(model, out)
    return bytes(out)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def skip(self, n: int) -> int:
        """Step over ``n`` bytes; returns where they begin."""
        pos = self.pos
        if pos + n > len(self.data):
            raise RegistryError("truncated model payload")
        self.pos = pos + n
        return pos

    def take(self, n: int) -> bytes:
        pos = self.skip(n)
        return self.data[pos : pos + n]

    def u8(self) -> int:
        return self.data[self.skip(1)]

    def u16(self) -> int:
        return struct.unpack_from("<H", self.data, self.skip(2))[0]

    def f32s(self, n: int) -> tuple:
        return struct.unpack_from(f"<{n}f", self.data, self.skip(4 * n))


#: Members of each stored enum by code; a code with no member is corrupt.
_MEMBERS = {cls: {int(m): m for m in cls} for cls in (OperatorType, FeatureId, FormKind)}


def _decode_enum(cls, code: int):
    member = _MEMBERS[cls].get(code)
    if member is None:
        raise RegistryError(f"invalid {cls.__name__} code {code}")
    return member


def _check_trees(trees: gbrt.PackedTrees, model_of: np.ndarray, schemas: Sequence) -> None:
    """Reject node arrays the prediction kernel cannot walk: it trusts the
    shape of every tree and every split feature. Tree t belongs to the model
    ``model_of[t]``, whose split features are ``schemas[model_of[t]]``."""
    starts, child, feat, value = trees.starts, trees.child, trees.feature, trees.value
    sizes = np.diff(starts)
    if (sizes == 0).any():
        raise RegistryError("empty tree")
    internal = child != 0
    # Splits before each node, and so in each tree.
    splits_before = np.zeros(len(child) + 1, dtype=np.intp)
    np.cumsum(internal.astype(np.intp), out=splits_before[1:])
    n_splits = np.diff(splits_before[starts])
    # Nodes left in the tree from each node on, itself included: a right
    # child must land inside, so the last node of a tree must be a leaf.
    left_in_tree = np.repeat(starts[1:], sizes)
    left_in_tree -= np.arange(len(child))
    if (
        (child >= left_in_tree).any()
        or (child == 1).any()
        or (sizes != 2 * n_splits + 1).any()
    ):
        raise RegistryError("malformed tree: child offsets leave the tree")
    # The kernel reads split i's left subtree as the nodes [i + 1, r), r =
    # i + child[i] its right child, and so needs a pre-order tree. It is one
    # when (1) every node but each tree's first is a child of exactly one
    # split (children are distinct, and by the size check as many as those
    # nodes) and (2) each range [i + 1, r) holds one leaf more than splits.
    # Proof sketch: (1), with every edge pointing forward, makes a binary
    # tree rooted at the first node. By induction from the last node down,
    # each subtree is an interval [j, e_j) with one leaf more than splits.
    # For split i the left subtree is [i + 1, e_{i+1}) and r >= e_{i+1}. No
    # node of the gap [e_{i+1}, r) descends from i, and r has no ancestor
    # after i, so the gap is a run of whole subtrees, each adding one to
    # the balance of [i + 1, r), which (2) pins to 1. So the gap is empty
    # and subtree(i) = [i, e_r).
    split = np.flatnonzero(internal)
    right = split + child[split]
    is_child = np.zeros(len(child), dtype=bool)
    is_child[split + 1] = True
    is_child[right] = True
    left_splits = splits_before[right] - splits_before[split + 1]
    if (
        np.count_nonzero(is_child) != 2 * len(split)
        or (2 * left_splits + 2 != right - split).any()
    ):
        raise RegistryError("malformed tree: nodes are not a pre-order tree")
    # allowed[m, 0] admits model m's leaf feature byte 0, allowed[m, 1] its
    # split features; a node reads the flat index of its model, kind and byte.
    allowed = np.zeros((len(schemas), 2, 256), dtype=bool)
    allowed[:, 0, 0] = True
    allowed[
        np.repeat(np.arange(len(schemas)), [len(s) for s in schemas]), 1,
        [int(f) for s in schemas for f in s],
    ] = True
    at = np.repeat(512 * model_of, sizes)
    at += feat
    np.add(at, 256, out=at, where=internal)
    if not allowed.reshape(-1)[at].all():
        raise RegistryError("tree node feature outside its model's schema")
    if not np.isfinite(value).all():
        raise RegistryError("non-finite tree threshold or leaf value")


#: The trees of a model whose header has been read but whose nodes have not.
_UNREAD = gbrt.PackedTrees(
    np.zeros(1, dtype=np.intp), *(np.zeros(0, t) for t in ("u1", "u1", "f4"))
)


def _decode_mart(r: _Reader, heads: list) -> MartModel:
    """One model's header, its trees left :data:`_UNREAD`; the offsets of
    their node counts in ``r.data`` are appended to ``heads``."""
    init, lr = r.f32s(2)
    schema = [_decode_enum(FeatureId, c) for c in r.take(r.u8())]
    ranges = r.f32s(2 * len(schema))
    stats = {f: ranges[2 * j : 2 * j + 2] for j, f in enumerate(schema)}
    if not all(map(math.isfinite, (init, lr, *ranges))) or any(
        lo > hi for lo, hi in stats.values()
    ):
        raise RegistryError("non-finite model parameter or inverted feature range")
    n_trees = r.u16()
    data, pos = r.data, r.pos
    try:
        for _ in range(n_trees):
            heads.append(pos)
            pos += 1 + _NODE.itemsize * data[pos]
    except IndexError:
        raise RegistryError("truncated model payload") from None
    r.skip(pos - r.pos)
    return MartModel(init=init, trees=_UNREAD, learning_rate=lr, schema=schema, feature_stats=stats)


def _decode_trees(data: bytes, heads: list, bounds: list, marts: Sequence[MartModel]) -> None:
    """Give each model of ``marts`` its trees: model m has the trees whose
    node counts lie at ``heads[bounds[m]:bounds[m + 1]]`` of ``data``, each
    count followed by its node records. Every node of every model is
    gathered and checked at once, then cut into arrays of each model's own."""
    buf = np.frombuffer(data, dtype=np.uint8)
    heads = np.array(heads, dtype=np.intp)
    counts = buf[heads].astype(np.intp)
    starts = np.zeros(len(heads) + 1, dtype=np.intp)
    np.cumsum(counts, out=starts[1:])
    # The file alternates between runs of other bytes and the runs of node
    # records that follow each count.
    edges = np.column_stack([heads + 1, heads + 1 + _NODE.itemsize * counts]).ravel()
    in_records = np.arange(len(edges) + 1) % 2 == 1
    nodes = buf[np.repeat(in_records, np.diff(edges, prepend=0, append=len(buf)))].view(_NODE)
    child, feature, value = nodes["child"], nodes["feature"], nodes["value"]
    model_of = np.repeat(np.arange(len(marts)), np.diff(bounds))
    _check_trees(
        gbrt.PackedTrees(starts, child, feature, value), model_of, [m.schema for m in marts]
    )
    for mart, t0, t1 in zip(marts, bounds, bounds[1:]):
        lo, hi = starts[t0], starts[t1]
        mart.trees = gbrt.PackedTrees(
            starts[t0 : t1 + 1] - lo, child[lo:hi].copy(), feature[lo:hi].copy(),
            value[lo:hi].astype(np.float32),
        )


def _decode_term(r: _Reader, op: OperatorType) -> ScaleTerm:
    kind = _decode_enum(FormKind, r.u8())
    (beta,) = r.f32s(1)
    feats = tuple(_decode_enum(FeatureId, c) for c in r.take(r.u8()))
    scalable = SCALE_CANDIDATES.intersection(applicable_features(op))
    if len(feats) != (2 if kind in TWO_FEATURE_KINDS else 1) or not scalable.issuperset(feats):
        raise RegistryError(f"invalid {kind.name} scaling features for {op.name}")
    if beta != 1.0 and not (
        kind is FormKind.Power and 0.0 < beta <= max(POWER_EXPONENT_GRID)
    ):
        raise RegistryError(f"invalid {kind.name} exponent {beta}")
    return ScaleTerm(kind=kind, features=feats, beta=beta)


def deserialize(data: bytes) -> ModelRegistry:
    """Decode a model file; corrupt bytes raise :class:`RegistryError`.

    One walk reads every header and finds every tree; then one pass decodes
    and checks the trees of every model, and one more lays them all out."""
    r = _Reader(data)
    if r.take(4) != MAGIC:
        raise RegistryError("bad magic bytes: not a model file")
    version = r.u8()
    if version != FORMAT_VERSION:
        raise RegistryError(f"unsupported model format version {version}")
    registry = ModelRegistry()
    marts: list[MartModel] = []
    heads: list[int] = []  # where each tree's node count lies in data
    bounds = [0]  # model m's trees are heads[bounds[m]:bounds[m + 1]]
    last_key = None
    for _ in range(r.u16()):
        op = _decode_enum(OperatorType, r.u8())
        code = r.u8()
        if code not in _RESOURCE_NAME:
            raise RegistryError(f"invalid resource code {code}")
        if last_key is not None and (int(op), code) <= last_key:
            raise RegistryError("model entries duplicated or out of order")
        last_key = (int(op), code)
        default_idx = r.u16()
        n_models = r.u16()
        features = applicable_features(op)
        models: list = []
        for _ in range(n_models):
            kind = r.u8()
            if kind not in (0, 1):
                raise RegistryError(f"unknown model kind byte {kind}")
            mart = _decode_mart(r, heads)
            marts.append(mart)
            bounds.append(len(heads))
            if kind == 0:
                schema = features
                models.append(mart)
            else:
                terms = [_decode_term(r, op) for _ in range(r.u8())]
                scale = [f for t in terms for f in t.features]
                if len(set(scale)) != len(scale):
                    raise RegistryError(f"repeated scaling feature in a {op.name} model")
                schema = tuple(f for f in features if f not in scale)
                models.append(CombinedModel(terms=terms, scaled_model=mart))
            # Featurization gives the model exactly these features.
            if tuple(mart.schema) != schema:
                raise RegistryError("model schema does not match its operator's features")
        if default_idx >= n_models:
            raise RegistryError(f"default model #{default_idx} of {n_models} models")
        resource = _RESOURCE_NAME[code]
        registry.entries[(op, resource)] = RegistryEntry(
            op=op, resource=resource, models=models, default_idx=default_idx
        )
    if r.pos != len(data):
        raise RegistryError("trailing bytes after model payload")
    _decode_trees(data, heads, bounds, marts)
    gbrt.lay_out(marts)
    return registry


def save_registry(registry: ModelRegistry, path: str) -> None:
    """Write the model file; a registry that cannot be encoded writes nothing."""
    blob = serialize(registry)
    with open(path, "wb") as fh:
        fh.write(blob)


def load_registry(path: str) -> ModelRegistry:
    with open(path, "rb") as fh:
        return deserialize(fh.read())

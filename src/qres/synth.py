"""Synthetic labeled plan corpora with analytic resource oracles.

Plans are generated from a small template mix over a table catalog whose sizes
are multiplied by a per-query scale factor. Ground-truth labels come from
analytic per-operator cost functions (with optional multiplicative lognormal
noise); optimizer cardinality estimates get an injectable systematic bias and
lognormal error.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .features import (
    CIN1, CIN2, COUT, HASHOPTOT, INDEXDEPTH, MINCOMP, PAGES, SINSUM, SSEKTABLE, TCOLUMNS, TSIZE,
    FeatureId, featurize, lg,
)
from .plan import (
    ComputeScalar, Filter, HashAggregate, HashJoin, IndexScan, IndexSeek, MergeJoin,
    NestedLoopJoin, OperatorType, PlanNode, QueryPlan, Sort, StreamAggregate, TableMeta, TableScan,
    finite_float, finite_int, ordered_sum,
)

PAGE_BYTES = 8192
INDEX_FANOUT = 128


class SynthError(ValueError):
    """Raised for invalid corpus specifications."""


@dataclass(frozen=True)
class TableSpec:
    table_id: str
    base_tuples: int
    row_bytes: float
    columns: int


@dataclass
class CorpusSpec:
    templates: dict[str, float]
    tables: list[TableSpec]
    scales: list[float]
    query_count: int
    rng_seed: int = 0
    noise_sigma: float = 0.0
    card_sigma: float = 0.0
    card_bias: float = 1.0

    def validate(self) -> None:
        if not self.templates or all(w <= 0 for w in self.templates.values()):
            raise SynthError("empty template mix")
        unknown = set(self.templates) - set(_TEMPLATES)
        if unknown:
            raise SynthError(f"unknown templates: {sorted(unknown)}")
        self._template_mix()
        if not self.tables:
            raise SynthError("empty table catalog")
        if not self.scales:
            raise SynthError("empty scale list")
        if not all(s > 0 for s in self.scales):
            raise SynthError(f"scales must be positive: {self.scales}")
        for t in self.tables:
            if not (t.base_tuples > 0 and t.row_bytes > 0 and t.columns > 0):
                raise SynthError(
                    f"table {t.table_id}: base_tuples, row_bytes and columns must be positive"
                )
        if self.query_count < 0:
            raise SynthError("negative query count")
        if self.rng_seed < 0:
            raise SynthError(f"negative rng_seed {self.rng_seed}")
        if self.noise_sigma < 0 or self.card_sigma < 0:
            raise SynthError("negative noise level")
        if self.card_bias <= 0:
            raise SynthError("cardinality bias must be positive")

    def _template_mix(self) -> tuple[list[str], np.ndarray]:
        """The templates of positive weight, sorted, and their draw
        probabilities: each weight over the float64 sum of them all. A sum
        past the float range raises :class:`SynthError`."""
        names = sorted(k for k, w in self.templates.items() if w > 0)
        weights = np.array([self.templates[k] for k in names], dtype=np.float64)
        with np.errstate(over="ignore"):
            total = weights.sum()
        if not np.isfinite(total):
            raise SynthError("template weights sum past the float range")
        return names, weights / total


def default_tables() -> list[TableSpec]:
    """A small mixed-size catalog suitable for all query templates."""
    return [
        TableSpec("lineitem", 60_000, 120.0, 16),
        TableSpec("orders", 15_000, 100.0, 9),
        TableSpec("customer", 1_500, 180.0, 8),
        TableSpec("part", 2_000, 150.0, 9),
    ]


def spec_from_json(text: str) -> CorpusSpec:
    """Parse a corpus spec; malformed fields and NaN or infinite numbers raise
    :class:`SynthError`."""
    doc = json.loads(text)
    try:
        spec = CorpusSpec(
            templates={str(k): finite_float(v) for k, v in doc["templates"].items()},
            tables=[
                TableSpec(
                    table_id=str(t["table_id"]),
                    base_tuples=finite_int(t["base_tuples"]),
                    row_bytes=finite_float(t["row_bytes"]),
                    columns=finite_int(t["columns"]),
                )
                for t in doc["tables"]
            ],
            scales=[finite_float(s) for s in doc["scales"]],
            query_count=finite_int(doc["query_count"]),
            rng_seed=finite_int(doc.get("rng_seed", 0)),
            noise_sigma=finite_float(doc.get("noise_sigma", 0.0)),
            card_sigma=finite_float(doc.get("card_sigma", 0.0)),
            card_bias=finite_float(doc.get("card_bias", 1.0)),
        )
    except (KeyError, TypeError, ValueError, OverflowError, AttributeError) as exc:
        raise SynthError(f"malformed corpus spec: {exc}") from None
    spec.validate()
    return spec


# ---------------------------------------------------------------------------
# Resource oracles

OracleFn = Callable[[dict[FeatureId, float]], float]


def default_oracles() -> dict[tuple[OperatorType, str], OracleFn]:
    """Analytic cost functions, one per (operator, resource).

    Each CPU form exercises a distinct asymptotic shape (linear, n log n,
    logarithmic in a second feature) so form selection is discriminative.
    Logical I/O is charged at access paths only.
    """
    tpp = PAGE_BYTES / 100.0  # tuples per page at a nominal 100-byte row

    def scan_cpu(v):
        return 0.8 * v[TSIZE] + 0.05 * v[COUT] * v[TCOLUMNS]

    o: dict[tuple[OperatorType, str], OracleFn] = {
        (TableScan, "cpu_us"): scan_cpu,
        (IndexScan, "cpu_us"): scan_cpu,
        (IndexSeek, "cpu_us"): lambda v: 50.0 * v[INDEXDEPTH] + 1.0 * v[COUT],
        (Filter, "cpu_us"): lambda v: 0.5 * v[CIN1],
        (Sort, "cpu_us"): lambda v: 2.0 * v[CIN1] * lg(v[CIN1]) + 0.1 * v[MINCOMP],
        (HashAggregate, "cpu_us"): lambda v: 1.2 * v[CIN1] + 0.2 * v[HASHOPTOT],
        (StreamAggregate, "cpu_us"): lambda v: 0.3 * v[CIN1],
        (ComputeScalar, "cpu_us"): lambda v: 0.1 * v[CIN1],
        (HashJoin, "cpu_us"): lambda v: 1.0 * v[CIN1] + 0.5 * v[CIN2] + 0.2 * v[HASHOPTOT],
        (MergeJoin, "cpu_us"): lambda v: 0.05 * v[SINSUM],
        (NestedLoopJoin, "cpu_us"): lambda v: 0.7 * v[CIN1] * lg(v[SSEKTABLE]),
        (TableScan, "logical_io"): lambda v: v[PAGES],
        (IndexScan, "logical_io"): lambda v: v[PAGES],
        (IndexSeek, "logical_io"): lambda v: v[INDEXDEPTH] + math.ceil(v[COUT] / tpp),
    }
    return o


# ---------------------------------------------------------------------------
# Plan templates: compositions of one builder per operator. The order of
# their draws from ``rng`` is part of the corpus.


def _table_meta(t: TableSpec, scale: float) -> TableMeta:
    if not math.isfinite(t.base_tuples * scale * t.row_bytes):
        raise SynthError(f"table {t.table_id} at scale {scale:g}: tuple or page count overflows")
    tuples = max(1, int(round(t.base_tuples * scale)))
    pages = max(1, math.ceil(tuples * t.row_bytes / PAGE_BYTES))
    depth = max(1, math.ceil(math.log(max(tuples, 2)) / math.log(INDEX_FANOUT)))
    return TableMeta(
        table_id=t.table_id,
        tuple_count=tuples,
        page_count=pages,
        column_count=t.columns,
        avg_row_bytes=t.row_bytes,
        index_depth=depth,
    )


def _scan(table: TableMeta, op: OperatorType = TableScan) -> PlanNode:
    return PlanNode(
        op=op,
        true_out_cardinality=table.tuple_count,
        out_row_bytes=table.avg_row_bytes,
        table=table,
    )


def _filter(rng, child: PlanNode, low: float, high: float) -> PlanNode:
    sel = rng.uniform(low, high)
    return PlanNode(
        op=Filter,
        children=[child],
        true_out_cardinality=max(1, int(round(sel * child.true_out_cardinality))),
        out_row_bytes=child.out_row_bytes,
    )


def _sort(rng, child: PlanNode) -> PlanNode:
    return PlanNode(
        op=Sort,
        children=[child],
        true_out_cardinality=child.true_out_cardinality,
        out_row_bytes=child.out_row_bytes,
        sort_columns=int(rng.integers(1, 5)),
    )


def _join(rng, op: OperatorType, left: PlanNode, right: PlanNode, cout: int) -> PlanNode:
    return PlanNode(
        op=op,
        children=[left, right],
        true_out_cardinality=cout,
        out_row_bytes=left.out_row_bytes + right.out_row_bytes,
        join_inner_columns=int(rng.integers(1, 3)),
        join_outer_columns=int(rng.integers(1, 3)),
    )


def _t_scan(rng, tables):
    return _scan(tables[rng.integers(len(tables))])


def _t_filter_scan(rng, tables):
    return _filter(rng, _t_scan(rng, tables), 0.1, 1.0)


def _t_sort_scan(rng, tables):
    return _sort(rng, _t_scan(rng, tables))


def _t_sort_filter_scan(rng, tables):
    return _sort(rng, _t_filter_scan(rng, tables))


def _t_seek(rng, tables):
    table = tables[rng.integers(len(tables))]
    sel = rng.uniform(0.001, 0.05)
    node = _scan(table, IndexSeek)
    node.true_out_cardinality = max(1, int(round(sel * table.tuple_count)))
    return node


def _t_hash_agg(rng, tables):
    child = _t_filter_scan(rng, tables)
    groups = max(1, int(round(rng.uniform(0.01, 0.2) * child.true_out_cardinality)))
    return PlanNode(
        op=HashAggregate,
        children=[child],
        true_out_cardinality=groups,
        out_row_bytes=max(8.0, child.out_row_bytes / 2),
        hash_columns=int(rng.integers(1, 4)),
        hash_ops_per_tuple=float(rng.uniform(1.0, 3.0)),
    )


def _pick_two(rng, tables):
    if len(tables) < 2:
        return tables[0], tables[0]
    i, j = rng.choice(len(tables), size=2, replace=False)
    return tables[i], tables[j]


def _t_hash_join(rng, tables):
    a, b = _pick_two(rng, tables)
    build, probe = (a, b) if a.tuple_count <= b.tuple_count else (b, a)
    cout = max(1, int(round(rng.uniform(0.5, 1.0) * probe.tuple_count)))
    node = _join(rng, HashJoin, _scan(build), _scan(probe), cout)
    node.hash_ops_per_tuple = float(rng.uniform(1.0, 3.0))
    return node


def _t_merge_join(rng, tables):
    a, b = _pick_two(rng, tables)
    cout = max(1, int(round(rng.uniform(0.5, 1.0) * max(a.tuple_count, b.tuple_count))))
    return _join(rng, MergeJoin, _scan(a), _scan(b), cout)


def _t_nested_loop(rng, tables):
    a, b = _pick_two(rng, tables)
    outer = _filter(rng, _scan(a), 0.01, 0.1)
    per_probe = int(rng.integers(1, 5))
    inner = _scan(b, IndexSeek)
    inner.true_out_cardinality = per_probe
    return _join(rng, NestedLoopJoin, outer, inner, outer.true_out_cardinality * per_probe)


_TEMPLATES: dict[str, Callable] = {
    "scan": _t_scan,
    "filter_scan": _t_filter_scan,
    "sort_scan": _t_sort_scan,
    "sort_filter_scan": _t_sort_filter_scan,
    "seek": _t_seek,
    "hash_agg": _t_hash_agg,
    "hash_join": _t_hash_join,
    "merge_join": _t_merge_join,
    "nested_loop": _t_nested_loop,
}

# ---------------------------------------------------------------------------
# Cardinality estimates, optimizer cost, labels

#: Full-table scans have a-priori exact counts; estimation error applies elsewhere.
_EXACT_CARD_OPS = frozenset({TableScan, IndexScan})


def _lognormal(rng, sigma: float) -> float:
    """One lognormal noise factor ``exp(N(0, sigma))``."""
    try:
        return math.exp(rng.normal(0.0, sigma))
    except OverflowError:
        raise SynthError(f"noise level {sigma:g} overflows a float") from None


def _assign_estimates(root: PlanNode, rng, bias: float, sigma: float) -> None:
    """Set each node's cardinality estimate, then its crude hand-style optimizer
    cost (arbitrary units, deliberately not proportional to the oracles), which
    reads only estimates that the post-order visit has already set."""
    # The draw order is part of the corpus: post-order, children left to right.
    order, stack = [], [root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.children)  # the last child is taken first
    for node in reversed(order):
        op = node.op
        if op in _EXACT_CARD_OPS:
            node.est_out_cardinality = node.true_out_cardinality
        else:
            noise = _lognormal(rng, sigma) if sigma > 0 else 1.0
            est = node.true_out_cardinality * bias * noise
            if not math.isfinite(est):
                raise SynthError(f"{op.name} cardinality estimate overflows a float")
            node.est_out_cardinality = max(1, math.ceil(est))
        est = float(node.est_out_cardinality)
        if node.table is not None:
            if op is IndexSeek:
                cost = node.table.index_depth + 0.003 * est
            else:
                cost = node.table.page_count + 0.001 * node.table.tuple_count
        else:
            cin = ordered_sum(float(c.est_out_cardinality) for c in node.children)
            cost = 0.002 * cin * lg(cin) if op is Sort else 0.002 * cin + 0.0005 * est
        node.est_io_cost = max(cost, 1e-6)


def _assign_labels(
    root: PlanNode, oracles: dict[tuple[OperatorType, str], OracleFn], noise_sigma: float, rng
) -> None:
    """Label every node by its :func:`default_oracles` cost (0 where none is
    defined) times lognormal noise."""
    # The draw order is part of the corpus: pre-order, children left to right.
    for node, fv in featurize(root, source="true"):
        node.observed = {}
        for resource in ("cpu_us", "logical_io"):
            fn = oracles.get((node.op, resource))
            value = float(fn(fv.values)) if fn is not None else 0.0
            if noise_sigma > 0:
                value *= _lognormal(rng, noise_sigma)
            if not math.isfinite(value):
                raise SynthError(f"{node.op.name} {resource} label overflows a float")
            node.observed[resource] = value


def generate_corpus(spec: CorpusSpec) -> list[QueryPlan]:
    """Deterministically generate a labeled plan corpus from a spec.

    Per-query RNG streams are spawned from the corpus seed, so generation is
    order-independent and reproducible.
    """
    spec.validate()
    oracles = default_oracles()
    names, weights = spec._template_mix()
    seeds = np.random.SeedSequence(spec.rng_seed).spawn(spec.query_count)
    plans = []
    # A table depends only on its spec and the scale, and TableMeta is
    # frozen, so each scale's tables are built once.
    tables_at: dict[float, list[TableMeta]] = {}
    for qidx in range(spec.query_count):
        rng = np.random.default_rng(seeds[qidx])
        template = names[rng.choice(len(names), p=weights)]
        scale = float(spec.scales[rng.integers(len(spec.scales))])
        tables = tables_at.get(scale)
        if tables is None:
            tables = tables_at[scale] = [_table_meta(t, scale) for t in spec.tables]
        root = _TEMPLATES[template](rng, tables)
        _assign_estimates(root, rng, spec.card_bias, spec.card_sigma)
        _assign_labels(root, oracles, spec.noise_sigma, rng)
        plan = QueryPlan(
            query_id=f"q{qidx:05d}", root=root, scale=scale, template=template
        )
        plan.validate()
        plans.append(plan)
    return plans

"""Shared fixtures: small plans, corpora, and trained registries."""
from __future__ import annotations

import numpy as np
import pytest

from qres import gbrt
from qres.features import FEATURE_SPACE, FeatureId, featurize
from qres.gbrt import TrainConfig
from qres.plan import OperatorType, PlanNode, QueryPlan, TableMeta
from qres.registry import (
    CombinedModel,
    ModelRegistry,
    RegistryEntry,
    RegistryError,
    ScaleTerm,
    _combined_problem,
    collect_examples,
)
from qres.scaling import FormKind
from qres.synth import CorpusSpec, SynthError, TableSpec, generate_corpus


_SCAN_LINE = (
    '{"op":"TableScan","card_true":10,"card_est":10,"table":{"table_id":"a",'
    '"tuple_count":10,"page_count":1,"column_count":2,"avg_row_bytes":10.0}}'
)
#: One plan line: a NestedLoopJoin whose inner side is a Filter carrying a
#: table of negative size above its scan. Features read the Filter's table.
INNER_TABLE_JOIN = (
    '{"root":{"op":"NestedLoopJoin","card_true":10,"card_est":10,"children":[%s,'
    '{"op":"Filter","card_true":10,"card_est":10,"table":{"table_id":"b",'
    '"tuple_count":-5000,"page_count":-1,"column_count":-2,"avg_row_bytes":10.0},'
    '"children":[%s]}]}}' % (_SCAN_LINE, _SCAN_LINE)
)


def make_table(tuples: int = 10_000, row_bytes: float = 100.0, columns: int = 8,
               table_id: str = "t", index_depth: int = 3) -> TableMeta:
    pages = max(1, -(-int(tuples * row_bytes) // 8192))
    return TableMeta(table_id=table_id, tuple_count=tuples, page_count=pages,
                     column_count=columns, avg_row_bytes=row_bytes,
                     index_depth=index_depth)


def scan_node(table: TableMeta, out: int | None = None) -> PlanNode:
    out = table.tuple_count if out is None else out
    return PlanNode(
        op=OperatorType.TableScan, children=[],
        true_out_cardinality=out, est_out_cardinality=out,
        out_row_bytes=table.avg_row_bytes, table=table,
        est_io_cost=float(table.page_count),
    )


def sort_over_scan(tuples: int = 1024, sort_cols: int = 1) -> QueryPlan:
    table = make_table(tuples=tuples)
    scan = scan_node(table)
    sort = PlanNode(
        op=OperatorType.Sort, children=[scan],
        true_out_cardinality=tuples, est_out_cardinality=tuples,
        out_row_bytes=table.avg_row_bytes, est_io_cost=1.0,
        sort_columns=sort_cols,
    )
    plan = QueryPlan(query_id="sort-scan", root=sort)
    plan.validate()
    return plan


def seek_plan(tuples: int) -> QueryPlan:
    """One IndexSeek over a table of ``tuples`` rows."""
    table = make_table(tuples=10_000)
    table = TableMeta(table_id="t", tuple_count=tuples, page_count=table.page_count,
                      column_count=8, avg_row_bytes=100.0, index_depth=3)
    seek = PlanNode(
        op=OperatorType.IndexSeek, true_out_cardinality=50, est_out_cardinality=50,
        out_row_bytes=100.0, table=table, est_io_cost=4.0,
    )
    plan = QueryPlan(query_id="seek", root=seek)
    plan.validate()
    return plan


def as_rows(examples) -> tuple[np.ndarray, np.ndarray]:
    """``(FeatureVector, y)`` examples as the rows training reads: one
    code-indexed row per vector, 0 where a feature is absent, and the targets."""
    X = np.zeros((len(examples), FEATURE_SPACE))
    for row, (fv, _) in zip(X, examples):
        for f, v in fv.values.items():
            row[int(f)] = v
    return X, np.array([y for _, y in examples], dtype=np.float64)


def build_combined(op, X, y, terms, cfg) -> CombinedModel:
    """One combined model, trained on op's raw rows ``X`` and targets ``y`` as
    ``registry.train_entry`` trains the combined models of a family."""
    scaled = gbrt.train_family([_combined_problem(op, X, y, terms, cfg.rng_seed)], cfg)[0]
    return CombinedModel(terms=list(terms), scaled_model=scaled)


def labeled_vectors(plans, resource: str, op: OperatorType) -> list:
    """``(FeatureVector, label)`` of every ``op`` operator of ``plans``, by
    :func:`featurize`, plan by plan in pre-order."""
    return [
        (fv, node.observed[resource])
        for plan in plans for node, fv in featurize(plan.root) if node.op is op
    ]


def scaled_seek_registry(corpus, kind=FormKind.Power, beta=3.0) -> ModelRegistry:
    """An IndexSeek/cpu_us entry whose only model scales by one TSIZE term,
    ``TSIZE ** 3`` by default."""
    op = OperatorType.IndexSeek
    X, y = collect_examples(corpus, "cpu_us")[op]
    term = ScaleTerm(kind=kind, features=(FeatureId.TSIZE,), beta=beta)
    model = build_combined(op, X, y, [term], TrainConfig(iterations=5, rng_seed=0))
    return ModelRegistry({(op, "cpu_us"): RegistryEntry(op, "cpu_us", [model])})


def split_by_scale(corpus, threshold: float) -> tuple[list[QueryPlan], list[QueryPlan]]:
    """Disjoint cover: (plans with scale <= threshold, plans above it)."""
    small, large = [], []
    for plan in corpus:
        if plan.scale is None:
            raise SynthError(f"plan {plan.query_id} records no scale factor")
        (small if plan.scale <= threshold else large).append(plan)
    return small, large


def encode_tree(tree: gbrt.Tree, out: bytearray) -> None:
    """The model file's bytes for one tree, node by node: the reference for
    the bulk tree write of ``registry._encode_mart``."""
    n = tree.n_nodes
    if n > 255:
        raise RegistryError("tree too large for one-byte node count")
    out.append(n)
    vals = np.asarray(tree.value, dtype="<f4").tobytes()
    for i in range(n):
        out.append(int(tree.child[i]))
        out.append(int(tree.feature[i]))
        out += vals[4 * i : 4 * i + 4]


def encoded_tree_size(tree: gbrt.Tree) -> int:
    """Bytes the model file spends on one tree."""
    out = bytearray()
    encode_tree(tree, out)
    return len(out)


@pytest.fixture(scope="session")
def tiny_tables() -> list[TableSpec]:
    return [
        TableSpec("big", 20_000, 100.0, 8),
        TableSpec("small", 4_000, 120.0, 6),
    ]


@pytest.fixture(scope="session")
def all_template_spec(tiny_tables) -> CorpusSpec:
    return CorpusSpec(
        templates={name: 1.0 for name in (
            "scan", "filter_scan", "sort_scan", "seek",
            "hash_agg", "hash_join", "merge_join", "nested_loop",
        )},
        tables=tiny_tables,
        scales=[1.0, 2.0, 4.0],
        query_count=64,
        rng_seed=1234,
        noise_sigma=0.05,
        card_sigma=0.1,
    )


@pytest.fixture(scope="session")
def small_corpus(all_template_spec):
    return generate_corpus(all_template_spec)


@pytest.fixture(scope="session")
def fast_cfg() -> TrainConfig:
    return TrainConfig(iterations=60, rng_seed=3)

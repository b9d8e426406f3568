"""Operator feature vectors and the feature-dependency relation."""
from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator, Optional, Sequence

import numpy as np

from .plan import (
    JOIN_OPS, LEAF_OPS, NO_PARENT, HashAggregate, HashJoin, IndexSeek, MergeJoin, NestedLoopJoin,
    OperatorType, PlanError, PlanNode, QueryPlan, Sort, ordered_sum, preorder,
)


class FeatureError(ValueError):
    """Raised for missing metadata or degenerate feature transforms."""


class FeatureId(IntEnum):
    """Numeric feature codes (one byte each).

    Per-child tuple/byte counts are materialized once per child; single-child
    operators carry only the child-1 slots.
    """

    COUT = 1
    SOUTAVG = 2
    SOUTTOT = 3
    CIN1 = 4
    SINAVG1 = 5
    SINTOT1 = 6
    CIN2 = 7
    SINAVG2 = 8
    SINTOT2 = 9
    OUTPUTUSAGE = 10
    TSIZE = 11
    PAGES = 12
    TCOLUMNS = 13
    ESTIOCOST = 14
    INDEXDEPTH = 15
    HASHOPAVG = 16
    HASHOPTOT = 17
    CHASHCOL = 18
    CINNERCOL = 19
    COUTERCOL = 20
    SSEKTABLE = 21
    MINCOMP = 22
    CSORTCOL = 23
    SINSUM = 24


F = FeatureId

# Per-operator code reads the members through these bindings, not as
# attributes of FeatureId: see plan.py's operator bindings for why.
(COUT, SOUTAVG, SOUTTOT, CIN1, SINAVG1, SINTOT1, CIN2, SINAVG2, SINTOT2, OUTPUTUSAGE,
 TSIZE, PAGES, TCOLUMNS, ESTIOCOST, INDEXDEPTH, HASHOPAVG, HASHOPTOT, CHASHCOL,
 CINNERCOL, COUTERCOL, SSEKTABLE, MINCOMP, CSORTCOL, SINSUM) = FeatureId
_CHILD_SLOTS = ((CIN1, SINAVG1, SINTOT1), (CIN2, SINAVG2, SINTOT2))

#: Dense feature rows are indexed by feature code; codes fit in one byte and
#: the highest code in use is 24.
FEATURE_SPACE = 32

#: Features irrelevant (or second-order) for logical I/O; never scaling candidates
#: for that resource.
NEVER_SCALE_IO = frozenset(
    {F.HASHOPAVG, F.HASHOPTOT, F.CHASHCOL, F.CINNERCOL, F.COUTERCOL, F.MINCOMP, F.CSORTCOL}
)

#: Features that grow with the underlying data size; only these can exceed their
#: training range when deployed on larger databases, so only these are scaling
#: candidates. Per-row widths, column counts, and per-tuple rates stay bounded.
SCALE_CANDIDATES = frozenset(
    {F.COUT, F.SOUTTOT, F.CIN1, F.SINTOT1, F.CIN2, F.SINTOT2, F.TSIZE, F.PAGES,
     F.ESTIOCOST, F.HASHOPTOT, F.MINCOMP, F.SINSUM, F.SSEKTABLE}
)

_SCAN_FEATURES = (F.TSIZE, F.PAGES, F.TCOLUMNS, F.ESTIOCOST)

#: Operator-specific feature sets layered on top of the global features.
OP_SPECIFIC: dict[OperatorType, tuple[FeatureId, ...]] = {
    OperatorType.TableScan: _SCAN_FEATURES,
    OperatorType.IndexScan: _SCAN_FEATURES,
    OperatorType.IndexSeek: _SCAN_FEATURES + (F.INDEXDEPTH,),
    OperatorType.Filter: (),
    OperatorType.Sort: (F.MINCOMP, F.CSORTCOL),
    OperatorType.HashAggregate: (F.HASHOPAVG, F.HASHOPTOT, F.CHASHCOL),
    OperatorType.StreamAggregate: (),
    OperatorType.ComputeScalar: (),
    OperatorType.HashJoin: (F.HASHOPAVG, F.HASHOPTOT, F.CINNERCOL, F.COUTERCOL),
    OperatorType.MergeJoin: (F.CINNERCOL, F.COUTERCOL, F.SINSUM),
    OperatorType.NestedLoopJoin: (F.CINNERCOL, F.COUTERCOL, F.SSEKTABLE),
}


@functools.cache
def applicable_features(op: OperatorType) -> tuple[FeatureId, ...]:
    """The exact feature set of an operator type, ordered by feature code."""
    feats = {F.COUT, F.SOUTAVG, F.SOUTTOT, F.OUTPUTUSAGE}
    if op not in LEAF_OPS:
        feats.update({F.CIN1, F.SINAVG1, F.SINTOT1})
    if op in JOIN_OPS:
        feats.update({F.CIN2, F.SINAVG2, F.SINTOT2})
    feats.update(OP_SPECIFIC[op])
    return tuple(sorted(feats))


def lg(x: float) -> float:
    """log2 with arguments below 2 clamped to 1, keeping scale factors positive."""
    return 1.0 if x < 2.0 else math.log2(x)


# Dependents of each feature: the features whose value moves when the keyed
# feature is perturbed, either through an arithmetic identity
# (SOUTTOT = COUT x SOUTAVG, SINTOT = CIN x SINAVG, HASHOPTOT = HASHOPAVG x CIN,
# MINCOMP = CIN x CSORTCOL, SINSUM = sum of SINTOTs) or because both are tuple
# counts driven by the same input size.
_DEPENDENTS: dict[FeatureId, frozenset[FeatureId]] = {
    F.COUT: frozenset({F.SOUTTOT, F.CIN1, F.CIN2, F.SINTOT1, F.SINTOT2, F.SINSUM, F.ESTIOCOST}),
    F.SOUTAVG: frozenset({F.SOUTTOT}),
    F.SOUTTOT: frozenset(),
    F.CIN1: frozenset(
        {F.COUT, F.SOUTTOT, F.SINTOT1, F.SINTOT2, F.CIN2, F.SINSUM, F.ESTIOCOST,
         F.HASHOPTOT, F.MINCOMP, F.SSEKTABLE}
    ),
    F.SINAVG1: frozenset({F.SINTOT1, F.SINSUM}),
    F.SINTOT1: frozenset({F.SINSUM, F.ESTIOCOST}),
    F.CIN2: frozenset(
        {F.COUT, F.SOUTTOT, F.SINTOT1, F.SINTOT2, F.CIN1, F.SINSUM, F.ESTIOCOST,
         F.HASHOPTOT, F.SSEKTABLE}
    ),
    F.SINAVG2: frozenset({F.SINTOT2, F.SINSUM}),
    F.SINTOT2: frozenset({F.SINSUM, F.ESTIOCOST}),
    F.TSIZE: frozenset({F.PAGES, F.ESTIOCOST, F.INDEXDEPTH, F.COUT, F.SOUTTOT}),
    F.PAGES: frozenset({F.ESTIOCOST, F.INDEXDEPTH}),
    F.TCOLUMNS: frozenset(),
    F.ESTIOCOST: frozenset(),
    F.INDEXDEPTH: frozenset({F.TSIZE, F.PAGES}),
    F.HASHOPAVG: frozenset({F.HASHOPTOT}),
    F.HASHOPTOT: frozenset({F.CIN1, F.CIN2, F.SINTOT1, F.SINTOT2, F.SINSUM}),
    F.CHASHCOL: frozenset(),
    F.CINNERCOL: frozenset(),
    F.COUTERCOL: frozenset(),
    F.SSEKTABLE: frozenset({F.CIN2, F.SINTOT2}),
    F.MINCOMP: frozenset({F.CIN1, F.SINTOT1}),
    F.CSORTCOL: frozenset({F.MINCOMP}),
    F.SINSUM: frozenset({F.CIN1, F.CIN2, F.SINTOT1, F.SINTOT2}),
}


def dependents(f: FeatureId) -> frozenset[FeatureId]:
    """Static dependent set of a numeric feature (never contains the feature itself)."""
    if f is F.OUTPUTUSAGE:
        raise FeatureError("OUTPUTUSAGE is categorical and has no dependency entry")
    return _DEPENDENTS[f]


@dataclass
class FeatureVector:
    op: OperatorType
    values: dict[FeatureId, float]


def _inner_table_tuple_count(node: PlanNode) -> Optional[int]:
    """Base-table tuple count (pre-predicate) of the inner subtree, if any."""
    for n in node.children[1].walk():
        if n.table is not None:
            return n.table.tuple_count
    return None


def extract_features(
    node: PlanNode,
    parent_op: int = NO_PARENT,
    source: str = "true",
) -> FeatureVector:
    """Compute the applicable feature vector of one operator instance.

    ``source`` selects true vs optimizer-estimated cardinalities for every
    tuple-count-derived feature; table-level counts (TSIZE, PAGES) are exact.
    A value that is not finite (a product that overflows a float) raises
    :class:`PlanError`.
    """
    if source not in ("true", "estimated"):
        raise FeatureError(f"unknown cardinality source {source!r}")

    def card(n: PlanNode) -> float:
        return float(n.true_out_cardinality if source == "true" else n.est_out_cardinality)

    op = node.op
    v: dict[FeatureId, float] = {}
    cout = card(node)
    v[COUT] = cout
    v[SOUTAVG] = node.out_row_bytes
    v[SOUTTOT] = cout * node.out_row_bytes
    v[OUTPUTUSAGE] = float(parent_op)

    cins = []
    for i, child in enumerate(node.children):
        slot = _CHILD_SLOTS[min(i, 1)]
        cin = card(child)
        cins.append(cin)
        v[slot[0]] = cin
        v[slot[1]] = child.out_row_bytes
        v[slot[2]] = cin * child.out_row_bytes

    if op in LEAF_OPS:
        if node.table is None:
            raise FeatureError(f"{op.name} node lacks table metadata")
        v[TSIZE] = float(node.table.tuple_count)
        v[PAGES] = float(node.table.page_count)
        v[TCOLUMNS] = float(node.table.column_count)
        v[ESTIOCOST] = node.est_io_cost
        if op is IndexSeek:
            v[INDEXDEPTH] = float(node.table.index_depth)
    if op is Sort:
        v[CSORTCOL] = float(node.sort_columns)
        v[MINCOMP] = cins[0] * node.sort_columns
    if op is HashAggregate or op is HashJoin:
        v[HASHOPAVG] = node.hash_ops_per_tuple
        v[HASHOPTOT] = node.hash_ops_per_tuple * cins[0]
    if op is HashAggregate:
        v[CHASHCOL] = float(node.hash_columns)
    if op in JOIN_OPS:
        v[CINNERCOL] = float(node.join_inner_columns)
        v[COUTERCOL] = float(node.join_outer_columns)
    if op is MergeJoin:
        v[SINSUM] = v[SINTOT1] + v[SINTOT2]
    if op is NestedLoopJoin:
        inner = _inner_table_tuple_count(node)
        v[SSEKTABLE] = float(inner) if inner is not None else cins[1]

    if not all(map(math.isfinite, v.values())):
        f = next(f for f, x in v.items() if not math.isfinite(x))
        raise PlanError(f"{op.name} operator: feature {f.name} is not finite ({v[f]})")
    return FeatureVector(op=op, values=v)


def featurize(root: PlanNode, source: str = "true") -> Iterator[tuple[PlanNode, FeatureVector]]:
    """Every operator under ``root`` in pre-order, with its feature vector."""
    for node, parent_op, _, _ in preorder(root):
        yield node, extract_features(node, parent_op, source)


@dataclass
class FeatureBatch:
    """Every operator of a list of plans, featurized in one pass.

    ``nodes`` lists the operators plan by plan, each plan in pre-order; plan i
    owns positions ``bounds[i]:bounds[i + 1]``. ``raw[op]`` holds one row per
    operator of type ``op``, indexed by feature code (0 where a feature does
    not apply), and ``at[op]`` the positions of those operators in ``nodes``.
    """

    plans: Sequence[QueryPlan]
    nodes: list[PlanNode]
    bounds: list[int]
    raw: dict[OperatorType, np.ndarray]
    at: dict[OperatorType, np.ndarray]

    def plan_sums(self, values: Sequence[float]) -> list[float]:
        """Each plan's sum of its operators' ``values``, added in pre-order."""
        return [ordered_sum(values[lo:hi]) for lo, hi in zip(self.bounds, self.bounds[1:])]


def featurize_many(plans: Sequence[QueryPlan], source: str = "true") -> FeatureBatch:
    """One :func:`featurize` pass over every plan, kept as one raw feature
    matrix per operator type."""
    nodes: list[PlanNode] = []
    bounds = [0]
    rows: dict[OperatorType, array] = {}
    at: dict[OperatorType, list[int]] = {}
    for plan in plans:
        try:
            for node, fv in featurize(plan.root, source):
                op, values = node.op, fv.values
                if op not in rows:
                    rows[op], at[op] = array("d"), []
                rows[op].extend([values[f] for f in applicable_features(op)])
                at[op].append(len(nodes))
                nodes.append(node)
        except PlanError as exc:
            raise PlanError(f"plan {plan.query_id}: {exc}") from None
        bounds.append(len(nodes))
    raw = {}
    for op, flat in rows.items():
        codes = [int(f) for f in applicable_features(op)]
        X = np.zeros((len(at[op]), FEATURE_SPACE))
        X[:, codes] = np.frombuffer(flat).reshape(len(at[op]), len(codes))
        raw[op] = X
    return FeatureBatch(
        plans=plans,
        nodes=nodes,
        bounds=bounds,
        raw=raw,
        at={op: np.array(pos, dtype=np.intp) for op, pos in at.items()},
    )

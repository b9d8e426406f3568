"""Feature taxonomy, extraction, dependency relation, and normalization."""
from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from conftest import make_table, scan_node, sort_over_scan
from test_plan import drawn_plans
from qres.features import (
    NEVER_SCALE_IO,
    FeatureError,
    FeatureId,
    applicable_features,
    dependents,
    extract_features,
    lg,
)
from qres.plan import NO_PARENT, OperatorType, PlanNode, QueryPlan
from qres.registry import ScaleTerm, transform_for_scaling
from qres.scaling import FormKind

F = FeatureId


def test_feature_codes_stable():
    # [TRIVIAL] stable one-byte codes 1..24
    assert [int(f) for f in FeatureId] == list(range(1, 25))
    assert F.COUT == 1 and F.SINSUM == 24


def test_applicable_features_by_operator():
    # Leaf scans: output + table features, no input slots.
    assert applicable_features(OperatorType.TableScan) == (
        F.COUT, F.SOUTAVG, F.SOUTTOT, F.OUTPUTUSAGE,
        F.TSIZE, F.PAGES, F.TCOLUMNS, F.ESTIOCOST,
    )
    # IndexSeek additionally sees the index depth.
    assert F.INDEXDEPTH in applicable_features(OperatorType.IndexSeek)
    # Single-child: one input slot triple, no child-2 slots.
    filt = applicable_features(OperatorType.Filter)
    assert F.CIN1 in filt and F.CIN2 not in filt
    # Joins: both child slots.
    for op in (OperatorType.HashJoin, OperatorType.MergeJoin, OperatorType.NestedLoopJoin):
        feats = applicable_features(op)
        assert F.CIN1 in feats and F.CIN2 in feats
    assert F.SSEKTABLE in applicable_features(OperatorType.NestedLoopJoin)
    assert F.SINSUM in applicable_features(OperatorType.MergeJoin)
    assert F.MINCOMP in applicable_features(OperatorType.Sort)


def test_lg_clamped():
    # [TRIVIAL] log2 with small arguments clamped to 1
    assert lg(0.0) == 1.0
    assert lg(1.0) == 1.0
    assert lg(1.999) == 1.0
    assert lg(2.0) == 1.0
    assert lg(8.0) == 3.0
    assert lg(1024.0) == 10.0


@given(st.floats(min_value=2.0, max_value=1e12))
def test_lg_matches_log2_above_two(x):
    assert lg(x) == math.log2(x)


def test_extract_scan_features():
    # [DERIVED] hand-computed from the node fields
    table = make_table(tuples=10_000, row_bytes=100.0, columns=8)
    node = scan_node(table, out=2_500)
    fv = extract_features(node, parent_op=int(OperatorType.Filter))
    assert fv.values[F.COUT] == 2_500.0
    assert fv.values[F.SOUTAVG] == 100.0
    assert fv.values[F.SOUTTOT] == 250_000.0
    assert fv.values[F.TSIZE] == 10_000.0
    assert fv.values[F.PAGES] == float(table.page_count)
    assert fv.values[F.TCOLUMNS] == 8.0
    assert fv.values[F.OUTPUTUSAGE] == float(int(OperatorType.Filter))


def test_output_usage_sentinel_at_root():
    fv = extract_features(scan_node(make_table()), parent_op=NO_PARENT)
    assert fv.values[F.OUTPUTUSAGE] == 0.0


def test_sort_derived_features():
    plan = sort_over_scan(tuples=1_000, sort_cols=3)
    fv = extract_features(plan.root, NO_PARENT)
    assert fv.values[F.CIN1] == 1_000.0
    assert fv.values[F.CSORTCOL] == 3.0
    assert fv.values[F.MINCOMP] == 3_000.0  # CIN1 x CSORTCOL


def test_join_features_and_identities():
    build = scan_node(make_table(tuples=500, table_id="b"), out=500)
    probe = scan_node(make_table(tuples=9_000, table_id="p"), out=9_000)
    join = PlanNode(
        op=OperatorType.HashJoin, children=[build, probe],
        true_out_cardinality=700, est_out_cardinality=900,
        out_row_bytes=50.0, join_inner_columns=1, join_outer_columns=1,
        hash_ops_per_tuple=1.5,
    )
    fv = extract_features(join, NO_PARENT, source="true")
    assert fv.values[F.CIN1] == 500.0 and fv.values[F.CIN2] == 9_000.0
    assert fv.values[F.SINTOT1] == 500.0 * build.out_row_bytes
    assert fv.values[F.HASHOPTOT] == pytest.approx(1.5 * 500.0)  # HASHOPAVG x CIN1
    est = extract_features(join, NO_PARENT, source="estimated")
    assert est.values[F.COUT] == 900.0
    # Table-level features are exact regardless of cardinality source.
    assert est.values.get(F.TSIZE) is None  # joins carry no table features


def test_sseek_table_uses_inner_base_table():
    outer = scan_node(make_table(tuples=100, table_id="o"), out=100)
    inner = scan_node(make_table(tuples=50_000, table_id="i"), out=3)
    inner.op = OperatorType.IndexSeek
    nl = PlanNode(
        op=OperatorType.NestedLoopJoin, children=[outer, inner],
        true_out_cardinality=300, est_out_cardinality=300,
        out_row_bytes=10.0, join_inner_columns=1, join_outer_columns=1,
    )
    fv = extract_features(nl, NO_PARENT)
    # SSEKTABLE is the inner base table's full tuple count, not the seek output.
    assert fv.values[F.SSEKTABLE] == 50_000.0


def test_merge_join_sinsum_identity(small_corpus):
    for plan in small_corpus:
        for node in plan.root.walk():
            if node.op is OperatorType.MergeJoin:
                fv = extract_features(node, NO_PARENT)
                assert fv.values[F.SINSUM] == pytest.approx(
                    fv.values[F.SINTOT1] + fv.values[F.SINTOT2]
                )


def test_schema_matches_applicable_exactly(small_corpus):
    # Invariant: extraction produces exactly the applicable feature set, on
    # the corpus and on drawn plans of every shape and operator type.
    plans = list(small_corpus) + drawn_plans()
    assert {n.op for p in plans for n in p.root.walk()} == set(OperatorType)
    for plan in plans:
        stack = [(plan.root, NO_PARENT)]
        while stack:
            node, parent = stack.pop()
            fv = extract_features(node, parent)
            assert tuple(sorted(fv.values)) == applicable_features(node.op)
            stack.extend((c, int(node.op)) for c in node.children)


def test_dependents_never_contains_self():
    for f in FeatureId:
        if f is F.OUTPUTUSAGE:
            continue
        assert f not in dependents(f)


def test_dependents_rejects_categorical():
    with pytest.raises(FeatureError):
        dependents(F.OUTPUTUSAGE)


def test_dependency_identities_covered():
    # Arithmetic identities force these memberships.
    assert F.SOUTTOT in dependents(F.COUT)
    assert F.SOUTTOT in dependents(F.SOUTAVG)
    assert F.SINTOT1 in dependents(F.CIN1)
    assert F.HASHOPTOT in dependents(F.CIN1)
    assert F.MINCOMP in dependents(F.CSORTCOL)
    assert F.MINCOMP in dependents(F.CIN1)
    assert F.SINSUM in dependents(F.SINTOT1)
    # Input cardinalities of one join move together.
    assert F.CIN2 in dependents(F.CIN1)
    assert F.CIN1 in dependents(F.CIN2)
    assert F.PAGES in dependents(F.TSIZE)


def test_never_scale_io_contents():
    assert NEVER_SCALE_IO == {
        F.HASHOPAVG, F.HASHOPTOT, F.CHASHCOL, F.CINNERCOL, F.COUTERCOL,
        F.MINCOMP, F.CSORTCOL,
    }


def normalize(fv, feature):
    """Normalization by one scale feature, as a one-term combined model does it."""
    return transform_for_scaling(fv, [ScaleTerm(kind=FormKind.Linear, features=(feature,))])


def test_normalize_for_outlier_scan():
    # [DERIVED] dividing TSIZE's dependents by TSIZE and dropping TSIZE
    table = make_table(tuples=10_000)
    fv = extract_features(scan_node(table), NO_PARENT)
    norm = normalize(fv, F.TSIZE)
    assert F.TSIZE not in norm.values
    assert norm.values[F.COUT] == fv.values[F.COUT] / 10_000.0
    assert norm.values[F.PAGES] == fv.values[F.PAGES] / 10_000.0
    assert norm.values[F.ESTIOCOST] == fv.values[F.ESTIOCOST] / 10_000.0
    # Non-dependents untouched.
    assert norm.values[F.TCOLUMNS] == fv.values[F.TCOLUMNS]
    assert norm.values[F.SOUTAVG] == fv.values[F.SOUTAVG]


def test_normalize_join_cin_makes_ratios_scale_free():
    # Scaling both inputs by k leaves every CIN1-normalized feature unchanged.
    def join_at(k: int):
        build = scan_node(make_table(tuples=500 * k, table_id="b"))
        probe = scan_node(make_table(tuples=2_000 * k, table_id="p"))
        j = PlanNode(
            op=OperatorType.HashJoin, children=[build, probe],
            true_out_cardinality=700 * k, est_out_cardinality=700 * k,
            out_row_bytes=50.0, join_inner_columns=1, join_outer_columns=1,
            hash_ops_per_tuple=1.0,
        )
        return normalize(extract_features(j, NO_PARENT), F.CIN1)

    a, b = join_at(1), join_at(10)
    for f in a.values:
        if f is F.OUTPUTUSAGE:
            continue
        assert a.values[f] == pytest.approx(b.values[f]), f.name


def test_normalize_rejects_zero_outlier():
    fv = extract_features(scan_node(make_table(tuples=10)), NO_PARENT)
    fv.values[F.TSIZE] = 0.0
    with pytest.raises(FeatureError, match="degenerate"):
        normalize(fv, F.TSIZE)


def _reference_features(node: PlanNode, parent_code: int, source: str) -> dict[str, float]:
    """Every feature definition restated by name, read from the node's fields
    only: the reference :func:`extract_features` is compared against."""
    def card(n):
        return float(n.true_out_cardinality if source == "true" else n.est_out_cardinality)

    op, kids, out = node.op.name, node.children, {}
    out["COUT"] = card(node)
    out["SOUTAVG"] = node.out_row_bytes
    out["SOUTTOT"] = card(node) * node.out_row_bytes
    out["OUTPUTUSAGE"] = float(parent_code)
    for i, child in enumerate(kids, 1):
        out[f"CIN{i}"] = card(child)
        out[f"SINAVG{i}"] = child.out_row_bytes
        out[f"SINTOT{i}"] = card(child) * child.out_row_bytes
    if op in ("TableScan", "IndexScan", "IndexSeek"):
        out["TSIZE"] = float(node.table.tuple_count)
        out["PAGES"] = float(node.table.page_count)
        out["TCOLUMNS"] = float(node.table.column_count)
        out["ESTIOCOST"] = node.est_io_cost
    if op == "IndexSeek":
        out["INDEXDEPTH"] = float(node.table.index_depth)
    if op == "Sort":
        out["CSORTCOL"] = float(node.sort_columns)
        out["MINCOMP"] = out["CIN1"] * node.sort_columns
    if op in ("HashAggregate", "HashJoin"):
        out["HASHOPAVG"] = node.hash_ops_per_tuple
        out["HASHOPTOT"] = node.hash_ops_per_tuple * out["CIN1"]
    if op == "HashAggregate":
        out["CHASHCOL"] = float(node.hash_columns)
    if op in ("HashJoin", "MergeJoin", "NestedLoopJoin"):
        out["CINNERCOL"] = float(node.join_inner_columns)
        out["COUTERCOL"] = float(node.join_outer_columns)
    if op == "MergeJoin":
        out["SINSUM"] = out["SINTOT1"] + out["SINTOT2"]
    if op == "NestedLoopJoin":
        # The inner subtree's first base table in pre-order.
        stack = [kids[1]]
        while stack:
            n = stack.pop()
            if n.table is not None:
                out["SSEKTABLE"] = float(n.table.tuple_count)
                break
            stack.extend(reversed(n.children))
    return out


def _reference_walk(node: PlanNode, parent_code: int = 0):
    yield node, parent_code
    for child in node.children:
        yield from _reference_walk(child, node.op.value)


def _hand_built_plans() -> list[QueryPlan]:
    """The operators no synth template makes, over both kinds of children:
    ComputeScalar over StreamAggregate over Sort over IndexScan, and a
    NestedLoopJoin whose inner base table lies below a Filter."""
    def unary(op, child, true, est, **fields):
        return PlanNode(op=op, children=[child], true_out_cardinality=true,
                        est_out_cardinality=est, out_row_bytes=24.5, est_io_cost=3.25, **fields)

    table = make_table(tuples=7_000, row_bytes=88.0, columns=5, table_id="x")
    scan = scan_node(table, out=7_000)
    scan.op, scan.est_out_cardinality = OperatorType.IndexScan, 6_500
    chain = unary(OperatorType.ComputeScalar,
                  unary(OperatorType.StreamAggregate,
                        unary(OperatorType.Sort, scan, 7_000, 6_100, sort_columns=2),
                        310, 290),
                  310, 333)
    seek = scan_node(make_table(tuples=90_000, table_id="i", index_depth=4), out=3)
    seek.op, seek.est_out_cardinality = OperatorType.IndexSeek, 5
    outer = scan_node(make_table(tuples=400, table_id="o"), out=400)
    nl = PlanNode(
        op=OperatorType.NestedLoopJoin,
        children=[outer, unary(OperatorType.Filter, seek, 2, 4)],
        true_out_cardinality=800, est_out_cardinality=777, out_row_bytes=61.0,
        join_inner_columns=2, join_outer_columns=1,
    )
    plans = [QueryPlan("chain", chain), QueryPlan("nl", nl)]
    for plan in plans:
        plan.validate()
    return plans


def test_extract_features_equals_the_reference_definitions(small_corpus):
    # Every feature of every operator type, bit for bit and under the right
    # FeatureId, on each path that featurizes: one operator at a time and
    # featurize_many's raw rows. Names and codes are read from the enum
    # itself, so a module-level binding of a wrong member fails here.
    import struct

    from qres.features import featurize_many

    plans = list(small_corpus) + _hand_built_plans()
    assert {n.op for p in plans for n in p.root.walk()} == set(OperatorType)

    def bits(values: dict) -> dict:
        return {name: struct.pack("<d", v) for name, v in values.items()}

    for source in ("true", "estimated"):
        batch = featurize_many(plans, source)
        position = 0
        for plan in plans:
            for node, parent_code in _reference_walk(plan.root):
                want = _reference_features(node, parent_code, source)
                fv = extract_features(node, parent_code, source)
                assert fv.op is node.op
                assert all(type(v) is float for v in fv.values.values())
                assert bits({f.name: v for f, v in fv.values.items()}) == bits(want)
                row = batch.raw[node.op][list(batch.at[node.op]).index(position)]
                dense = {FeatureId[name].value: v for name, v in want.items()}
                assert bits({c: float(x) for c, x in enumerate(row) if c in dense}) == bits(dense)
                assert not row[[c for c in range(len(row)) if c not in dense]].any()
                assert batch.nodes[position] is node
                position += 1
        assert position == len(batch.nodes)

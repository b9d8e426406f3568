"""Plan model, validation, pipeline decomposition, and JSON round trips."""
from __future__ import annotations

import random

import pytest

from conftest import INNER_TABLE_JOIN, make_table, scan_node, sort_over_scan
from qres.plan import (
    BLOCKING_OPS,
    JOIN_OPS,
    LEAF_OPS,
    MAX_PLAN_DEPTH,
    NO_PARENT,
    OperatorType,
    Pipeline,
    PlanError,
    PlanNode,
    QueryPlan,
    decompose_pipelines,
    load_corpus,
    operator_arity,
    parse_plan,
    pipeline_preorder,
    plan_to_json,
    preorder,
    save_corpus,
)
from qres.synth import _TEMPLATES, CorpusSpec, generate_corpus


def test_operator_codes_stable():
    # [TRIVIAL] one-byte, dense, stable codes
    codes = [int(op) for op in OperatorType]
    assert codes == list(range(1, 12))
    assert OperatorType.TableScan == 1
    assert OperatorType.ComputeScalar == 11
    assert NO_PARENT == 0


def test_operator_arity():
    for op in OperatorType:
        arity = operator_arity(op)
        if op in LEAF_OPS:
            assert arity == 0
        elif op in JOIN_OPS:
            assert arity == 2
        else:
            assert arity == 1


def test_validate_rejects_arity_violation():
    node = PlanNode(op=OperatorType.Filter, children=[])
    with pytest.raises(PlanError, match="arity"):
        node.validate()


def test_validate_rejects_leaf_without_table():
    node = PlanNode(op=OperatorType.TableScan, children=[])
    with pytest.raises(PlanError, match="table"):
        node.validate()


def test_validate_rejects_negative_cardinality():
    node = scan_node(make_table())
    node.true_out_cardinality = -1
    with pytest.raises(PlanError, match="negative"):
        node.validate()


def test_validate_error_names_offending_path():
    plan = sort_over_scan()
    plan.root.children[0].table = None
    with pytest.raises(PlanError, match=r"root\.children\[0\]"):
        plan.validate()
    # A probe side below a build side: each parent names its children.
    probe = PlanNode(op=OperatorType.Filter, children=[scan_node(make_table())])
    join = PlanNode(op=OperatorType.HashJoin, children=[scan_node(make_table()), probe])
    probe.children[0].true_out_cardinality = -1
    with pytest.raises(PlanError, match=r"^root\.children\[1\]\.children\[0\]: negative"):
        join.validate()


def test_pipeline_sort_over_scan():
    # [PAPER-style worked example] Sort over Scan decomposes into two
    # pipelines: the scan feeding the sort boundary first, the root last.
    plan = sort_over_scan()
    pipes = decompose_pipelines(plan)
    assert len(pipes) == 2
    assert [n.op for n in pipes[0].nodes] == [OperatorType.TableScan]
    assert pipes[0].boundary is plan.root
    assert [n.op for n in pipes[1].nodes] == [OperatorType.Sort]
    assert pipes[1].boundary is None


def test_pipeline_hash_join_build_side_blocks():
    build = scan_node(make_table(table_id="b"))
    probe = scan_node(make_table(table_id="p"))
    join = PlanNode(
        op=OperatorType.HashJoin, children=[build, probe],
        true_out_cardinality=10, est_out_cardinality=10,
        join_inner_columns=1, join_outer_columns=1, hash_ops_per_tuple=1.0,
    )
    plan = QueryPlan(query_id="hj", root=join)
    plan.validate()
    pipes = decompose_pipelines(plan)
    assert len(pipes) == 2
    # Build child (index 0) forms its own pipeline; probe runs with the join.
    assert pipes[0].nodes[0] is build
    assert {id(n) for n in pipes[1].nodes} == {id(join), id(probe)}


def test_pipeline_partition_is_exact_cover(small_corpus):
    # Invariant: pipelines partition the node set.
    for plan in small_corpus:
        pipes = decompose_pipelines(plan)
        seen = [id(n) for p in pipes for n in p.nodes]
        assert sorted(seen) == sorted(id(n) for n in plan.nodes())
        assert pipes[-1].boundary is None


def test_non_blocking_ops_never_cut(small_corpus):
    for plan in small_corpus:
        for pipe in decompose_pipelines(plan):
            if pipe.boundary is not None:
                assert pipe.boundary.op in BLOCKING_OPS | {OperatorType.HashJoin}


def _reference_pipelines(plan: QueryPlan) -> list[Pipeline]:
    """The queue-based decomposition: each pipeline is walked breadth first
    from its start, and each blocking edge queues a new pipeline."""
    preorder_index = {id(n): i for i, n in enumerate(plan.root.walk())}
    pending = [(plan.root, None)]
    pipelines = []
    while pending:
        start, boundary = pending.pop(0)
        members = []
        queue = [start]
        while queue:
            node = queue.pop(0)
            members.append(node)
            cut = node.op in BLOCKING_OPS or node.op is OperatorType.HashJoin
            for i, child in enumerate(node.children):
                if cut and i == 0:
                    pending.append((child, node))
                else:
                    queue.append(child)
        pipelines.append(Pipeline(nodes=members, boundary=boundary))
    pipelines.sort(key=lambda p: (1, 0) if p.boundary is None else (0, preorder_index[id(p.boundary)]))
    return pipelines


def _random_node(rng: random.Random, depth: int, max_depth: int) -> PlanNode:
    ops = list(OperatorType) if depth < max_depth else sorted(LEAF_OPS)
    op = rng.choice(ops)
    children = [_random_node(rng, depth + 1, max_depth) for _ in range(operator_arity(op))]
    return PlanNode(op=op, children=children)


def test_pipelines_equal_the_queue_based_decomposition(tiny_tables):
    # Same nodes, in the same order, under the same boundary: the order of
    # every per-pipeline sum of an estimate depends on it.
    def shape(pipes):
        return [([id(n) for n in p.nodes], id(p.boundary) if p.boundary is not None else None) for p in pipes]

    corpus = generate_corpus(CorpusSpec(
        templates={name: 1.0 for name in _TEMPLATES}, tables=tiny_tables,
        scales=[1.0, 8.0], query_count=90, rng_seed=12,
    ))
    assert {plan.template for plan in corpus} == set(_TEMPLATES)
    rng = random.Random(12)
    drawn = [QueryPlan(query_id=f"r{i}", root=_random_node(rng, 1, 9)) for i in range(2_000)]
    assert {n.op for plan in drawn for n in plan.nodes()} == set(OperatorType)
    depths = [(plan.root, 1) for plan in drawn]
    for node, depth in depths:
        depths.extend((child, depth + 1) for child in node.children)
    assert max(depth for _, depth in depths) == 9
    for plan in corpus + drawn:
        assert shape(decompose_pipelines(plan)) == shape(_reference_pipelines(plan)), plan.query_id


def _walk_pipelines(plan: QueryPlan) -> list[Pipeline]:
    """The pipelines of :func:`pipeline_preorder`'s places, assembled here:
    each pipeline's nodes by a stable sort of pre-order on depth, under the
    node visited just before the pipeline's first; numbered ones first, in
    number order, and pipeline 0 last."""
    members: dict[int, list] = {}
    boundary: dict[int, PlanNode] = {}
    before = None
    for node, _, pipeline, depth in pipeline_preorder(plan.root):
        if pipeline not in members:
            members[pipeline] = []
            boundary[pipeline] = before
        members[pipeline].append((depth, node))
        before = node
    order = sorted(members, key=lambda p: (p == 0, p))
    assert order == [*range(1, len(order)), 0]
    return [
        Pipeline([n for _, n in sorted(members[p], key=lambda dn: dn[0])], boundary[p])
        for p in order
    ]


def test_walk_places_nodes_as_the_queue_based_decomposition(tiny_tables):
    # The walk visits as preorder does, and its pipeline numbers and depths
    # give the reference's pipelines, nodes in order, under each boundary.
    def shape(pipes):
        return [([id(n) for n in p.nodes], id(p.boundary) if p.boundary is not None else None) for p in pipes]

    corpus = generate_corpus(CorpusSpec(
        templates={name: 1.0 for name in _TEMPLATES}, tables=tiny_tables,
        scales=[1.0, 8.0], query_count=90, rng_seed=12,
    ))
    rng = random.Random(12)
    drawn = [QueryPlan(query_id=f"r{i}", root=_random_node(rng, 1, 9)) for i in range(2_000)]
    for plan in corpus + drawn:
        walk = list(pipeline_preorder(plan.root))
        assert [(node, parent) for node, parent, *_ in walk] == list(preorder(plan.root))
        assert shape(_walk_pipelines(plan)) == shape(_reference_pipelines(plan)), plan.query_id


def test_shared_node_is_placed_at_each_visit():
    # One scan object under both sides of a HashJoin lands where a copy of
    # it would: alone on the build side, and with the join on the probe side.
    scan = scan_node(make_table())
    join = PlanNode(op=OperatorType.HashJoin, children=[scan, scan])
    plan = QueryPlan(query_id="shared", root=join)
    plan.validate()
    places = [(id(node), pipeline, depth) for node, _, pipeline, depth in pipeline_preorder(join)]
    assert places == [(id(join), 0, 0), (id(scan), 1, 0), (id(scan), 0, 1)]
    pipes = decompose_pipelines(plan)
    assert [([id(n) for n in p.nodes], id(p.boundary)) for p in pipes] == [
        ([id(scan)], id(join)), ([id(join), id(scan)], id(None)),
    ]


def test_json_round_trip_is_identity(small_corpus):
    for plan in small_corpus:
        text = plan_to_json(plan)
        again = plan_to_json(parse_plan(text))
        assert text == again


def test_json_round_trip_preserves_fields():
    plan = sort_over_scan(tuples=777, sort_cols=3)
    plan.root.observed = {"cpu_us": 12.5, "logical_io": 0.0}
    back = parse_plan(plan_to_json(plan))
    assert back.root.sort_columns == 3
    assert back.root.observed == {"cpu_us": 12.5, "logical_io": 0.0}
    assert back.root.children[0].table.tuple_count == 777


def _filter_chain(depth: int) -> QueryPlan:
    """A plan of ``depth`` nodes: Filters over one scan."""
    node = scan_node(make_table())
    for _ in range(depth - 1):
        node = PlanNode(op=OperatorType.Filter, children=[node],
                        true_out_cardinality=10, est_out_cardinality=10)
    return QueryPlan(query_id="chain", root=node)


def test_json_depth_limit_is_shared_by_encoder_and_parser(tmp_path):
    deepest = _filter_chain(MAX_PLAN_DEPTH)
    assert plan_to_json(parse_plan(plan_to_json(deepest))) == plan_to_json(deepest)
    # One level more: the hand-written document is refused like the plan.
    text = plan_to_json(deepest).replace('"root":', '"root":{"op":"Filter","card_true":1,"card_est":1,"children":[', 1)
    with pytest.raises(PlanError, match="nested too deeply"):
        parse_plan(text[:-1] + "]}}")
    for depth in (MAX_PLAN_DEPTH + 1, 600):
        plan = _filter_chain(depth)
        with pytest.raises(PlanError, match="nested too deeply"):
            plan_to_json(plan)
        with pytest.raises(PlanError, match="nested too deeply"):
            save_corpus([plan], str(tmp_path / "deep.jsonl"))


def test_failed_save_leaves_previous_file_unchanged(tmp_path):
    path = tmp_path / "corpus.jsonl"
    save_corpus([sort_over_scan()], str(path))
    before = path.read_bytes()
    with pytest.raises(PlanError, match="nested too deeply"):
        save_corpus([sort_over_scan(64), _filter_chain(MAX_PLAN_DEPTH + 45)], str(path))
    assert path.read_bytes() == before


def test_parse_rejects_unknown_operator():
    with pytest.raises(PlanError, match="operator"):
        parse_plan('{"root": {"op": "Sortt", "card_true": 1, "card_est": 1}}')


def test_parse_rejects_non_object():
    with pytest.raises(PlanError):
        parse_plan("[1,2,3]")


_SCAN = (
    '"op":"TableScan","card_true":10,"card_est":10,"table":{"table_id":"a",'
    '"tuple_count":10,"page_count":1,"column_count":2,"avg_row_bytes":10.0}'
)


BAD_PLAN_LINES = {
    "observed list": ('{"root":{%s,"observed":[1,2]}}' % _SCAN, "observed must be an object"),
    "observed text": (
        '{"root":{%s,"observed":{"cpu_us":"x"}}}' % _SCAN,
        "root: malformed node: expected a number, got 'x'",
    ),
    "cols list": ('{"root":{%s,"cols":[1]}}' % _SCAN, "cols must be an object"),
    "children number": ('{"root":{%s,"children":3}}' % _SCAN, "children must be a list"),
    "NaN": ('{"root":{%s,"row_bytes":NaN}}' % _SCAN, "non-finite"),
    "Infinity": ('{"root":{%s,"row_bytes":Infinity}}' % _SCAN, "non-finite"),
    "1e999": ('{"root":{%s,"row_bytes":1e999}}' % _SCAN, "non-finite"),
    "-Infinity observed": (
        '{"root":{%s,"observed":{"cpu_us":-Infinity}}}' % _SCAN, "non-finite"
    ),
    "NaN scale": ('{"root":{%s},"scale":NaN}' % _SCAN, "non-finite"),
    "1e999 cardinality": (
        '{"root":{%s}}' % _SCAN.replace('"card_true":10', '"card_true":1e999'), "infinity"
    ),
    "401-digit cardinality": (
        '{"root":{%s}}' % _SCAN.replace('"card_true":10', '"card_true":' + "9" * 401),
        "too large to convert to float",
    ),
    "401-digit tuple count": (
        '{"root":{%s}}' % _SCAN.replace('"tuple_count":10', '"tuple_count":' + "9" * 401),
        "too large to convert to float",
    ),
    "NaN table row bytes": (
        '{"root":{%s}}' % _SCAN.replace('"avg_row_bytes":10.0', '"avg_row_bytes":NaN'),
        "non-finite",
    ),
    "negative row_bytes": ('{"root":{%s,"row_bytes":-50}}' % _SCAN, "root: negative row_bytes"),
    **{
        f"negative {name}": (
            '{"root":{%s,"cols":{"%s":-1}}}' % (_SCAN, name), f"root: negative {name} -1"
        )
        for name in ("sort_columns", "hash_columns", "join_inner_columns",
                     "join_outer_columns", "hash_ops_per_tuple")
    },
    "negative column_count": (
        '{"root":{%s}}' % _SCAN.replace('"column_count":2', '"column_count":-7'),
        "root: negative column_count -7",
    ),
    "negative avg_row_bytes": (
        '{"root":{%s}}' % _SCAN.replace('"avg_row_bytes":10.0', '"avg_row_bytes":-10.0'),
        "root: negative avg_row_bytes",
    ),
    "negative page_count of an empty table": (
        '{"root":{%s}}' % _SCAN.replace('"tuple_count":10,"page_count":1',
                                        '"tuple_count":0,"page_count":-1'),
        "root: negative page_count -1",
    ),
    "list template": ('{"root":{%s},"template":["a",1]}' % _SCAN, "template must be a string"),
    "object template": ('{"root":{%s},"template":{"x":1}}' % _SCAN, "template must be a string"),
    "zero scale": ('{"root":{%s},"scale":0}' % _SCAN, "scale must be positive"),
    "negative scale": ('{"root":{%s},"scale":-3}' % _SCAN, "scale must be positive"),
    "negative tuple_count on a non-leaf": (
        INNER_TABLE_JOIN, r"root\.children\[1\]: negative tuple_count -5000"
    ),
    "fractional card_true": (
        '{"root":{%s}}' % _SCAN.replace('"card_true":10', '"card_true":2.5'),
        "root: malformed node: expected an integer, got 2.5",
    ),
    "boolean card_true": (
        '{"root":{%s}}' % _SCAN.replace('"card_true":10', '"card_true":true'),
        "root: malformed node: expected an integer, got True",
    ),
    "string card_true": (
        '{"root":{%s}}' % _SCAN.replace('"card_true":10', '"card_true":"12"'),
        "root: malformed node: expected an integer, got '12'",
    ),
    "string row_bytes": (
        '{"root":{%s,"row_bytes":"50"}}' % _SCAN,
        "root: malformed node: expected a number, got '50'",
    ),
    "boolean est_io_cost": (
        '{"root":{%s,"est_io_cost":true}}' % _SCAN,
        "root: malformed node: expected a number, got True",
    ),
    "string avg_row_bytes": (
        '{"root":{%s}}' % _SCAN.replace('"avg_row_bytes":10.0', '"avg_row_bytes":"10.5"'),
        "root: malformed table metadata: expected a number, got '10.5'",
    ),
    "string scale": (
        '{"root":{%s},"scale":"2"}' % _SCAN, "malformed plan scale: expected a number, got '2'"
    ),
    "fractional column_count": (
        '{"root":{%s}}' % _SCAN.replace('"column_count":2', '"column_count":2.9'),
        "root: malformed table metadata: expected an integer, got 2.9",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_PLAN_LINES))
def test_one_line_plan_file_with_bad_field_is_plan_error(tmp_path, case):
    line, message = BAD_PLAN_LINES[case]
    path = tmp_path / "plan.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(PlanError, match=message):
        load_corpus(str(path))


def test_observed_total_and_labels():
    plan = sort_over_scan()
    for read in (plan.labels, plan.observed_total):
        with pytest.raises(PlanError, match="plan sort-scan: missing observed label for 'cpu_us'"):
            read("cpu_us")
    for value, node in enumerate(plan.nodes(), 1):
        node.observed = {"cpu_us": float(value)}
    assert plan.labels("cpu_us") == [1.0, 2.0]
    assert plan.observed_total("cpu_us") == 3.0
    plan.root.children[0].observed = {"logical_io": 1.0}
    with pytest.raises(PlanError, match="missing observed"):
        plan.labels("cpu_us")

"""The one-pass plan decoder against the two-pass decoder it replaced."""
from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import INNER_TABLE_JOIN
from qres.plan import (
    _FIELD_ERRORS,
    _OP_BY_NAME,
    MAX_PLAN_DEPTH,
    PlanError,
    PlanNode,
    QueryPlan,
    TableMeta,
    finite_float,
    finite_int,
    load_corpus,
    parse_plan,
    plan_to_json,
    preorder,
)
from qres.synth import _TEMPLATES, CorpusSpec, generate_corpus
from test_cli import _mutated_plans


# [DERIVED] The two-pass decoder: it decodes the whole tree, converting each
# number with finite_int or finite_float and building a TableMeta for every
# table, then walks the tree again to validate it. Kept as the reference for
# plans and error messages.

def _ref_object(value, path: str, what: str) -> dict:
    if not isinstance(value, dict):
        raise PlanError(f"{path}: {what} must be an object")
    return value


def _ref_table(doc: dict, path: str) -> TableMeta:
    try:
        return TableMeta(
            table_id=str(doc["table_id"]),
            tuple_count=finite_int(doc["tuple_count"]),
            page_count=finite_int(doc["page_count"]),
            column_count=finite_int(doc["column_count"]),
            avg_row_bytes=finite_float(doc["avg_row_bytes"]),
            index_depth=finite_int(doc.get("index_depth", 0)),
        )
    except _FIELD_ERRORS as exc:
        raise PlanError(f"{path}: malformed table metadata: {exc}") from None


def _ref_node(doc: dict, path: str, depth: int = 1) -> PlanNode:
    if depth > MAX_PLAN_DEPTH:
        raise PlanError(f"plan nested too deeply: more than {MAX_PLAN_DEPTH} levels")
    _ref_object(doc, path, "node")
    try:
        op = _OP_BY_NAME[doc["op"]]
    except (KeyError, TypeError):
        raise PlanError(f"{path}: unknown or missing operator {doc.get('op')!r}") from None
    cols = _ref_object(doc.get("cols", {}), path, "cols")
    observed = doc.get("observed")
    if observed is not None:
        _ref_object(observed, path, "observed")
    children = doc.get("children", [])
    if not isinstance(children, list):
        raise PlanError(f"{path}: children must be a list")
    try:
        if observed is not None:
            observed = {str(k): finite_float(v) for k, v in observed.items()}
        node = PlanNode(
            op=op,
            true_out_cardinality=finite_int(doc["card_true"]),
            est_out_cardinality=finite_int(doc["card_est"]),
            out_row_bytes=finite_float(doc.get("row_bytes", 0.0)),
            table=_ref_table(doc["table"], path) if doc.get("table") else None,
            est_io_cost=finite_float(doc.get("est_io_cost", 0.0)),
            sort_columns=finite_int(cols.get("sort_columns", 0)),
            hash_columns=finite_int(cols.get("hash_columns", 0)),
            join_inner_columns=finite_int(cols.get("join_inner_columns", 0)),
            join_outer_columns=finite_int(cols.get("join_outer_columns", 0)),
            hash_ops_per_tuple=finite_float(cols.get("hash_ops_per_tuple", 0.0)),
            observed=observed,
        )
    except _FIELD_ERRORS as exc:
        raise PlanError(f"{path}: malformed node: {exc}") from None
    node.children = [
        _ref_node(c, f"{path}.children[{i}]", depth + 1) for i, c in enumerate(children)
    ]
    return node


def _ref_validate(root: PlanNode) -> None:
    paths = {id(root): "root"}
    for node, _ in preorder(root):
        node_path = paths[id(node)]
        node._validate_one(node_path)
        for i, child in enumerate(node.children):
            paths[id(child)] = f"{node_path}.children[{i}]"


def reference_parse_plan(document: str) -> QueryPlan:
    try:
        doc = json.loads(document)
        if not isinstance(doc, dict) or "root" not in doc:
            raise PlanError("plan document must be an object with a 'root' node")
        root = _ref_node(doc["root"], "root")
    except json.JSONDecodeError as exc:
        raise PlanError(f"malformed plan document: {exc}") from None
    except RecursionError:
        raise PlanError(f"plan nested too deeply: more than {MAX_PLAN_DEPTH} levels") from None
    try:
        scale = finite_float(doc["scale"]) if doc.get("scale") is not None else None
    except _FIELD_ERRORS as exc:
        raise PlanError(f"malformed plan scale: {exc}") from None
    if scale is not None and scale <= 0:
        raise PlanError(f"plan scale must be positive, got {scale}")
    template = doc.get("template")
    if template is not None and not isinstance(template, str):
        raise PlanError(f"plan template must be a string, got {template!r}")
    plan = QueryPlan(query_id=str(doc.get("query_id", "")), root=root, scale=scale,
                     template=template)
    _ref_validate(plan.root)
    return plan


# ---------------------------------------------------------------------------


def _outcome(parse, document: str):
    """The plan and its encoding, or the type and text of the error."""
    try:
        plan = parse(document)
    except Exception as exc:  # noqa: BLE001 - the two decoders must fail alike
        return type(exc), str(exc)
    return plan, plan_to_json(plan)


def assert_same_as_reference(document: str):
    # ``==`` alone would take 1 for 1.0 and 0.0 for -0.0; the encodings
    # tell them apart.
    assert _outcome(parse_plan, document) == _outcome(reference_parse_plan, document), document


@pytest.fixture(scope="module")
def docs(tiny_tables):
    # Every template, so every operator and field, and one plan whose only
    # fault is a negative table below a NestedLoopJoin's inner side.
    corpus = generate_corpus(CorpusSpec(
        templates={name: 1.0 for name in _TEMPLATES}, tables=tiny_tables,
        scales=[1.0, 3.0], query_count=40, rng_seed=5, noise_sigma=0.05,
    ))
    picked = {plan.template: plan for plan in corpus}
    assert set(picked) == set(_TEMPLATES)
    return [json.loads(plan_to_json(p)) for p in picked.values()] + [json.loads(INNER_TABLE_JOIN)]


def _nodes(doc) -> list[tuple[dict, int]]:
    """Every node object of a plan document with its depth, root first."""
    out = [(doc["root"], 1)]
    for node, depth in out:
        out.extend((child, depth + 1) for child in node.get("children", []))
    return out


def _numbers(node: dict, keys=None) -> list[tuple[dict, str]]:
    """``(object, key)`` of the numbers of a node, of its table, cols and
    observed labels, whose key is in ``keys`` (any when None)."""
    return [
        (target, key)
        for target in (node, node.get("table"), node.get("cols"), node.get("observed")) if target
        for key in sorted(target)
        if type(target[key]) in (int, float) and (keys is None or key in keys)
    ]


#: Values that no number field takes, and a fraction, which integer fields
#: refuse.
_BAD = st.sampled_from(["x", "12", True, None, [1], {"a": 1}])
_BAD_INT = st.one_of(_BAD, st.just(2.5))
#: Where each kind of two-fault document puts its negative number.
_NEGATED = {
    "field": None,
    "scale": ("card_true", "card_est"),
    "template": ("row_bytes", "avg_row_bytes", "column_count", "sort_columns", "hash_columns",
                 "join_inner_columns", "join_outer_columns"),
}


@st.composite
def _two_faults(draw, docs):
    """A plan document with a negative number and one fault that comes
    before it: a field that does not decode, at another depth, a bad plan
    ``scale`` or a bad ``template``."""
    kind = draw(st.sampled_from(sorted(_NEGATED)))
    deep = [doc for doc in docs if doc["root"].get("children")]
    doc = json.loads(json.dumps(draw(st.sampled_from(deep))))
    nodes = _nodes(doc)
    negatable = [
        (node, depth) for node, depth in nodes
        if any(t[k] > 0 for t, k in _numbers(node, _NEGATED[kind]))
    ]
    neg_node, neg_depth = draw(st.sampled_from(negatable))
    if kind == "field":
        node = draw(st.sampled_from([n for n, d in nodes if d != neg_depth]))
        target, key = draw(st.sampled_from(_numbers(node)))
        target[key] = draw(_BAD_INT if type(target[key]) is int else _BAD)
    elif kind == "scale":
        doc["scale"] = draw(st.sampled_from([0, -2.0, "2", True, [2], float("nan")]))
    else:
        doc["template"] = draw(st.sampled_from([1, ["a"], {"t": 1}, True]))
    target, key = draw(st.sampled_from(
        [(t, k) for t, k in _numbers(neg_node, _NEGATED[kind]) if t[k] > 0]
    ))
    target[key] = -target[key]
    return kind, doc


_PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None,
                     suppress_health_check=[HealthCheck.too_slow])


def test_valid_and_corpus_plans_decode_as_the_reference(docs, small_corpus):
    for doc in docs:
        assert_same_as_reference(json.dumps(doc))
    for plan in small_corpus:
        assert_same_as_reference(plan_to_json(plan))


def test_mutated_plans_decode_or_fail_as_the_reference(docs):
    @_PROPERTY
    @given(_mutated_plans(docs))
    def check(mutated):
        doc, _ = mutated
        assert_same_as_reference(json.dumps(doc))

    check()


def test_two_fault_plans_report_the_fault_the_reference_reports(docs):
    # A decode fault anywhere comes first, then the plan scale, then the
    # template, then the first validation fault in pre-order.
    @_PROPERTY
    @given(_two_faults(docs))
    def check(case):
        kind, doc = case
        document = json.dumps(doc)
        assert_same_as_reference(document)
        with pytest.raises(PlanError) as err:
            parse_plan(document)
        expected = {"field": "malformed", "scale": "scale", "template": "template"}[kind]
        assert expected in str(err.value)
        assert "negative" not in str(err.value)

    check()


def test_load_corpus_prefixes_the_reference_error_with_path_and_line(tmp_path, docs):
    bad = json.loads(json.dumps(docs[0]))
    bad["root"]["card_true"] = -1
    path = tmp_path / "plans.jsonl"
    path.write_text(f"{json.dumps(docs[1])}\n\n{json.dumps(bad)}\n")
    with pytest.raises(PlanError) as err:
        load_corpus(str(path))
    with pytest.raises(PlanError) as ref:
        reference_parse_plan(json.dumps(bad))
    assert str(err.value) == f"{path}:3: {ref.value}"


def test_equal_tables_of_one_file_are_one_object(tmp_path, small_corpus):
    path = tmp_path / "plans.jsonl"
    path.write_text("".join(plan_to_json(p) + "\n" for p in small_corpus))
    tables = [n.table for p in load_corpus(str(path)) for n in p.nodes() if n.table is not None]
    by_value = {}
    for table in tables:
        by_value.setdefault(table, set()).add(id(table))
    assert len(tables) > len(by_value) > 1
    assert all(len(ids) == 1 for ids in by_value.values())


_ZERO_WIDTH_SCAN = (
    '{"root":{"op":"TableScan","card_true":0,"card_est":0,"table":{"table_id":"a",'
    '"tuple_count":%s,"page_count":%s,"column_count":2,"avg_row_bytes":%s}}}'
)


def test_tables_that_compare_equal_but_decode_apart_stay_apart(tmp_path):
    # 0.0 and -0.0 are equal keys, and so are 1 and true: each plan keeps
    # its own sign, and true is refused after a table that had 1.
    path = tmp_path / "plans.jsonl"
    lines = [_ZERO_WIDTH_SCAN % ("0", "0", width) for width in ("0.0", "-0.0", "0")]
    path.write_text("\n".join(lines) + "\n")
    plans = load_corpus(str(path))
    assert [plan_to_json(p) for p in plans] == [
        plan_to_json(reference_parse_plan(line)) for line in lines
    ]
    assert plans[0].root.table is plans[2].root.table
    assert plans[0].root.table is not plans[1].root.table
    path.write_text("".join(_ZERO_WIDTH_SCAN % (n, n, "1.0") + "\n" for n in ("1", "true")))
    with pytest.raises(PlanError, match=r":2: root: malformed node: .*expected an integer, got True"):
        load_corpus(str(path))

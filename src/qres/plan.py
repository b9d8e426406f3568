"""Physical query plan trees, operator taxonomy, and pipeline decomposition."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable, Iterator, Optional


class PlanError(ValueError):
    """Raised when a plan document is malformed or violates a structural invariant."""


class OperatorType(IntEnum):
    """Physical operator codes. Codes are stable, dense, and fit in one byte."""

    TableScan = 1
    IndexScan = 2
    IndexSeek = 3
    Filter = 4
    Sort = 5
    HashAggregate = 6
    StreamAggregate = 7
    HashJoin = 8
    MergeJoin = 9
    NestedLoopJoin = 10
    ComputeScalar = 11


#: Sentinel parent-operator code used for the root node of a plan.
NO_PARENT = 0

# Python 3.11's enum type defines ``__getattr__``, so ``OperatorType.Sort``,
# ``op.name``, ``OperatorType[name]`` and ``int(op)`` each cost 5-20 global
# reads; per-node code reads these bindings instead. Python 3.12 dropped the
# hook.
(TableScan, IndexScan, IndexSeek, Filter, Sort, HashAggregate, StreamAggregate,
 HashJoin, MergeJoin, NestedLoopJoin, ComputeScalar) = OperatorType
OP_NAME = {op: op.name for op in OperatorType}
OP_CODE = {op: int(op) for op in OperatorType}
_OP_BY_NAME = dict(OperatorType.__members__)

#: Operators with no children (access paths over a base table).
LEAF_OPS = frozenset({TableScan, IndexScan, IndexSeek})

#: Operators with exactly two children (child 0 = outer/build, child 1 = inner/probe).
JOIN_OPS = frozenset({HashJoin, MergeJoin, NestedLoopJoin})

#: Fully blocking operators: their input subtree forms a separate pipeline.
BLOCKING_OPS = frozenset({Sort, HashAggregate})


def operator_arity(op: OperatorType) -> int:
    if op in LEAF_OPS:
        return 0
    if op in JOIN_OPS:
        return 2
    return 1


@dataclass(frozen=True)
class TableMeta:
    """Metadata of a base table or index used by a scan/seek operator."""

    table_id: str
    tuple_count: int
    page_count: int
    column_count: int
    avg_row_bytes: float
    index_depth: int = 0

    def validate(self, path: str) -> None:
        if self.tuple_count < 0:
            raise PlanError(f"{path}: negative tuple_count {self.tuple_count}")
        if self.tuple_count > 0 and self.page_count < 1:
            raise PlanError(f"{path}: page_count must be >= 1 for a non-empty table")
        if min(self.page_count, self.column_count, self.avg_row_bytes, self.index_depth) < 0:
            for name in ("page_count", "column_count", "avg_row_bytes", "index_depth"):
                if getattr(self, name) < 0:
                    raise PlanError(f"{path}: negative {name} {getattr(self, name)}")


#: The plan-file names of the node fields that are widths or counts,
#: besides cardinalities, none of which may be negative.
_SIZE_FIELDS = (
    "row_bytes", "sort_columns", "hash_columns", "join_inner_columns",
    "join_outer_columns", "hash_ops_per_tuple",
)


@dataclass
class PlanNode:
    op: OperatorType
    children: list["PlanNode"] = field(default_factory=list)
    true_out_cardinality: int = 0
    est_out_cardinality: int = 0
    out_row_bytes: float = 0.0
    table: Optional[TableMeta] = None
    est_io_cost: float = 0.0
    sort_columns: int = 0
    hash_columns: int = 0
    join_inner_columns: int = 0
    join_outer_columns: int = 0
    hash_ops_per_tuple: float = 0.0
    observed: Optional[dict[str, float]] = None

    def validate(self, path: str = "root") -> None:
        """Check every node of the subtree; errors name the offending node's
        path from this node, e.g. ``root.children[0]``."""
        try:
            for node, _ in preorder(self):
                node._validate_one(path)
            return
        except PlanError:
            pass
        # Paths are built only to name the first fault, which raises again.
        paths = {id(self): path}
        for node, _ in preorder(self):
            node_path = paths[id(node)]
            node._validate_one(node_path)
            for i, child in enumerate(node.children):
                paths[id(child)] = f"{node_path}.children[{i}]"

    def _validate_one(self, path: str) -> None:
        arity = operator_arity(self.op)
        if len(self.children) != arity:
            raise PlanError(
                f"{path}: arity violation: {self.op.name} requires {arity} "
                f"child(ren), got {len(self.children)}"
            )
        if self.true_out_cardinality < 0 or self.est_out_cardinality < 0:
            raise PlanError(f"{path}: negative cardinality")
        # Features read the table of any node below a NestedLoopJoin's inner
        # side, so every table present is checked.
        if self.table is not None:
            self.table.validate(path)
        elif self.op in LEAF_OPS:
            raise PlanError(f"{path}: {self.op.name} requires table metadata")
        if self.op is IndexSeek and self.table.index_depth < 1:
            raise PlanError(f"{path}: IndexSeek access path requires index_depth >= 1")
        if self.est_io_cost < 0:
            raise PlanError(f"{path}: negative est_io_cost")
        sizes = (self.out_row_bytes, self.sort_columns, self.hash_columns,
                 self.join_inner_columns, self.join_outer_columns, self.hash_ops_per_tuple)
        if min(sizes) < 0:
            name, value = next((n, v) for n, v in zip(_SIZE_FIELDS, sizes) if v < 0)
            raise PlanError(f"{path}: negative {name} {value}")
        if self.observed is not None:
            for res, value in self.observed.items():
                if value < 0:
                    raise PlanError(f"{path}: negative observed value for {res}")

    def walk(self) -> Iterator["PlanNode"]:
        """Pre-order traversal of the subtree rooted at this node."""
        return (node for node, _ in preorder(self))


def preorder(root: PlanNode, mirrored: bool = False) -> Iterator[tuple[PlanNode, int]]:
    """Every node under ``root`` in pre-order, with its parent's operator code
    (``NO_PARENT`` for ``root``).

    The walk keeps its own stack, so plans of any depth can be visited.
    Children are visited left to right, or right to left when ``mirrored``:
    the reverse of a mirrored walk is a post-order with children left to right.
    """
    stack = [(root, NO_PARENT)]
    while stack:
        node, parent_op = stack.pop()
        yield node, parent_op
        if node.children:
            op = OP_CODE[node.op]
            for child in node.children if mirrored else reversed(node.children):
                stack.append((child, op))


def ordered_sum(values: Iterable[float]) -> float:
    """The sum of ``values`` added left to right in float64. Python 3.12's
    ``sum()`` compensates float rounding, so it would change estimates and
    reports with the interpreter version."""
    total = 0.0
    for v in values:
        total += v
    return total


@dataclass
class QueryPlan:
    query_id: str
    root: PlanNode
    scale: Optional[float] = None
    template: Optional[str] = None

    def validate(self) -> None:
        self.root.validate()

    def nodes(self) -> list[PlanNode]:
        return list(self.root.walk())

    def labels(self, resource: str) -> list[float]:
        """Every node's observed ``resource`` label, in pre-order; a node
        without one raises :class:`PlanError`."""
        labels = []
        for node in self.root.walk():
            if node.observed is None or resource not in node.observed:
                raise PlanError(
                    f"plan {self.query_id}: missing observed label for {resource!r}"
                )
            labels.append(node.observed[resource])
        return labels

    def observed_total(self, resource: str) -> float:
        return ordered_sum(self.labels(resource))


@dataclass
class Pipeline:
    """A maximal subtree of concurrently executing operators.

    ``boundary`` is the blocking operator consuming this pipeline's output
    (None for the pipeline containing the plan root).
    """

    nodes: list[PlanNode]
    boundary: Optional[PlanNode] = None


#: Operators whose child 0 starts a pipeline of its own.
_CUT_OPS = BLOCKING_OPS | {HashJoin}


def pipeline_preorder(root: PlanNode) -> Iterator[tuple[PlanNode, int, int, int]]:
    """Every node under ``root`` in pre-order, as :func:`preorder` visits it,
    with its parent's operator code, its pipeline and its depth in that
    pipeline.

    Pipelines are cut below every Sort and HashAggregate and above every
    HashJoin's build side (child 0). Pipeline 0 holds ``root``; the others
    are numbered 1, 2, ... in the pre-order of the operator they feed, whose
    child 0 follows it at depth 0. Each visit carries its own place, so a
    node held twice lands where a copy of it would.
    """
    stack = [(root, NO_PARENT, 0, 0)]
    count = 0
    while stack:
        node, _, pipeline, depth = item = stack.pop()
        yield item
        if node.children:
            op = node.op
            code, depth = OP_CODE[op], depth + 1
            for child in reversed(node.children):
                stack.append((child, code, pipeline, depth))
            if op in _CUT_OPS:
                count += 1
                stack[-1] = (node.children[0], code, count, 0)


def pipeline_lists(levels: list[list[list]]) -> list[list]:
    """Each pipeline's items in level order, the pipelines in the order
    :func:`decompose_pipelines` lists them. ``levels[p][d]`` holds, in
    pre-order, an item per node that :func:`pipeline_preorder` placed at
    depth ``d`` of pipeline ``p``."""
    return [[x for level in rows for x in level] for rows in levels[1:] + levels[:1]]


def decompose_pipelines(plan: QueryPlan) -> list[Pipeline]:
    """Partition the plan's nodes into the pipelines of
    :func:`pipeline_preorder`. The root pipeline is listed last, the others
    by pre-order position of their boundary; each lists its nodes level by
    level, left to right."""
    walk = list(pipeline_preorder(plan.root))
    levels: list[list[list[PlanNode]]] = []
    for node, _, pipeline, depth in walk:
        if pipeline == len(levels):
            levels.append([])
        rows = levels[pipeline]
        if depth == len(rows):
            rows.append([])
        rows[depth].append(node)
    # A pipeline's one node at depth 0 follows the operator it feeds.
    boundaries = [walk[i - 1][0] for i, (_, _, p, depth) in enumerate(walk) if p and not depth]
    return [Pipeline(n, b) for n, b in zip(pipeline_lists(levels), boundaries + [None])]


# ---------------------------------------------------------------------------
# External line-delimited JSON plan format


def finite_float(value) -> float:
    """``value``, an int or a float, as a float. Other types (``bool`` and
    ``str`` included), NaN, infinities and integers beyond the float range
    raise."""
    if type(value) is not float and type(value) is not int:  # not a bool
        raise TypeError(f"expected a number, got {value!r}")
    x = float(value)  # OverflowError beyond the float range
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {value!r}")
    return x


def finite_int(value) -> int:
    """``value``, an integer or a float of integral value, as an int. Other
    types (``bool`` and ``str`` included), fractions, NaN, infinities and
    integers beyond the float range, which features convert to float, raise."""
    if type(value) is not int:  # a bool is not an int here
        if type(value) is not float:
            raise TypeError(f"expected an integer, got {value!r}")
        if math.isfinite(value) and not value.is_integer():
            raise ValueError(f"expected an integer, got {value!r}")
    x = int(value)  # NaN and infinities raise here
    float(x)  # OverflowError beyond the float range
    return x


def _not_an_object(path: str, what: str) -> PlanError:
    return PlanError(f"{path}: {what} must be an object")


#: Conversion failures of a field; ``int(inf)`` raises OverflowError.
_FIELD_ERRORS = (KeyError, TypeError, ValueError, OverflowError)

#: Integers strictly inside this bound convert to a finite float, so the
#: decoder takes them as they are; any other value goes through
#: :func:`finite_int` or :func:`finite_float`, which own every message.
_INT_LIMIT = 2 ** 1000

#: Most nodes on a root-to-leaf path of a plan in the JSON format. Decoding
#: and encoding recurse once per level; deeper plans raise :class:`PlanError`
#: (in memory, plans of any depth are walked without recursion).
MAX_PLAN_DEPTH = 256


def _too_deep() -> PlanError:
    return PlanError(f"plan nested too deeply: more than {MAX_PLAN_DEPTH} levels")


class _Decoder:
    """Decodes the plan documents of one file.

    Each node is decoded, type-checked and validated in one recursive pass.
    A validation fault only marks the plan, so that a decode fault anywhere
    in it, then the plan's ``scale`` and ``template``, are reported first,
    and then the first fault in pre-order. Tables are immutable, so each
    distinct table of the file is one :class:`TableMeta`."""

    def __init__(self):
        self.tables: dict[tuple, TableMeta] = {}
        self.invalid = False

    def plan(self, document: str) -> QueryPlan:
        self.invalid = False
        try:
            doc = json.loads(document)
            if not isinstance(doc, dict) or "root" not in doc:
                raise PlanError("plan document must be an object with a 'root' node")
            root = self._node(doc["root"], "root", 1)
        except json.JSONDecodeError as exc:
            raise PlanError(f"malformed plan document: {exc}") from None
        except RecursionError:
            raise _too_deep() from None
        try:
            scale = finite_float(doc["scale"]) if doc.get("scale") is not None else None
        except _FIELD_ERRORS as exc:
            raise PlanError(f"malformed plan scale: {exc}") from None
        if scale is not None and scale <= 0:
            raise PlanError(f"plan scale must be positive, got {scale}")
        template = doc.get("template")
        if template is not None and not isinstance(template, str):
            raise PlanError(f"plan template must be a string, got {template!r}")
        if self.invalid:
            root.validate()  # raises the first fault in pre-order
        return QueryPlan(query_id=str(doc.get("query_id", "")), root=root, scale=scale,
                         template=template)

    def _node(self, doc, path: str, depth: int) -> PlanNode:
        if depth > MAX_PLAN_DEPTH:
            raise _too_deep()
        if type(doc) is not dict:
            raise _not_an_object(path, "node")
        try:
            op = _OP_BY_NAME[doc["op"]]
        except (KeyError, TypeError):
            raise PlanError(f"{path}: unknown or missing operator {doc.get('op')!r}") from None
        cols = doc.get("cols", {})
        if type(cols) is not dict:
            raise _not_an_object(path, "cols")
        observed = doc.get("observed")
        if observed is not None and type(observed) is not dict:
            raise _not_an_object(path, "observed")
        children = doc.get("children", [])
        if type(children) is not list:
            raise PlanError(f"{path}: children must be a list")
        try:
            if observed is not None:
                observed = {
                    k: v if type(v) is float and v - v == 0.0 else finite_float(v)
                    for k, v in observed.items()
                }
            v = doc["card_true"]
            card_true = v if type(v) is int and -_INT_LIMIT < v < _INT_LIMIT else finite_int(v)
            v = doc["card_est"]
            card_est = v if type(v) is int and -_INT_LIMIT < v < _INT_LIMIT else finite_int(v)
            v = doc.get("row_bytes", 0.0)
            row_bytes = v if type(v) is float and v - v == 0.0 else finite_float(v)
            table = doc.get("table")
            table = self._table(table, path) if table else None
            v = doc.get("est_io_cost", 0.0)
            io_cost = v if type(v) is float and v - v == 0.0 else finite_float(v)
            v = cols.get("sort_columns", 0)
            sort_cols = v if type(v) is int and -_INT_LIMIT < v < _INT_LIMIT else finite_int(v)
            v = cols.get("hash_columns", 0)
            hash_cols = v if type(v) is int and -_INT_LIMIT < v < _INT_LIMIT else finite_int(v)
            v = cols.get("join_inner_columns", 0)
            inner_cols = v if type(v) is int and -_INT_LIMIT < v < _INT_LIMIT else finite_int(v)
            v = cols.get("join_outer_columns", 0)
            outer_cols = v if type(v) is int and -_INT_LIMIT < v < _INT_LIMIT else finite_int(v)
            v = cols.get("hash_ops_per_tuple", 0.0)
            hash_ops = v if type(v) is float and v - v == 0.0 else finite_float(v)
        except _FIELD_ERRORS as exc:
            raise PlanError(f"{path}: malformed node: {exc}") from None
        node = PlanNode(op, [], card_true, card_est, row_bytes, table, io_cost, sort_cols,
                        hash_cols, inner_cols, outer_cols, hash_ops, observed)
        if children:
            node.children = [
                self._node(c, f"{path}.children[{i}]", depth + 1) for i, c in enumerate(children)
            ]
        try:
            node._validate_one(path)
        except PlanError:
            self.invalid = True
        return node

    def _table(self, doc, path: str) -> TableMeta:
        try:
            table_id = str(doc["table_id"])
            v = doc["tuple_count"]
            tuples = v if type(v) is int and -_INT_LIMIT < v < _INT_LIMIT else finite_int(v)
            v = doc["page_count"]
            pages = v if type(v) is int and -_INT_LIMIT < v < _INT_LIMIT else finite_int(v)
            v = doc["column_count"]
            columns = v if type(v) is int and -_INT_LIMIT < v < _INT_LIMIT else finite_int(v)
            v = doc["avg_row_bytes"]
            row_bytes = v if type(v) is float and v - v == 0.0 else finite_float(v)
            v = doc.get("index_depth", 0)
            index_depth = v if type(v) is int and -_INT_LIMIT < v < _INT_LIMIT else finite_int(v)
        except _FIELD_ERRORS as exc:
            raise PlanError(f"{path}: malformed table metadata: {exc}") from None
        # Keyed on checked values, so ``true`` never meets ``1``; 0.0 and
        # -0.0 are equal keys, so the sign is part of the key.
        key = (table_id, tuples, pages, columns, row_bytes, math.copysign(1.0, row_bytes),
               index_depth)
        table = self.tables.get(key)
        if table is None:
            table = self.tables[key] = TableMeta(
                table_id, tuples, pages, columns, row_bytes, index_depth
            )
        return table


def _node_to_dict(node: PlanNode, depth: int = 1) -> dict:
    if depth > MAX_PLAN_DEPTH:
        raise _too_deep()
    doc: dict = {
        "op": OP_NAME[node.op],
        "children": [_node_to_dict(c, depth + 1) for c in node.children],
        "card_true": node.true_out_cardinality,
        "card_est": node.est_out_cardinality,
        "row_bytes": node.out_row_bytes,
        "est_io_cost": node.est_io_cost,
        "cols": {
            "sort_columns": node.sort_columns,
            "hash_columns": node.hash_columns,
            "join_inner_columns": node.join_inner_columns,
            "join_outer_columns": node.join_outer_columns,
            "hash_ops_per_tuple": node.hash_ops_per_tuple,
        },
    }
    if node.table is not None:
        doc["table"] = {
            "table_id": node.table.table_id,
            "tuple_count": node.table.tuple_count,
            "page_count": node.table.page_count,
            "column_count": node.table.column_count,
            "avg_row_bytes": node.table.avg_row_bytes,
            "index_depth": node.table.index_depth,
        }
    if node.observed is not None:
        doc["observed"] = dict(sorted(node.observed.items()))
    return doc


def parse_plan(document: str) -> QueryPlan:
    """Parse and validate one plan document (a JSON object)."""
    return _Decoder().plan(document)


def plan_to_json(plan: QueryPlan) -> str:
    """One plan document; a plan deeper than :data:`MAX_PLAN_DEPTH` raises
    :class:`PlanError`."""
    doc: dict = {"query_id": plan.query_id, "root": _node_to_dict(plan.root)}
    if plan.scale is not None:
        doc["scale"] = plan.scale
    if plan.template is not None:
        doc["template"] = plan.template
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def load_corpus(path: str) -> list[QueryPlan]:
    """Read a line-delimited plan corpus file."""
    decoder = _Decoder()
    plans = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                plans.append(decoder.plan(line))
            except PlanError as exc:
                raise PlanError(f"{path}:{lineno}: {exc}") from None
    return plans


def save_corpus(plans: Iterable[QueryPlan], path: str) -> int:
    """Write a line-delimited plan corpus file; returns the plan count. Every
    plan is encoded before the file is opened, so a plan that fails to
    encode leaves an existing file as it was."""
    lines = [plan_to_json(plan) for plan in plans]
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")
    return len(lines)

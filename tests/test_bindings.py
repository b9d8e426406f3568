"""Per-operator code reads enum members through module-level bindings."""
from __future__ import annotations

import dis
import types

from qres import features, plan, registry, scaling, synth

#: The enum classes and their aliases. On Python 3.11 the enum type defines
#: ``__getattr__``, so ``FeatureId.COUT``, ``OperatorType.Sort`` or
#: ``FormKind.Power`` takes that hook on every read and costs about ten times
#: a global read, and ``OperatorType[name]`` costs as much. Featurization
#: reads 15-20 members per operator; binding them made ``extract_features``
#: about 40 % faster on 3.11. Python 3.12 dropped the hook, so there this
#: guard only keeps the code uniform.
ENUMS = frozenset({"FeatureId", "F", "OperatorType", "FormKind"})

#: The functions that run once per plan node or operator.
HOT = (
    features.extract_features,
    features.featurize,
    features.featurize_many,
    plan._Decoder._node,
    plan._Decoder._table,
    plan._node_to_dict,
    plan.PlanNode._validate_one,
    plan.preorder,
    plan.decompose_pipelines,
    plan.finite_int,
    plan.finite_float,
    registry.estimate_query,
    registry._query_estimate,
    registry.estimate_with_model,
    scaling._basis,
    synth.default_oracles,
    synth._assign_estimates,
    synth._filter,
    synth._sort,
    synth._join,
    synth._assign_labels,
    synth._scan,
    *synth._TEMPLATES.values(),
)

#: Hot functions that have no error path, so they read no ``.name``
#: (an enum property, 15-20 global reads on 3.11) and call no ``int``.
NO_NAME = (
    plan._node_to_dict,
    plan.preorder,
    plan.decompose_pipelines,
    registry._query_estimate,
)


def _instructions(fn):
    """Every instruction of ``fn``, of its nested functions and lambdas too."""
    codes = [fn.__code__]
    while codes:
        code = codes.pop()
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        yield from ((code.co_name, ins) for ins in dis.get_instructions(code))


def test_hot_paths_read_no_enum_class():
    # A read of the enum class is how an attribute or ``[name]`` lookup
    # starts, so none may appear.
    for fn in HOT:
        loads = [
            (where, ins.argval) for where, ins in _instructions(fn)
            if ins.opname.startswith("LOAD_") and ins.argval in ENUMS
        ]
        assert not loads, f"{fn.__qualname__} reads {loads}"


def test_hot_paths_without_error_paths_read_no_member_name():
    for fn in NO_NAME:
        reads = [
            (where, ins.opname, ins.argval) for where, ins in _instructions(fn)
            if (ins.opname in ("LOAD_ATTR", "LOAD_METHOD") and ins.argval == "name")
            or (ins.opname == "LOAD_GLOBAL" and ins.argval == "int")
        ]
        assert not reads, f"{fn.__qualname__} reads {reads}"

"""Model families: scaling transforms, selection heuristic, serialization."""
from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    as_rows,
    build_combined,
    encode_tree,
    encoded_tree_size,
    labeled_vectors,
    make_table,
    scan_node,
    sort_over_scan,
)
from qres.features import (
    FEATURE_SPACE,
    FeatureError,
    FeatureId,
    FeatureVector,
    dependents,
    extract_features,
    featurize,
    featurize_many,
)
from qres.gbrt import MartModel, TrainConfig, Tree
from qres.plan import NO_PARENT, OperatorType, PlanError, PlanNode, QueryPlan, ordered_sum
from qres.registry import (
    CombinedModel,
    ModelRegistry,
    RegistryEntry,
    RegistryError,
    ScaleTerm,
    collect_examples,
    deserialize,
    eligible_scale_features,
    estimate_many,
    estimate_query,
    estimate_with_model,
    model_out_ratios,
    out_ratio,
    select_model,
    serialize,
    train_registry,
    transform_for_scaling,
)
from qres.scaling import FormKind

F = FeatureId


def filter_fv(cin: float, cout: float | None = None, row_bytes: float = 100.0):
    cout = cin / 2 if cout is None else cout
    return FeatureVector(
        op=OperatorType.Filter,
        values={
            F.COUT: cout, F.SOUTAVG: row_bytes, F.SOUTTOT: cout * row_bytes,
            F.CIN1: cin, F.SINAVG1: row_bytes, F.SINTOT1: cin * row_bytes,
            F.OUTPUTUSAGE: 0.0,
        },
    )


# ---------------------------------------------------------------------------
# out_ratio


def test_out_ratio_inside_range_is_zero():
    assert out_ratio(5.0, 1.0, 10.0) == 0.0
    assert out_ratio(1.0, 1.0, 10.0) == 0.0
    assert out_ratio(10.0, 1.0, 10.0) == 0.0


def test_out_ratio_excursion_normalized_by_width():
    # [DERIVED] (value - high) / (high - low) above; (low - value)/(high - low) below
    assert out_ratio(19.0, 1.0, 10.0) == pytest.approx(1.0)
    assert out_ratio(0.0, 2.0, 10.0) == pytest.approx(0.25)
    assert out_ratio(110.0, 10.0, 60.0) == pytest.approx(1.0)


def test_out_ratio_degenerate_range():
    assert out_ratio(7.0, 7.0, 7.0) == 0.0
    assert out_ratio(8.0, 7.0, 7.0) == math.inf


@given(
    st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(0.001, 1e6)
)
def test_out_ratio_properties(value, low, width):
    high = low + width
    r = out_ratio(value, low, high)
    assert r >= 0.0
    assert (r == 0.0) == (low <= value <= high)


# ---------------------------------------------------------------------------
# Scaling transform and combined models


def test_transform_divides_dependents_and_drops_feature():
    fv = filter_fv(cin=1000.0)
    term = ScaleTerm(kind=FormKind.Linear, features=(F.CIN1,))
    out = transform_for_scaling(fv, [term])
    assert F.CIN1 not in out.values
    assert out.values[F.COUT] == pytest.approx(0.5)
    assert out.values[F.SINTOT1] == pytest.approx(100.0)
    assert out.values[F.SOUTTOT] == pytest.approx(50.0)
    assert out.values[F.SINAVG1] == 100.0  # not a dependent


def test_transform_rejects_nonpositive_scale_feature():
    fv = filter_fv(cin=0.0)
    with pytest.raises(FeatureError, match="degenerate"):
        transform_for_scaling(fv, [ScaleTerm(kind=FormKind.Linear, features=(F.CIN1,))])


def test_scale_term_unit_value():
    term = ScaleTerm(kind=FormKind.NLogN, features=(F.CIN1,))
    assert term.unit_value({F.CIN1: 16.0}) == pytest.approx(64.0)
    term2 = ScaleTerm(kind=FormKind.Power, features=(F.CIN1,), beta=2.0)
    assert term2.unit_value({F.CIN1: 5.0}) == pytest.approx(25.0)


def _linear_examples(n=60, alpha=3.0, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        cin = float(rng.uniform(10, 1000))
        out.append((filter_fv(cin=cin), alpha * cin))
    return out


def test_combined_model_extrapolates_homogeneous_target():
    # y = a*CIN exactly: per-unit targets are constant, so the combined model
    # is exact arbitrarily far outside the training range.
    ex = _linear_examples(alpha=3.0)
    term = ScaleTerm(kind=FormKind.Linear, features=(F.CIN1,))
    cfg = TrainConfig(iterations=30, rng_seed=0)
    model = build_combined(OperatorType.Filter, *as_rows(ex), [term], cfg)
    probe = filter_fv(cin=1_000_000.0)
    assert estimate_with_model(model, probe) == pytest.approx(3.0 * 1_000_000.0, rel=1e-5)


def test_plain_model_clamps_negative_to_zero():
    ex = [(filter_fv(cin=c), -5.0) for c in (10.0, 20.0, 30.0, 40.0)]
    import qres.gbrt as gbrt
    model = gbrt.train(ex, TrainConfig(iterations=5, rng_seed=0))
    assert estimate_with_model(model, filter_fv(cin=25.0)) == 0.0


def test_model_out_ratios_plain_and_combined():
    ex = _linear_examples()
    import qres.gbrt as gbrt
    plain = gbrt.train(ex, TrainConfig(iterations=5, rng_seed=0))
    cins = [e[0].values[F.CIN1] for e in ex]
    inside = filter_fv(cin=float(np.median(cins)))
    assert max(model_out_ratios(plain, inside)) == 0.0
    outside = filter_fv(cin=max(cins) * 10)
    assert max(model_out_ratios(plain, outside)) > 0.0
    # A CIN1-scaled combined model sees scale-free ratios: still in range.
    term = ScaleTerm(kind=FormKind.Linear, features=(F.CIN1,))
    cfg = TrainConfig(iterations=5, rng_seed=0)
    comb = build_combined(OperatorType.Filter, *as_rows(ex), [term], cfg)
    assert max(model_out_ratios(comb, outside)) == 0.0


def test_model_out_ratios_unnormalizable_is_infinite():
    ex = _linear_examples()
    term = ScaleTerm(kind=FormKind.Linear, features=(F.CIN1,))
    cfg = TrainConfig(iterations=3, rng_seed=0)
    comb = build_combined(OperatorType.Filter, *as_rows(ex), [term], cfg)
    bad = filter_fv(cin=100.0)
    bad.values[F.CIN1] = 0.0
    assert model_out_ratios(comb, bad) == [math.inf]


# ---------------------------------------------------------------------------
# Selection heuristic


def _mini_registry(ex, cfg=None):
    cfg = cfg or TrainConfig(iterations=20, rng_seed=0)
    registry = ModelRegistry()
    from qres.registry import train_entry

    registry.entries[(OperatorType.Filter, "cpu_us")] = train_entry(
        OperatorType.Filter, "cpu_us", *as_rows(ex), cfg
    )
    return registry


def test_default_model_wins_in_range():
    ex = _linear_examples()
    registry = _mini_registry(ex)
    entry = registry.entry(OperatorType.Filter, "cpu_us")
    inside = filter_fv(cin=200.0)
    model, idx = select_model(registry, OperatorType.Filter, "cpu_us", inside)
    assert idx == entry.default_idx


def test_scaled_model_wins_out_of_range():
    ex = _linear_examples()
    registry = _mini_registry(ex)
    outside = filter_fv(cin=50_000.0)
    model, idx = select_model(registry, OperatorType.Filter, "cpu_us", outside)
    assert isinstance(model, CombinedModel)
    # The chosen model must minimize the maximum out-of-range ratio.
    entry = registry.entry(OperatorType.Filter, "cpu_us")
    chosen = max(model_out_ratios(model, outside))
    for m in entry.models:
        assert chosen <= max(model_out_ratios(m, outside)) + 1e-12


def test_selection_missing_entry_raises():
    registry = ModelRegistry()
    with pytest.raises(RegistryError, match="no model for operator"):
        registry.entry(OperatorType.Sort, "cpu_us")


def test_eligible_scale_features_require_positive_and_varying():
    ex = _linear_examples()
    feats = eligible_scale_features(OperatorType.Filter, "cpu_us", as_rows(ex)[0])
    assert F.CIN1 in feats and F.COUT in feats
    assert F.OUTPUTUSAGE not in feats  # categorical
    # SOUTAVG is constant across these examples: not eligible.
    assert F.SOUTAVG not in feats
    # One zero count rules its feature out.
    zero = ex + [(filter_fv(cin=0.0, cout=5.0), 0.0)]
    feats = eligible_scale_features(OperatorType.Filter, "cpu_us", as_rows(zero)[0])
    assert F.CIN1 not in feats and F.SINTOT1 not in feats and F.COUT in feats


def test_eligible_scale_features_io_excludes_cpu_only():
    tuples = [1_000, 2_000, 4_000]
    plans = [sort_over_scan(tuples=t, sort_cols=(i % 3) + 1) for i, t in enumerate(tuples)]
    ex = []
    for p in plans:
        fv = extract_features(p.root, NO_PARENT)
        ex.append((fv, 1.0))
    X, _ = as_rows(ex)
    cpu = eligible_scale_features(OperatorType.Sort, "cpu_us", X)
    io = eligible_scale_features(OperatorType.Sort, "logical_io", X)
    assert F.MINCOMP in cpu
    # CSORTCOL varies here but stays bounded on larger databases, so it is
    # never a scaling candidate; MINCOMP is additionally excluded for I/O.
    assert F.CSORTCOL not in cpu
    assert F.MINCOMP not in io and F.CSORTCOL not in io


# ---------------------------------------------------------------------------
# Whole-registry training + estimation


@pytest.fixture(scope="module")
def trained(small_corpus_module):
    corpus = small_corpus_module
    registry = train_registry(corpus, ["cpu_us", "logical_io"], TrainConfig(iterations=40, rng_seed=0))
    return registry, corpus


@pytest.fixture(scope="module")
def small_corpus_module():
    from qres.synth import CorpusSpec, TableSpec, generate_corpus

    spec = CorpusSpec(
        templates={name: 1.0 for name in (
            "scan", "filter_scan", "sort_scan", "seek",
            "hash_agg", "hash_join", "merge_join", "nested_loop",
        )},
        tables=[TableSpec("big", 20_000, 100.0, 8), TableSpec("small", 4_000, 120.0, 6)],
        scales=[1.0, 2.0, 4.0],
        query_count=64,
        rng_seed=1234,
        noise_sigma=0.05,
        card_sigma=0.1,
    )
    return generate_corpus(spec)


def test_registry_covers_all_ops_and_resources(trained):
    registry, corpus = trained
    ops = {n.op for p in corpus for n in p.root.walk()}
    for op in ops:
        for resource in ("cpu_us", "logical_io"):
            entry = registry.entry(op, resource)
            assert not isinstance(entry.models[0], CombinedModel)
            assert 0 <= entry.default_idx < len(entry.models)


def test_estimate_query_totals_consistent(trained):
    registry, corpus = trained
    for plan in corpus[:10]:
        est = estimate_query(registry, plan, "cpu_us")
        assert est.total == sum(est.per_pipeline)
        assert est.total == pytest.approx(sum(v for _, v in est.per_operator))
        assert len(est.per_operator) == len(list(plan.root.walk()))
        assert est.total >= 0.0


def test_collect_examples_requires_labels():
    plan = sort_over_scan()
    with pytest.raises(PlanError, match="plan sort-scan: missing observed label"):
        collect_examples([plan], "cpu_us")


def test_collect_examples_rows_are_the_feature_vectors(trained):
    _, corpus = trained
    for resource in ("cpu_us", "logical_io"):
        by_op = collect_examples(corpus, resource)
        assert set(by_op) == {n.op for p in corpus for n in p.root.walk()}
        for op, (X, y) in by_op.items():
            want_X, want_y = as_rows(labeled_vectors(corpus, resource, op))
            assert X.tobytes() == want_X.tobytes()
            assert y.tobytes() == want_y.tobytes()


def test_combined_problem_rows_are_the_transformed_vectors(trained):
    # Training normalizes rows as transform_for_scaling normalizes one
    # vector, and divides each target by the vector's own scale factor.
    from qres.registry import _combined_problem

    _, corpus = trained
    terms = [
        (OperatorType.Sort, [ScaleTerm(FormKind.NLogN, (F.CIN1,))]),
        (OperatorType.TableScan, [ScaleTerm(FormKind.Power, (F.TSIZE,), 1.5)]),
        (OperatorType.HashJoin, [ScaleTerm(FormKind.FLogSecond, (F.CIN2, F.CIN1))]),
    ]
    for op, term in terms:
        examples = labeled_vectors(corpus, "cpu_us", op)
        X, y = collect_examples(corpus, "cpu_us")[op]
        problem = _combined_problem(op, X, y, term, 0)
        vectors = [transform_for_scaling(fv, term) for fv, _ in examples]
        assert problem.schema == sorted(vectors[0].values)
        want = [[v.values[f] for f in problem.schema] for v in vectors]
        assert problem.X.tolist() == want
        g = [math.prod(t.unit_value(fv.values) for t in term) for fv, _ in examples]
        assert problem.y.tolist() == [t / s for (_, t), s in zip(examples, g)]


@pytest.mark.parametrize("kind,beta,cin,cout", [
    pytest.param(FormKind.Power, 3.0, 1e13, None, id="scale-factor"),  # g = 1e39
    pytest.param(FormKind.Power, 3.0, 1e-14, None, id="target"),  # g = 1e-42
    pytest.param(FormKind.Log, 1.0, 1e-40, 1.0, id="feature"),  # g = 1, COUT / CIN1 = 1e40
])
def test_combined_problem_beyond_float32_is_training_error(kind, beta, cin, cout):
    from qres.gbrt import TrainingError
    from qres.registry import _combined_problem

    vectors = [filter_fv(cin=c) for c in (100.0, 200.0, 400.0)]
    term = [ScaleTerm(kind, (F.CIN1,), beta)]
    X, y = as_rows([(fv, 5.0) for fv in vectors])
    _combined_problem(OperatorType.Filter, X, y, term, 0)
    X, y = as_rows([(fv, 5.0) for fv in vectors + [filter_fv(cin=cin, cout=cout)]])
    with pytest.raises(TrainingError, match="per-unit training data beyond the float32 range"):
        _combined_problem(OperatorType.Filter, X, y, term, 0)


def test_train_registry_rejects_unknown_resource(trained):
    _, corpus = trained
    with pytest.raises(RegistryError, match="unknown resource"):
        train_registry(corpus[:2], ["watts"], TrainConfig(iterations=1))


# ---------------------------------------------------------------------------
# Serialization


def test_serialize_round_trip_bit_identical(trained):
    registry, corpus = trained
    blob = serialize(registry)
    assert blob[:4] == b"QRES"
    assert blob[4] == 1
    again = deserialize(blob)
    assert serialize(again) == blob
    # Predictions identical bit for bit.
    for plan in corpus[:8]:
        for resource in ("cpu_us", "logical_io"):
            a = estimate_query(registry, plan, resource)
            b = estimate_query(again, plan, resource)
            assert a.total == b.total
            assert a.per_pipeline == b.per_pipeline


def test_tree_encoding_size():
    # [PAPER] a 10-leaf tree (19 nodes) costs 1 + 6*19 = 115 <= 130 bytes
    tree = Tree(
        child=np.array([2, 0] * 9 + [0], dtype=np.uint8),
        feature=np.array([1, 0] * 9 + [0], dtype=np.uint8),
        value=np.arange(19, dtype=np.float32),
    )
    assert encoded_tree_size(tree) == 115
    assert encoded_tree_size(tree) <= 130


def _node_by_node_trees(model) -> bytes:
    out = bytearray(struct.pack("<H", len(model.trees)))
    for tree in model.trees:
        encode_tree(tree, out)
    return bytes(out)


def _tree(n_splits: int) -> Tree:
    """A chain of ``n_splits`` splits, each with a leaf on its left."""
    return Tree(
        child=np.array([2, 0] * n_splits + [0], dtype=np.uint8),
        feature=np.array([3, 0] * n_splits + [0], dtype=np.uint8),
        value=np.linspace(-1.0, 1.0, 2 * n_splits + 1, dtype=np.float32),
    )


@pytest.mark.parametrize("max_leaves", [1, 40])
def test_bulk_tree_write_equals_node_by_node(small_corpus, max_leaves):
    from qres.registry import _encode_mart

    cfg = TrainConfig(iterations=6, max_leaves=max_leaves, rng_seed=2)
    registry = train_registry(small_corpus, ["cpu_us"], cfg)
    marts = [m.scaled_model if isinstance(m, CombinedModel) else m
             for e in registry.entries.values() for m in e.models]
    sizes = {t.n_nodes for m in marts for t in m.trees}
    if max_leaves == 1:
        assert sizes == {1}
    else:
        assert max(sizes) > 19
    # Trees of 1, 19, 1 and 255 nodes, and a model of no trees.
    hand = MartModel(0.0, [_tree(0), _tree(9), _tree(0), _tree(127)], 0.1, [F.CIN1],
                     {F.CIN1: (0.0, 1.0)})
    empty = MartModel(0.0, [], 0.1, [F.CIN1], {F.CIN1: (0.0, 1.0)})
    for mart in marts + [hand, empty]:
        out = bytearray()
        _encode_mart(mart, out)
        trees = _node_by_node_trees(mart)
        assert bytes(out[len(out) - len(trees):]) == trees
        assert len(out) - len(trees) == 9 + 9 * len(mart.schema)


def test_tree_of_256_nodes_is_too_large_to_encode():
    from qres.registry import _encode_mart

    node = np.zeros(256, dtype=np.uint8)
    big = MartModel(0.0, [_tree(1), Tree(node, node, node.astype(np.float32))], 0.1, [F.CIN1],
                    {F.CIN1: (0.0, 1.0)})
    with pytest.raises(RegistryError, match="tree too large"):
        _encode_mart(big, bytearray())
    with pytest.raises(RegistryError, match="tree too large"):
        encode_tree(big.trees[1], bytearray())


def test_deserialize_rejects_bad_magic():
    with pytest.raises(RegistryError, match="magic"):
        deserialize(b"NOPE" + bytes(10))


def test_deserialize_rejects_bad_version(trained):
    registry, _ = trained
    blob = bytearray(serialize(registry))
    blob[4] = 99
    with pytest.raises(RegistryError, match="version"):
        deserialize(bytes(blob))


def test_deserialize_rejects_truncation(trained):
    registry, _ = trained
    blob = serialize(registry)
    with pytest.raises(RegistryError, match="truncated"):
        deserialize(blob[: len(blob) // 2])


def test_deserialize_rejects_trailing_bytes(trained):
    registry, _ = trained
    blob = serialize(registry)
    with pytest.raises(RegistryError, match="trailing"):
        deserialize(blob + b"\x00")


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=300))
def test_any_payload_loads_or_raises_registry_error(payload):
    try:
        deserialize(b"QRES\x01" + payload)
    except RegistryError:
        pass


def _mart(model):
    return model.scaled_model if isinstance(model, CombinedModel) else model


def test_decoded_tree_arrays_are_owned_and_typed(trained):
    registry, _ = trained
    blob = serialize(registry)
    loaded = deserialize(blob)
    for key, entry in registry.entries.items():
        for model, back in zip(entry.models, loaded.entries[key].models):
            starts, *arrays = _mart(back).packed()
            assert starts.dtype == np.intp and starts[0] == 0
            for arr, dtype in zip(arrays, (np.uint8, np.uint8, np.float32)):
                assert arr.dtype == dtype
                assert arr.flags.owndata and arr.flags.writeable
                assert arr.flags.c_contiguous
                assert not np.shares_memory(arr, np.frombuffer(blob, dtype=np.uint8))
            assert len(_mart(back).trees) == len(_mart(model).trees)
            for tree, got in zip(_mart(model).trees, _mart(back).trees):
                for name in ("child", "feature", "value"):
                    assert np.array_equal(getattr(got, name), getattr(tree, name))


def _combined(registry):
    return next(
        m for e in registry.entries.values() for m in e.models
        if isinstance(m, CombinedModel)
    )


def _retype_term(registry, **changes):
    model = _combined(registry)
    term = model.terms[0]
    fields = {"kind": term.kind, "features": term.features, "beta": term.beta}
    model.terms[0] = ScaleTerm(**{**fields, **changes})


def _repeat_scale_feature(registry, across_terms):
    """Scale the first combined model by its scale feature twice: in one
    Product2 term, or in two Linear terms."""
    model = _combined(registry)
    f = model.terms[0].features[0]
    if across_terms:
        model.terms[:] = [ScaleTerm(FormKind.Linear, (f,)), ScaleTerm(FormKind.Linear, (f,))]
    else:
        model.terms[:] = [ScaleTerm(FormKind.Product2, (f, f))]


def _set_schema(mart, schema):
    stats = next(iter(mart.feature_stats.values()))
    mart.schema = schema
    mart.feature_stats = {f: stats for f in schema}


def _first_entry(registry):
    return registry.entries[min(registry.entries, key=lambda k: (int(k[0]), k[1]))]


def _last_entry(registry):
    return registry.entries[max(registry.entries, key=lambda k: (int(k[0]), k[1]))]


#: Where the tree cases of CORRUPTIONS corrupt a model, as ``(entry,
#: model index)``: the first and the last model of the file.
MODEL_SLOTS = {
    "": lambda r: (_first_entry(r), 0),
    " in the last model": lambda r: (_last_entry(r), -1),
}


def _set_node(slot, name, i, v):
    """Set node i of the first tree of three or more nodes of the slot's
    model, in its packed arrays. A model without one first gets a
    three-node first tree."""
    mart = _mart(slot[0].models[slot[1]])
    if all(tree.n_nodes < 3 for tree in mart.trees):
        mart = _replace_first_tree(slot, [2, 0, 0], [int(mart.schema[0]), 0, 0])
    t = next(t for t, tree in enumerate(mart.trees) if tree.n_nodes >= 3)
    starts, *arrays = mart.packed()
    nodes = dict(zip(("child", "feature", "value"), arrays))[name]
    nodes[starts[t] : starts[t + 1]][i] = v


def _replace_first_tree(slot, child, feature):
    """Rebuild the slot's model with its first tree replaced; returns its
    ensemble."""
    entry, i = slot
    model = entry.models[i]
    mart = _mart(model)
    tree = Tree(
        child=np.array(child, dtype=np.uint8),
        feature=np.array(feature, dtype=np.uint8),
        value=np.zeros(len(child), dtype=np.float32),
    )
    mart = MartModel(
        mart.init, [tree, *mart.trees[1:]], mart.learning_rate, mart.schema, mart.feature_stats
    )
    if isinstance(model, CombinedModel):
        model.scaled_model = mart
    else:
        entry.models[i] = mart
    return mart


def _reshape_first_tree(slot, child):
    """Replace the slot's first tree by one of shape ``child``, each split
    on the model's first feature."""
    f = int(_mart(slot[0].models[slot[1]]).schema[0])
    return _replace_first_tree(slot, child, [f if c else 0 for c in child])


# Each case corrupts a fresh copy of a trained registry in memory, serializes
# it (the encoder does not validate) and expects load to name the fault.
CORRUPTIONS = {
    "duplicate entry": (
        lambda r: setattr(
            r.entries[(OperatorType.TableScan, "logical_io")], "resource", "cpu_us"
        ),
        "duplicated or out of order",
    ),
    "default index": (
        lambda r: setattr(_first_entry(r), "default_idx", len(_first_entry(r).models)),
        "default model",
    ),
    "feature code": (
        lambda r: _set_schema(_first_entry(r).models[0], [99]),
        "invalid FeatureId code 99",
    ),
    "schema of another operator": (
        lambda r: _set_schema(
            _first_entry(r).models[0], _first_entry(r).models[0].schema[:-1]
        ),
        "schema does not match",
    ),
    "non-finite init": (
        lambda r: setattr(_first_entry(r).models[0], "init", math.nan),
        "non-finite model parameter",
    ),
    "form kind": (lambda r: _retype_term(r, kind=99), "invalid FormKind code 99"),
    "term arity": (
        lambda r: _retype_term(r, kind=FormKind.Product2), "invalid Product2 scaling"
    ),
    "term feature": (
        lambda r: _retype_term(r, features=(F.OUTPUTUSAGE,)), "scaling features"
    ),
    "power exponent": (
        lambda r: _retype_term(r, kind=FormKind.Power, beta=1e30), "exponent"
    ),
    "scale feature twice in a term": (
        lambda r: _repeat_scale_feature(r, across_terms=False), "repeated scaling feature"
    ),
    "scale feature in two terms": (
        lambda r: _repeat_scale_feature(r, across_terms=True), "repeated scaling feature"
    ),
}

# The cases of malformed trees, each on the first and on the last model of
# the file, which load checks in one batch.
TREE_CORRUPTIONS = {
    "offset past tree": (lambda slot: _set_node(slot, "child", 0, 250), "child offsets"),
    "offset 1": (lambda slot: _set_node(slot, "child", 0, 1), "child offsets"),
    "last node a split": (
        lambda slot: _replace_first_tree(slot, [0, 0, 2], [0, 0, 1]), "child offsets"
    ),
    "leaves not splits + 1": (
        lambda slot: _replace_first_tree(slot, [2, 0, 0, 0], [1, 0, 0, 0]), "child offsets"
    ),
    "empty tree": (lambda slot: _replace_first_tree(slot, [], []), "empty tree"),
    # Offsets inside the tree and one leaf more than splits, but not a
    # pre-order tree: two splits share node 2; a split's left range [1, 4)
    # ends with a node that is no child of it; or node 1's right child 4
    # lies past node 0's, so node 0's left range [1, 3) is cut short.
    "right children shared": (
        lambda slot: _reshape_first_tree(slot, [2, 2, 0, 0, 0]), "not a pre-order tree"
    ),
    "left range completes early": (
        lambda slot: _reshape_first_tree(slot, [4, 0, 2, 0, 0]), "not a pre-order tree"
    ),
    "subtrees interleaved": (
        lambda slot: _reshape_first_tree(slot, [3, 3, 0, 0, 0]), "not a pre-order tree"
    ),
    "leaf feature": (lambda slot: _set_node(slot, "feature", -1, 1), "feature outside"),
    "split feature": (lambda slot: _set_node(slot, "feature", 0, 30), "feature outside"),
    "non-finite leaf": (lambda slot: _set_node(slot, "value", 1, math.inf), "non-finite tree"),
}
CORRUPTIONS.update(
    (case + where, (lambda r, mutate=mutate, slot=slot: mutate(slot(r)), message))
    for case, (mutate, message) in TREE_CORRUPTIONS.items()
    for where, slot in MODEL_SLOTS.items()
)


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_deserialize_names_corruption(trained, case):
    registry, _ = trained
    blob = serialize(registry)
    copy = deserialize(blob)
    mutate, message = CORRUPTIONS[case]
    mutate(copy)
    corrupt = serialize(copy)
    assert corrupt != blob
    with pytest.raises(RegistryError, match=message):
        deserialize(corrupt)


@pytest.mark.parametrize("case", sorted(TREE_CORRUPTIONS))
def test_corrupt_tree_in_a_later_layout_run_is_named(trained, monkeypatch, case):
    # Layout runs of a model or so each: the corrupt last model lies in a
    # later run than the first, whose models are checked and laid out first.
    from qres import gbrt

    registry, _ = trained
    copy = deserialize(serialize(registry))
    mutate, message = TREE_CORRUPTIONS[case]
    mutate(MODEL_SLOTS[" in the last model"](copy))
    corrupt = serialize(copy)
    runs = []
    lay_out_run = gbrt._lay_out_run
    monkeypatch.setattr(gbrt, "LAYOUT_NODES", 500)
    monkeypatch.setattr(gbrt, "_lay_out_run", lambda models: runs.append(models) or lay_out_run(models))
    with pytest.raises(RegistryError, match=message):
        deserialize(corrupt)
    assert len(runs) > 1


@pytest.mark.parametrize("offset, value, message", [
    (7, 0, "invalid OperatorType code 0"),   # first entry's operator
    (8, 5, "invalid resource code 5"),       # first entry's resource
])
def test_deserialize_rejects_bad_entry_codes(trained, offset, value, message):
    registry, _ = trained
    blob = bytearray(serialize(registry))
    blob[offset] = value
    with pytest.raises(RegistryError, match=message):
        deserialize(bytes(blob))


@pytest.fixture(scope="module")
def flip_case():
    from qres.synth import CorpusSpec, TableSpec, generate_corpus

    def corpus(scales, count, seed):
        return generate_corpus(CorpusSpec(
            templates={"sort_scan": 1.0, "hash_join": 1.0},
            tables=[TableSpec("big", 20_000, 100.0, 8), TableSpec("small", 4_000, 120.0, 6)],
            scales=scales, query_count=count, rng_seed=seed,
            noise_sigma=0.05, card_sigma=0.1,
        ))

    train = corpus([1.0, 2.0, 4.0], 24, 9)
    registry = train_registry(train, ["cpu_us", "logical_io"], TrainConfig(iterations=3, rng_seed=0))
    # In-range plans pick default models; far larger ones score every model
    # and pick others.
    return serialize(registry), train[:3] + corpus([32.0], 3, 10)


def test_single_bit_flips_raise_registry_error_or_estimate(flip_case):
    import random

    from qres.gbrt import FEATURE_SPACE, predict_dense

    blob, plans = flip_case
    rng = random.Random(0)
    flips = rng.sample(range(8 * len(blob)), 320)
    rejected = 0
    for flip in flips:
        corrupt = bytearray(blob)
        corrupt[flip // 8] ^= 1 << (flip % 8)
        try:
            loaded = deserialize(bytes(corrupt))
        except RegistryError:
            rejected += 1
            continue
        for plan in plans:
            for resource in ("cpu_us", "logical_io"):
                est = estimate_query(loaded, plan, resource)
                assert est.total == sum(est.per_pipeline)
        # Walk every tree of every model, not only those the plans picked.
        for entry in loaded.entries.values():
            for model in entry.models:
                mart = _mart(model)
                for bound in (0, 1):
                    x = np.zeros(FEATURE_SPACE)
                    for f in mart.schema:
                        x[int(f)] = mart.feature_stats[f][bound]
                    assert math.isfinite(predict_dense(mart, x))
    # Flips of node offsets, feature codes and enum codes are caught on load.
    assert 0 < rejected < len(flips)


def test_single_bit_flips_rejected_are_pinned(flip_case):
    # The flips of test_single_bit_flips_raise_registry_error_or_estimate:
    # checking every model's trees in one batch rejects the 118 that were
    # rejected when each model's trees were checked on their own. The check
    # that trees are in pre-order rejects 3 more (121; 118 before it).
    import random

    blob, _ = flip_case
    flips = random.Random(0).sample(range(8 * len(blob)), 320)
    rejected = 0
    for flip in flips:
        corrupt = bytearray(blob)
        corrupt[flip // 8] ^= 1 << (flip % 8)
        try:
            deserialize(bytes(corrupt))
        except RegistryError:
            rejected += 1
    assert rejected == 121


def test_train_rmse_is_default_models_training_error(trained):
    registry, corpus = trained
    for (op, resource), entry in registry.entries.items():
        examples = labeled_vectors(corpus, resource, op)
        default = entry.models[entry.default_idx]
        sse = sum((estimate_with_model(default, fv) - y) ** 2 for fv, y in examples)
        assert entry.train_rmse == pytest.approx((sse / len(examples)) ** 0.5, rel=1e-12)


def test_grouped_training_equals_entry_by_entry_training(fast_cfg, monkeypatch):
    # 20 plans of each template: operators share row counts, so one boost
    # trains the families of several operators, of different schema widths.
    import zlib

    from qres import gbrt
    from qres.features import applicable_features
    from qres.registry import train_entry
    from qres.synth import CorpusSpec, default_tables, generate_corpus

    corpus = [
        plan
        for template in ("filter_scan", "hash_agg", "hash_join", "merge_join", "nested_loop",
                         "scan", "seek", "sort_filter_scan", "sort_scan")
        for plan in generate_corpus(CorpusSpec(
            templates={template: 1.0}, tables=default_tables(), scales=[1.0, 2.0, 3.0, 4.0],
            query_count=20, rng_seed=zlib.crc32(template.encode()), noise_sigma=0.05, card_sigma=0.1,
        ))
    ]
    resources = ["cpu_us", "logical_io"]
    rows = {r: collect_examples(corpus, r) for r in resources}
    widths: dict[int, set] = {}
    for by_op in rows.values():
        for op, (_, y) in by_op.items():
            widths.setdefault(len(y), set()).add(len(applicable_features(op)))
    assert any(len(w) > 1 for w in widths.values())

    calls = []
    boost = gbrt._boost

    def counted(problems, cfg):
        calls.append(len(problems))
        return boost(problems, cfg)

    monkeypatch.setattr(gbrt, "_boost", counted)
    grouped = train_registry(corpus, resources, fast_cfg)
    monkeypatch.undo()
    assert len(calls) == len(widths)  # one boost per row count

    alone = ModelRegistry({
        (op, r): train_entry(op, r, X, y, fast_cfg) for r in resources for op, (X, y) in rows[r].items()
    })
    assert serialize(grouped) == serialize(alone)
    picks = {k: (e.default_idx, e.train_rmse) for k, e in alone.entries.items()}
    assert {k: (e.default_idx, e.train_rmse) for k, e in grouped.entries.items()} == picks


@pytest.mark.parametrize("resource", ["cpu_us", "logical_io"])
def test_one_resource_trains_its_entries_of_both(small_corpus, fast_cfg, resource):
    # Every model draws from a seed of its own, so the entries of one
    # resource do not depend on what trains beside them, and naming the
    # resource twice gives the same entries.
    both = train_registry(small_corpus, ["cpu_us", "logical_io"], fast_cfg)
    for names in ([resource], [resource, resource]):
        one = train_registry(small_corpus, names, fast_cfg)
        assert list(one.entries) == [k for k in both.entries if k[1] == resource]
        for key, entry in one.entries.items():
            other = both.entries[key]
            assert serialize(ModelRegistry({key: entry})) == serialize(ModelRegistry({key: other}))
            assert (entry.default_idx, entry.train_rmse) == (other.default_idx, other.train_rmse)


def test_fixed_corpus_bytes_and_estimates_are_pinned(small_corpus, fast_cfg, tmp_path):
    # A refactor that keeps these keeps the generated corpus, the model file
    # and the estimates bit for bit.
    import hashlib

    from qres.plan import save_corpus

    path = tmp_path / "corpus.jsonl"
    save_corpus(small_corpus, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "880c7a6672d0b8bb0530326b4010f436e33ee875d19cc2fa3fd31e02c13e00be"
    )
    registry = train_registry(small_corpus, ["cpu_us", "logical_io"], fast_cfg)
    # 506f2bf351544d23bb276c10ceacb624f55d60f3863c53097dd1ac7a1facb93e while
    # entries whose labels are all 0 kept every combined model as well.
    assert hashlib.sha256(serialize(registry)).hexdigest() == (
        "def173d2f318fa122cac523edfb1df22bf5972465bdeb960663812022f5c1cf4"
    )
    # The default pick and its training RMSE are not stored in the file.
    entries = [
        (op.name, resource, e.default_idx, e.train_rmse)
        for (op, resource), e in sorted(
            registry.entries.items(), key=lambda kv: (int(kv[0][0]), kv[0][1])
        )
    ]
    assert entries == [
        ("TableScan", "cpu_us", 4, 1933.1631949722994),
        ("TableScan", "logical_io", 1, 22.74872835145542),
        ("IndexSeek", "cpu_us", 1, 44.465063609910565),
        ("IndexSeek", "logical_io", 5, 0.12369235600871868),
        ("Filter", "cpu_us", 3, 470.60895530924114),
        ("Filter", "logical_io", 0, 0.0),
        ("Sort", "cpu_us", 3, 34768.764022849056),
        ("Sort", "logical_io", 0, 0.0),
        ("HashAggregate", "cpu_us", 1, 1060.0929036663904),
        ("HashAggregate", "logical_io", 0, 0.0),
        ("HashJoin", "cpu_us", 0, 673.6297294998791),
        ("HashJoin", "logical_io", 0, 0.0),
        ("MergeJoin", "cpu_us", 8, 7871.584386708162),
        ("MergeJoin", "logical_io", 0, 0.0),
        ("NestedLoopJoin", "cpu_us", 8, 770.8736004899745),
        ("NestedLoopJoin", "logical_io", 0, 0.0),
    ]
    totals = {
        resource: [estimate_query(registry, p, resource).total for p in small_corpus[:8]]
        for resource in ("cpu_us", "logical_io")
    }
    assert totals == {
        "cpu_us": [
            104679.96936963502, 17415.562712181956, 25827.446883714794,
            163865.19388877295, 479679.6179612563, 2737683.4088666076,
            47285.29411573553, 215031.85794316133,
        ],
        "logical_io": [
            497.2479530999178, 235.47695012744936, 230.77552697262192,
            993.0277391777881, 240.18613683394062, 975.3283351452687,
            499.3702749474744, 993.0277391777881,
        ],
    }


def test_deep_plan_is_walked_without_recursion():
    # Far deeper than the interpreter's recursion limit.
    from qres.estimators import mart_estimator, train_linear_estimator
    from qres.plan import decompose_pipelines
    from qres.synth import CorpusSpec, TableSpec, generate_corpus

    corpus = generate_corpus(CorpusSpec(
        templates={"scan": 1.0, "filter_scan": 1.0},
        tables=[TableSpec("t", 10_000, 100.0, 8)],
        scales=[1.0, 2.0],
        query_count=16,
        rng_seed=5,
    ))
    resources = ["cpu_us", "logical_io"]
    registry = train_registry(corpus, resources, TrainConfig(iterations=10, rng_seed=0))

    depth = 5_000
    node = scan_node(make_table(tuples=10_000))
    node.observed = {"cpu_us": 8_000.0, "logical_io": 123.0}
    for _ in range(depth):
        node = PlanNode(
            op=OperatorType.Filter, children=[node],
            true_out_cardinality=5_000, est_out_cardinality=5_000,
            out_row_bytes=100.0, est_io_cost=10.0,
            observed={"cpu_us": 2_500.0, "logical_io": 0.0},
        )
    plan = QueryPlan(query_id="deep", root=node)
    plan.validate()
    pipes = decompose_pipelines(plan)
    assert [len(p.nodes) for p in pipes] == [depth + 1]
    by_op = collect_examples([plan], "cpu_us")
    assert by_op[OperatorType.Filter][0].shape == (depth, FEATURE_SPACE)
    assert by_op[OperatorType.Filter][1].tolist() == [2_500.0] * depth
    assert by_op[OperatorType.TableScan][1].tolist() == [8_000.0]
    for resource in resources:
        est = estimate_query(registry, plan, resource)
        assert len(est.per_operator) == depth + 1
        assert est.per_operator[-1][0] == "TableScan"
        assert est.total == sum(est.per_pipeline)
        assert math.isfinite(est.total) and est.total >= 0.0
        batch = featurize_many([plan])
        assert math.isfinite(mart_estimator(registry, resource)(batch)[0])
        assert math.isfinite(train_linear_estimator(corpus, resource)(batch)[0])


# ---------------------------------------------------------------------------
# Batch estimation: estimate_many and the estimator views agree with the
# per-plan path bit for bit.


def _same_as_single(registry, plans, resource):
    many = estimate_many(registry, plans, resource)
    assert len(many) == len(plans)
    for plan, got in zip(plans, many):
        want = estimate_query(registry, plan, resource)
        assert (got.total, got.per_pipeline, got.per_operator) == (
            want.total, want.per_pipeline, want.per_operator
        ), plan.query_id


@pytest.fixture(scope="module")
def batch_case(small_corpus, all_template_spec, fast_cfg):
    import dataclasses

    from qres.synth import generate_corpus

    large = generate_corpus(dataclasses.replace(all_template_spec, scales=[32.0]))
    registry = train_registry(small_corpus, ["cpu_us", "logical_io"], fast_cfg)
    return registry, small_corpus, large


@pytest.mark.parametrize("resource", ["cpu_us", "logical_io"])
def test_estimate_many_equals_estimate_query(batch_case, resource):
    registry, in_range, large = batch_case
    _same_as_single(registry, in_range, resource)
    _same_as_single(registry, large, resource)


def _reference_query_estimate(registry, plan, resource):
    """[DERIVED] The two-walk estimate: every operator valued in pre-order by
    the model select_model picks, then each pipeline of the queue-based
    decomposition summed through an ``id()`` map, the pipelines in its
    order. It shares no code with the one-walk placement."""
    from test_plan import _reference_pipelines

    nodes, values = [], []
    for node, fv in featurize(plan.root):
        model, _ = select_model(registry, node.op, resource, fv)
        nodes.append(node)
        values.append(estimate_with_model(model, fv))
    value_of = {id(n): v for n, v in zip(nodes, values)}
    per_pipeline = [
        ordered_sum(value_of[id(n)] for n in p.nodes) for p in _reference_pipelines(plan)
    ]
    per_operator = [(n.op.name, v) for n, v in zip(nodes, values)]
    return ordered_sum(per_pipeline), per_pipeline, per_operator


@pytest.mark.parametrize("resource", ["cpu_us", "logical_io"])
def test_one_walk_estimates_equal_the_two_walk_reference(batch_case, all_template_spec, resource):
    # In range and at scales 16-64, where selection leaves the default:
    # the same operator values, pipeline subtotals and total, bit for bit.
    import dataclasses

    from qres.synth import generate_corpus

    registry, in_range, _ = batch_case
    extrap = generate_corpus(dataclasses.replace(
        all_template_spec, scales=[16.0, 32.0, 64.0], query_count=48,
    ))
    for plans in (in_range, extrap):
        many = estimate_many(registry, plans, resource)
        for plan, batched in zip(plans, many):
            want = _reference_query_estimate(registry, plan, resource)
            got = estimate_query(registry, plan, resource)
            assert (got.total, got.per_pipeline, got.per_operator) == want, plan.query_id
            assert (batched.total, batched.per_pipeline, batched.per_operator) == want


def test_shared_node_is_estimated_at_each_visit(batch_case):
    # One scan object on both sides of a HashJoin: each visit is valued and
    # placed as a copy would be, the build side in its own pipeline.
    registry, _, _ = batch_case
    scan = scan_node(make_table())
    join = PlanNode(
        op=OperatorType.HashJoin, children=[scan, scan],
        true_out_cardinality=5_000, est_out_cardinality=5_000, out_row_bytes=200.0,
        join_inner_columns=1, join_outer_columns=1, hash_ops_per_tuple=1.0,
    )
    plan = QueryPlan(query_id="shared", root=join)
    plan.validate()
    for resource in ("cpu_us", "logical_io"):
        est = estimate_query(registry, plan, resource)
        [(_, j), (_, s), (_, s2)] = est.per_operator
        assert [name for name, _ in est.per_operator] == ["HashJoin", "TableScan", "TableScan"]
        assert s == s2 and s > 0.0
        assert est.per_pipeline == [s, j + s]
        assert est.total == s + (j + s)
        [batched] = estimate_many(registry, [plan], resource)
        assert (batched.total, batched.per_pipeline, batched.per_operator) == (
            est.total, est.per_pipeline, est.per_operator
        )


@pytest.mark.parametrize("max_leaves", [1, 40])
def test_estimate_many_on_leaf_only_and_walked_trees(small_corpus, batch_case, max_leaves):
    # One leaf per tree leaves the split tables zero wide; 40 leaves put
    # trees past the table limit onto the walk path.
    _, _, large = batch_case
    cfg = TrainConfig(iterations=12, max_leaves=max_leaves, rng_seed=1)
    registry = train_registry(small_corpus, ["cpu_us"], cfg)
    layouts = [
        (m.scaled_model if isinstance(m, CombinedModel) else m).layout()
        for e in registry.entries.values() for m in e.models
    ]
    if max_leaves == 1:
        assert all(lay.feat.shape[0] == 0 for lay in layouts)
    else:
        assert any(lay.walk_starts.size for lay in layouts)
    _same_as_single(registry, small_corpus + large, "cpu_us")


def test_estimate_many_in_chunks(batch_case, monkeypatch):
    from qres import gbrt

    registry, in_range, large = batch_case
    monkeypatch.setattr(gbrt, "CHUNK_ELEMENTS", 1000)  # one or two rows per chunk
    _same_as_single(registry, in_range + large, "cpu_us")


def test_estimate_many_with_zero_scale_feature(batch_case):
    # A zero cardinality cannot normalize the models scaled by it: their
    # ratios are [inf], and the rows still pick the model estimate_query picks.
    import copy

    registry, in_range, large = batch_case
    plans = copy.deepcopy(in_range[:24] + large[:24])
    for plan in plans:
        for node in plan.root.walk():
            if node.children:
                node.children[0].true_out_cardinality = 0
                break
    _same_as_single(registry, plans, "cpu_us")
    _same_as_single(registry, plans, "logical_io")


def test_estimate_many_breaks_exact_ties_by_model_index(batch_case):
    # Each entry holds every combined model twice: the copies tie exactly on
    # ratios and scale-feature count, so the lower index must win.
    registry, in_range, large = batch_case
    doubled = ModelRegistry({
        key: RegistryEntry(e.op, e.resource, e.models + e.models[1:], e.default_idx)
        for key, e in registry.entries.items()
    })
    for resource in ("cpu_us", "logical_io"):
        _same_as_single(doubled, in_range + large, resource)
        picks = [
            (node.op, select_model(doubled, node.op, resource, fv)[1])
            for plan in large for node, fv in featurize(plan.root)
        ]
        assert any(idx != doubled.entry(op, resource).default_idx for op, idx in picks)
        assert all(idx < len(registry.entry(op, resource).models) for op, idx in picks)


def test_entry_with_all_zero_labels_keeps_only_its_plain_model(
    batch_case, all_template_spec, fast_cfg
):
    # Every model of such an entry predicts exactly 0, so training fits no
    # scale form and boosts no combined model for it; its plain model is the
    # one training it alone gives, and it estimates 0 in range and far out.
    import dataclasses

    from qres import gbrt
    from qres.features import applicable_features
    from qres.registry import _model_seed, operator_estimates
    from qres.synth import generate_corpus

    registry, in_range, _ = batch_case
    huge = generate_corpus(dataclasses.replace(all_template_spec, scales=[64.0]))
    zero = {
        (op, resource): (X, y)
        for resource in ("cpu_us", "logical_io")
        for op, (X, y) in collect_examples(in_range, resource).items()
        if not y.any()
    }
    assert {(op.name, resource) for op, resource in zero} == {
        (name, "logical_io")
        for name in ("Filter", "Sort", "HashAggregate", "HashJoin", "MergeJoin", "NestedLoopJoin")
    }
    for (op, resource), (X, y) in zero.items():
        entry = registry.entry(op, resource)
        assert (len(entry.models), entry.default_idx, entry.train_rmse) == (1, 0, 0.0)
        schema = list(applicable_features(op))
        problem = gbrt.Problem(schema, X[:, schema], y, _model_seed(fast_cfg, 0))
        alone = RegistryEntry(op, resource, gbrt.train_family([problem], fast_cfg))
        assert serialize(ModelRegistry({(op, resource): alone})) == serialize(
            ModelRegistry({(op, resource): entry})
        )
        inside, outside = (
            [fv for p in plans for node, fv in featurize(p.root) if node.op is op]
            for plans in (in_range, huge)
        )
        assert max(max(_reference_model_out_ratios(entry.models[0], fv)) for fv in outside) > 0
        assert {estimate_with_model(entry.models[0], fv) for fv in inside + outside} == {0.0}
    assert all(len(e.models) > 1 for key, e in registry.entries.items() if key not in zero)
    batch = featurize_many(huge)
    values = operator_estimates(registry, batch, "logical_io")
    for op, _ in zero:
        assert set(values[batch.at[op]].tolist()) == {0.0}


def test_one_model_entry_is_picked_without_a_range_check(batch_case, monkeypatch):
    # An entry of one model returns it on both paths, on rows out of its
    # ranges and on rows whose scale features are 0: no ratio is computed
    # and no selection table is built.
    import qres.registry as registry_module
    from qres.features import SCALE_CANDIDATES
    from qres.registry import _select_rows

    registry, _, large = batch_case
    loaded = deserialize(serialize(registry))
    one = [e for e in loaded.entries.values() if len(e.models) == 1]
    assert one  # the entries whose labels are all 0
    for e in loaded.entries.values():
        if len(e.models) > 1:
            one += [RegistryEntry(e.op, e.resource, [m]) for m in (e.models[0], e.models[-1])]

    def ranked(model, fv):
        raise AssertionError("a one-model entry was ranked")

    monkeypatch.setattr(registry_module, "model_out_ratios", ranked)
    for entry in one:
        op, model = entry.op, entry.models[0]
        rows = [dict(fv.values) for p in large for node, fv in featurize(p.root) if node.op is op]
        rows += [{f: 0.0 if f in SCALE_CANDIDATES else v for f, v in r.items()} for r in rows]
        assert any(
            max(_reference_model_out_ratios(model, FeatureVector(op, r))) > 0 for r in rows
        )
        edited = ModelRegistry({(op, entry.resource): entry})
        for values in rows:
            got = select_model(edited, op, entry.resource, FeatureVector(op, values))
            assert got[0] is model and got[1] == 0
        X = np.zeros((len(rows), FEATURE_SPACE))
        for row, values in zip(X, rows):
            for f, v in values.items():
                row[int(f)] = v
        assert _select_rows(entry, X).tolist() == [0] * len(rows)
        assert model._selection is None


def test_estimator_views_equal_per_plan_sums(batch_case):
    # MART and LINEAR add their operators' values in pre-order, as a
    # per-plan loop over featurize does.
    from qres.estimators import mart_estimator, train_linear_estimator
    from qres.evalkit import fit_linear_baseline

    registry, in_range, large = batch_case
    plans = in_range + large
    batch = featurize_many(plans)
    for resource in ("cpu_us", "logical_io"):
        linear = {
            op: fit_linear_baseline(op, X, y, seed=0)
            for op, (X, y) in collect_examples(in_range, resource).items()
        }
        mart_want, linear_want = [], []
        for plan in plans:
            mart_total = linear_total = 0.0
            for node, fv in featurize(plan.root):
                mart_total += estimate_with_model(registry.entry(node.op, resource).models[0], fv)
                model = linear[node.op]
                acc = model.intercept
                for f, c in zip(model.schema, model.coefficients):
                    acc += c * fv.values[f]
                linear_total += max(0.0, acc)
            mart_want.append(mart_total)
            linear_want.append(linear_total)
        assert mart_estimator(registry, resource)(batch) == mart_want
        assert train_linear_estimator(in_range, resource)(batch) == linear_want


def test_overflowing_scale_factor_or_estimate_is_scaling_error(small_corpus):
    # TSIZE ** 3 at 1e120 rows is past the largest float, and so is a
    # per-unit estimate of 1e300 times 1e10 rows: both paths raise
    # ScalingError instead of OverflowError or an infinite estimate.
    from conftest import scaled_seek_registry, seek_plan

    from qres.scaling import ScalingError

    registry = scaled_seek_registry(small_corpus)
    assert estimate_query(registry, seek_plan(10**6), "cpu_us").total > 0.0
    _same_as_single(registry, [seek_plan(10**6), seek_plan(10**9)], "cpu_us")
    plans = [seek_plan(10**6), seek_plan(10**120)]
    with pytest.raises(ScalingError, match="overflows"):
        estimate_query(registry, plans[1], "cpu_us")
    with pytest.raises(ScalingError, match="overflows"):
        estimate_many(registry, plans, "cpu_us")

    registry = scaled_seek_registry(small_corpus, FormKind.Linear, 1.0)
    entry = registry.entry(OperatorType.IndexSeek, "cpu_us")
    entry.models[0].scaled_model.init = 1e300  # before any layout is built
    plans = [seek_plan(10), seek_plan(10**10)]
    assert math.isfinite(estimate_query(registry, plans[0], "cpu_us").total)
    with pytest.raises(ScalingError, match="non-finite estimate"):
        estimate_query(registry, plans[1], "cpu_us")
    with pytest.raises(ScalingError, match="non-finite estimate"):
        estimate_many(registry, plans, "cpu_us")


def test_estimate_many_with_non_finite_features(batch_case):
    # A NaN or huge row width makes a feature NaN or inf (a row width times
    # a cardinality past the largest float). Featurization rejects such a
    # plan with PlanError on both paths; plans whose features stay finite
    # are estimated alike.
    import copy

    from qres.scaling import ScalingError

    registry, in_range, large = batch_case
    plans = copy.deepcopy(in_range[:32] + large[:32])
    for i, plan in enumerate(plans):
        nodes = list(plan.root.walk())
        nodes[i % len(nodes)].out_row_bytes = (math.nan, 1e307)[i % 2]

    def non_finite(plan):
        return not all(
            math.isfinite(n.out_row_bytes * n.true_out_cardinality) for n in plan.root.walk()
        )

    bad = [p for p in plans if non_finite(p)]
    good = [p for p in plans if not non_finite(p)]
    assert len(bad) > len(plans) // 2 and good
    for resource in ("cpu_us", "logical_io"):
        for plan in bad:
            with pytest.raises(PlanError, match="feature .* is not finite"):
                estimate_query(registry, plan, resource)
            with pytest.raises(PlanError, match="feature .* is not finite"):
                estimate_many(registry, [in_range[0], plan], resource)
        kept = []
        for plan in good:
            try:
                estimate_query(registry, plan, resource)
            except ScalingError:
                with pytest.raises(ScalingError):
                    estimate_many(registry, [plan], resource)
            else:
                kept.append(plan)
        _same_as_single(registry, kept, resource)


# ---------------------------------------------------------------------------
# Selection tables: the per-vector rule computed from each model's cached
# table equals the rule as it was computed on every call, kept here as the
# reference.


def _reference_out_ratio(value, low, high):
    if high == low:
        return 0.0 if value == high else math.inf
    excursion = max(low - value, 0.0) + max(value - high, 0.0)
    return excursion / (high - low)


def _reference_transform_for_scaling(fv, terms):
    raw = fv.values
    work = dict(raw)
    for term in terms:
        for fid in term.features:
            v = raw.get(fid)
            if v is None or v <= 0:
                raise FeatureError(
                    f"degenerate scaling feature: {fid.name} absent or non-positive"
                )
            for dep in dependents(fid):
                if dep in work:
                    work[dep] = work[dep] / v
            work.pop(fid, None)
    return FeatureVector(op=fv.op, values=work)


def _reference_model_out_ratios(model, fv):
    if isinstance(model, CombinedModel):
        try:
            fv = _reference_transform_for_scaling(fv, model.terms)
        except FeatureError:
            return [math.inf]
        mart = model.scaled_model
    else:
        mart = model
    ratios = []
    for f in mart.schema:
        if f is F.OUTPUTUSAGE:
            continue
        value = fv.values.get(f)
        if value is None:
            return [math.inf]
        low, high = mart.feature_stats[f]
        ratios.append(_reference_out_ratio(value, low, high))
    return ratios or [0.0]


def _reference_select_model(registry, op, resource, fv):
    entry = registry.entry(op, resource)
    default = entry.models[entry.default_idx]
    if max(_reference_model_out_ratios(default, fv)) == 0.0:
        return default, entry.default_idx
    best_key = None
    best = None
    for idx, model in enumerate(entry.models):
        ratios = sorted(_reference_model_out_ratios(model, fv), reverse=True)
        padded = tuple(ratios[1:]) + (0.0,)
        n_scale = len(model.scale_feature_ids) if isinstance(model, CombinedModel) else 0
        key = (ratios[0], n_scale, padded, idx)
        if best_key is None or key < best_key:
            best_key = key
            best = (model, idx)
    return best


def _reference_estimate_with_model(model, fv):
    from qres import gbrt
    from qres.registry import _scale_factor
    from qres.scaling import ScalingError

    if isinstance(model, CombinedModel):
        g = _scale_factor(model.terms, fv.values)
        transformed = _reference_transform_for_scaling(fv, model.terms)
        value = g * gbrt.predict(model.scaled_model, transformed)
    else:
        value = gbrt.predict(model, fv)
    if not math.isfinite(value):
        raise ScalingError("non-finite estimate")
    return max(0.0, value)


def _outcome(fn, *args):
    """A call's result as exact bits, or the type and message of what it raised."""
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not hidden
        return type(exc), str(exc)
    if isinstance(value, FeatureVector):
        return [(f, v.hex()) for f, v in value.values.items()]
    if isinstance(value, list):
        return [v.hex() for v in value]
    return value.hex()


_EDGE_VALUES = st.sampled_from([0.0, -0.0, 1.0, 2.5, 1e-300, 5e-324, 3.4e38, -7.0])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.one_of(st.floats(-1e6, 1e6), _EDGE_VALUES),
    st.one_of(st.floats(-1e6, 1e6), _EDGE_VALUES),
    st.one_of(st.floats(0.0, 1e6), _EDGE_VALUES.map(abs)),
    st.sampled_from(["inside", "low", "high", "below", "above"]),
)
def test_out_ratio_equals_the_reference(value, low, width, where):
    high = low + width
    value = {
        "inside": value,
        "low": low,
        "high": high,
        "below": math.nextafter(low, -math.inf),
        "above": math.nextafter(high, math.inf),
    }[where]
    assert out_ratio(value, low, high).hex() == _reference_out_ratio(value, low, high).hex()


@pytest.fixture(scope="module")
def selection_case(batch_case):
    registry, in_range, large = batch_case
    vectors: dict = {}
    for plan in in_range[:48] + large[:48]:
        for node, fv in featurize(plan.root):
            vectors.setdefault(node.op, []).append(fv)
    keys = sorted(registry.entries, key=lambda k: (int(k[0]), k[1]))
    return registry, vectors, keys


def _hand_built_variants(models):
    """Combined models no training makes: one on the plain ensemble, whose
    schema keeps its scale feature COUT, and on a two-feature join model's
    ensemble, its features (CIN2 is a dependent of CIN1) in the other order
    and as two one-feature terms."""
    plain = CombinedModel([ScaleTerm(FormKind.Linear, (F.COUT,))], models[0])
    pair = next(
        (m for m in models if isinstance(m, CombinedModel) and len(m.scale_feature_ids) == 2),
        None,
    )
    if pair is None:
        return [plain]
    a, b = pair.scale_feature_ids
    return [
        plain,
        CombinedModel([ScaleTerm(FormKind.Product2, (b, a))], pair.scaled_model),
        CombinedModel(
            [ScaleTerm(FormKind.Linear, (a,)), ScaleTerm(FormKind.Linear, (b,))],
            pair.scaled_model,
        ),
    ]


def _edit_vector(data, values, scale_features):
    """Drop features, or set them to 0, to a negative value or to a multiple."""
    for _ in range(data.draw(st.integers(0, 3))):
        f = data.draw(st.sampled_from(sorted(values) + scale_features))
        edit = data.draw(st.sampled_from(["absent", "zero", "negative", "times"]))
        if edit == "absent":
            values.pop(f, None)
        elif edit == "zero":
            values[f] = 0.0
        elif edit == "negative":
            values[f] = -data.draw(st.sampled_from([1e-9, 1.0, 1e6]))
        else:
            values[f] = values.get(f, 1.0) * data.draw(st.sampled_from([1e-3, 0.5, 3.0, 64.0, 1e6]))


def _edit_range(data, model, fv):
    """A copy of ``model`` whose training range of one feature ends exactly
    at the vector's (normalized) value, one step short of it, or is that
    value alone."""
    import dataclasses

    mart = model.scaled_model if isinstance(model, CombinedModel) else model
    f = data.draw(st.sampled_from([g for g in mart.schema if g is not F.OUTPUTUSAGE]))
    low, high = mart.feature_stats[f]
    try:
        values = (
            _reference_transform_for_scaling(fv, model.terms).values
            if isinstance(model, CombinedModel) else fv.values
        )
    except FeatureError:
        values = {}
    v = values.get(f, low)
    edge = data.draw(st.sampled_from(["low", "high", "below", "above", "zero-width"]))
    if edge == "low":
        low, high = v, max(v, high)
    elif edge == "high":
        low, high = min(v, low), v
    elif edge == "below":
        low = math.nextafter(v, math.inf)
        high = max(low, high)
    elif edge == "above":
        high = math.nextafter(v, -math.inf)
        low = min(low, high)
    else:
        low = high = v
    edited = dataclasses.replace(mart, feature_stats={**mart.feature_stats, f: (low, high)})
    if isinstance(model, CombinedModel):
        return CombinedModel(list(model.terms), edited)
    return edited


@settings(max_examples=250, derandomize=True, deadline=None)
@given(data=st.data())
def test_selection_tables_equal_the_reference_rule(selection_case, data):
    # Values at a range's ends and one step outside them, zero-width ranges,
    # scale features that are absent, 0 or negative, absent schema features,
    # CIN1/CIN2 terms in either order, and a scale feature the ensemble
    # also reads: every ratio list, pick, estimate and normalized vector is
    # the reference's, bit for bit, or both raise the same error.
    from qres.registry import _parts

    registry, vectors, keys = selection_case
    op, resource = key = data.draw(st.sampled_from(keys))
    models = list(registry.entries[key].models)
    if data.draw(st.booleans()):
        models += _hand_built_variants(models)
    values = dict(data.draw(st.sampled_from(vectors[op])).values)
    _edit_vector(data, values, sorted({f for m in models for f in _parts(m)[1]}))
    fv = FeatureVector(op=op, values=values)
    for _ in range(data.draw(st.integers(0, 3))):
        idx = data.draw(st.integers(0, len(models) - 1))
        models[idx] = _edit_range(data, models[idx], fv)
    default_idx = data.draw(st.integers(0, len(models) - 1))
    edited = ModelRegistry({key: RegistryEntry(op, resource, models, default_idx)})

    for model in models:
        assert _outcome(model_out_ratios, model, fv) == _outcome(
            _reference_model_out_ratios, model, fv
        )
        assert _outcome(estimate_with_model, model, fv) == _outcome(
            _reference_estimate_with_model, model, fv
        )
        if isinstance(model, CombinedModel):
            assert _outcome(transform_for_scaling, fv, model.terms) == _outcome(
                _reference_transform_for_scaling, fv, model.terms
            )
    got = select_model(edited, op, resource, fv)
    want = _reference_select_model(edited, op, resource, fv)
    assert got[1] == want[1] and got[0] is want[0]


def test_every_operator_of_the_batch_plans_equals_the_reference_rule(selection_case):
    # Every featurized operator of the in-range and scale-32 plans, against
    # every model of its entries and the hand-built variants.
    registry, vectors, keys = selection_case
    for key in keys:
        entry = registry.entries[key]
        models = entry.models + _hand_built_variants(entry.models)
        for fv in vectors[key[0]]:
            for model in models:
                assert _outcome(model_out_ratios, model, fv) == _outcome(
                    _reference_model_out_ratios, model, fv
                )
                assert _outcome(estimate_with_model, model, fv) == _outcome(
                    _reference_estimate_with_model, model, fv
                )
            got = select_model(registry, *key, fv)
            assert got == _reference_select_model(registry, *key, fv)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_batch_selection_equals_the_per_vector_rule(selection_case, data):
    # Trained families and hand-built variants, exact duplicates of models
    # (exact ties), families without their plain model (the decoder accepts
    # them), families of one model, ranges ending at a row's value, one step
    # short of it or zero wide, any default, and complete rows whose scale
    # features may be 0 (all of them, as for an empty input) or negative:
    # _select_rows picks, row by row, select_model's index.
    from qres.registry import _parts, _select_rows

    registry, vectors, keys = selection_case
    op, resource = key = data.draw(st.sampled_from(keys))
    models = list(registry.entries[key].models)
    if data.draw(st.booleans()):
        models += _hand_built_variants(models)
    duplicates = data.draw(st.lists(st.integers(0, len(models) - 1), max_size=3))
    models += [models[i] for i in duplicates]
    if data.draw(st.booleans()) and len(models) > 1:
        del models[0]
    drawn = data.draw(st.lists(st.sampled_from(vectors[op]), min_size=1, max_size=12))
    rows = [dict(fv.values) for fv in drawn]
    scale_features = sorted({f for m in models for f in _parts(m)[1]})
    for values in rows:
        if scale_features and data.draw(st.integers(0, 4)) == 0:
            values.update(dict.fromkeys(scale_features, 0.0))
        for _ in range(data.draw(st.integers(0, 3)) if scale_features else 0):
            f = data.draw(st.sampled_from(scale_features))
            edits = [0.0, -0.0, -1.0, 1e-3 * values[f], 64.0 * values[f]]
            values[f] = data.draw(st.sampled_from(edits))
    for _ in range(data.draw(st.integers(0, 3))):
        idx = data.draw(st.integers(0, len(models) - 1))
        fv = FeatureVector(op, data.draw(st.sampled_from(rows)))
        models[idx] = _edit_range(data, models[idx], fv)
    entry = RegistryEntry(op, resource, models, data.draw(st.integers(0, len(models) - 1)))

    X = np.zeros((len(rows), FEATURE_SPACE))
    for row, values in zip(X, rows):
        for f, v in values.items():
            row[int(f)] = v
    edited = ModelRegistry({key: entry})
    want = [select_model(edited, op, resource, FeatureVector(op, values))[1] for values in rows]
    assert _select_rows(entry, X).tolist() == want


def test_load_builds_no_selection_table_and_estimates_build_the_scored_ones(
    batch_case, tmp_path, monkeypatch
):
    # Tables are built on first use, so loading a model file does no
    # selection work; one estimate builds the tables of the defaults it
    # checked and of the models it scored, and no others.
    import qres.registry as registry_module

    registry, _, large = batch_case
    path = str(tmp_path / "model.bin")
    registry_module.save_registry(registry, path)
    loaded = registry_module.load_registry(path)
    models = [m for e in loaded.entries.values() for m in e.models]
    marts = [m.scaled_model for m in models if isinstance(m, CombinedModel)]
    assert all(m._selection is None for m in models + marts)

    scored = []
    original = registry_module.model_out_ratios

    def recording(model, fv):
        scored.append(model)
        return original(model, fv)

    monkeypatch.setattr(registry_module, "model_out_ratios", recording)
    plan = next(
        p for p in large
        if any(
            select_model(registry, node.op, "cpu_us", fv)[1]
            != registry.entry(node.op, "cpu_us").default_idx
            for node, fv in featurize(p.root)
        )
    )
    scored.clear()
    estimate_query(loaded, plan, "cpu_us")
    entries = [loaded.entry(node.op, "cpu_us") for node in plan.root.walk()]
    checked = {id(m) for m in scored} | {id(e.models[e.default_idx]) for e in entries}
    assert any(id(m) != id(e.models[e.default_idx]) for e in entries for m in scored)
    assert {id(m) for m in models if m._selection is not None} == checked
    assert all(m._selection is None for m in marts)


def test_estimate_query_reaches_select_model_through_the_module(batch_case, monkeypatch):
    # Tracing replaces registry.select_model by a wrapper; estimate_query
    # must call it by that name, once per operator.
    import qres.registry as registry_module

    registry, in_range, large = batch_case
    calls = []
    original = registry_module.select_model

    def counting(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(registry_module, "select_model", counting)
    for plan in (in_range[0], large[0]):
        calls.clear()
        estimate_query(registry, plan, "cpu_us")
        assert calls == [node.op for node, _ in featurize(plan.root)]


def test_model_label_names_the_scale_terms():
    from qres.registry import model_label

    scaled = MartModel(0.0, [], 0.1, [F.COUT], {F.COUT: (0.0, 1.0)})
    assert model_label(scaled) == "mart"
    power = CombinedModel([ScaleTerm(FormKind.Power, (F.TSIZE,), 3.0)], scaled)
    assert model_label(power) == "combined:Power(TSIZE;3)"
    root = CombinedModel([ScaleTerm(FormKind.Power, (F.CIN1,), 0.5)], scaled)
    assert model_label(root) == "combined:Power(CIN1;0.5)"
    pair = CombinedModel([ScaleTerm(FormKind.Product2, (F.CIN1, F.CIN2))], scaled)
    assert model_label(pair) == "combined:Product2(CIN1,CIN2)"
    linear = CombinedModel([ScaleTerm(FormKind.Linear, (F.CIN1,))], scaled)
    assert model_label(linear) == "combined:Linear(CIN1)"


def test_ratio_that_underflows_to_zero_counts_as_in_range():
    # 0.0 lies one step below a range starting at the smallest subnormal,
    # but its ratio, 5e-324 / 10, rounds to 0.0: the default stays the pick,
    # although model 0 would win the scoring.
    first = MartModel(0.0, [], 0.1, [F.COUT], {F.COUT: (0.0, 10.0)})
    default = MartModel(0.0, [], 0.1, [F.COUT], {F.COUT: (5e-324, 10.0)})
    key = (OperatorType.Filter, "cpu_us")
    registry = ModelRegistry({key: RegistryEntry(*key, [first, default], default_idx=1)})
    fv = FeatureVector(op=OperatorType.Filter, values={F.COUT: 0.0})
    assert model_out_ratios(default, fv) == [0.0]
    assert select_model(registry, *key, fv) == (default, 1)
    assert _reference_select_model(registry, *key, fv) == (default, 1)


@pytest.mark.parametrize("order", [(F.CIN1, F.CIN2), (F.CIN2, F.CIN1)])
def test_divisions_follow_the_scale_feature_order(order):
    # COUT is a dependent of both CIN1 and CIN2; (1 / 3) / 13 and (1 / 13) / 3
    # differ in the last bit, and so do the out-of-range ratios.
    scaled = MartModel(0.0, [], 0.1, [F.COUT], {F.COUT: (0.0, 0.01)})
    model = CombinedModel([ScaleTerm(FormKind.Product2, order)], scaled)
    fv = FeatureVector(
        op=OperatorType.MergeJoin, values={F.COUT: 1.0, F.CIN1: 3.0, F.CIN2: 13.0}
    )
    a, b = (fv.values[f] for f in order)
    assert transform_for_scaling(fv, model.terms).values[F.COUT] == (1.0 / a) / b
    assert _outcome(model_out_ratios, model, fv) == _outcome(
        _reference_model_out_ratios, model, fv
    )
    assert model_out_ratios(model, fv) != [(1.0 / b / a - 0.01) / 0.01]

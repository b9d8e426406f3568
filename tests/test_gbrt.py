"""Boosted regression trees: split search, boosting, prediction, determinism."""
from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qres import gbrt
from qres.features import FeatureId, FeatureVector
from qres.gbrt import (
    TABLE_MAX_SPLITS,
    MartModel,
    Problem,
    TrainConfig,
    TrainingError,
    Tree,
    dense_vector,
    predict,
    train,
    train_family,
)
from qres.plan import OperatorType
from qres.registry import _encode_mart, _parts, train_registry

F = FeatureId


def fit_tree(examples, max_leaves: int, min_per_leaf: int = 1) -> tuple[Tree, list]:
    """One regression tree fit by the training grower to the targets
    themselves; its feature slots index the returned schema."""
    schema, X, r = gbrt._examples_to_arrays(examples)
    order = np.argsort(X.T, axis=1, kind="stable")
    _, child, feat, value = gbrt._Grower(X[None], r[None], order[None], max_leaves, min_per_leaf).grow()
    return Tree(child=child, feature=feat.astype(np.uint8), value=value), schema


def n_leaves(tree: Tree) -> int:
    return int(np.sum(tree.child == 0))


def fv(**named) -> FeatureVector:
    return FeatureVector(
        op=OperatorType.Filter,
        values={FeatureId[k]: float(v) for k, v in named.items()},
    )


def make_examples(xs, ys, feature="CIN1"):
    return [(fv(**{feature: x}), float(y)) for x, y in zip(xs, ys)]


# ---------------------------------------------------------------------------
# Single-tree fitting against a brute-force oracle


def _oracle_best_sse(xs, ys):
    """[DERIVED] brute-force minimum SSE over all single splits of one feature."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    best = float(np.sum((ys - ys.mean()) ** 2))
    for t in sorted(set(xs))[:-1]:
        left = ys[xs <= t]
        right = ys[xs > t]
        sse = np.sum((left - left.mean()) ** 2) + np.sum((right - right.mean()) ** 2)
        best = min(best, float(sse))
    return best


def _tree_sse(tree, schema, xs, ys):
    sse = 0.0
    for x, y in zip(xs, ys):
        i = 0
        while tree.child[i] != 0:
            col = tree.feature[i]
            v = x if schema[col] is F.CIN1 else 0.0
            i += 1 if v <= tree.value[i] else int(tree.child[i])
        sse += (y - float(tree.value[i])) ** 2
    return sse


def test_single_split_matches_brute_force():
    xs = [1, 2, 3, 4, 10, 11, 12, 13]
    ys = [5, 5, 5, 5, 50, 50, 50, 50]
    tree, schema = fit_tree(make_examples(xs, ys), max_leaves=2, min_per_leaf=1)
    assert n_leaves(tree) == 2
    assert _tree_sse(tree, schema, xs, ys) == pytest.approx(_oracle_best_sse(xs, ys), abs=1e-6)
    # Threshold must be the midpoint of the straddling pair: (4+10)/2 = 7.
    assert float(tree.value[0]) == pytest.approx(7.0)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 30), st.integers(-50, 50)),
        min_size=4, max_size=25,
    )
)
def test_stump_never_worse_than_oracle(points):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    tree, schema = fit_tree(make_examples(xs, ys), max_leaves=2, min_per_leaf=1)
    got = _tree_sse(tree, schema, xs, ys)
    want = _oracle_best_sse(xs, ys)
    assert got <= want + 1e-6 * (1 + abs(want))


def test_pure_region_fits_exactly():
    # A tree with enough leaves reproduces a piecewise-constant target exactly
    # (up to float32 leaf storage).
    xs = list(range(12))
    ys = [1.0] * 4 + [9.0] * 4 + [4.0] * 4
    tree, schema = fit_tree(make_examples(xs, ys), max_leaves=3, min_per_leaf=1)
    assert _tree_sse(tree, schema, xs, ys) == pytest.approx(0.0, abs=1e-9)


def test_max_leaves_respected():
    rng = np.random.default_rng(0)
    xs = rng.uniform(0, 100, 200)
    ys = rng.uniform(0, 100, 200)
    for cap in (1, 2, 5, 10):
        tree, _ = fit_tree(make_examples(xs, ys), max_leaves=cap, min_per_leaf=1)
        assert 1 <= n_leaves(tree) <= cap
        assert tree.n_nodes == 2 * n_leaves(tree) - 1


def test_min_per_leaf_respected():
    xs = list(range(10))
    ys = [0.0] * 9 + [100.0]
    tree, schema = fit_tree(make_examples(xs, ys), max_leaves=10, min_per_leaf=3)
    # Count examples reaching each leaf.
    counts = {}
    for x in xs:
        i = 0
        while tree.child[i] != 0:
            i += 1 if x <= tree.value[i] else int(tree.child[i])
        counts[i] = counts.get(i, 0) + 1
    assert all(c >= 3 for c in counts.values())


def test_packed_layout_invariants():
    rng = np.random.default_rng(1)
    xs = rng.uniform(0, 10, 64)
    ys = xs * 3 + rng.normal(0, 1, 64)
    tree, _ = fit_tree(make_examples(xs, ys), max_leaves=10, min_per_leaf=2)
    # child offsets: 0 marks leaves; internal nodes point forward inside the tree.
    for i in range(tree.n_nodes):
        off = int(tree.child[i])
        if off:
            assert i + off < tree.n_nodes
            assert off >= 2  # left subtree holds at least one node
        else:
            assert tree.feature[i] == 0
    assert tree.value.dtype == np.float32
    assert tree.child.dtype == np.uint8


# ---------------------------------------------------------------------------
# Boosting


def _examples_2d(n=200, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.uniform(1, 100, n)
    b = rng.uniform(1, 50, n)
    y = 3 * a + 10 * b + rng.normal(0, 2, n)
    return [
        (fv(CIN1=ai, SINAVG1=bi), float(yi)) for ai, bi, yi in zip(a, b, y)
    ]


def test_training_reduces_rmse():
    ex = _examples_2d()
    model = train(ex, TrainConfig(iterations=150, subsample_fraction=1.0, rng_seed=0))
    assert model.train_rmse[-1] < 0.2 * model.train_rmse[0]


def test_rmse_non_increasing_full_sample():
    # With subsample 1.0 each tree fits the exact residuals, so the training
    # RMSE can never increase between iterations.
    ex = _examples_2d(n=120, seed=3)
    model = train(ex, TrainConfig(iterations=120, subsample_fraction=1.0, rng_seed=0))
    diffs = np.diff(model.train_rmse)
    assert np.all(diffs <= 1e-9)


def test_training_deterministic():
    ex = _examples_2d(n=80, seed=5)
    cfg = TrainConfig(iterations=40, rng_seed=17)
    m1 = train(ex, cfg)
    m2 = train(ex, TrainConfig(iterations=40, rng_seed=17))
    probe = fv(CIN1=42.0, SINAVG1=7.0)
    assert predict(m1, probe) == predict(m2, probe)
    for t1, t2 in zip(m1.trees, m2.trees):
        assert np.array_equal(t1.value, t2.value)


def test_seed_changes_subsampled_model():
    ex = _examples_2d(n=80, seed=5)
    m1 = train(ex, TrainConfig(iterations=40, rng_seed=1))
    m2 = train(ex, TrainConfig(iterations=40, rng_seed=2))
    assert any(
        not np.array_equal(t1.value, t2.value) for t1, t2 in zip(m1.trees, m2.trees)
    )


def test_flat_extrapolation_beyond_training_range():
    # Trees split on thresholds inside the training range only, so the
    # prediction is constant beyond the observed maximum.
    xs = np.linspace(1, 100, 150)
    ys = 5.0 * xs
    model = train(
        make_examples(xs, ys),
        TrainConfig(iterations=200, subsample_fraction=1.0, rng_seed=0),
    )
    at_max = predict(model, fv(CIN1=100.0))
    assert predict(model, fv(CIN1=1_000.0)) == at_max
    assert predict(model, fv(CIN1=1e9)) == at_max
    # And therefore badly under-predicts a growing target.
    assert at_max < 5.0 * 1_000.0


def test_predict_matches_manual_walk():
    ex = _examples_2d(n=60, seed=9)
    model = train(ex, TrainConfig(iterations=30, rng_seed=0))
    probe = fv(CIN1=55.0, SINAVG1=20.0)
    x = dense_vector(probe, model.schema)
    acc = np.float64(model.init)
    for tree in model.trees:
        i = 0
        while tree.child[i] != 0:
            i += 1 if x[tree.feature[i]] <= tree.value[i] else int(tree.child[i])
        acc += model.learning_rate * np.float64(tree.value[i])
    assert predict(model, probe) == pytest.approx(float(acc), rel=1e-12)


def _manual_walk(model, x) -> float:
    acc = np.float64(model.init)
    for tree in model.trees:
        i = 0
        while tree.child[i] != 0:
            i += 1 if x[tree.feature[i]] <= tree.value[i] else int(tree.child[i])
        acc += model.learning_rate * np.float64(tree.value[i])
    return float(acc)


def test_predict_matches_manual_walk_large_trees():
    # Trees with more than TABLE_MAX_SPLITS internal nodes are evaluated by the
    # lock-step walk instead of a lookup table; the mixed model interleaves
    # walked trees with table trees.
    ex = _examples_2d(n=200, seed=9)
    big = train(ex, TrainConfig(iterations=30, max_leaves=40, rng_seed=0))
    small = train(ex, TrainConfig(iterations=30, rng_seed=1))
    assert all(t.n_nodes // 2 > TABLE_MAX_SPLITS for t in big.trees)
    assert all(t.n_nodes // 2 <= TABLE_MAX_SPLITS for t in small.trees)
    mixed = dataclasses.replace(
        big, trees=[t for pair in zip(big.trees, small.trees) for t in pair]
    )
    probes = [p for p, _ in ex] + [fv(CIN1=1e6, SINAVG1=-1e6), fv(CIN1=0.0, SINAVG1=1e9)]
    # Probes that sit exactly on split thresholds pin the tie rule (<= goes left).
    probes += [
        fv(**{"CIN1": 50.0, "SINAVG1": 20.0, F(int(t.feature[i])).name: float(t.value[i])})
        for t in mixed.trees[:10]
        for i in np.flatnonzero(t.child)
    ]
    for model in (big, mixed):
        for probe in probes:
            want = _manual_walk(model, dense_vector(probe, model.schema))
            assert predict(model, probe) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# Leaf masks against a walk over every code, and the kernel against the
# lookup-table kernel it replaced


def _walked_leaf_tables(model: MartModel) -> np.ndarray:
    """[DERIVED] The leaf number each table tree reaches for every code of
    ``2**k`` codes, tree by tree: every table tree walked once per code, the
    code's bit j standing for the outcome of the tree's split j (set: the
    split sends the input left). Row c of ``goes_right`` is 1.0 where bit j of
    c is clear, and the walk sends 1.0 right of a 0.5 threshold."""
    starts, child, _, _ = model.packed()
    firsts = starts[:-1]
    tree_of = np.repeat(np.arange(len(firsts)), np.diff(starts))
    internal = child != 0
    before = np.cumsum(internal) - internal
    split_rank = before - before[firsts][tree_of]
    leaf_rank = np.arange(len(child)) - firsts[tree_of] - split_rank
    n_splits = np.bincount(tree_of, weights=internal, minlength=len(firsts))
    tab = n_splits <= TABLE_MAX_SPLITS
    k = int(n_splits[tab].max(initial=0))
    codes = np.arange(1 << k)
    goes_right = (((codes[:, None] >> np.arange(k)) & 1) == 0).astype(np.float64)
    reached = gbrt._walk(
        child, split_rank, np.full(len(child), 0.5), goes_right,
        np.tile(codes, int(tab.sum())), np.repeat(firsts[tab], len(codes)),
    )
    return leaf_rank[reached].astype(np.uint8)


def _mask_leaf_tables(model: MartModel) -> np.ndarray:
    """The leaf the kernel's masks give each table tree for every code, laid
    out as :func:`_walked_leaf_tables` lays out the walked leaves."""
    keep = model.layout().keep
    k = len(keep)
    codes = np.arange(1 << k)
    left = ((codes[:, None] >> np.arange(k)) & 1).astype(bool)  # (codes, k)
    patterns = np.broadcast_to(left[:, :, None], (len(codes), *keep.shape))
    return gbrt._exit_leaves(keep, patterns).T.ravel()


def _assert_leaf_tables_match_walk(model: MartModel) -> None:
    assert np.array_equal(_mask_leaf_tables(model), _walked_leaf_tables(model))


class _TableKernel:
    """[DERIVED] The lookup-table kernel that scored table trees before leaf
    masks did: a table tree's comparisons, bit j set where its split j sends
    the input left, index a table of ``2**k`` leaf numbers (here
    :func:`_walked_leaf_tables`); larger trees are walked node by node. The
    terms are summed as ``gbrt._Layout`` sums them: table trees, then walked
    trees, each group in tree order by ``ndarray.sum``."""

    def __init__(self, model: MartModel):
        self.model = model
        table = [t for t in model.trees if t.n_nodes // 2 <= TABLE_MAX_SPLITS]
        self.tables = _walked_leaf_tables(model).reshape(len(table), -1) if table else []
        self.table_trees = table
        self.walked_trees = [t for t in model.trees if t.n_nodes // 2 > TABLE_MAX_SPLITS]

    def _term(self, leaf_value) -> np.float64:
        return self.model.learning_rate * np.float64(leaf_value)

    def predict(self, x: np.ndarray) -> float:
        terms = []
        for tree, leaf_of in zip(self.table_trees, self.tables):
            splits = np.flatnonzero(tree.child)
            code = sum(1 << j for j, i in enumerate(splits) if x[tree.feature[i]] <= tree.value[i])
            leaves = np.flatnonzero(tree.child == 0)
            terms.append(self._term(tree.value[leaves[leaf_of[code]]]))
        total = np.array(terms, dtype=np.float64).sum()
        if self.walked_trees:
            walked = []
            for tree in self.walked_trees:
                i = 0
                while tree.child[i]:
                    i += 1 if x[tree.feature[i]] <= tree.value[i] else int(tree.child[i])
                walked.append(self._term(tree.value[i]))
            total += np.array(walked).sum()
        return self.model.init + float(total)


def _threshold_probes(model: MartModel, rng, n: int = 40) -> np.ndarray:
    """``n`` dense vectors in which each split feature of ``model`` takes one
    of the model's thresholds on it, or a value below or above them all, so
    that many comparisons are ties (a tie goes left)."""
    _, child, feat, val = model.packed()
    X = np.zeros((n, gbrt.FEATURE_SPACE))
    for f in np.unique(feat[child != 0]):
        thr = val[(child != 0) & (feat == f)].astype(np.float64)
        choices = np.concatenate([thr, [thr.min() - 1.0, thr.max() + 1.0]])
        X[:, f] = rng.choice(choices, size=n)
    return X


def _assert_kernel_equals_table_kernel(model: MartModel, seed: int = 0, n: int = 40) -> None:
    X = _threshold_probes(model, np.random.default_rng(seed), n)
    reference = _TableKernel(model)
    want = np.array([reference.predict(x) for x in X])
    layout = model.layout()
    # Rows first: a freed array of the same predictions could otherwise hand
    # its memory, and so its values, to a row the kernel fails to write.
    assert layout.predict_rows(X).tobytes() == want.tobytes()
    assert np.array([layout.predict(x) for x in X]).tobytes() == want.tobytes()


def _random_tree(rng, n_splits: int) -> Tree:
    """A random pre-order tree of ``n_splits`` splits."""
    child, feature = [], []

    def grow(n: int) -> int:  # appends a subtree of n splits; returns its size
        at = len(child)
        child.append(0)
        feature.append(0)
        if n == 0:
            return 1
        n_left = int(rng.integers(n))
        size_left = grow(n_left)
        child[at] = 1 + size_left
        feature[at] = int(rng.integers(1, 4))
        return 1 + size_left + grow(n - 1 - n_left)

    grow(n_splits)
    return Tree(
        child=np.array(child, dtype=np.uint8),
        feature=np.array(feature, dtype=np.uint8),
        value=rng.normal(size=len(child)).astype(np.float32),
    )


def _random_model(seed: int) -> MartModel:
    """Random trees of 0 to 11 splits, every table-tree size included."""
    rng = np.random.default_rng(seed)
    sizes = list(range(1, TABLE_MAX_SPLITS + 1)) + rng.integers(0, 12, size=30).tolist()
    trees = [_random_tree(rng, int(n)) for n in rng.permutation(sizes)]
    return MartModel(
        init=0.0, trees=trees, learning_rate=0.1,
        schema=[F(1), F(2), F(3)], feature_stats={},
    )


def _trained_model(max_leaves) -> MartModel:
    ex = _examples_2d(n=200, seed=9)
    if max_leaves == "mixed":
        big = train(ex, TrainConfig(iterations=20, max_leaves=40, rng_seed=0))
        small = train(ex, TrainConfig(iterations=20, rng_seed=1))
        return dataclasses.replace(
            big, trees=[t for pair in zip(big.trees, small.trees) for t in pair]
        )
    return train(ex, TrainConfig(iterations=20, max_leaves=max_leaves, rng_seed=0))


@pytest.fixture(scope="module")
def registry_models(small_corpus, fast_cfg) -> list[MartModel]:
    registry = train_registry(small_corpus, ["cpu_us", "logical_io"], fast_cfg)
    models = [_parts(m)[0] for e in registry.entries.values() for m in e.models]
    assert len(models) > 50
    return models


def test_leaf_tables_match_walk_on_registry_models(registry_models):
    for model in registry_models:
        _assert_leaf_tables_match_walk(model)


@pytest.mark.parametrize("max_leaves", [1, 4, 40, "mixed"])
def test_leaf_tables_match_walk_on_trained_models(max_leaves):
    model = _trained_model(max_leaves)
    assert model.trees
    _assert_leaf_tables_match_walk(model)
    if max_leaves == 40:
        assert model.layout().feat.shape[1] < len(model.trees)


@pytest.mark.parametrize("seed", range(6))
def test_leaf_tables_match_walk_on_random_trees(seed):
    model = _random_model(seed)
    _assert_leaf_tables_match_walk(model)
    # Every code of the largest table tree's 2**TABLE_MAX_SPLITS is checked.
    assert model.layout().feat.shape[0] == TABLE_MAX_SPLITS


def test_kernel_equals_table_kernel_on_registry_models(registry_models):
    for seed, model in enumerate(registry_models):
        _assert_kernel_equals_table_kernel(model, seed)


@pytest.mark.parametrize("seed", range(6))
def test_kernel_equals_table_kernel_on_random_trees(seed):
    _assert_kernel_equals_table_kernel(_random_model(seed), seed)


def test_kernel_equals_table_kernel_on_mixed_trees():
    model = _trained_model("mixed")
    layout = model.layout()
    assert layout.feat.shape[1] and layout.walk_starts.size
    _assert_kernel_equals_table_kernel(model)


@pytest.mark.parametrize(
    "max_leaves, groups",
    [(10, (True, False)), (40, (False, True)), ("mixed", (True, True))],
    ids=["table-only", "walked-only", "mixed"],
)
def test_kernel_equals_table_kernel_across_chunk_bounds(max_leaves, groups, monkeypatch):
    # CHUNK_ELEMENTS counts rows x splits x table trees plus rows x walked
    # trees; room for 5 rows makes 0, 1, 4, 5, 6 and 11 rows an empty input,
    # one row, a short chunk, a full one, a full one and a row, and three.
    model = _trained_model(max_leaves)
    layout = model.layout()
    (k, n_tab), n_walk = layout.feat.shape, layout.walk_starts.size
    assert (n_tab > 0, n_walk > 0) == groups
    monkeypatch.setattr(gbrt, "CHUNK_ELEMENTS", 5 * (k * n_tab + n_walk))
    for n in (0, 1, 4, 5, 6, 11):
        _assert_kernel_equals_table_kernel(model, seed=n, n=n)


_LAYOUT_ARRAYS = (
    "feat", "thr", "keep", "value", "value_base", "walk_starts", "child", "node_feat", "node_thr",
)


def _assert_laid_out_as_alone(models: list[MartModel], layouts: list) -> None:
    """Each of ``layouts``, built for ``models`` together, is cached on its
    model and equals the layout of its model laid out alone, array by array
    in dtype, shape and bytes, and scores probes bit for bit as it does."""
    assert len(layouts) == len(models)
    for seed, (model, got) in enumerate(zip(models, layouts)):
        assert model.layout() is got
        alone = gbrt.lay_out([dataclasses.replace(model)])[0]
        assert (got.init, got.lr) == (alone.init, alone.lr)
        for name in _LAYOUT_ARRAYS:
            a, b = getattr(got, name), getattr(alone, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
            assert a.flags.c_contiguous, name
        X = _threshold_probes(model, np.random.default_rng(seed), 20)
        assert got.predict_rows(X).tobytes() == alone.predict_rows(X).tobytes()
        assert [got.predict(x) for x in X] == [alone.predict(x) for x in X]


@pytest.mark.parametrize("run_nodes", [gbrt.LAYOUT_NODES, 500], ids=["one run", "runs"])
@pytest.mark.parametrize(
    "max_leaves", [[1, 4, 1], ["mixed", 40, 4, "mixed"]], ids=["leaf-only", "mixed"]
)
def test_lay_out_lays_out_each_model_as_alone(max_leaves, run_nodes, monkeypatch):
    # One-leaf models (k = 0) on either side of a model with splits, and
    # models mixing walked and table trees next to others of one kind, laid
    # out in one pass or in runs of a few models.
    monkeypatch.setattr(gbrt, "LAYOUT_NODES", run_nodes)
    models = [_trained_model(m) for m in max_leaves]
    layouts = gbrt.lay_out(models)
    assert [lay.feat.shape[0] for lay in layouts][:3] == (
        [0, 3, 0] if max_leaves[0] == 1 else [TABLE_MAX_SPLITS, 0, 3]
    )
    _assert_laid_out_as_alone(models, layouts)


def _benchmark_corpus() -> list:
    """The benchmark's training corpus: 20 plans of each of its nine
    templates at scales 1 to 4, each template seeded by the CRC-32 of
    ``0/train/<template>``."""
    import zlib

    from qres.synth import CorpusSpec, default_tables, generate_corpus

    return [
        plan
        for template in ("filter_scan", "hash_agg", "hash_join", "merge_join", "nested_loop",
                         "scan", "seek", "sort_filter_scan", "sort_scan")
        for plan in generate_corpus(CorpusSpec(
            templates={template: 1.0}, tables=default_tables(), scales=[1.0, 2.0, 3.0, 4.0],
            query_count=20, rng_seed=zlib.crc32(f"0/train/{template}".encode()),
            noise_sigma=0.05, card_sigma=0.1,
        ))
    ]


def test_decoded_benchmark_model_lays_out_each_model_as_alone():
    import hashlib

    from qres.registry import deserialize, serialize

    registry = train_registry(
        _benchmark_corpus(), ["cpu_us", "logical_io"], TrainConfig(iterations=40)
    )
    blob = serialize(registry)
    assert hashlib.sha256(blob).hexdigest() == (
        "21c33ed0ee6c6c040713d7380c0f9329baacee975aa440614b5166fab712cb87"
    )
    models = [_parts(m)[0] for e in deserialize(blob).entries.values() for m in e.models]
    assert len(models) == 74
    # deserialize lays out every model as it loads them.
    _assert_laid_out_as_alone(models, [m._layout for m in models])


def test_feature_stats_are_training_ranges():
    ex = _examples_2d(n=50, seed=2)
    model = train(ex, TrainConfig(iterations=5, rng_seed=0))
    lo, hi = model.feature_stats[F.CIN1]
    xs = [e[0].values[F.CIN1] for e in ex]
    assert lo == pytest.approx(min(xs), rel=1e-6)
    assert hi == pytest.approx(max(xs), rel=1e-6)


def test_schema_mismatch_rejected():
    ex = make_examples([1, 2, 3, 4], [1, 2, 3, 4])
    ex.append((fv(SINAVG1=1.0), 1.0))
    with pytest.raises(TrainingError, match="schema"):
        train(ex, TrainConfig(iterations=1))


def test_empty_training_set_rejected():
    with pytest.raises(TrainingError, match="empty"):
        train([], TrainConfig())


def test_config_validation():
    for bad in (
        TrainConfig(iterations=0),
        TrainConfig(max_leaves=0),
        TrainConfig(max_leaves=129),
        TrainConfig(learning_rate=0.0),
        TrainConfig(subsample_fraction=1.5),
    ):
        with pytest.raises(TrainingError):
            bad.validate()


def test_iterations_fit_the_two_byte_tree_count():
    TrainConfig(iterations=65535).validate()
    with pytest.raises(TrainingError, match="two-byte tree count"):
        TrainConfig(iterations=65536).validate()


def test_negative_seed_is_training_error():
    from qres.registry import train_registry

    ex = _examples_2d(n=20, seed=0)
    cfg = TrainConfig(iterations=2, rng_seed=-1)
    with pytest.raises(TrainingError, match="rng_seed must be >= 0"):
        train(ex, cfg)
    with pytest.raises(TrainingError, match="rng_seed must be >= 0"):
        train_registry([], ["cpu_us"], cfg)


def test_missing_feature_at_predict_time():
    ex = _examples_2d(n=20, seed=0)
    model = train(ex, TrainConfig(iterations=2))
    with pytest.raises(TrainingError, match="absent"):
        predict(model, fv(CIN1=1.0))


# ---------------------------------------------------------------------------
# Lock-step training against a per-node reference


def _reference_tree(X, r, max_leaves: int, min_per_leaf: int):
    """[DERIVED] Best-first growth one node at a time, each node's columns
    sorted afresh and its residuals summed by ``ndarray.sum``: the split rules
    the lock-step grower reproduces bit for bit. Returns ``(child, column,
    value)`` in pre-order."""

    def best_split(rows):
        m = len(rows)
        if m < 2 * min_per_leaf or m < 2:
            return None
        Xs, rs = X[rows], r[rows]
        order = np.argsort(Xs, axis=0, kind="stable")
        sv = np.take_along_axis(Xs, order, axis=0)
        csum = np.cumsum(rs[order], axis=0)[:-1]
        total = rs.sum()
        n_left = np.arange(1, m, dtype=np.float64)[:, None]
        gain = csum**2 / n_left + (total - csum) ** 2 / (m - n_left) - total * total / m
        valid = sv[1:] > sv[:-1]
        if min_per_leaf > 1:
            valid[: min_per_leaf - 1] = False
            valid[m - min_per_leaf :] = False
        gain = np.where(valid, gain, -np.inf)
        best, col, pos = -math.inf, -1, -1
        for c in range(gain.shape[1]):
            p = int(np.argmax(gain[:, c]))
            if gain[p, c] > best + 1e-12:
                best, col, pos = gain[p, c], c, p
        if col < 0 or not np.isfinite(best) or best <= 1e-12:
            return None
        lo, hi = sv[pos, col], sv[pos + 1, col]
        thr = float(lo + (hi - lo) / 2.0)
        left = Xs[:, col] <= thr
        if left.all() or not left.any():  # midpoint rounded onto the upper value
            left = Xs[:, col] <= lo
        return float(best), col, thr, rows[left], rows[~left]

    def node(rows):
        return {"rows": rows, "value": float(r[rows].mean()), "split": best_split(rows)}

    root = node(np.arange(len(r)))
    leaves = [root]
    while len(leaves) < max_leaves:
        cand = max((lf for lf in leaves if lf["split"]), key=lambda lf: lf["split"][0], default=None)
        if cand is None:
            break
        _, _, _, left, right = cand["split"]
        cand["kids"] = (node(left), node(right))
        leaves.remove(cand)
        leaves.extend(cand["kids"])
    child, column, value = [], [], []

    def emit(n):
        at = len(child)
        child.append(0)
        column.append(0)
        value.append(n["value"])
        if "kids" in n:
            column[at], value[at] = n["split"][1], n["split"][2]
            emit(n["kids"][0])
            child[at] = len(child) - at
            emit(n["kids"][1])

    emit(root)
    return np.array(child), np.array(column), np.array(value, dtype=np.float32)


def _reference_boost(examples, cfg: TrainConfig):
    """[DERIVED] ``train``'s boosting loop over :func:`_reference_tree`;
    returns each tree's ``(child, feature code, value)`` and the RMSE list."""
    schema, X, y = gbrt._examples_to_arrays(examples)
    codes = np.array([int(f) for f in schema])
    n = len(y)
    rng = np.random.default_rng(cfg.rng_seed)
    Fx = np.full(n, float(np.float32(y.mean())))
    k = max(1, int(round(cfg.subsample_fraction * n)))
    trees, rmse = [], []
    for _ in range(cfg.iterations):
        rows = np.sort(rng.choice(n, size=k, replace=False)) if k < n else np.arange(n)
        child, column, value = _reference_tree(
            X[rows], y[rows] - Fx[rows], cfg.max_leaves, gbrt.MIN_EXAMPLES_PER_LEAF
        )
        step = np.empty(n)
        for i in range(n):
            j = 0
            while child[j]:
                j += 1 if X[i, column[j]] <= value[j] else child[j]
            step[i] = value[j]
        Fx += cfg.learning_rate * step
        rmse.append(float(np.sqrt(np.mean((y - Fx) ** 2))))
        trees.append((child, np.where(child > 0, codes[column], 0), value))
    return trees, rmse


_FEATURES = [F.COUT, F.SOUTAVG, F.SOUTTOT, F.CIN1, F.SINAVG1, F.SINTOT1, F.OUTPUTUSAGE]
_BELOW_ONE = float(np.nextafter(1.0, 0.0))


def _family(n: int, cfg: TrainConfig, columns, kind: str = "uniform", seed: int = 0):
    """Members ``(examples, cfg)`` of ``n`` rows with ``columns[i]`` features
    each, one config but for the seed. ``ties``: few distinct values, a
    duplicated and a constant column; ``guard``: a column whose one split
    point has its midpoint round onto the upper value."""
    rng = np.random.default_rng(seed)
    members = []
    for i, c in enumerate(columns):
        X = rng.uniform(0, 100, (n, c))
        y = X @ rng.uniform(0.5, 2.0, c) + rng.normal(0, 1, n)
        if kind == "ties":
            X = np.round(X / 25)
            X[:, -1] = 3.0
            if c > 2:
                X[:, 1] = X[:, 0]
            y = np.round(X @ np.arange(1, c + 1) * 4) / 4
        elif kind == "guard":
            X[:, 0] = np.where(rng.random(n) < 0.5, _BELOW_ONE, 1.0)
            y = 50.0 * (X[:, 0] == 1.0) + X[:, 1:].sum(axis=1) / 100
        examples = [
            (
                FeatureVector(
                    op=OperatorType.Filter,
                    values={_FEATURES[j]: float(X[t, j]) for j in range(c)},
                ),
                float(y[t]),
            )
            for t in range(n)
        ]
        members.append((examples, dataclasses.replace(cfg, rng_seed=17 * i + 1)))
    return members


def _problems(members) -> list[Problem]:
    return [Problem(*gbrt._examples_to_arrays(examples), cfg.rng_seed) for examples, cfg in members]


FAMILY_CASES = {
    "one leaf": (60, TrainConfig(iterations=4, max_leaves=1), (3, 3), "uniform"),
    "ten leaves": (80, TrainConfig(iterations=6), (3, 2, 5), "uniform"),
    "forty leaves": (160, TrainConfig(iterations=3, max_leaves=40), (4, 4), "uniform"),
    "full sample": (60, TrainConfig(iterations=5, subsample_fraction=1.0), (2, 4), "uniform"),
    "ties": (90, TrainConfig(iterations=5, max_leaves=12), (4, 3, 2), "ties"),
    "midpoint guard": (40, TrainConfig(iterations=3, subsample_fraction=1.0), (2, 3), "guard"),
    "column counts": (70, TrainConfig(iterations=4), (1, 4, 7), "uniform"),
    "600 rows": (600, TrainConfig(iterations=2, subsample_fraction=1.0), (3, 2), "uniform"),
}


def _model_bytes(model: MartModel) -> bytes:
    out = bytearray()
    _encode_mart(model, out)
    return bytes(out)


@pytest.mark.parametrize("case", list(FAMILY_CASES))
def test_train_family_equals_separate_training(case):
    n, cfg, columns, kind = FAMILY_CASES[case]
    members = _family(n, cfg, columns, kind)
    family = train_family(_problems(members), cfg)
    for (examples, member_cfg), model in zip(members, family):
        alone = train(examples, member_cfg)
        assert _model_bytes(model) == _model_bytes(alone)
        assert model.train_rmse == alone.train_rmse
        trees, rmse = _reference_boost(examples, member_cfg)
        assert model.train_rmse == rmse
        for tree, (child, feature, value) in zip(model.trees, trees):
            assert tree.child.tolist() == child.tolist()
            assert tree.feature.tolist() == feature.tolist()
            assert tree.value.tobytes() == value.tobytes()


def test_midpoint_guard_case_rounds_onto_the_upper_value():
    # The "midpoint guard" family case only tests the guard if its split
    # point's midpoint really is the upper value.
    assert _BELOW_ONE + (1.0 - _BELOW_ONE) / 2.0 == 1.0


def _concatenated(trees: list[Tree]) -> tuple:
    """[DERIVED] Reference for the packed arrays: per-tree arrays joined in
    tree order, one ``np.concatenate`` per array."""
    starts = np.zeros(len(trees) + 1, dtype=np.intp)
    np.cumsum([t.n_nodes for t in trees], out=starts[1:])
    if trees:
        child = np.concatenate([t.child for t in trees])
        feat = np.concatenate([t.feature for t in trees])
        val = np.concatenate([t.value for t in trees])
    else:
        child = np.zeros(0, dtype=np.uint8)
        feat = np.zeros(0, dtype=np.uint8)
        val = np.zeros(0, dtype=np.float32)
    return starts, child, feat, val


@pytest.mark.parametrize("case", ["one leaf", "ten leaves", "forty leaves", "column counts"])
def test_boosted_packed_arrays_equal_the_per_tree_concatenation(case, monkeypatch):
    # Each iteration's grown trees, cut into one Tree per problem with
    # feature codes for columns, then joined per problem.
    n, cfg, columns, kind = FAMILY_CASES[case]
    problems = _problems(_family(n, cfg, columns, kind))
    grown = []
    grow = gbrt._Grower.grow

    def recording(grower):
        grown.append(grow(grower))
        return grown[-1]

    monkeypatch.setattr(gbrt._Grower, "grow", recording)
    models = train_family(problems, cfg)
    assert len(grown) == cfg.iterations
    for p, (problem, model) in enumerate(zip(problems, models)):
        codes = np.array([int(f) for f in problem.schema], dtype=np.uint8)
        trees = []
        for starts, child, feat, value in grown:
            lo, hi = starts[p], starts[p + 1]
            code = np.where(child[lo:hi] != 0, codes[feat[lo:hi]], 0).astype(np.uint8)
            trees.append(Tree(child=child[lo:hi], feature=code, value=value[lo:hi]))
        for got, want in zip(model.packed(), _concatenated(trees)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            assert got.flags.owndata and got.flags.c_contiguous


def test_model_trees_are_read_only_views_of_the_packed_arrays():
    rng = np.random.default_rng(4)
    trees = [_random_tree(rng, n) for n in (0, 3, 9, 12)]
    model = MartModel(init=0.0, trees=trees, learning_rate=0.1, schema=[F(1)], feature_stats={})
    starts, child, feat, val = model.packed()
    assert [a.tobytes() for a in model.packed()] == [a.tobytes() for a in _concatenated(trees)]
    assert len(model.trees) == 4
    for got, tree in zip(model.trees, trees):
        for name in ("child", "feature", "value"):
            view = getattr(got, name)
            assert np.array_equal(view, getattr(tree, name))
            assert not view.flags.writeable
            assert any(view.base is a for a in (child, feat, val))
    assert np.array_equal(model.trees[-1].child, trees[-1].child)
    assert [t.n_nodes for t in model.trees[1:3]] == [7, 19]
    with pytest.raises(IndexError):
        model.trees[4]
    with pytest.raises(TypeError):
        model.trees[0] = trees[0]
    empty = MartModel(init=1.0, trees=[], learning_rate=0.1, schema=[F(1)], feature_stats={})
    assert len(empty.trees) == 0 and empty.packed()[0].tolist() == [0]
    assert [a.dtype for a in empty.packed()[1:]] == [np.uint8, np.uint8, np.float32]


def test_train_family_rejects_members_of_another_shape():
    cfg = TrainConfig(iterations=3)
    a = _family(50, cfg, (2, 3))
    other_rows = _family(30, cfg, (3,), seed=1)
    with pytest.raises(TrainingError, match="family members differ in row count"):
        train_family(_problems([a[0], other_rows[0], a[1]]), cfg)


def _assert_matches_reference(examples, max_leaves, min_per_leaf):
    tree, _ = fit_tree(examples, max_leaves=max_leaves, min_per_leaf=min_per_leaf)
    _, X, r = gbrt._examples_to_arrays(examples)
    child, column, value = _reference_tree(X, r, max_leaves, min_per_leaf)
    assert tree.child.tolist() == child.tolist()
    assert tree.feature.tolist() == column.tolist()
    assert tree.value.tobytes() == value.tobytes()
    return tree


def test_near_tied_columns_follow_the_scan():
    # Both columns split rows {0, 1, 2} from {3, 4, 5}, but add the left
    # residuals in opposite orders, so their gains differ in the last bit. A
    # later column must beat an earlier one by more than 1e-12, so the scan
    # keeps column 0 where a plain argmax would take column 1.
    r = [0.9, 0.5, 0.3, -0.2, -0.2, -0.2]
    up, down = [1.0, 2.0, 3.0, 10.0, 11.0, 12.0], [3.0, 2.0, 1.0, 10.0, 11.0, 12.0]
    total = np.array(r).sum()

    def gain(left_sum):
        return left_sum**2 / 3 + (total - left_sum) ** 2 / 3 - total * total / 6

    exercised = False
    for first, second in ((up, down), (down, up)):
        examples = [
            (fv(COUT=a, SOUTAVG=b), y) for a, b, y in zip(first, second, r)
        ]
        tree = _assert_matches_reference(examples, max_leaves=2, min_per_leaf=1)
        sums = [(r[0] + r[1]) + r[2], (r[2] + r[1]) + r[0]]
        g0, g1 = (gain(s) for s in (sums if first is up else sums[::-1]))
        assert float(tree.value[0]) == 6.5  # between rows 2 and 3 either way
        if g0 < g1 <= g0 + 1e-12:
            assert tree.feature[0] == 0  # the earlier column
            exercised = True
    assert exercised


def test_equal_leaf_gains_split_the_first_made_leaf():
    # Both children of the root have the same best gain (100.0 exactly); the
    # third leaf comes from the left child, made first.
    examples = make_examples(range(1, 9), [0, 0, 10, 10, 20, 20, 30, 30])
    tree = _assert_matches_reference(examples, max_leaves=3, min_per_leaf=1)
    assert tree.child.tolist() == [4, 2, 0, 0, 0]

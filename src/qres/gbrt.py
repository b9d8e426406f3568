"""Additive regression-tree ensembles fit by stochastic least-squares boosting.

Trees are small binary regression trees grown best-first by exhaustive split
search; the ensemble is a sequence of such trees fit to residuals, shrunk by a
learning rate. Split thresholds and leaf values are stored in single precision
so that serialized models reproduce predictions bit for bit; comparisons and
the ensemble sum are carried out in double precision.

A prediction is ``init + (S_table + S_walk)`` in float64, where ``S_table``
and ``S_walk`` are NumPy's pairwise sums, in tree order, of ``lr * leaf`` over
the trees evaluated by table and by walk respectively. Trees with at most
:data:`TABLE_MAX_SPLITS` internal nodes are evaluated QuickScorer-style
(Lucchese et al., SIGIR 2015): all split comparisons of a tree at once, their
bit pattern used as an index into a per-tree table of leaf numbers. Larger
trees are walked in lock step, one level of every tree per NumPy step;
training applies each new tree to all of its rows with the same walk.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .features import FEATURE_SPACE, FeatureId, FeatureVector


class TrainingError(ValueError):
    """Raised for unusable training input or prediction-time schema mismatch."""


@dataclass
class Tree:
    """One regression tree in packed pre-order form.

    ``child[i]`` is the offset from node i to its right child (the left child
    is node i+1); offset 0 marks a leaf. ``feature`` holds split feature codes
    (0 at leaves) and ``value`` holds split thresholds or leaf estimates.
    """

    child: np.ndarray  # uint8
    feature: np.ndarray  # uint8
    value: np.ndarray  # float32

    @property
    def n_nodes(self) -> int:
        return len(self.child)

    @property
    def n_leaves(self) -> int:
        return int(np.sum(self.child == 0))


@dataclass
class TrainConfig:
    iterations: int = 1000
    max_leaves: int = 10
    learning_rate: float = 0.1
    subsample_fraction: float = 0.5
    min_examples_per_leaf: int = 2
    rng_seed: int = 0

    def validate(self) -> None:
        if self.iterations < 1:
            raise TrainingError("iterations must be >= 1")
        if self.max_leaves < 1:
            raise TrainingError("max_leaves must be >= 1")
        if self.max_leaves > 128:
            raise TrainingError("max_leaves must fit the one-byte tree encoding")
        if not 0.0 < self.learning_rate <= 1.0:
            raise TrainingError("learning_rate must be in (0, 1]")
        if not 0.0 < self.subsample_fraction <= 1.0:
            raise TrainingError("subsample_fraction must be in (0, 1]")


@dataclass
class MartModel:
    init: float
    trees: list[Tree]
    learning_rate: float
    schema: list[FeatureId]
    feature_stats: dict[FeatureId, tuple[float, float]]
    target_transform: str = "identity"
    train_rmse: list[float] = field(default_factory=list, repr=False)
    _layout: Optional["_Layout"] = field(
        default=None, init=False, repr=False, compare=False
    )

    def packed(self) -> tuple:
        """``(starts, child, feat, val)``: all trees concatenated, tree t
        occupying nodes ``starts[t]:starts[t + 1]``."""
        starts = np.zeros(len(self.trees) + 1, dtype=np.intp)
        np.cumsum([t.n_nodes for t in self.trees], out=starts[1:])
        if self.trees:
            child = np.concatenate([t.child for t in self.trees])
            feat = np.concatenate([t.feature for t in self.trees])
            val = np.concatenate([t.value for t in self.trees])
        else:
            child = np.zeros(0, dtype=np.uint8)
            feat = np.zeros(0, dtype=np.uint8)
            val = np.zeros(0, dtype=np.float32)
        return starts, child, feat, val

    def layout(self) -> "_Layout":
        """The prediction layout, built on first use and cached."""
        if self._layout is None:
            self._layout = _Layout(self)
        return self._layout


#: Trees with at most this many internal nodes (every tree of the default
#: 10-leaf configuration) are evaluated through a lookup table of
#: ``2**TABLE_MAX_SPLITS`` one-byte leaf numbers; larger trees are walked.
TABLE_MAX_SPLITS = 9

#: Most split comparisons (rows x splits x trees) or walk cursors (rows x
#: walked trees) one chunk of :meth:`_Layout.predict_rows` holds at once.
CHUNK_ELEMENTS = 1 << 18


def _walk(child, feat, thr, X, rows, node) -> np.ndarray:
    """Descend cursor k from node ``node[k]`` to a leaf on the row
    ``X[rows[k]]``, all cursors one level per step; returns the leaf nodes.

    At an internal node i a cursor goes left (to i + 1) when
    ``X[row, feat[i]] <= thr[i]`` and right (to i + child[i]) otherwise.
    """
    node = np.array(node, dtype=np.intp)
    live = np.flatnonzero(child[node])
    while live.size:
        at = node[live]
        left = X[rows[live], feat[at]] <= thr[at]
        node[live] = np.where(left, at + 1, at + child[at])
        live = live[child[node[live]] != 0]
    return node


class _Layout:
    """Model arrays rearranged for prediction.

    Table trees (model order): column t of ``feat`` and ``thr`` (k, n) holds
    tree t's split features and thresholds in pre-order, padded with feature
    0. Bit j of a tree's code is set when its split j sends the input left, and
    ``leaf[leaf_base[t] + code]`` is the number of the leaf that code reaches;
    ``value[value_base[t] + leaf]`` is ``lr * leaf value`` in float64. Walked
    trees keep the node arrays of :meth:`MartModel.packed`.
    """

    def __init__(self, model: MartModel):
        starts, child, feat, val = model.packed()
        firsts = starts[:-1]
        tree_of = np.repeat(np.arange(len(firsts)), np.diff(starts))
        internal = child != 0
        # Rank of each node among the split (internal) or leaf nodes of its tree.
        before = np.cumsum(internal) - internal
        split_rank = before - before[firsts][tree_of]
        leaf_rank = np.arange(len(child)) - firsts[tree_of] - split_rank
        n_splits = np.bincount(tree_of, weights=internal, minlength=len(firsts))
        tab = n_splits <= TABLE_MAX_SPLITS
        k = int(n_splits[tab].max(initial=0))
        n_tab = int(tab.sum())
        row = (np.cumsum(tab) - 1)[tree_of]
        splits = tab[tree_of] & internal
        leaves = tab[tree_of] & ~internal

        self.init = model.init
        self.feat = np.zeros((k, n_tab), dtype=np.intp)
        self.feat[split_rank[splits], row[splits]] = feat[splits]
        self.thr = np.zeros((k, n_tab), dtype=np.float64)
        self.thr[split_rank[splits], row[splits]] = val[splits]
        # Codes are below 2**TABLE_MAX_SPLITS, so float32 holds them exactly.
        self.pow2 = (2.0 ** np.arange(k)).astype(np.float32)
        value = np.zeros((n_tab, k + 1), dtype=np.float64)
        value[row[leaves], leaf_rank[leaves]] = (
            model.learning_rate * val[leaves].astype(np.float64)
        )
        self.value = value.ravel()
        self.value_base = np.arange(n_tab) * (k + 1)
        # Fill the tables by walking each tree once per code, the code's bit j
        # standing in for split j: row c of ``goes_right`` is 1.0 where bit j
        # of c is clear, and the walk sends 1.0 right of a 0.5 threshold.
        codes = np.arange(1 << k)
        goes_right = (((codes[:, None] >> np.arange(k)) & 1) == 0).astype(np.float64)
        reached = _walk(
            child, split_rank, np.full(len(child), 0.5), goes_right,
            np.tile(codes, n_tab), np.repeat(firsts[tab], len(codes)),
        )
        self.leaf = leaf_rank[reached].astype(np.uint8)
        self.leaf_base = np.arange(n_tab) * len(codes)

        self.walk_starts = firsts[~tab]
        self.child = child
        self.node_feat = feat
        self.node_thr = val
        self.lr = model.learning_rate

    def predict(self, x: np.ndarray) -> float:
        """Prediction for one code-indexed dense vector ``x``."""
        left = (x.take(self.feat) <= self.thr).astype(np.float32)
        code = (self.pow2 @ left).astype(np.intp)
        leaf = self.leaf.take(self.leaf_base + code)
        total = self.value.take(self.value_base + leaf).sum()
        if self.walk_starts.size:
            reached = _walk(
                self.child, self.node_feat, self.node_thr, x[None, :],
                np.zeros_like(self.walk_starts), self.walk_starts,
            )
            total += (self.lr * self.node_thr[reached].astype(np.float64)).sum()
        return self.init + float(total)

    def predict_rows(self, X: np.ndarray) -> np.ndarray:
        """:meth:`predict` of every row of ``X`` (rows, FEATURE_SPACE), bit for
        bit: each row's terms are summed as one contiguous row, so NumPy's
        pairwise sum adds them in the order it adds a single vector's.

        Rows go through in chunks of at most :data:`CHUNK_ELEMENTS` split
        comparisons (rows x splits x trees) or walk cursors.
        """
        k, n_tab = self.feat.shape
        step = max(1, CHUNK_ELEMENTS // max(1, k * n_tab + self.walk_starts.size))
        out = np.empty(len(X))
        for lo in range(0, len(X), step):
            rows = X[lo : lo + step]
            code = np.zeros((len(rows), n_tab), dtype=np.uint16)
            for j in range(k):
                code |= np.left_shift(rows[:, self.feat[j]] <= self.thr[j], j, dtype=np.uint16)
            leaf = self.leaf.take(self.leaf_base + code)
            total = self.value.take(self.value_base + leaf).sum(axis=1)
            if self.walk_starts.size:
                n_walk = self.walk_starts.size
                reached = _walk(
                    self.child, self.node_feat, self.node_thr, rows,
                    np.repeat(np.arange(len(rows)), n_walk),
                    np.tile(self.walk_starts, len(rows)),
                )
                term = self.lr * self.node_thr[reached].astype(np.float64)
                total += term.reshape(len(rows), n_walk).sum(axis=1)
            out[lo : lo + step] = self.init + total
        return out


class _BuildNode:
    __slots__ = (
        "rows", "value", "gain", "split_col", "threshold", "left", "right", "left_mask",
    )

    def __init__(self, rows: np.ndarray, value: float):
        self.rows = rows
        self.value = value
        self.gain = -math.inf
        self.split_col = -1
        self.threshold = 0.0
        self.left: Optional["_BuildNode"] = None
        self.right: Optional["_BuildNode"] = None
        self.left_mask: Optional[np.ndarray] = None


def _best_split(node: _BuildNode, X: np.ndarray, r: np.ndarray, min_per_leaf: int) -> None:
    """Exhaustive SSE-minimizing split search over all features and midpoints.

    Ties break toward the lowest feature column (ascending feature code) and
    then the lowest threshold.
    """
    rows = node.rows
    m = len(rows)
    if m < 2 * min_per_leaf or m < 2:
        return
    Xs = X[rows]
    rs = r[rows]
    order = np.argsort(Xs, axis=0, kind="stable")
    sv = np.take_along_axis(Xs, order, axis=0)
    sr = rs[order]
    csum = np.cumsum(sr, axis=0)
    total = rs.sum()
    base = total * total / m
    n_left = np.arange(1, m, dtype=np.float64)[:, None]
    left_sum = csum[:-1]
    right_sum = total - left_sum
    gain = left_sum**2 / n_left + right_sum**2 / (m - n_left) - base
    valid = sv[1:] > sv[:-1]
    if min_per_leaf > 1:
        valid[: min_per_leaf - 1, :] = False
        valid[m - min_per_leaf :, :] = False
    gain = np.where(valid, gain, -np.inf)
    best_gain = -math.inf
    best_col = -1
    best_pos = -1
    col_best = np.argmax(gain, axis=0)
    for c in range(gain.shape[1]):
        g = gain[col_best[c], c]
        if g > best_gain + 1e-12:
            best_gain = g
            best_col = c
            best_pos = int(col_best[c])
    if best_col < 0 or not np.isfinite(best_gain) or best_gain <= 1e-12:
        return
    lo = sv[best_pos, best_col]
    hi = sv[best_pos + 1, best_col]
    node.gain = float(best_gain)
    node.split_col = best_col
    node.threshold = float(lo + (hi - lo) / 2.0)
    node.left_mask = Xs[:, best_col] <= node.threshold
    # Guard against a midpoint that rounds onto the upper value.
    if node.left_mask.all() or not node.left_mask.any():
        node.left_mask = Xs[:, best_col] <= lo


def _fit_tree_arrays(
    X: np.ndarray, r: np.ndarray, max_leaves: int, min_per_leaf: int
) -> Tree:
    root = _BuildNode(np.arange(len(r)), float(r.mean()) if len(r) else 0.0)
    _best_split(root, X, r, min_per_leaf)
    leaves = [root]
    while len(leaves) < max_leaves:
        cand = max(
            (lf for lf in leaves if lf.split_col >= 0),
            key=lambda lf: lf.gain,
            default=None,
        )
        if cand is None:
            break
        rows = cand.rows
        left_rows = rows[cand.left_mask]
        right_rows = rows[~cand.left_mask]
        cand.left = _BuildNode(left_rows, float(r[left_rows].mean()))
        cand.right = _BuildNode(right_rows, float(r[right_rows].mean()))
        _best_split(cand.left, X, r, min_per_leaf)
        _best_split(cand.right, X, r, min_per_leaf)
        leaves.remove(cand)
        leaves.extend((cand.left, cand.right))

    # Flatten to pre-order packed arrays with column indices as feature slots.
    child: list[int] = []
    feat: list[int] = []
    val: list[float] = []

    def emit(n: _BuildNode) -> int:
        idx = len(child)
        child.append(0)
        feat.append(0)
        val.append(0.0)
        if n.left is not None:
            feat[idx] = n.split_col
            val[idx] = n.threshold
            emit(n.left)
            right_at = emit(n.right)
            child[idx] = right_at - idx
        else:
            val[idx] = n.value
        return idx

    emit(root)
    return Tree(
        child=np.array(child, dtype=np.uint8),
        feature=np.array(feat, dtype=np.uint8),
        value=np.array(val, dtype=np.float32),
    )


def _examples_to_arrays(
    examples: Sequence[tuple[FeatureVector, float]]
) -> tuple[list[FeatureId], np.ndarray, np.ndarray]:
    if not examples:
        raise TrainingError("empty training set")
    schema = sorted(examples[0][0].values)
    key = tuple(schema)
    X = np.empty((len(examples), len(schema)), dtype=np.float64)
    y = np.empty(len(examples), dtype=np.float64)
    for i, (fv, target) in enumerate(examples):
        if tuple(sorted(fv.values)) != key:
            raise TrainingError("feature vectors do not share one schema")
        X[i] = [fv.values[f] for f in schema]
        y[i] = target
    return schema, X, y


def fit_tree(
    examples: Sequence[tuple[FeatureVector, float]],
    max_leaves: int,
    min_per_leaf: int = 1,
) -> tuple[Tree, list[FeatureId]]:
    """Fit one regression tree to residuals; returns the tree and its schema.

    The tree's feature slots are indices into the returned schema.
    """
    schema, X, r = _examples_to_arrays(examples)
    return _fit_tree_arrays(X, r, max_leaves, min_per_leaf), schema


def _columns_to_codes(tree: Tree, schema: list[FeatureId]) -> Tree:
    codes = np.array([int(f) for f in schema], dtype=np.uint8)
    feat = tree.feature.copy()
    internal = tree.child != 0
    feat[internal] = codes[tree.feature[internal]]
    feat[~internal] = 0
    return Tree(child=tree.child, feature=feat, value=tree.value)


def train(
    examples: Sequence[tuple[FeatureVector, float]],
    cfg: TrainConfig,
    target_transform: str = "identity",
) -> MartModel:
    """Stochastic gradient boosting of least-squares regression trees."""
    cfg.validate()
    schema, X, y = _examples_to_arrays(examples)
    n = len(y)
    rng = np.random.default_rng(cfg.rng_seed)
    init = np.float32(y.mean())
    F = np.full(n, float(init), dtype=np.float64)
    k = max(1, int(round(cfg.subsample_fraction * n)))
    trees: list[Tree] = []
    rmse: list[float] = []
    all_rows = np.arange(n)
    roots = np.zeros(n, dtype=np.intp)
    for _ in range(cfg.iterations):
        if k < n:
            rows = np.sort(rng.choice(n, size=k, replace=False))
        else:
            rows = np.arange(n)
        tree = _fit_tree_arrays(
            X[rows], y[rows] - F[rows], cfg.max_leaves, cfg.min_examples_per_leaf
        )
        leaves = _walk(tree.child, tree.feature, tree.value, X, all_rows, roots)
        F += cfg.learning_rate * tree.value[leaves].astype(np.float64)
        trees.append(_columns_to_codes(tree, schema))
        rmse.append(float(np.sqrt(np.mean((y - F) ** 2))))

    lows = np.min(X, axis=0).astype(np.float32)
    highs = np.max(X, axis=0).astype(np.float32)
    stats = {f: (float(lows[i]), float(highs[i])) for i, f in enumerate(schema)}
    return MartModel(
        init=float(init),
        trees=trees,
        learning_rate=float(np.float32(cfg.learning_rate)),
        schema=schema,
        feature_stats=stats,
        target_transform=target_transform,
        train_rmse=rmse,
    )


def dense_vector(fv: FeatureVector, schema: Sequence[FeatureId]) -> np.ndarray:
    """Code-indexed dense feature array; raises if a schema feature is absent."""
    x = np.zeros(FEATURE_SPACE, dtype=np.float64)
    values = fv.values
    for f in schema:
        try:
            x[int(f)] = values[f]
        except KeyError:
            raise TrainingError(f"feature {f.name} absent from input vector") from None
    return x


def predict(model: MartModel, fv: FeatureVector) -> float:
    return predict_dense(model, dense_vector(fv, model.schema))


def predict_dense(model: MartModel, x: np.ndarray) -> float:
    return model.layout().predict(x)

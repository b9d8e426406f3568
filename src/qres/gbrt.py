"""Additive regression-tree ensembles fit by stochastic least-squares boosting.

Trees are small binary regression trees grown best-first by exhaustive split
search; the ensemble is a sequence of such trees fit to residuals, shrunk by a
learning rate. Split thresholds and leaf values are stored in single precision
so that serialized models reproduce predictions bit for bit; comparisons and
the ensemble sum are carried out in double precision.

A prediction is ``init + (S_table + S_walk)`` in float64, where ``S_table``
and ``S_walk`` are NumPy's pairwise sums, in tree order, of ``lr * leaf`` over
the trees evaluated by table and by walk respectively. Trees with at most
:data:`TABLE_MAX_SPLITS` internal nodes (table trees) are evaluated
QuickScorer-style (Lucchese et al., SIGIR 2015): all split comparisons of a
tree at once, without a walk. A split that sends the input right rules out
the leaves of its left subtree, so the AND of the splits' leaf bitmasks holds
the leaves no split ruled out, and the lowest of them is the exit leaf.
Larger trees are walked in lock step, one level of every tree per NumPy step;
training applies each new tree to all of its rows with the same walk. One
vector and a block of rows go through the same expressions, the block
gathering every row's split features at once (:class:`_Layout`).

Training boosts independent problems (:func:`train_family`) in lock step:
every iteration grows one tree per problem, and each best-first step scores
the new leaves of all trees in one padded pass (:class:`_Grower`). The
problems of one call share one :class:`TrainConfig`; those of one row count
are boosted together as one family, whatever their feature counts, each
drawing its subsamples from its own seed (one draw serves the problems of one
seed). So ``registry.train_registry`` trains the models of every operator and
resource in one call. Each column is sorted once per family,
filtered to each tree's subsample, and carried down to a node's children by a
stable partition, in the spirit of the attribute lists of SLIQ (Mehta et al.,
EDBT 1996) and SPRINT (Shafer et al., VLDB 1996). Prefix sums therefore add a
node's residuals in the order of a fresh stable sort of its rows, and a
node's residual total is NumPy's pairwise sum of its residuals in row order,
so every tree is bit for bit the tree of a node-at-a-time search. Splits
are searched only on the columns of :func:`_split_columns`, and not at a node
too small to split or made by a tree's last split.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

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


class PackedTrees(Sequence[Tree]):
    """A model's trees as one node set, the form training, model files and
    the prediction layout share: tree t is nodes ``starts[t]:starts[t + 1]``
    of ``child`` (uint8), ``feature`` (uint8) and ``value`` (float32), in
    :class:`Tree`'s pre-order form. Item t is a read-only :class:`Tree` view
    of those nodes."""

    __slots__ = ("starts", "child", "feature", "value")

    def __init__(self, starts: np.ndarray, child: np.ndarray, feature: np.ndarray, value: np.ndarray):
        self.starts, self.child, self.feature, self.value = starts, child, feature, value

    @classmethod
    def pack(cls, trees: Sequence[Tree]) -> "PackedTrees":
        """``trees`` concatenated in order."""
        starts = np.zeros(len(trees) + 1, dtype=np.intp)
        np.cumsum([t.n_nodes for t in trees], out=starts[1:])
        return cls(starts, *(
            np.concatenate([np.zeros(0, dtype), *(getattr(t, name) for t in trees)])
            for name, dtype in (("child", np.uint8), ("feature", np.uint8), ("value", np.float32))
        ))

    def __len__(self) -> int:
        return len(self.starts) - 1

    def __getitem__(self, t):
        if isinstance(t, slice):
            return [self[i] for i in range(len(self))[t]]
        t = range(len(self))[t]
        lo, hi = self.starts[t], self.starts[t + 1]
        views = [a[lo:hi] for a in (self.child, self.feature, self.value)]
        for v in views:
            v.flags.writeable = False
        return Tree(*views)


#: Fewest training rows a split leaves on either side.
MIN_EXAMPLES_PER_LEAF = 2


@dataclass
class TrainConfig:
    iterations: int = 1000
    max_leaves: int = 10
    learning_rate: float = 0.1
    subsample_fraction: float = 0.5
    rng_seed: int = 0

    def validate(self) -> None:
        if self.iterations < 1:
            raise TrainingError("iterations must be >= 1")
        if self.iterations > 65535:
            raise TrainingError("iterations must fit the two-byte tree count of model files")
        if self.max_leaves < 1:
            raise TrainingError("max_leaves must be >= 1")
        if self.max_leaves > 128:
            raise TrainingError("max_leaves must fit the one-byte tree encoding")
        if not 0.0 < self.learning_rate <= 1.0:
            raise TrainingError("learning_rate must be in (0, 1]")
        if not 0.0 < self.subsample_fraction <= 1.0:
            raise TrainingError("subsample_fraction must be in (0, 1]")
        if self.rng_seed < 0:
            raise TrainingError("rng_seed must be >= 0")


@dataclass
class MartModel:
    """``init`` plus ``learning_rate`` times the leaf each tree reaches.
    ``trees`` is stored as :class:`PackedTrees`; a list of :class:`Tree`
    given to the constructor is packed."""

    init: float
    trees: Sequence[Tree]
    learning_rate: float
    schema: list[FeatureId]
    feature_stats: dict[FeatureId, tuple[float, float]]
    train_rmse: list[float] = field(default_factory=list, repr=False)
    _layout: Optional["_Layout"] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: The model's selection table as a plain model of a registry entry,
    #: built by the registry on first use.
    _selection: Optional[object] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.trees, PackedTrees):
            self.trees = PackedTrees.pack(self.trees)

    def packed(self) -> tuple:
        """``(starts, child, feat, val)``: the stored arrays of
        :class:`PackedTrees`."""
        t = self.trees
        return t.starts, t.child, t.feature, t.value

    def layout(self) -> "_Layout":
        """The prediction layout, built on first use and cached."""
        if self._layout is None:
            lay_out([self])
        return self._layout


#: Trees with at most this many internal nodes (every tree of the default
#: 10-leaf configuration) are evaluated by leaf bitmasks; larger trees are
#: walked. Moving a tree between the two groups regroups the sum.
TABLE_MAX_SPLITS = 9

#: Leaf bitmasks of table trees: bit l stands for a tree's leaf l, so a mask
#: holds the ``TABLE_MAX_SPLITS + 1`` leaves of the largest table tree.
_MASK = np.uint16
if TABLE_MAX_SPLITS + 1 > np.iinfo(_MASK).bits:
    raise ImportError("leaf bitmasks must hold TABLE_MAX_SPLITS + 1 leaves")
_ALL_LEAVES = (1 << (TABLE_MAX_SPLITS + 1)) - 1
#: ``_LOWEST_BIT[m]``: the index of the lowest set bit of a nonzero mask m.
_LOWEST_BIT = np.array(
    [0] + [(m & -m).bit_length() - 1 for m in range(1, _ALL_LEAVES + 1)], dtype=np.intp
)


def _exit_leaves(keep: np.ndarray, left: np.ndarray) -> np.ndarray:
    """The leaf each table tree reaches, where ``left[..., j, t]`` tells
    whether split j of tree t sends the input left and ``keep`` holds the
    splits' masks (:class:`_Layout`): the lowest leaf no split rules out."""
    # -1 sets every bit of a mask: a split that sends the input left rules
    # out no leaf. The initial mask clears the bits above the leaves.
    mask = np.bitwise_and.reduce(keep | -left.astype(_MASK), axis=-2, initial=_ALL_LEAVES)
    return _LOWEST_BIT.take(mask)


#: Most elements (rows x splits x trees, plus rows x walked trees) one chunk
#: of :meth:`_Layout.predict_rows` holds at once: the float64 gather of every
#: split's feature, the kernel's largest temporary, stays within 0.5 MB.
CHUNK_ELEMENTS = 1 << 16


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
    """Model arrays rearranged for prediction, built by :func:`lay_out`.

    Table trees (model order): column t of ``feat``, ``thr`` and ``keep`` (k,
    n) holds tree t's split features, thresholds and leaf masks in pre-order,
    padded with feature 0 and every leaf. A split's mask holds every leaf but
    those of its left subtree, which it rules out when it sends the input
    right; ``value[value_base[t] + leaf]`` is ``lr * leaf value`` in float64.
    Walked trees keep the node arrays of :meth:`MartModel.packed`.
    One body, :meth:`_sum`, scores a vector and a block of rows alike.
    """

    def __init__(self, model: MartModel, feat, thr, keep, value, value_base, walk_starts):
        self.init, self.lr = model.init, model.learning_rate
        self.feat, self.thr, self.keep = feat, thr, keep
        self.value, self.value_base, self.walk_starts = value, value_base, walk_starts
        _, self.child, self.node_feat, self.node_thr = model.packed()

    def _sum(self, X: np.ndarray) -> np.ndarray:
        """The trees' terms for ``X`` (..., FEATURE_SPACE) of any leading
        shape: table trees, then walked trees, each group summed in tree order
        over a contiguous run, so a row adds its terms as a single vector does."""
        leaf = _exit_leaves(self.keep, X.take(self.feat, axis=-1) <= self.thr)
        total = self.value.take(self.value_base + leaf).sum(axis=-1)
        if self.walk_starts.size:
            rows, n_walk = X.reshape(-1, X.shape[-1]), self.walk_starts.size
            reached = _walk(
                self.child, self.node_feat, self.node_thr, rows,
                np.repeat(np.arange(len(rows)), n_walk), np.tile(self.walk_starts, len(rows)),
            )
            term = self.lr * self.node_thr[reached].astype(np.float64)
            total += term.reshape(len(rows), n_walk).sum(axis=1).reshape(X.shape[:-1])
        return total

    def predict(self, x: np.ndarray) -> float:
        """Prediction for one code-indexed dense vector ``x``."""
        return self.init + float(self._sum(x))

    def predict_rows(self, X: np.ndarray) -> np.ndarray:
        """:meth:`predict` of every row of ``X`` (rows, FEATURE_SPACE), bit for
        bit, in chunks of at most :data:`CHUNK_ELEMENTS` elements."""
        k, n_tab = self.feat.shape
        step = max(1, CHUNK_ELEMENTS // max(1, k * n_tab + self.walk_starts.size))
        out = np.empty(len(X))
        for lo in range(0, len(X), step):
            out[lo : lo + step] = self.init + self._sum(X[lo : lo + step])
        return out


def _offsets(sizes: np.ndarray) -> np.ndarray:
    """Where each of consecutive runs of ``sizes`` begins."""
    return np.cumsum(sizes) - sizes


#: Nodes, give or take a model, that :func:`lay_out` lays out in one pass:
#: its temporaries take about 100 bytes a node, so a pass stays near 13 MB.
LAYOUT_NODES = 1 << 17


def lay_out(models: Sequence[MartModel]) -> list[_Layout]:
    """Build and cache the :class:`_Layout` of every model of ``models``;
    returns them. Each run of models of about :data:`LAYOUT_NODES` nodes is
    checked and laid out in one pass over its concatenated nodes. Trained,
    decoded and hand-built models are all laid out here, so all pass one
    check of the trees the kernel trusts."""
    ends = np.cumsum([m.trees.starts[-1] for m in models], dtype=np.intp) // LAYOUT_NODES
    cuts = [0, *(np.flatnonzero(np.diff(ends)) + 1).tolist(), len(models)]
    return [lay for lo, hi in zip(cuts, cuts[1:]) for lay in _lay_out_run(models[lo:hi])]


def _lay_out_run(models: Sequence[MartModel]) -> list[_Layout]:
    """:func:`lay_out` of ``models`` in one pass: the arrays of every model
    are filled as flat buffers and cut per model, so each layout has its
    model's own ``k`` (most splits of a table tree) and arrays, as if its
    model were laid out alone. First, since the kernel trusts each tree's
    shape and split features, an empty tree, child offsets that leave their
    tree or make no pre-order tree, a node feature outside its model's
    schema or a non-finite value raises :class:`TrainingError`."""
    packed = [m.packed() for m in models]
    n_trees = np.array([len(p[0]) - 1 for p in packed], dtype=np.intp)
    model_of = np.repeat(np.arange(len(models)), n_trees)  # each tree's model
    node_base = np.repeat(_offsets(np.array([p[0][-1] for p in packed], dtype=np.intp)), n_trees)
    firsts = np.concatenate([np.zeros(0, np.intp), *(p[0][:-1] for p in packed)]) + node_base
    child, feat, val = (
        np.concatenate([np.zeros(0, dtype), *(p[i] for p in packed)])
        for i, dtype in ((1, np.uint8), (2, np.uint8), (3, np.float32))
    )
    sizes = np.diff(firsts, append=len(child))
    if (sizes == 0).any():
        raise TrainingError("empty tree")
    tree_of = np.repeat(np.arange(len(firsts)), sizes)
    internal = child != 0
    # Rank of each node among the split (internal) or leaf nodes of its tree.
    split_rank = np.zeros(len(child) + 1, dtype=np.intp)  # splits before each node
    np.cumsum(internal, out=split_rank[1:])
    n_splits = np.diff(split_rank[np.append(firsts, len(child))])
    # Nodes left in the tree from each node on, itself included: a right
    # child must land inside, so the last node of a tree must be a leaf.
    left_in_tree = np.repeat(firsts + sizes, sizes)
    left_in_tree -= np.arange(len(child))
    if (child >= left_in_tree).any() or (child == 1).any() or (sizes != 2 * n_splits + 1).any():
        raise TrainingError("malformed tree: child offsets leave the tree")
    # The kernel reads split i's left subtree as the nodes [i + 1, r), r =
    # i + child[i] its right child, and so needs a pre-order tree. It is one
    # when (1) every node but each tree's first is a child of exactly one
    # split (children are distinct, and by the size check as many as those
    # nodes) and (2) each range [i + 1, r) holds one leaf more than splits.
    # Proof sketch: (1), with every edge pointing forward, makes a binary
    # tree rooted at the first node. By induction from the last node down,
    # each subtree is an interval [j, e_j) with one leaf more than splits.
    # For split i the left subtree is [i + 1, e_{i+1}) and r >= e_{i+1}. No
    # node of the gap [e_{i+1}, r) descends from i, and r has no ancestor
    # after i, so the gap is a run of whole subtrees, each adding one to
    # the balance of [i + 1, r), which (2) pins to 1. So the gap is empty
    # and subtree(i) = [i, e_r).
    split = np.flatnonzero(internal)
    right = split + child[split]
    is_child = np.zeros(len(child), dtype=bool)
    is_child[split + 1] = True
    is_child[right] = True
    left_splits = split_rank[right] - split_rank[split + 1]
    if np.count_nonzero(is_child) != 2 * len(split) or (2 * left_splits + 2 != right - split).any():
        raise TrainingError("malformed tree: nodes are not a pre-order tree")
    # allowed[m, 0] admits model m's leaf feature byte 0, allowed[m, 1] its
    # split features; a node reads the flat index of its model, kind and byte.
    allowed = np.zeros((len(models), 2, 256), dtype=bool)
    allowed[:, 0, 0] = True
    allowed[
        np.repeat(np.arange(len(models)), [len(m.schema) for m in models]), 1,
        [int(f) for m in models for f in m.schema],
    ] = True
    at = np.repeat(512 * model_of, sizes)
    at += feat
    np.add(at, 256, out=at, where=internal)
    if not allowed.reshape(-1)[at].all():
        raise TrainingError("tree node feature outside its model's schema")
    if not np.isfinite(val).all():
        raise TrainingError("non-finite tree threshold or leaf value")
    split_rank = split_rank[:-1]
    split_rank -= split_rank[firsts][tree_of]
    leaf_rank = np.arange(len(child))
    leaf_rank -= firsts[tree_of]
    leaf_rank -= split_rank
    tab = n_splits <= TABLE_MAX_SPLITS
    k = np.zeros(len(models), dtype=np.intp)
    np.maximum.at(k, model_of[tab], n_splits[tab])
    n_tab = np.bincount(model_of[tab], minlength=len(models))
    # Model m's (k, n_tab) split arrays begin at split_base[m] of the flat
    # buffers, and its (n_tab, k + 1) leaf values at value_base[m]. A table
    # tree is column ``row`` of its model's arrays: its split of rank r lies
    # at split_at + r * stride, its leaf of rank l at leaf_at + l.
    split_base, value_base = _offsets(k * n_tab), _offsets(n_tab * (k + 1))
    row = np.cumsum(tab) - 1 - np.repeat(_offsets(n_tab), n_trees)
    leaf_bases = row * (k + 1)[model_of]
    split_at, stride = split_base[model_of] + row, n_tab[model_of]
    leaf_at = value_base[model_of] + leaf_bases
    on_tab = tab[tree_of]

    # Splits, then leaves: each node's flat position, built in place to keep
    # the pass's temporaries few.
    node = np.flatnonzero(on_tab & internal)
    t = tree_of[node]
    at = split_rank[node]
    at *= stride[t]
    at += split_at[t]
    size = int(np.dot(k, n_tab))
    feats = np.zeros(size, dtype=np.intp)
    feats[at] = feat[node]
    thrs = np.zeros(size, dtype=np.float64)
    thrs[at] = val[node]
    # The left subtree of split i holds the leaves of pre-order ranks
    # leaf_rank[i + 1] up to leaf_rank[i + child[i]].
    keeps = np.full(size, _ALL_LEAVES, dtype=_MASK)
    lo, hi = leaf_rank[node + 1], leaf_rank[node + child[node]]
    keeps[at] = _ALL_LEAVES & ~((1 << hi) - (1 << lo))
    del lo, hi
    node = np.flatnonzero(on_tab & ~internal)
    t = tree_of[node]
    at = leaf_rank[node]
    at += leaf_at[t]
    term = np.array([m.learning_rate for m in models], dtype=np.float64)[model_of][t]
    term *= val[node]  # lr * leaf value in float64
    values = np.zeros(int(np.dot(n_tab, k + 1)))
    values[at] = term
    leaf_bases = leaf_bases[tab]
    walk_starts = (firsts - node_base)[~tab]

    out = []
    n_walk = n_trees - n_tab
    for model, k_m, n_m, s, v, b, n_w, w in zip(models, *(a.tolist() for a in (
        k, n_tab, split_base, value_base, _offsets(n_tab), n_walk, _offsets(n_walk)
    ))):
        cut = slice(s, s + k_m * n_m)
        model._layout = _Layout(
            model, feats[cut].reshape(k_m, n_m), thrs[cut].reshape(k_m, n_m),
            keeps[cut].reshape(k_m, n_m), values[v : v + n_m * (k_m + 1)],
            leaf_bases[b : b + n_m], walk_starts[w : w + n_w],
        )
        out.append(model._layout)
    return out


# ---------------------------------------------------------------------------
# Training: the trees of independent problems grown in lock step


class _Grower:
    """One least-squares regression tree per problem, grown in lock step.

    Tree p fits the residuals ``r[p]`` (k,) on the rows of ``X[p]`` (k, C),
    a split leaving at least ``min_per_leaf`` (>= 1) rows on either side,
    row i of tree p having the id ``p * k + i``; ``order[p, c]`` lists the
    rows by column c's values, stably. Each column's order is kept as
    ``order`` (row ids), ``vals`` (the column's values) and ``res`` (the
    rows' residuals). The extra column C keeps the rows in ascending order,
    the order in which a node's residual total is summed. A node owns
    positions ``start:start + size`` of every column of its tree, and a split
    carries each column down to the children by a stable partition, left
    rows first.

    Nodes live in flat arrays, node ``p * S + slot``: slot 0 is the root and
    the split of best-first step s puts its children in slots 2s + 1 and
    2s + 2. ``gain`` is -inf unless the node is a leaf with a split, which
    sends left the first ``n_left`` rows of column ``col``.
    """

    def __init__(
        self, X: np.ndarray, r: np.ndarray, order: np.ndarray, max_leaves: int, min_per_leaf: int
    ):
        P, k, C = X.shape
        self.P, self.k, self.C, self.S = P, k, C, 2 * max_leaves - 1
        self.min_per_leaf = min_per_leaf
        # Each column is padded to 2k positions, with the id P * k of no row,
        # so that every node's segment read as long as the longest stays inside.
        w = 2 * k
        self.column = (np.arange(P * (C + 1)) * w).reshape(P, C + 1)
        self.columns = np.arange(C + 1)
        # 0, 1, 2, ...: positions and node numbers, sliced to the length needed.
        self.ahead = np.arange(max(w, P * self.S * C))
        self.n_left_f = np.arange(1, k + 1, dtype=np.float64)
        rows = np.empty((P, C + 1, k), dtype=np.intp)
        rows[:, :C] = order
        rows[:, C] = np.arange(k)
        tree = np.arange(P)[:, None, None]
        self.order = np.full((P, C + 1, w), P * k, dtype=np.intp)
        self.order[:, :, :k] = rows + tree * k
        self.vals = np.zeros((P, C + 1, w))
        self.vals[:, :C, :k] = X[tree, rows[:, :C], np.arange(C)[:, None]]
        self.res = np.zeros((P, C + 1, w))
        self.res[:, :, :k] = r[tree, rows]
        n = P * self.S
        self.start = np.zeros(n, dtype=np.intp)
        self.size = np.zeros(n, dtype=np.intp)
        self.value = np.zeros(n)
        self.gain = np.full(n, -np.inf)
        self.col = np.zeros(n, dtype=np.intp)
        self.thr = np.zeros(n)
        self.n_left = np.zeros(n, dtype=np.intp)

    # Gains of positions past a node's segment divide by zero; they are masked.
    @np.errstate(all="ignore")
    def grow(self) -> tuple:
        """Grow every tree; returns them as :func:`_pack` packs them."""
        P, S = self.P, self.S
        trees = np.arange(P) * S
        self.size[trees] = self.k
        split_at = np.full((P, (S - 1) // 2), -1, dtype=np.intp)
        last = split_at.shape[1] - 1  # the last step: the leaves it makes never split
        self.score(trees, last >= 0)
        for step in range(last + 1):
            at = self.gain.reshape(P, S).argmax(axis=1)
            node = trees + at
            live = self.gain[node] > -np.inf
            if not live.all():
                if not live.any():
                    break
                at, node = at[live], node[live]
            split_at[live, step] = at
            start, size, n_left = self.start[node], self.size[node], self.n_left[node]
            self.partition(node, start, size, n_left)
            kid = node - at + 2 * step + 1
            self.start[kid], self.size[kid] = start, n_left
            self.start[kid + 1], self.size[kid + 1] = start + n_left, size - n_left
            self.gain[node] = -np.inf
            self.score(np.concatenate([kid, kid + 1]), step < last)
        return _pack(self, split_at)

    def runs(self, node: np.ndarray, length: int, *arrays: np.ndarray) -> list:
        """The first ``length`` positions of every column segment of each
        node, from each of ``arrays`` (``order``, ``vals``, ``res``): (nodes,
        C + 1, length) each, every row copied as one run of a strided window
        view."""
        at = ((node // self.S)[:, None], self.columns, self.start[node, None])
        out = []
        for a in arrays:
            P, C1, w = a.shape
            s0, s1, s2 = a.strides
            window = np.ndarray((P, C1, w - length + 1, length), a.dtype, a, strides=(s0, s1, s2, s2))
            out.append(window[at])
        return out

    def score(self, node: np.ndarray, split: bool) -> None:
        """Leaf value of every node in ``node`` and, if ``split``, the best
        split of those with at least ``2 * min_per_leaf`` rows, in one pass
        over their segments padded to the longest.

        The split minimizes the SSE over every column and midpoint between
        distinct neighbouring values. A column's first best position wins;
        across columns the lowest column wins unless a later one beats it by
        more than 1e-12, and a split needs a finite gain above 1e-12.
        """
        C, mpl = self.C, self.min_per_leaf
        m = self.size[node]
        # NumPy's own pairwise sum of each node's residuals in row order.
        by_row = self.res[:, C]
        total = np.array([by_row[p, s : s + n].sum() for p, s, n in zip(
            (node // self.S).tolist(), self.start[node].tolist(), m.tolist())])
        self.value[node] = total / m
        can = m >= 2 * mpl
        if not (split and can.any()):
            return
        node, m, total = node[can], m[can], total[can]
        N, L = len(node), int(m.max())
        sr, sv = self.runs(node, L, self.res, self.vals)
        ahead = self.ahead[: L - 1]
        allowed = (ahead < (m - mpl)[:, None]) & (ahead >= mpl - 1)
        sv = sv[:, :C]
        valid = sv[:, :, 1:] > sv[:, :, :-1]
        valid &= allowed[:, None, :]
        left_sum = np.cumsum(sr[:, :C, :-1], axis=2)
        n_left = self.n_left_f[: L - 1]
        gain = np.square(left_sum)
        gain /= n_left
        right = np.subtract(total[:, None, None], left_sum, out=left_sum)
        right **= 2
        right /= m[:, None, None] - n_left
        gain += right
        gain -= (total * total / m)[:, None, None]
        np.copyto(gain, -np.inf, where=~valid)
        pos = gain.argmax(axis=2)
        best = gain.reshape(N * C, L - 1)[self.ahead[: N * C], pos.ravel()].reshape(N, C)
        col = best.argmax(axis=1)
        top = best[self.ahead[:N], col]
        # The scan keeps the first column of top gain unless some other gain
        # lies within 1e-12 (plus rounding) below it. Gains of at least 2**14
        # absorb 1e-12, which is under half their ulp, so there the scan
        # keeps the first column of top gain too; other nodes run the scan.
        band = top - (2e-12 + 1e-15 * np.abs(top))
        near = ((best < top[:, None]) & (best >= band[:, None])).any(axis=1)
        near &= band < 2.0**14
        for i in np.flatnonzero(near | np.isnan(top)):
            g, c = -math.inf, 0
            for j, v in enumerate(best[i].tolist()):
                if v > g + 1e-12:
                    g, c = v, j
            col[i], top[i] = c, g
        ok = np.flatnonzero(np.isfinite(top) & (top > 1e-12))
        if not ok.size:
            return
        c = col[ok]
        seq = sv[ok, c]
        pos = pos[ok, c]
        lo_v = seq[self.ahead[: ok.size], pos]
        hi_v = seq[self.ahead[: ok.size], pos + 1]
        thr = lo_v + (hi_v - lo_v) / 2.0
        inside = self.ahead[:L] < m[ok, None]
        goes = ((seq <= thr[:, None]) & inside).sum(axis=1)
        # Guard against a midpoint that rounds onto the upper value.
        whole = (goes == 0) | (goes == m[ok])
        if whole.any():
            goes[whole] = ((seq[whole] <= lo_v[whole, None]) & inside[whole]).sum(axis=1)
        node = node[ok]
        self.gain[node] = top[ok]
        self.col[node] = c
        self.thr[node] = thr
        self.n_left[node] = goes

    def partition(self, node, start, size, n_left) -> None:
        """Stably partition every column's segment of each node in ``node``:
        first the rows among the first ``n_left`` of column ``col``, then
        the others. Positions past a segment are written back in place."""
        L = int(size.max())
        seg, vals, res = self.runs(node, L, self.order, self.vals, self.res)
        lead = seg[self.ahead[: len(node)], self.col[node]]
        goes_left = np.zeros(self.P * self.k + 1, dtype=bool)
        goes_left[lead[self.ahead[:L] < n_left[:, None]]] = True
        left = goes_left.take(seg)
        rank = np.cumsum(left, axis=2, dtype=np.int32)  # left rows up to here
        at = np.where(left, rank - 1, n_left[:, None, None] + self.ahead[:L] - rank)
        at += self.column[node // self.S][:, :, None] + start[:, None, None]
        self.order.reshape(-1)[at], self.vals.reshape(-1)[at], self.res.reshape(-1)[at] = seg, vals, res


def _pack(g: _Grower, split_at: np.ndarray) -> tuple:
    """``(starts, child, feature, value)`` of the grown trees in pre-order,
    as :meth:`MartModel.packed` packs a model, with column numbers for
    features; tree p split its slot ``split_at[p, s]`` at step s (-1: none)."""
    P, S = g.P, g.S
    first = np.arange(P) * S
    left = np.zeros(P * S, dtype=np.intp)
    size = np.ones(P * S, dtype=np.intp)  # subtree sizes
    pos = np.zeros(P * S, dtype=np.intp)  # pre-order positions
    splits = []  # (split nodes, their left children) of each step
    for s in range(split_at.shape[1]):
        live = np.flatnonzero(split_at[:, s] >= 0)
        if live.size:
            splits.append((first[live] + split_at[live, s], first[live] + 2 * s + 1))
    for node, kid in reversed(splits):
        left[node] = kid
        size[node] = 1 + size[kid] + size[kid + 1]
    for node, kid in splits:
        pos[kid] = pos[node] + 1
        pos[kid + 1] = pos[node] + 1 + size[kid]
    n_nodes = size[first]
    starts = np.zeros(P + 1, dtype=np.intp)
    np.cumsum(n_nodes, out=starts[1:])
    used = (np.arange(S) < n_nodes[:, None]).ravel()
    at = (pos + np.repeat(starts[:-1], S))[used]
    internal = left > 0
    child = np.zeros(starts[-1], dtype=np.uint8)
    feat = np.zeros(starts[-1], dtype=np.intp)
    value = np.zeros(starts[-1], dtype=np.float32)
    child[at] = np.where(internal, 1 + size[left], 0)[used]
    feat[at] = np.where(internal, g.col, 0)[used]
    value[at] = np.where(internal, g.thr, g.value)[used]
    return starts, child, feat, value


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


def _split_columns(X: np.ndarray) -> np.ndarray:
    """The columns of ``X`` (rows, columns) a split can use: the lowest of
    each class with the same dense ranks of the rows, which has every gain of
    the others and wins their ties, and no constant column."""
    order = np.argsort(X, axis=0, kind="stable")
    rises = np.diff(np.take_along_axis(X, order, axis=0), axis=0) > 0
    first = {}  # each class's lowest column, by its stable order and ties
    for c in np.flatnonzero(rises.any(axis=0)).tolist():
        first.setdefault((order[:, c].tobytes(), rises[:, c].tobytes()), c)
    return np.array(list(first.values()), dtype=np.intp)


def _boost(problems: Sequence[Problem], cfg: TrainConfig) -> list:
    """Boost P problems of one row count by ``cfg``, each with its own seed,
    in lock step; returns each problem's ``(init, trees, train_rmse)``, its
    trees as :class:`PackedTrees`."""
    P, n = len(problems), len(problems[0].y)
    kept = [_split_columns(X) for _, X, _, _ in problems]
    C = max(1, max(len(cols) for cols in kept))
    XF = np.zeros((P, n, C))
    codes = np.zeros((P, C), dtype=np.uint8)  # feature code of each column
    for p, ((schema, X, _, _), cols) in enumerate(zip(problems, kept)):
        XF[p, :, : len(cols)] = X[:, cols]
        codes[p, : len(cols)] = [int(schema[c]) for c in cols]
    Y = np.array([y for _, _, y, _ in problems])
    # Every column sorted once, stably; a subsample's rows are ascending, so
    # its stable order is this order less the rows left out.
    ranked = np.argsort(XF, axis=1, kind="stable").transpose(0, 2, 1)
    ranked_ids = ranked + (np.arange(P) * n)[:, None, None]  # rows of flat (P * n)
    init = [np.float32(y.mean()) for _, _, y, _ in problems]
    F = np.repeat(np.array(init, dtype=np.float64)[:, None], n, axis=1)
    seeds = list(dict.fromkeys(p.seed for p in problems))
    seed_of = np.array([seeds.index(p.seed) for p in problems])
    rngs = [np.random.default_rng(seed) for seed in seeds]
    k = max(1, int(round(cfg.subsample_fraction * n)))
    every = np.arange(P * n)
    grown = []  # each iteration's (starts, child, feature code, value)
    rmse = np.empty((P, cfg.iterations))
    first = np.arange(P)[:, None]
    for it in range(cfg.iterations):
        if k < n:
            rows = np.array([np.sort(rng.choice(n, size=k, replace=False)) for rng in rngs])[seed_of]
            local = np.full(P * n, -1)  # each sampled row's number in its subsample
            local[(first * n + rows).ravel()] = np.tile(np.arange(k), P)
            order = local.take(ranked_ids)
            order = order[order >= 0].reshape(P, -1, k)
        else:
            rows = np.broadcast_to(np.arange(n), (P, n))
            order = ranked
        starts, child, feat, value = _Grower(
            XF[first, rows], Y[first, rows] - F[first, rows], order,
            cfg.max_leaves, MIN_EXAMPLES_PER_LEAF,
        ).grow()
        leaves = _walk(child, feat, value, XF.reshape(P * n, C), every, np.repeat(starts[:-1], n))
        F += cfg.learning_rate * value[leaves].astype(np.float64).reshape(P, n)
        rmse[:, it] = np.sqrt(np.mean((Y - F) ** 2, axis=1))
        tree_of = np.repeat(np.arange(P), np.diff(starts))
        code = np.where(child != 0, codes[tree_of, feat], 0).astype(np.uint8)
        grown.append((starts, child, code, value))
    # The nodes of every iteration, regrouped problem by problem: a stable
    # sort by problem keeps each problem's trees in iteration order.
    sizes = np.array([np.diff(starts) for starts, _, _, _ in grown])  # (iterations, P)
    child, code, value = (np.concatenate([g[i] for g in grown]) for i in (1, 2, 3))
    by_problem = np.argsort(np.repeat(np.tile(np.arange(P), len(grown)), sizes.ravel()), kind="stable")
    bounds = np.zeros(P + 1, dtype=np.intp)
    np.cumsum(sizes.sum(axis=0), out=bounds[1:])
    out = []
    for p in range(P):
        nodes = by_problem[bounds[p] : bounds[p + 1]]
        starts = np.zeros(len(grown) + 1, dtype=np.intp)
        np.cumsum(sizes[:, p], out=starts[1:])
        trees = PackedTrees(starts, child[nodes], code[nodes], value[nodes])
        out.append((float(init[p]), trees, rmse[p].tolist()))
    return out


class Problem(NamedTuple):
    """One training problem of :func:`train_family`: row i of ``X`` holds
    the values of ``schema``'s features, in schema order, for target ``y[i]``;
    ``seed`` draws its subsamples."""

    schema: list[FeatureId]
    X: np.ndarray
    y: np.ndarray
    seed: int


def train(examples: Sequence[tuple[FeatureVector, float]], cfg: TrainConfig) -> MartModel:
    """Stochastic gradient boosting of least-squares regression trees."""
    return train_family([Problem(*_examples_to_arrays(examples), cfg.rng_seed)], cfg)[0]


def train_family(problems: Sequence[Problem], cfg: TrainConfig) -> list[MartModel]:
    """One model per problem, in input order, bit for bit the model of
    training it alone by ``cfg`` with the problem's seed. The problems of
    each row count are boosted in lock step: every iteration grows their
    trees together."""
    cfg.validate()
    by_rows: dict[int, list[int]] = {}
    for i, p in enumerate(problems):
        by_rows.setdefault(len(p.y), []).append(i)
    models: list = [None] * len(problems)
    for members in by_rows.values():
        for i, (init, trees, rmse) in zip(members, _boost([problems[i] for i in members], cfg)):
            schema, X, _, _ = problems[i]
            lows, highs = (a.astype(np.float32).tolist() for a in (X.min(axis=0), X.max(axis=0)))
            models[i] = MartModel(
                init=init, trees=trees, learning_rate=float(np.float32(cfg.learning_rate)),
                schema=schema, feature_stats=dict(zip(schema, zip(lows, highs))), train_rmse=rmse,
            )
    return models


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

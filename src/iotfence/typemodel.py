"""Per-type binary classifiers over fixed-width fingerprints.

Each device type gets its own random forest trained one-vs-rest: the type's
fingerprints against a sample of exactly ten negatives per positive drawn
from the other types.  A forest votes match when at least half of its trees
do.  Trees are plain CART: Gini impurity, uniform threshold splits on a
random feature subset per node, grown to purity on a bootstrap sample.  A
forest's trees grow together, a node of each per step, on exact per-value
histograms of its training matrix.

Everything is deterministic from one integer seed; retraining on identical
data yields bit-identical model files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, EmptyRegistry, InsufficientData
from .fingerprint import Fingerprint, FixedFingerprint, to_fixed
from .jsonfile import dump_versioned, load_versioned

MODEL_SCHEMA = "iotfence-typemodel/2"
MATCH_THRESHOLD = 0.5
NEGATIVES_PER_POSITIVE = 10
# a forest's parallel per-node arrays; all but threshold hold integers
NODE_ARRAYS = ("feature", "threshold", "left", "right", "leaf_class")
_FOREST_ARRAYS = NODE_ARRAYS + ("tree_nodes",)


@dataclass(frozen=True)
class ForestParams:
    """Forest shape: n_trees per forest, each node splitting on the best of
    ceil(sqrt(feature count)) features drawn at random."""

    n_trees: int = 100

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be at least 1")


def fixed_matrix(rows: np.ndarray) -> np.ndarray:
    """Fixed fingerprint rows as a 2-D float matrix."""
    arr = np.asarray(rows, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={arr.ndim}")
    return arr


# most (row, sampled feature) cells and histogram bins one scoring pass holds
_BATCH_CELLS = 1 << 16
# most cells gathered for one histogram update
_HIST_CELLS = 1 << 13
# mean rows per node from which nodes gather their cells one at a time
_WIDE_NODE = 48
# columns sorted together when a forest's training matrix is coded
_CODE_COLUMNS = 32


class _Growing:
    """One tree's node lists, generator and stack of impure nodes to split.

    A stack entry is (node id, bootstrap rows reaching it, positives among
    them).  Node ids are handed out when a node's parent splits, left child
    first, and the stack pops left before right, as in a recursive build.
    """

    __slots__ = ("rng", "stack") + NODE_ARRAYS

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.stack: list[tuple[int, np.ndarray, int]] = []
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.leaf_class: list[int] = []

    def add_node(self, rows: np.ndarray, n_pos: int) -> int:
        """Append a node reached by rows; a pure one is a leaf at once."""
        pure = n_pos == 0 or n_pos == len(rows)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.leaf_class.append((1 if n_pos else 0) if pure else -1)
        return len(self.feature) - 1

    def push(self, node: int, rows: np.ndarray, n_pos: int) -> None:
        if self.leaf_class[node] < 0:
            self.stack.append((node, rows, n_pos))


def _code_columns(X: np.ndarray):
    """Each column's sorted distinct values, and each cell's index into them.

    Returns (codes, values, first): column f's distinct values, ascending,
    are values[first[f]:first[f + 1]], and codes[f, r] is twice the index
    of X[r, f] in values.  Columns are coded a block at a time, which
    bounds the sort's temporaries.
    """
    n_rows, n_feats = X.shape
    codes = np.empty((n_feats, n_rows), dtype=np.int32)
    values, first = [], []
    n_values = 0
    for lo in range(0, n_feats, _CODE_COLUMNS):
        columns = X[:, lo:lo + _CODE_COLUMNS].T.copy()
        order = np.argsort(columns, axis=1, kind="stable")
        order += np.arange(0, columns.size, n_rows)[:, None]
        columns.sort(axis=1)
        ranked = columns.ravel()
        new = np.empty(ranked.shape, dtype=bool)
        np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
        new[::n_rows] = True
        values.append(ranked[new])
        index = np.cumsum(new, dtype=np.int32)
        index += n_values - 1
        first.append(index[::n_rows].copy())
        n_values += len(values[-1])
        index *= 2
        codes[lo:lo + len(columns)].ravel()[order.ravel()] = index
    first.append([n_values])
    return codes, np.concatenate(values), np.concatenate(first)


def _grow_forest(coded, y: np.ndarray, rngs: Sequence[np.random.Generator],
                 n_drawn: int) -> dict:
    """Fit one CART tree per generator, each on its own bootstrap of (X, y),
    where coded is _code_columns(X), drawing n_drawn features per node;
    returns TypeClassifier's node arrays and tree_nodes, trees in generator
    order.

    The trees grow in lockstep: each step pops every tree's next impure node
    in preorder and draws its feature subset from that tree's generator, so
    every draw matches a tree-at-a-time build.  Batches of the popped nodes
    are then scored in one pass each, on exact per-value histograms.
    """
    n_rows, n_feats = len(y), len(coded[0])
    m = min(n_drawn, n_feats)
    n_values = np.diff(coded[2])
    growing = []
    for rng in rngs:
        g = _Growing(rng)
        rows = rng.integers(0, n_rows, n_rows)
        n_pos = int(y[rows].sum())
        g.push(g.add_node(rows, n_pos), rows, n_pos)
        growing.append(g)

    live = [g for g in growing if g.stack]
    while live:
        popped = [g.stack.pop() + (g,) for g in live]
        feats = np.array([g.rng.choice(n_feats, size=m, replace=False)
                          for g in live])
        cost = m * np.array([len(rows) for _, rows, _, _ in popped]) \
            + n_values[feats].sum(axis=1)
        for a, b in _runs(cost.tolist(), _BATCH_CELLS):
            _split_nodes(y, coded, popped[a:b], feats[a:b])
        live = [g for g in live if g.stack]
    forest = {name: np.concatenate([getattr(g, name) for g in growing])
              for name in NODE_ARRAYS}
    forest["tree_nodes"] = np.array([len(g.feature) for g in growing])
    return forest


def _runs(costs: list, cap: int):
    """Split range(len(costs)) into consecutive (start, stop) runs whose
    costs sum to at most cap, or that hold a single item."""
    start, total = 0, 0
    for k, cost in enumerate(costs):
        if total + cost > cap and k > start:
            yield start, k
            start, total = k, 0
        total += cost
    yield start, len(costs)


def _cell_bins(codes: np.ndarray, rows: list, feats: np.ndarray,
               shift2: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """2 * bin + label of every (sampled feature, row) cell of some nodes.

    Wide nodes gather a block each from the feature-major codes; narrow
    ones gather all their cells at once.
    """
    sizes = [len(node_rows) for node_rows in rows]
    if len(labels) >= _WIDE_NODE * len(rows):
        cells = np.concatenate([codes[f][:, node_rows] for f, node_rows in zip(feats, rows)],
                               axis=1, dtype=np.int64)
        cells += np.repeat(shift2.T, sizes, axis=1)
        cells += labels
    else:
        node = np.repeat(np.arange(len(rows)), sizes)
        cells = shift2[node]
        cells += codes[feats[node], np.concatenate(rows)[:, None]]
        cells += labels[:, None]
    return cells.ravel()


def _split_nodes(y: np.ndarray, coded, batch: list, feats: np.ndarray) -> None:
    """Split each (node, rows, n_pos, tree) of batch at its best Gini split
    on the features in its row of feats, or make it a majority leaf if every
    one of them is constant on its rows.

    Node k's sampled feature j gets a histogram segment with one bin per
    distinct value of that feature in X; segment (k, j) sits at k*m + j.
    """
    codes, values, first = coded
    n_nodes, m = feats.shape
    sizes = np.array([len(rows) for _, rows, _, _ in batch])
    rows = np.concatenate([rows for _, rows, _, _ in batch])
    labels = y[rows]

    seg_bins = (first[feats + 1] - first[feats]).ravel()
    seg_start = np.cumsum(seg_bins) - seg_bins
    # value index + shift[k * m + j] is the bin in segment (k, j)
    shift = seg_start - first[feats].ravel()
    shift2 = (2 * shift).reshape(n_nodes, m)
    row_end = np.cumsum(sizes).tolist()
    counts = np.zeros(2 * int(seg_bins.sum()), dtype=np.int64)
    for a, b in _runs((m * sizes).tolist(), _HIST_CELLS):
        start = row_end[a] - len(batch[a][1])
        cells = _cell_bins(codes, [node_rows for _, node_rows, _, _ in batch[a:b]],
                           feats[a:b], shift2[a:b], labels[start:row_end[b - 1]])
        counts += np.bincount(cells, minlength=len(counts))
    del cells
    n_pos = np.array([node_pos for _, _, node_pos, _ in batch])
    split_node, split_seg, split_bins = _best_splits(counts, seg_start, sizes, n_pos, m)

    has_split = np.zeros(n_nodes, dtype=bool)
    has_split[split_node] = True
    node_feat = np.zeros(n_nodes, dtype=np.int64)
    node_feat[split_node] = feats.ravel()[split_seg]
    node_thr = np.zeros(n_nodes)
    # midpoint of the split bin's value and the next value present
    split_values = values[split_bins - shift[split_seg, None]]
    node_thr[split_node] = (split_values[:, 0] + split_values[:, 1]) / 2.0
    node_of_row = np.repeat(np.arange(n_nodes), sizes)
    go_left = values[codes[node_feat[node_of_row], rows] >> 1] <= node_thr[node_of_row]
    n_left = np.bincount(node_of_row[go_left], minlength=n_nodes)
    pos_left = np.bincount(node_of_row[go_left & (labels == 1)],
                           minlength=n_nodes).tolist()
    # the rows going left and right, each still grouped by node
    lo_all, hi_all = rows[go_left], rows[~go_left]
    lo_end = np.cumsum(n_left).tolist()
    hi_end = np.cumsum(sizes - n_left).tolist()
    n_left, has_split = n_left.tolist(), has_split.tolist()
    for k, (node_id, node_rows, node_pos, g) in enumerate(batch):
        if not has_split[k]:
            # every sampled feature is constant here; settle for majority
            g.leaf_class[node_id] = int(2 * node_pos >= len(node_rows))
            continue
        lo_rows = lo_all[lo_end[k] - n_left[k]:lo_end[k]]
        hi_rows = hi_all[hi_end[k] - len(node_rows) + n_left[k]:hi_end[k]]
        lo_pos = pos_left[k]
        hi_pos = node_pos - lo_pos
        g.feature[node_id] = int(node_feat[k])
        g.threshold[node_id] = float(node_thr[k])
        lo = g.left[node_id] = g.add_node(lo_rows, lo_pos)
        hi = g.right[node_id] = g.add_node(hi_rows, hi_pos)
        g.push(hi, hi_rows, hi_pos)
        g.push(lo, lo_rows, lo_pos)


def _best_splits(counts: np.ndarray, seg_start: np.ndarray, sizes: np.ndarray,
                 n_pos: np.ndarray, m: int):
    """The lowest weighted Gini split of each node that has one.

    counts holds (rows, positives) pairs per bin, which is 2 * bin and
    2 * bin + 1; segment s of bins starts at seg_start[s] and belongs to node
    s // m.  A candidate split lies after each non-empty bin that has a
    later non-empty bin in its segment.  Ties go to the lowest left count,
    then the lowest j, as argmin over the (split position, j) grid of a
    node-at-a-time search over sorted columns would pick.  Returns the
    nodes, their split segments, and the (split, next non-empty) bin pairs.
    """
    pos = counts[1::2]
    cnt = counts[0::2] + pos
    full = np.flatnonzero(cnt)          # non-empty bins, by (k, j, value)
    seg = np.searchsorted(seg_start, full, side="right") - 1
    seg_first = np.searchsorted(seg, np.arange(len(seg_start)))
    splits = np.ones(len(full), dtype=bool)
    splits[seg_first[1:] - 1] = False
    splits[-1] = False
    cand = np.flatnonzero(splits)
    cseg = seg[cand]
    node, j = np.divmod(cseg, m)

    cum_cnt = np.concatenate(([0], np.cumsum(cnt[full])))
    cum_pos = np.concatenate(([0], np.cumsum(pos[full])))
    begin = seg_first[cseg]
    cnt_left = (cum_cnt[cand + 1] - cum_cnt[begin]).astype(np.float64)
    pos_left = (cum_pos[cand + 1] - cum_pos[begin]).astype(np.float64)
    n = sizes[node].astype(np.float64)
    cnt_right = n - cnt_left
    pos_right = n_pos[node] - pos_left
    gini_left = 1.0 - (pos_left / cnt_left) ** 2 \
                    - ((cnt_left - pos_left) / cnt_left) ** 2
    gini_right = 1.0 - (pos_right / cnt_right) ** 2 \
                     - ((cnt_right - pos_right) / cnt_right) ** 2
    weighted = (cnt_left * gini_left + cnt_right * gini_right) / n

    new_node = np.diff(node, prepend=-1) != 0
    group, group_of = np.flatnonzero(new_node), np.cumsum(new_node) - 1
    tied = weighted == np.minimum.reduceat(weighted, group)[group_of]
    key = np.where(tied, cnt_left * m + j, np.inf)
    best = cand[tied & (key == np.minimum.reduceat(key, group)[group_of])]
    return seg[best] // m, seg[best], full[np.stack((best, best + 1), axis=1)]


class _PackedForests:
    """The node arrays of a list of classifiers, concatenated.

    Node ids are global; leaves point to themselves, so walking every tree
    for as many steps as the deepest one has levels leaves each row at a
    leaf of each tree.  Trees are stored classifier by classifier, and
    starts holds the first tree of each.
    """

    def __init__(self, classifiers: Sequence[TypeClassifier]):
        tree_nodes = np.concatenate([clf.tree_nodes for clf in classifiers])
        self.roots = np.cumsum(tree_nodes) - tree_nodes
        self.starts = np.cumsum([0] + [clf.n_trees for clf in classifiers[:-1]])
        self.widths = {clf.n_features for clf in classifiers}
        feature, self.threshold, left, right, self.leaf_class = (
            np.concatenate([getattr(clf, name) for clf in classifiers])
            for name in NODE_ARRAYS)
        internal = feature >= 0
        node = np.arange(len(feature))
        offset = np.repeat(self.roots, tree_nodes)
        self.feature = np.where(internal, feature, 0)
        self.left = np.where(internal, left + offset, node)
        self.right = np.where(internal, right + offset, node)
        self.depth = 0
        level = self.roots[internal[self.roots]]
        while level.size:
            self.depth += 1
            level = np.concatenate((self.left[level], self.right[level]))
            level = level[internal[level]]

    def votes(self, X: np.ndarray) -> np.ndarray:
        """Match votes per row of X (rows) and classifier (columns)."""
        if X.ndim != 2 or self.widths != {X.shape[1]}:
            raise DimensionMismatch(
                f"classifiers expect {sorted(self.widths)} features, "
                f"got shape {X.shape}")
        rows = np.arange(X.shape[0])[:, None]
        node = np.broadcast_to(self.roots, (X.shape[0], len(self.roots)))
        for _ in range(self.depth):
            go_left = X[rows, self.feature[node]] <= self.threshold[node]
            node = np.where(go_left, self.left[node], self.right[node])
        return np.add.reduceat(self.leaf_class[node], self.starts, axis=1)


@dataclass(eq=False)
class TypeClassifier:
    """A trained one-vs-rest forest for a single device type.

    The forest is five parallel node arrays holding its trees one after
    another; tree i has tree_nodes[i] nodes.  Within a tree, node 0 is the
    root and node ids are tree-local.  A leaf has a negative feature and a
    leaf_class of 0 or 1; an internal node's children come after it in its
    own tree, so every walk from a root ends at a leaf.  The arrays are
    checked once, here, and then made read-only.
    """

    device_type: str
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_class: np.ndarray
    tree_nodes: np.ndarray
    n_features: int
    training_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in _FOREST_ARRAYS:
            arr = np.array(getattr(self, name),
                           dtype=np.float64 if name == "threshold" else np.int64)
            if arr.ndim != 1:
                raise ValueError(f"{self.device_type!r}: {name} must be a flat list")
            arr.flags.writeable = False
            setattr(self, name, arr)
        n, sizes = len(self.feature), self.tree_nodes
        if not all(len(getattr(self, name)) == n for name in NODE_ARRAYS):
            raise ValueError(f"{self.device_type!r}: node arrays differ in length")
        if not sizes.size or sizes.min() < 1 or sizes.sum() != n:
            raise ValueError(f"{self.device_type!r}: tree_nodes must be positive "
                             f"and sum to the {n} nodes")
        node = np.arange(n) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        size = np.repeat(sizes, sizes)
        internal = self.feature >= 0
        bad_child = internal & ~((node < self.left) & (self.left < size)
                                 & (node < self.right) & (self.right < size))
        bad_leaf = ~internal & (self.leaf_class != 0) & (self.leaf_class != 1)
        for bad, what in ((bad_child, "children must come after it in its tree"),
                          (bad_leaf, "a leaf's class must be 0 or 1")):
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError(f"{self.device_type!r}: node {i}: {what}")
        if self.feature.max() >= self.n_features:
            raise ValueError(f"{self.device_type!r}: a split feature is outside "
                             f"the {self.n_features} inputs")

    @property
    def n_trees(self) -> int:
        return len(self.tree_nodes)

    @property
    def trees(self) -> tuple:
        """Per tree, a namespace of its read-only slices of the node arrays."""
        ends = np.cumsum(self.tree_nodes).tolist()
        return tuple(SimpleNamespace(**{name: getattr(self, name)[end - size:end]
                                        for name in NODE_ARRAYS})
                     for size, end in zip(self.tree_nodes.tolist(), ends))

    def score_many(self, X: np.ndarray) -> np.ndarray:
        """Fraction of trees voting match, per row of X."""
        return _PackedForests([self]).votes(X)[:, 0] / self.n_trees


@dataclass(frozen=True)
class TypePrediction:
    device_type: str
    match: bool
    score: float


def train_type_classifier(device_type: str,
                          positives: np.ndarray, negative_pool: np.ndarray,
                          params: ForestParams = ForestParams(),
                          seed: int = 0) -> TypeClassifier:
    """Fit the forest for one type: positives vs 10x sampled negatives."""
    pos = fixed_matrix(positives)
    pool = fixed_matrix(negative_pool)
    n_pos = pos.shape[0]
    n_neg = NEGATIVES_PER_POSITIVE * n_pos
    if n_pos < 2:
        raise InsufficientData(f"{device_type!r}: need at least 2 positives, got {n_pos}")
    if pool.shape[0] < n_neg:
        raise InsufficientData(
            f"{device_type!r}: negative pool has {pool.shape[0]} rows, need {n_neg}")
    if pool.shape[1] != pos.shape[1]:
        raise DimensionMismatch(
            f"positives have {pos.shape[1]} features, pool has {pool.shape[1]}")

    max_features = math.ceil(math.sqrt(pos.shape[1]))
    seeds = np.random.SeedSequence(seed).spawn(params.n_trees + 1)
    neg_rows = np.random.default_rng(seeds[0]).choice(
        pool.shape[0], size=n_neg, replace=False)
    y = np.concatenate([np.ones(n_pos, dtype=np.int64),
                        np.zeros(n_neg, dtype=np.int64)])

    coded = _code_columns(np.vstack([pos, pool[neg_rows]]))
    forest = _grow_forest(coded, y, [np.random.default_rng(s) for s in seeds[1:]],
                          max_features)
    meta = {"n_positive": n_pos, "n_negative": n_neg, "seed": seed,
            "n_trees": params.n_trees, "max_features": max_features}
    return TypeClassifier(device_type=device_type, **forest,
                          n_features=pos.shape[1], training_meta=meta)


def fit_registry(X: np.ndarray, y: np.ndarray, types: Sequence[str],
                 params: ForestParams,
                 seeds: np.random.SeedSequence) -> ClassifierRegistry:
    """One classifier per type: rows with y == i against all other rows.

    Type i trains with a seed drawn from the i-th child of seeds.
    """
    registry = ClassifierRegistry()
    for i, (t, child) in enumerate(zip(types, seeds.spawn(len(types)))):
        seed_int = int(child.generate_state(1, np.uint64)[0])
        registry.add(train_type_classifier(t, X[y == i], X[y != i],
                                           params, seed=seed_int))
    return registry


def train_registry(db: Sequence[Fingerprint], params: ForestParams = ForestParams(),
                   seed: int = 0) -> ClassifierRegistry:
    """Train one classifier per label in a fingerprint store.

    Each type's negative pool is every fingerprint of the other types;
    per-type seeds are derived from the root seed in sorted type order.
    """
    labeled = [fp for fp in db if fp.label is not None]
    if not labeled:
        raise InsufficientData("store has no labeled fingerprints")
    types = sorted({fp.label for fp in labeled})
    if len(types) < 2:
        raise InsufficientData("need at least two device types to train")
    type_idx = {t: i for i, t in enumerate(types)}
    X = np.array([to_fixed(fp).values for fp in labeled], dtype=np.float64)
    y = np.array([type_idx[fp.label] for fp in labeled], dtype=np.int64)
    return fit_registry(X, y, types, params, np.random.SeedSequence(seed))


class ClassifierRegistry:
    """All per-type classifiers, keyed and iterated by type id.

    The forests are packed for scoring on first use; add drops the packing.
    """

    def __init__(self, classifiers: Iterable[TypeClassifier] = ()):
        self._by_type: dict[str, TypeClassifier] = {}
        self._packed: _PackedForests | None = None
        for clf in classifiers:
            self.add(clf)

    def add(self, clf: TypeClassifier) -> None:
        self._by_type[clf.device_type] = clf
        self._packed = None

    def get(self, device_type: str) -> TypeClassifier | None:
        return self._by_type.get(device_type)

    def types(self) -> list[str]:
        return sorted(self._by_type)

    def __len__(self) -> int:
        return len(self._by_type)

    def __contains__(self, device_type: str) -> bool:
        return device_type in self._by_type

    def __iter__(self):
        return iter(self._by_type[t] for t in self.types())

    def votes(self, X: np.ndarray) -> np.ndarray:
        """Match votes per row of X and classifier, in type-id order."""
        if self._packed is None:
            self._packed = _PackedForests(list(self))
        return self._packed.votes(X)


def predict_all(registry: ClassifierRegistry, x) -> list[TypePrediction]:
    """Run every classifier on one fingerprint, ordered by type id.

    A score is the fraction of a forest's trees voting match; ties at the
    threshold count as a match.
    """
    if len(registry) == 0:
        raise EmptyRegistry("no classifiers registered")
    X = np.array([x.values if isinstance(x, FixedFingerprint) else x],
                 dtype=np.float64)
    out = []
    for clf, votes in zip(registry, registry.votes(X)[0].tolist()):
        score = votes / clf.n_trees
        out.append(TypePrediction(device_type=clf.device_type,
                                  match=score >= MATCH_THRESHOLD, score=score))
    return out


def save_model(registry: ClassifierRegistry, path) -> None:
    """Write every classifier, node arrays included, as versioned JSON."""
    dump_versioned(path, MODEL_SCHEMA, {"classifiers": [
        {
            "device_type": clf.device_type,
            "n_features": clf.n_features,
            "training_meta": clf.training_meta,
            **{name: getattr(clf, name).tolist() for name in _FOREST_ARRAYS},
        }
        for clf in registry
    ]})


def _parse_model(doc: dict) -> ClassifierRegistry:
    return ClassifierRegistry(
        TypeClassifier(device_type=rec["device_type"],
                       **{name: rec[name] for name in _FOREST_ARRAYS},
                       n_features=int(rec["n_features"]),
                       training_meta=rec.get("training_meta", {}))
        for rec in doc["classifiers"])


def load_model(path) -> ClassifierRegistry:
    return load_versioned(path, MODEL_SCHEMA, "model file", _parse_model)

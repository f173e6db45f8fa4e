"""Per-type binary classifiers over fixed-width fingerprints.

Each device type gets its own random forest trained one-vs-rest: the type's
fingerprints against a sample of exactly ten negatives per positive drawn
from the other types.  A forest votes match when at least half of its trees
do.  Trees are plain CART: Gini impurity, uniform threshold splits on a
random feature subset per node, grown to purity on a bootstrap sample.

Everything is deterministic from one integer seed; retraining on identical
data yields bit-identical model files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (DimensionMismatch, EmptyRegistry, InsufficientData,
                     VersionMismatch)
from .fingerprint import Fingerprint, FixedFingerprint, to_fixed
from .jsonfile import dump_versioned, load_versioned

MODEL_SCHEMA = "iotfence-typemodel/1"
MATCH_THRESHOLD = 0.5
NEGATIVES_PER_POSITIVE = 10


@dataclass(frozen=True)
class ForestParams:
    """Forest shape; max_features=None means ceil(sqrt(feature count))."""

    n_trees: int = 100
    max_features: int | None = None

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be at least 1")
        if self.max_features is not None and self.max_features < 1:
            raise ValueError("max_features must be at least 1")


def fixed_matrix(fps: Sequence[FixedFingerprint] | np.ndarray) -> np.ndarray:
    """Stack fixed fingerprints into a float matrix, one row each."""
    if isinstance(fps, np.ndarray):
        arr = np.asarray(fps, dtype=np.float64)
        if arr.ndim != 2:
            raise DimensionMismatch(f"expected a 2-D matrix, got ndim={arr.ndim}")
        return arr
    return np.array([fp.values for fp in fps], dtype=np.float64)


class DecisionTree:
    """One CART tree stored as parallel node arrays.

    feature[i] is -1 for leaves; leaf_class[i] is -1 for internal nodes;
    votes[i] carries the bootstrap sample count that reached a leaf.  Node 0
    is the root, and every internal node's children come after it, so every
    walk from the root ends at a leaf within len(feature) steps.
    """

    __slots__ = ("feature", "threshold", "left", "right", "leaf_class", "votes")

    def __init__(self, feature, threshold, left, right, leaf_class, votes):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.leaf_class = np.asarray(leaf_class, dtype=np.int64)
        self.votes = np.asarray(votes, dtype=np.int64)
        n = len(self.feature)
        if n == 0 or not all(len(a) == n for a in (
                self.threshold, self.left, self.right, self.leaf_class, self.votes)):
            raise ValueError("tree arrays must be non-empty and of equal length")
        # trees are small: a plain loop beats a dozen array calls here
        for i, (feat, lo, hi, cls) in enumerate(zip(
                self.feature.tolist(), self.left.tolist(), self.right.tolist(),
                self.leaf_class.tolist())):
            if feat >= 0 and not (i < lo < n and i < hi < n):
                raise ValueError(f"node {i}: children must come after it")
            if feat < 0 and cls not in (0, 1):
                raise ValueError(f"leaf {i}: class must be 0 or 1")

    def to_dict(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "leaf_class": self.leaf_class.tolist(),
            "votes": self.votes.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "DecisionTree":
        return cls(doc["feature"], doc["threshold"], doc["left"],
                   doc["right"], doc["leaf_class"], doc["votes"])


def _grow_tree(X: np.ndarray, y: np.ndarray, rng: np.random.Generator,
               max_features: int) -> DecisionTree:
    """Fit one tree on a bootstrap of (X, y); split search is vectorized."""
    n_rows, n_feats = X.shape
    max_features = min(max_features, n_feats)

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    leaf_class: list[int] = []
    votes: list[int] = []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        leaf_class.append(-1)
        votes.append(0)
        return len(feature) - 1

    bootstrap = rng.integers(0, n_rows, n_rows)
    stack = [(new_node(), bootstrap)]
    while stack:
        node, rows = stack.pop()
        ys = y[rows]
        n = len(rows)
        n_pos = int(ys.sum())
        if n_pos == 0 or n_pos == n:
            leaf_class[node] = 1 if n_pos else 0
            votes[node] = n
            continue

        feats = rng.choice(n_feats, size=max_features, replace=False)
        Xn = X[np.ix_(rows, feats)]
        order = np.argsort(Xn, axis=0, kind="stable")
        Xs = np.take_along_axis(Xn, order, axis=0)
        pos_left = np.cumsum(ys[order], axis=0)[:-1].astype(np.float64)

        cnt_left = np.arange(1, n, dtype=np.float64)[:, None]
        cnt_right = n - cnt_left
        pos_right = n_pos - pos_left
        gini_left = 1.0 - (pos_left / cnt_left) ** 2 \
                        - ((cnt_left - pos_left) / cnt_left) ** 2
        gini_right = 1.0 - (pos_right / cnt_right) ** 2 \
                         - ((cnt_right - pos_right) / cnt_right) ** 2
        weighted = (cnt_left * gini_left + cnt_right * gini_right) / n
        # splits between equal values are impossible
        weighted[Xs[:-1] == Xs[1:]] = np.inf

        flat = int(np.argmin(weighted))  # ties: lowest split position, then
        i, j = divmod(flat, weighted.shape[1])  # first sampled feature
        if not np.isfinite(weighted[i, j]):
            # every sampled feature is constant here; settle for majority
            leaf_class[node] = int(2 * n_pos >= n)
            votes[node] = n
            continue

        feat = int(feats[j])
        thr = float((Xs[i, j] + Xs[i + 1, j]) / 2.0)
        go_left = X[rows, feat] <= thr
        feature[node] = feat
        threshold[node] = thr
        left_id = new_node()
        right_id = new_node()
        left[node] = left_id
        right[node] = right_id
        stack.append((right_id, rows[~go_left]))
        stack.append((left_id, rows[go_left]))

    return DecisionTree(feature, threshold, left, right, leaf_class, votes)


class _PackedForests:
    """Every tree of a list of classifiers in one set of flat node arrays.

    Node ids are global; leaves point to themselves, so walking every tree
    for as many steps as the deepest one has levels leaves each row at a
    leaf of each tree.  Trees are stored classifier by classifier, and
    starts holds the first tree of each.
    """

    def __init__(self, classifiers: Sequence[TypeClassifier]):
        trees = [tree for clf in classifiers for tree in clf.trees]
        sizes = np.array([len(tree.feature) for tree in trees])
        self.roots = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        self.starts = np.cumsum([0] + [clf.n_trees for clf in classifiers[:-1]])
        self.widths = {clf.n_features for clf in classifiers}
        feature = np.concatenate([tree.feature for tree in trees])
        internal = feature >= 0
        node = np.arange(len(feature))
        offset = np.repeat(self.roots, sizes)
        self.feature = np.where(internal, feature, 0)
        self.threshold = np.concatenate([tree.threshold for tree in trees])
        self.left, self.right = (
            np.where(internal, np.concatenate(child) + offset, node)
            for child in ([t.left for t in trees], [t.right for t in trees]))
        self.leaf_class = np.concatenate([tree.leaf_class for tree in trees])
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


@dataclass
class TypeClassifier:
    """A trained one-vs-rest forest for a single device type."""

    device_type: str
    trees: list[DecisionTree]
    n_features: int
    training_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.trees:
            raise ValueError(f"{self.device_type!r}: a forest needs a tree")
        if any(tree.feature.max() >= self.n_features for tree in self.trees):
            raise ValueError(f"{self.device_type!r}: a split feature is outside "
                             f"the {self.n_features} inputs")

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    def score_many(self, X: np.ndarray) -> np.ndarray:
        """Fraction of trees voting match, per row of X."""
        return _PackedForests([self]).votes(X)[:, 0] / self.n_trees


@dataclass(frozen=True)
class TypePrediction:
    device_type: str
    match: bool
    score: float


def train_type_classifier(device_type: str,
                          positives: Sequence[FixedFingerprint] | np.ndarray,
                          negative_pool: Sequence[FixedFingerprint] | np.ndarray,
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

    max_features = params.max_features or math.ceil(math.sqrt(pos.shape[1]))
    seeds = np.random.SeedSequence(seed).spawn(params.n_trees + 1)
    neg_rows = np.random.default_rng(seeds[0]).choice(
        pool.shape[0], size=n_neg, replace=False)
    X = np.vstack([pos, pool[neg_rows]])
    y = np.concatenate([np.ones(n_pos, dtype=np.int64),
                        np.zeros(n_neg, dtype=np.int64)])

    trees = [_grow_tree(X, y, np.random.default_rng(seeds[i + 1]), max_features)
             for i in range(params.n_trees)]
    meta = {"n_positive": n_pos, "n_negative": n_neg, "seed": seed,
            "n_trees": params.n_trees, "max_features": max_features}
    return TypeClassifier(device_type=device_type, trees=trees,
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
    """Write every classifier, trees included, as versioned JSON."""
    dump_versioned(path, MODEL_SCHEMA, {"classifiers": [
        {
            "device_type": clf.device_type,
            "n_features": clf.n_features,
            "training_meta": clf.training_meta,
            "trees": [tree.to_dict() for tree in clf.trees],
        }
        for clf in registry
    ]})


def _parse_model(doc: dict) -> ClassifierRegistry:
    return ClassifierRegistry(
        TypeClassifier(device_type=rec["device_type"],
                       trees=[DecisionTree.from_dict(t) for t in rec["trees"]],
                       n_features=int(rec["n_features"]),
                       training_meta=rec.get("training_meta", {}))
        for rec in doc["classifiers"])


def load_model(path) -> ClassifierRegistry:
    return load_versioned(path, MODEL_SCHEMA, "model file", _parse_model,
                          mismatch=VersionMismatch)

"""Forest training, the packed scoring walk, determinism, persistence."""

import hashlib
import json

import numpy as np
import pytest

from iotfence.errors import (CorruptFile, DimensionMismatch, EmptyRegistry,
                             InsufficientData, SchemaMismatch)
from iotfence.fingerprint import FIXED_LEN, to_fixed
from iotfence.harness import (CorpusNoise, SyntheticCorpusSpec, generate_corpus,
                              shuffle_labels)
from iotfence.jsonfile import dump_versioned
from iotfence.typemodel import (ClassifierRegistry, ForestParams,
                                MATCH_THRESHOLD, NEGATIVES_PER_POSITIVE,
                                TypeClassifier, _code_columns, _grow_forest,
                                fixed_matrix, load_model, predict_all,
                                save_model, train_type_classifier,
                                train_registry)

import oracles
from conftest import make_classifier, random_registry, tree_dict


def _separable(rng, n_pos=6, n_pool=80, width=20, gap=10.0):
    """Positives cluster high on feature 0, the pool clusters low."""
    pos = rng.normal(gap, 0.5, size=(n_pos, width))
    pool = rng.normal(0.0, 0.5, size=(n_pool, width))
    return pos, pool


def test_forest_separates_clustered_data():
    rng = np.random.default_rng(5)
    pos, pool = _separable(rng)
    clf = train_type_classifier("cam", pos, pool,
                                ForestParams(n_trees=25), seed=3)
    assert clf.score_many(rng.normal(10.0, 0.5, size=(1, 20)))[0] > 0.9
    assert clf.score_many(rng.normal(0.0, 0.5, size=(1, 20)))[0] < 0.1
    assert clf.n_trees == 25
    meta = clf.training_meta
    assert meta["n_negative"] == NEGATIVES_PER_POSITIVE * meta["n_positive"]
    assert meta["n_positive"] == 6


def test_training_is_deterministic(tmp_path):
    rng = np.random.default_rng(5)
    pos, pool = _separable(rng)
    a = train_type_classifier("cam", pos, pool, ForestParams(n_trees=10), seed=3)
    b = train_type_classifier("cam", pos, pool, ForestParams(n_trees=10), seed=3)
    save_model(ClassifierRegistry([a]), tmp_path / "a.json")
    save_model(ClassifierRegistry([b]), tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    c = train_type_classifier("cam", pos, pool, ForestParams(n_trees=10), seed=4)
    save_model(ClassifierRegistry([c]), tmp_path / "c.json")
    assert (tmp_path / "a.json").read_bytes() != (tmp_path / "c.json").read_bytes()


def test_training_data_requirements():
    rng = np.random.default_rng(5)
    pos, pool = _separable(rng)
    with pytest.raises(InsufficientData):
        train_type_classifier("cam", pos[:1], pool)
    with pytest.raises(InsufficientData):
        train_type_classifier("cam", pos, pool[:59])  # need 10 per positive
    with pytest.raises(DimensionMismatch):
        train_type_classifier("cam", pos, pool[:, :19])


def _assert_grows_like_reference(X, y, max_features, seeds):
    """The lockstep grower against the node-at-a-time oracle, tree by tree,
    with the same generators; both must also consume the same draws."""
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y)
    ours = [np.random.default_rng(s) for s in seeds]
    theirs = [np.random.default_rng(s) for s in seeds]
    forest = _grow_forest(_code_columns(X), y, ours, max_features)
    trees = TypeClassifier("t", **forest, n_features=X.shape[1]).trees
    assert len(trees) == len(seeds)
    for tree, rng, mine in zip(trees, theirs, ours):
        assert tree_dict(tree) == oracles.ref_grow_tree(X, y, rng, max_features)
        assert rng.bit_generator.state == mine.bit_generator.state
    return trees


def _one_vs_rest(db, label):
    X = np.array([to_fixed(fp).values for fp in db], dtype=np.float64)
    return X, np.array([fp.label == label for fp in db], dtype=np.int64)


def test_forest_grows_reference_trees_on_separable_data():
    rng = np.random.default_rng(5)
    pos, pool = _separable(rng, gap=3.0)
    X = np.vstack([pos, pool[:60]])
    y = np.r_[np.ones(6, dtype=np.int64), np.zeros(60, dtype=np.int64)]
    _assert_grows_like_reference(X, y, 5, range(40))


def test_forest_grows_reference_trees_on_shuffled_labels(small_corpus):
    shuffled = shuffle_labels(small_corpus, seed=3)
    X, y = _one_vs_rest(shuffled, shuffled[0].label)
    trees = _assert_grows_like_reference(X, y, 17, range(100, 120))
    assert max(_depth(t) for t in trees) >= 6


def test_forest_grows_reference_trees_on_jittered_duplicate_pair():
    spec = SyntheticCorpusSpec(n_types=6, fingerprints_per_type=10,
                               noise=CorpusNoise(size_jitter=2),
                               duplicated_type_pairs=((0, 1),))
    db = generate_corpus(spec, seed=21)
    for label in (spec.type_name(0), spec.type_name(1), spec.type_name(4)):
        X, y = _one_vs_rest(db, label)
        _assert_grows_like_reference(X, y, 17, range(30))


@pytest.mark.parametrize("X, y, max_features", [
    # identical columns and mirrored labels: equal Gini across sampled
    # features and across split positions
    ([[0, 0], [1, 1], [2, 2], [3, 3]], [1, 0, 0, 1], 2),
    ([[0, 5, 0], [1, 5, 1], [2, 5, 1], [3, 5, 0], [4, 5, 1]], [1, 0, 0, 0, 1], 3),
    # pure splits after one row on a column and after three on its mirror
    ([[0, 3], [1, 2], [2, 1], [3, 0]], [1, 0, 0, 0], 2),
    # every column constant on mixed labels: majority leaves, half goes to 1
    ([[7, 1], [7, 1], [7, 1], [7, 1]], [1, 0, 1, 0], 2),
    ([[7, 1], [7, 1], [7, 1]], [1, 0, 0], 1),
    # a one-value column next to informative ones, drawn one at a time
    ([[3, 0], [3, 1], [3, 2], [3, 3], [3, 4], [3, 5]], [0, 1, 0, 1, 1, 0], 1),
    # two rows: every bootstrap repeats one of them or holds both
    ([[0.5, 2], [1.5, 2]], [0, 1], 1),
    ([[-0.0, 1], [0.0, 2], [0.0, 1]], [0, 1, 1], 2),
])
def test_forest_grows_reference_trees_on_ties(X, y, max_features):
    _assert_grows_like_reference(X, y, max_features, range(60))


def test_forest_grows_reference_trees_on_few_distinct_values():
    rng = np.random.default_rng(0)
    for _ in range(40):
        n, width = int(rng.integers(2, 50)), int(rng.integers(1, 9))
        X = rng.integers(0, int(rng.integers(1, 5)), size=(n, width))
        y = rng.integers(0, 2, n)
        seeds = rng.integers(0, 2**32, 8)
        _assert_grows_like_reference(X, y, int(rng.integers(1, width + 1)), seeds)


def test_column_codes_index_sorted_distinct_values():
    X = np.random.default_rng(3).integers(0, 6, size=(40, 70)).astype(np.float64)
    X[:, 5] = 2.5   # a one-value column
    for data in (X, X[:, :1]):
        before = data.copy()
        codes, values, first = _code_columns(data)
        assert np.array_equal(data, before)   # coding never sorts its input
        for f in range(data.shape[1]):
            distinct, index = np.unique(data[:, f], return_inverse=True)
            assert values[first[f]:first[f + 1]].tolist() == distinct.tolist()
            assert (codes[f] == 2 * (first[f] + index)).all()


# sha256 of save_model for the store below: the trees of the node-at-a-time
# grower that tests/oracles.py keeps as ref_grow_tree, concatenated into the
# iotfence-typemodel/2 layout
PINNED_MODEL_SHA256 = "b91d5540df6257d7cd483e4c6dad0f9da2978161afab1802522f9db1ba05bc09"


def test_model_bytes_are_pinned(tmp_path):
    spec = SyntheticCorpusSpec(n_types=12, fingerprints_per_type=12,
                               noise=CorpusNoise(size_jitter=2),
                               duplicated_type_pairs=((0, 1),))
    registry = train_registry(generate_corpus(spec, seed=5),
                              ForestParams(n_trees=10), seed=11)
    save_model(registry, tmp_path / "model.json")
    digest = hashlib.sha256((tmp_path / "model.json").read_bytes()).hexdigest()
    assert digest == PINNED_MODEL_SHA256


def _reference_scores(registry: ClassifierRegistry, X: np.ndarray) -> list:
    """Per row, each classifier's score from the one-tree-at-a-time oracle."""
    return [[oracles.ref_forest_score([tree_dict(t) for t in clf.trees], list(row))
             for clf in registry] for row in X]


def _assert_packed_matches_reference(registry: ClassifierRegistry, X: np.ndarray):
    expect = _reference_scores(registry, X)
    for row, want in zip(X, expect):   # single rows, through predict_all
        assert [p.score for p in predict_all(registry, row)] == want
    batch = registry.votes(X)          # all rows at once
    assert [[v / clf.n_trees for clf, v in zip(registry, votes)]
            for votes in batch.tolist()] == expect
    for i, clf in enumerate(registry):
        assert clf.score_many(X).tolist() == [w[i] for w in expect]


def test_batch_scores_agree_with_single_rows():
    rng = np.random.default_rng(17)
    pos, pool = _separable(rng, gap=3.0)
    clf = train_type_classifier("cam", pos, pool, ForestParams(n_trees=20), seed=8)
    X = rng.normal(1.5, 2.0, size=(40, 20))
    _assert_packed_matches_reference(ClassifierRegistry([clf]), X)


# x0 <= 5 -> 0, else 1
_SPLIT = dict(feature=[0, -1, -1], threshold=[5.0, 0.0, 0.0], left=[1, -1, -1],
              right=[2, -1, -1], leaf_class=[-1, 0, 1])


def _stump(label: int) -> dict:
    return dict(feature=[-1], threshold=[0.0], left=[-1], right=[-1],
                leaf_class=[label])


def test_packed_walk_matches_reference_on_hand_built_trees():
    # deeper on the right: x1 <= 2 -> 1, else x0 <= 1 -> 0, else 1
    chain = dict(feature=[1, -1, 0, -1, -1], threshold=[2.0, 0.0, 1.0, 0.0, 0.0],
                 left=[1, -1, 3, -1, -1], right=[2, -1, 4, -1, -1],
                 leaf_class=[-1, 1, -1, 0, 1])
    registry = ClassifierRegistry([
        make_classifier("a", [_SPLIT, chain, _stump(1)], n_features=2),
        make_classifier("b", [_stump(0)], n_features=2),
        make_classifier("c", [chain, chain], n_features=2)])
    X = np.array([[5.0, 2.0], [5.1, 2.0], [4.0, 3.0], [1.0, 2.1],
                  [1.1, 9.0], [-1.0, -1.0]])
    _assert_packed_matches_reference(registry, X)
    assert [p.score for p in predict_all(registry, [5.0, 2.0])] == [2 / 3, 0.0, 1.0]


def test_packed_walk_matches_reference_on_random_trees():
    rng = np.random.default_rng(10)
    for _ in range(30):
        registry = random_registry(rng)
        X = rng.integers(0, 9, size=(7, FIXED_LEN)).astype(np.float64)
        for clf in registry:  # put row 0 on split thresholds exactly
            for tree in clf.trees:
                split = tree.feature >= 0
                X[0, tree.feature[split]] = tree.threshold[split]
        _assert_packed_matches_reference(registry, X)


def test_packed_walk_matches_reference_on_deep_trees(small_corpus):
    shuffled = shuffle_labels(small_corpus, seed=3)
    registry = train_registry(shuffled, ForestParams(n_trees=10), seed=5)
    depth = max(_depth(t) for clf in registry for t in clf.trees)
    assert depth >= 6  # label noise grows deep trees
    X = np.array([to_fixed(fp).values for fp in small_corpus[::5]],
                 dtype=np.float64)
    _assert_packed_matches_reference(registry, X)


def _depth(tree, node: int = 0) -> int:
    if tree.feature[node] < 0:
        return 0
    return 1 + max(_depth(tree, tree.left[node]), _depth(tree, tree.right[node]))


def test_trees_grow_to_purity():
    rng = np.random.default_rng(2)
    pos, pool = _separable(rng, gap=3.0)
    clf = train_type_classifier("cam", pos, pool, ForestParams(n_trees=5), seed=1)
    for tree in clf.trees:
        internal = tree.feature >= 0
        assert np.all(tree.leaf_class[internal] == -1)
        leaves = ~internal
        assert np.all(np.isin(tree.leaf_class[leaves], (0, 1)))
        # children of internal nodes point at real nodes
        n = len(tree.feature)
        assert np.all(tree.left[internal] >= 0) and np.all(tree.left < n)
        assert np.all(tree.right[internal] >= 0) and np.all(tree.right < n)


def test_threshold_tie_counts_as_match():
    clf = make_classifier("cam", [_stump(1), _stump(0)], n_features=4)
    [pred] = predict_all(ClassifierRegistry([clf]), [0.0, 0.0, 0.0, 0.0])
    assert pred.score == MATCH_THRESHOLD
    assert pred.match is True


def test_hand_built_tree_walks_both_branches():
    clf = make_classifier("cam", [_SPLIT], n_features=1)
    assert clf.score_many(np.array([[5.0]])).tolist() == [0.0]  # boundary goes left
    assert clf.score_many(np.array([[5.1]])).tolist() == [1.0]
    assert clf.score_many(np.array([[4.0], [6.0]])).tolist() == [0.0, 1.0]
    assert [tree_dict(t) for t in clf.trees] == [_SPLIT]
    with pytest.raises(ValueError):  # the node arrays are read-only
        clf.threshold[0] = 9.0


def test_malformed_trees_are_rejected():
    # two copies of _SPLIT; children are numbered within their own tree
    good = {name: value * 2 for name, value in _SPLIT.items()}
    good["tree_nodes"] = [3, 3]
    assert TypeClassifier("cam", **good, n_features=1).n_trees == 2
    for field, value in [
            ("left", [0, -1, -1, 1, -1, -1]),    # a root that is its own child
            ("right", [2, -1, -1, 0, -1, -1]),
            ("right", [3, -1, -1, 2, -1, -1]),   # a child in the next tree
            ("left", [-1, -1, -1, 1, -1, -1]),   # a split with no left child
            ("tree_nodes", [6]),                 # node 3's children come before it
            ("tree_nodes", [2, 4]),              # node 2 is outside the first tree
            ("leaf_class", [-1, 0, 1, -1, 0, 2]),
            ("leaf_class", [-1, 0, 1, -1, 0, -1]),
            ("threshold", [5.0, 0.0, 0.0, 5.0, 0.0]),   # unequal lengths
            ("feature", [0, -1, -1, 0, -1, -1, -1]),
            ("feature", [[0, -1, -1, 0, -1, -1]]),      # not flat
            ("tree_nodes", [3, 0, 3]),                  # an empty tree
            ("tree_nodes", [3, 2]),                     # counts sum short
            ("tree_nodes", [3, 4])]:
        with pytest.raises(ValueError):
            TypeClassifier("cam", **{**good, field: value}, n_features=1)
    with pytest.raises(ValueError):  # a split on an input the forest lacks
        TypeClassifier("cam", **good, n_features=0)
    with pytest.raises(ValueError):  # no trees
        make_classifier("cam", [], n_features=1)


def test_load_model_rejects_malformed_trees(tmp_path, small_registry):
    path = tmp_path / "model.json"
    save_model(small_registry, path)
    good = json.loads(path.read_text())
    rec = good["classifiers"][0]
    roots = np.cumsum([0] + rec["tree_nodes"][:-1]).tolist()
    second = next(r for r in roots[1:] if rec["feature"][r] >= 0)
    for field, node, value in [
            ("left", 0, 0),                        # a root that is its own child
            ("right", second, 0),                  # a later root its own child
            ("right", 0, rec["tree_nodes"][0]),    # a child in the next tree
            ("feature", 0, 999),                   # an input the model lacks
            ("leaf_class", rec["feature"].index(-1), 2),
            ("tree_nodes", 0, 0),                  # an empty tree
            ("tree_nodes", 0, rec["tree_nodes"][0] + 1)]:   # counts sum past n
        doc = json.loads(json.dumps(good))
        doc["classifiers"][0][field][node] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptFile):
            load_model(path)
    for edit in [{"threshold": rec["threshold"][:-1]},        # unequal lengths
                 {"tree_nodes": rec["tree_nodes"] + [1]},
                 {"feature": [], "threshold": [], "left": [], "right": [],
                  "leaf_class": [], "tree_nodes": []}]:      # no trees
        doc = json.loads(json.dumps(good))
        doc["classifiers"][0].update(edit)
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptFile):
            load_model(path)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_numbers_are_neither_read_nor_written(tmp_path, small_registry,
                                                         value):
    path = tmp_path / "model.json"
    save_model(small_registry, path)
    doc = json.loads(path.read_text())
    doc["classifiers"][0]["threshold"][0] = value
    path.write_text(json.dumps(doc))  # as the token NaN, Infinity or -Infinity
    with pytest.raises(CorruptFile, match="model file is not valid JSON"):
        load_model(path)
    with pytest.raises(ValueError):
        dump_versioned(path, "iotfence-typemodel/2", {"threshold": value})


def test_fixed_matrix_shapes():
    arr = fixed_matrix(np.zeros((3, 5)))
    assert arr.shape == (3, 5)
    with pytest.raises(DimensionMismatch):
        fixed_matrix(np.zeros(5))


def test_score_dimension_checks():
    rng = np.random.default_rng(5)
    pos, pool = _separable(rng)
    clf = train_type_classifier("cam", pos, pool, ForestParams(n_trees=5), seed=0)
    with pytest.raises(DimensionMismatch):
        predict_all(ClassifierRegistry([clf]), [0.0] * 19)
    with pytest.raises(DimensionMismatch):
        clf.score_many(np.zeros((2, 19)))
    with pytest.raises(DimensionMismatch):
        predict_all(ClassifierRegistry([clf]), np.zeros((1, 20)))


def test_registry_basics(small_corpus, small_registry):
    types = sorted({fp.label for fp in small_corpus})
    assert small_registry.types() == types
    assert len(small_registry) == len(types)
    assert types[0] in small_registry
    assert small_registry.get(types[0]).device_type == types[0]
    assert small_registry.get("no-such-type") is None
    assert [c.device_type for c in small_registry] == types
    assert all(c.n_features == FIXED_LEN for c in small_registry)


def test_registry_identifies_training_fingerprints(small_corpus, small_registry):
    hits = 0
    for fp in small_corpus[::10]:
        preds = predict_all(small_registry, to_fixed(fp))
        assert [p.device_type for p in preds] == small_registry.types()
        best = max(preds, key=lambda p: p.score)
        hits += best.device_type == fp.label and best.match
    assert hits >= len(small_corpus[::10]) - 1


def test_registry_add_repacks():
    registry = ClassifierRegistry([make_classifier("b", [_stump(1)], n_features=1)])
    assert [p.score for p in predict_all(registry, [0.0])] == [1.0]
    registry.add(make_classifier("a", [_stump(0)], n_features=1))
    registry.add(make_classifier("b", [_stump(0), _stump(1)], n_features=1))
    assert [(p.device_type, p.score) for p in predict_all(registry, [0.0])] == \
        [("a", 0.0), ("b", 0.5)]


def test_predict_all_requires_classifiers():
    with pytest.raises(EmptyRegistry):
        predict_all(ClassifierRegistry(), [0.0] * FIXED_LEN)


def test_train_registry_needs_labels_and_types(small_corpus):
    import dataclasses
    with pytest.raises(InsufficientData):
        train_registry([dataclasses.replace(fp, label=None)
                        for fp in small_corpus])
    one_type = [fp for fp in small_corpus if fp.label == small_corpus[0].label]
    with pytest.raises(InsufficientData):
        train_registry(one_type)


def test_model_round_trip(tmp_path, small_registry):
    path = tmp_path / "model.json"
    save_model(small_registry, path)
    loaded = load_model(path)
    assert loaded.types() == small_registry.types()
    rng = np.random.default_rng(0)
    X = rng.integers(0, 500, size=(5, FIXED_LEN)).astype(np.float64)
    for t in small_registry.types():
        a, b = small_registry.get(t), loaded.get(t)
        assert a.training_meta == b.training_meta
        assert a.score_many(X).tolist() == b.score_many(X).tolist()
        assert [tree_dict(t1) for t1 in a.trees] == [tree_dict(t2) for t2 in b.trees]


def test_load_model_rejects_bad_files(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("][")
    with pytest.raises(CorruptFile):
        load_model(path)
    path.write_text(json.dumps({"schema": "iotfence-typemodel/999",
                                "classifiers": []}))
    with pytest.raises(SchemaMismatch, match="model file"):
        load_model(path)
    path.write_text(json.dumps({"schema": "iotfence-typemodel/2",
                                "classifiers": [{"device_type": "x"}]}))
    with pytest.raises(CorruptFile):
        load_model(path)
    # a model of the per-tree format must be retrained, not read
    path.write_text(json.dumps({"schema": "iotfence-typemodel/1", "classifiers": [
        {"device_type": "x", "n_features": 1, "trees": [_stump(1)]}]}))
    with pytest.raises(SchemaMismatch, match="model file"):
        load_model(path)


def test_forest_params_validation():
    with pytest.raises(ValueError):
        ForestParams(n_trees=0)

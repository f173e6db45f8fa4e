import numpy as np
import pytest

from iotfence.fingerprint import FIXED_LEN, Fingerprint, build_fingerprint
from iotfence.harness import CorpusNoise, SyntheticCorpusSpec, generate_corpus
from iotfence.ingest import FEATURE_NAMES, PacketFeatures
from iotfence.typemodel import (NODE_ARRAYS, ClassifierRegistry, ForestParams,
                                TypeClassifier, train_registry)


def make_features(**overrides) -> PacketFeatures:
    """A feature vector that is all zeros except the given fields."""
    values = dict.fromkeys(FEATURE_NAMES, 0)
    values.update(overrides)
    return PacketFeatures(**values)


def random_features(rng: np.random.Generator) -> PacketFeatures:
    """One random but internally consistent feature vector."""
    kind = rng.integers(0, 4)
    kw: dict = {"size": int(rng.integers(14, 1500))}
    if kind == 0:
        kw.update(arp=1)
    elif kind == 1:
        kw.update(llc=1, raw_data=int(rng.integers(0, 2)))
    else:
        kw.update(ip=1, dest_ip_counter=int(rng.integers(1, 6)),
                  raw_data=int(rng.integers(0, 2)))
        if kind == 2:
            kw.update(tcp=1)
        else:
            kw.update(udp=1)
        kw.update(src_port_class=int(rng.integers(1, 4)),
                  dst_port_class=int(rng.integers(1, 4)))
        if rng.random() < 0.2:
            kw.update(dns=1)
    return make_features(**kw)


def random_fingerprint(rng: np.random.Generator, mac: str = "02-00-00-00-00-01",
                       label: str | None = None,
                       max_packets: int = 30) -> Fingerprint:
    n = int(rng.integers(1, max_packets + 1))
    return build_fingerprint(mac, [random_features(rng) for _ in range(n)],
                             label=label)


def random_tree(rng: np.random.Generator) -> dict:
    """A random tree of depth at most 3, as a dict of node lists."""
    feature, threshold, left, right, leaf_class = [], [], [], [], []

    def grow(depth: int) -> int:
        idx = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        leaf_class.append(-1)
        if depth >= 3 or rng.random() < 0.4:
            leaf_class[idx] = int(rng.integers(0, 2))
        else:
            feature[idx] = int(rng.integers(0, FIXED_LEN))
            threshold[idx] = float(rng.random() * 8)
            left[idx] = grow(depth + 1)
            right[idx] = grow(depth + 1)
        return idx

    grow(0)
    return dict(feature=feature, threshold=threshold, left=left, right=right,
                leaf_class=leaf_class)


def make_classifier(device_type: str, trees: list, n_features: int,
                    training_meta: dict | None = None) -> TypeClassifier:
    """A classifier whose forest is the given tree dicts, in order."""
    return TypeClassifier(
        device_type,
        **{name: [x for tree in trees for x in tree[name]] for name in NODE_ARRAYS},
        tree_nodes=[len(tree["feature"]) for tree in trees],
        n_features=n_features, training_meta=training_meta or {})


def tree_dict(tree) -> dict:
    """One of TypeClassifier.trees as a dict of node lists."""
    return {name: getattr(tree, name).tolist() for name in NODE_ARRAYS}


def random_registry(rng: np.random.Generator) -> ClassifierRegistry:
    registry = ClassifierRegistry()
    for t in range(int(rng.integers(1, 4))):
        registry.add(make_classifier(
            f"type{t:02d}",
            [random_tree(rng) for _ in range(int(rng.integers(1, 4)))],
            n_features=FIXED_LEN,
            training_meta={"seed": int(rng.integers(0, 999)),
                           "n_positive": int(rng.integers(2, 30))}))
    return registry


# 12 types keeps every one-vs-rest negative pool at the required ten
# negatives per positive: 11 other types x 12 fingerprints = 132 >= 120
@pytest.fixture(scope="session")
def small_corpus():
    spec = SyntheticCorpusSpec(n_types=12, fingerprints_per_type=12,
                               noise=CorpusNoise(drop_prob=0.05))
    return generate_corpus(spec, seed=1234)


@pytest.fixture(scope="session")
def small_registry(small_corpus):
    return train_registry(small_corpus, ForestParams(n_trees=25), seed=99)

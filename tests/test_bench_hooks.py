"""The benchmark's per-layer trace finds every function it wraps by name.

bench/tracing.py replaces package functions and methods by name; a renamed
or deleted one would otherwise only show up when a traced benchmark run
fails.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _package_state() -> dict:
    from iotfence.enforce import RuleCache
    from iotfence.typemodel import TypeClassifier
    state = {(name, attr): value
             for name, mod in list(sys.modules.items())
             if name == "iotfence" or name.startswith("iotfence.")
             for attr, value in vars(mod).items()}
    for cls in (TypeClassifier, RuleCache):
        state.update({(cls.__name__, attr): value
                      for attr, value in vars(cls).items()})
    return state


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    return tracing


def test_trace_install_wraps_and_uninstall_restores(tracing):
    before = _package_state()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _package_state()
        wrapped = {key for key, value in before.items() if during[key] is not value}
        for key in [("iotfence.typemodel", "predict_all"),
                    ("iotfence.typemodel", "train_type_classifier"),
                    ("iotfence.typemodel", "load_model"),
                    ("iotfence.identify", "identify"),
                    ("iotfence.harness", "identify"),
                    ("iotfence.harness", "cross_validate"),
                    ("TypeClassifier", "score_many"),
                    ("RuleCache", "update")]:
            assert key in wrapped
    finally:
        tracer.uninstall()
    after = _package_state()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_fit_registry_trains_each_type_through_the_module_global(monkeypatch,
                                                                small_corpus):
    """The trace's per-classifier training metrics count these calls."""
    import numpy as np
    from iotfence import typemodel
    from iotfence.fingerprint import to_fixed

    trained = []
    real = typemodel.train_type_classifier

    def counting(device_type, *args, **kwargs):
        trained.append(device_type)
        return real(device_type, *args, **kwargs)

    monkeypatch.setattr(typemodel, "train_type_classifier", counting)
    types = sorted({fp.label for fp in small_corpus})
    X = np.array([to_fixed(fp).values for fp in small_corpus], dtype=np.float64)
    y = np.array([types.index(fp.label) for fp in small_corpus])
    registry = typemodel.fit_registry(X, y, types, typemodel.ForestParams(n_trees=2),
                                      np.random.SeedSequence(1))
    assert trained == types == registry.types()


def test_trace_counts_the_trees_and_nodes_of_each_trained_classifier(tracing,
                                                                    small_corpus):
    """The trace reads TypeClassifier.trees after train_type_classifier."""
    import numpy as np
    from iotfence import typemodel
    from iotfence.fingerprint import to_fixed

    X = np.array([to_fixed(fp).values for fp in small_corpus], dtype=np.float64)
    is_first = np.array([fp.label == small_corpus[0].label for fp in small_corpus])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        clf = typemodel.train_type_classifier(
            "cam", X[is_first], X[~is_first], typemodel.ForestParams(n_trees=3), seed=1)
    finally:
        tracer.uninstall()
    assert tracer.counters["typemodel.classifiers_trained"] == 1
    assert tracer.counters["typemodel.trees"] == clf.n_trees == 3
    assert tracer.counters["typemodel.tree_nodes"] == len(clf.feature) > 3

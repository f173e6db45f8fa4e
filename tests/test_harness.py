"""Corpus generation and the cross-validation harness."""

import json

import numpy as np
import pytest

from iotfence.fingerprint import FIXED_LEN, to_fixed
from iotfence.harness import (CorpusNoise, EvaluationReport,
                              SyntheticCorpusSpec, cross_validate,
                              generate_corpus, shuffle_labels)


def test_noise_validation():
    with pytest.raises(ValueError):
        CorpusNoise(drop_prob=1.0)
    with pytest.raises(ValueError):
        CorpusNoise(drop_prob=-0.1)
    with pytest.raises(ValueError):
        CorpusNoise(size_jitter=-1)


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticCorpusSpec(n_types=0)
    with pytest.raises(ValueError):
        SyntheticCorpusSpec(n_types=2, packets_min=0)
    with pytest.raises(ValueError):
        SyntheticCorpusSpec(n_types=2, packets_min=9, packets_max=8)
    with pytest.raises(ValueError):
        SyntheticCorpusSpec(n_types=2, burst_min=0)
    with pytest.raises(ValueError):
        SyntheticCorpusSpec(n_types=2, burst_min=3, burst_max=2)
    with pytest.raises(ValueError):
        SyntheticCorpusSpec(n_types=2, duplicated_type_pairs=((0, 2),))
    with pytest.raises(ValueError):
        SyntheticCorpusSpec(n_types=2, duplicated_type_pairs=((1, 1),))
    assert SyntheticCorpusSpec(n_types=2).type_name(1) == "type01"
    assert SyntheticCorpusSpec(n_types=120).type_name(7) == "type007"


def test_generate_corpus_shape_and_determinism():
    spec = SyntheticCorpusSpec(n_types=4, fingerprints_per_type=3,
                               noise=CorpusNoise(drop_prob=0.1, size_jitter=2))
    a = generate_corpus(spec, seed=5)
    b = generate_corpus(spec, seed=5)
    assert a == b
    assert len(a) == 12
    assert [fp.label for fp in a] == [f"type0{t}" for t in range(4)
                                      for _ in range(3)]
    assert len({fp.device_mac for fp in a}) == 12
    c = generate_corpus(spec, seed=6)
    assert c != a


def test_generated_types_differ_without_noise():
    spec = SyntheticCorpusSpec(n_types=5, fingerprints_per_type=2)
    db = generate_corpus(spec, seed=0)
    # noiseless realizations collapse to their type's base exactly
    by_label: dict = {}
    for fp in db:
        by_label.setdefault(fp.label, []).append(fp.columns)
    for cols in by_label.values():
        assert cols[0] == cols[1]
    bases = [cols[0] for cols in by_label.values()]
    assert len({tuple(c.as_tuple() for c in b) for b in bases}) == 5


def test_duplicated_pair_shares_base():
    spec = SyntheticCorpusSpec(n_types=3, fingerprints_per_type=2,
                               duplicated_type_pairs=((0, 2),))
    db = generate_corpus(spec, seed=0)
    first = {fp.label: fp.columns for fp in db}
    assert first["type00"] == first["type02"]
    assert first["type00"] != first["type01"]


def test_shuffle_labels_permutes_only_labels():
    spec = SyntheticCorpusSpec(n_types=4, fingerprints_per_type=5)
    db = generate_corpus(spec, seed=1)
    shuffled = shuffle_labels(db, seed=3)
    assert shuffle_labels(db, seed=3) == shuffled
    assert sorted(fp.label for fp in shuffled) == sorted(fp.label for fp in db)
    assert [fp.label for fp in shuffled] != [fp.label for fp in db]
    for before, after in zip(db, shuffled):
        assert before.columns == after.columns
        assert before.device_mac == after.device_mac


def test_cross_validate_report(small_corpus):
    report = cross_validate(small_corpus, folds=3, repeats=2, seed=9)
    n_types = len({fp.label for fp in small_corpus})
    assert report.types == sorted({fp.label for fp in small_corpus})
    conf = np.array(report.confusion)
    assert conf.shape == (n_types, n_types + 1)
    # every fingerprint is identified once per repeat
    assert conf.sum() == len(small_corpus) * 2
    per_type_rows = conf.sum(axis=1)
    assert set(per_type_rows.tolist()) == {24}  # 12 fps x 2 repeats
    assert 0.0 <= report.global_accuracy <= 1.0
    assert report.global_accuracy == pytest.approx(
        np.trace(conf[:, :n_types]) / conf.sum())
    for t, acc in report.per_type_accuracy.items():
        i = report.types.index(t)
        assert acc == pytest.approx(conf[i, i] / per_type_rows[i])
    assert report.folds == 3 and report.repeats == 2 and report.seed == 9
    assert report.n_fingerprints == len(small_corpus)
    assert report.timing["identifications"] == conf.sum()


def test_cross_validate_is_deterministic(small_corpus):
    a = cross_validate(small_corpus, folds=3, repeats=1, seed=4)
    b = cross_validate(small_corpus, folds=3, repeats=1, seed=4)
    assert a.to_json() == b.to_json()
    c = cross_validate(small_corpus, folds=3, repeats=1, seed=5)
    assert c.to_json() != a.to_json()


def test_cross_validate_validation(small_corpus):
    import dataclasses
    with pytest.raises(ValueError):
        cross_validate(small_corpus, folds=1)
    with pytest.raises(ValueError):
        cross_validate(small_corpus, repeats=0)
    with pytest.raises(ValueError):
        cross_validate([dataclasses.replace(small_corpus[0], label=None)])
    only = [fp for fp in small_corpus if fp.label == small_corpus[0].label]
    with pytest.raises(ValueError):
        cross_validate(only)


def test_report_json_canonical_and_timing_optional(small_corpus):
    report = cross_validate(small_corpus, folds=3, repeats=1, seed=4)
    doc = json.loads(report.to_json())
    assert "timing" not in doc and "train_ms_total" not in report.to_json()
    timed = json.loads(report.to_json(include_timing=True))
    # training is summed over the folds, timed around each fold's forests
    assert timed["timing"]["train_ms_total"] > 0
    # canonical: stable key order, no whitespace
    assert report.to_json() == json.dumps(doc, sort_keys=True,
                                          separators=(",", ":"))
    assert set(doc["config"]) == {"folds", "repeats", "seed", "refs_per_type",
                                  "n_fingerprints", "n_trees"}

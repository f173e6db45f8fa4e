"""Edit distance against brute-force and full-table oracles, plus scoring semantics."""

import importlib

import numpy as np
import pytest

from iotfence.discriminate import (MAX_REFERENCES, dl_distance, discriminate,
                                   normalized_distance, score_type,
                                   select_references)
from iotfence.errors import BothEmpty, NoReferences
from iotfence.fingerprint import build_fingerprint
from iotfence.harness import SyntheticCorpusSpec, generate_corpus

from conftest import make_features, random_fingerprint
from oracles import dl_oracle, ref_dl_table

# the package exports a function of the same name as this module
discriminate_module = importlib.import_module("iotfence.discriminate")


def test_known_distances():
    assert dl_distance("", "") == 0
    assert dl_distance("", "abc") == 3
    assert dl_distance("abc", "") == 3
    assert dl_distance("abc", "abc") == 0
    assert dl_distance("ab", "ba") == 1            # one adjacent swap
    assert dl_distance("abcd", "abdc") == 1
    assert dl_distance("kitten", "sitting") == 3
    # swaps may not overlap: CA -> AC -> ABC is illegal reuse of the A
    assert dl_distance("ca", "abc") == 3


def test_matches_oracle_on_random_sequences():
    rng = np.random.default_rng(99)
    memo: dict = {}
    for _ in range(400):
        n, m = rng.integers(0, 9, size=2)
        a = tuple(int(v) for v in rng.integers(0, 4, size=n))
        b = tuple(int(v) for v in rng.integers(0, 4, size=m))
        assert dl_distance(a, b) == dl_oracle(a, b, memo), (a, b)


def _agrees_with_table(a, b):
    want = ref_dl_table(a, b)
    assert dl_distance(a, b) == want, (len(a), len(b))
    assert dl_distance(b, a) == want, (len(b), len(a))   # symmetric


# bit vectors cross a 64-bit machine word at 64 and 128 rows
WORD_EDGES = (63, 64, 65, 127, 128, 129)


@pytest.mark.parametrize("alphabet", (1, 2, 300))
def test_matches_table_across_lengths(alphabet):
    rng = np.random.default_rng(alphabet)
    lengths = sorted({*range(0, 12), *WORD_EDGES, 200, 333, 500, 520})
    for n in lengths:
        for m in {n, max(n - 1, 0), n + 1, int(rng.integers(0, 521))}:
            a = rng.integers(0, alphabet, size=n).tolist()
            b = rng.integers(0, alphabet, size=m).tolist()
            _agrees_with_table(a, b)


def test_matches_table_on_adjacent_swaps():
    rng = np.random.default_rng(5)
    for n in (2, 3, 25, *WORD_EDGES, 300):
        base = rng.integers(0, 4, size=n).tolist()
        for stride in (1, 2, 3):
            # stride 1 swaps overlap, which the restricted distance may not chain
            swapped = list(base)
            for i in range(0, n - 1, stride):
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            _agrees_with_table(base, swapped)
        distinct = list(range(n))
        for i in range(0, n - 1, 2):
            distinct[i], distinct[i + 1] = distinct[i + 1], distinct[i]
        assert dl_distance(list(range(n)), distinct) == n // 2


def test_matches_table_on_long_fingerprints():
    spec = SyntheticCorpusSpec(n_types=2, fingerprints_per_type=3,
                               packets_min=300, packets_max=300,
                               burst_min=1, burst_max=1,
                               duplicated_type_pairs=((0, 1),))
    corpus = generate_corpus(spec, seed=3)
    assert max(len(fp) for fp in corpus) > 129
    for i, a in enumerate(corpus):
        for b in corpus[i:]:
            want = ref_dl_table(a.columns, b.columns)
            assert dl_distance(a, b) == dl_distance(b, a) == want


def test_accepts_fingerprints_as_sequences():
    a = make_features(arp=1, size=42)
    b = make_features(llc=1, size=60)
    c = make_features(eapol=1, size=90)
    fp1 = build_fingerprint("02-00-00-00-00-01", [a, b, c])
    fp2 = build_fingerprint("02-00-00-00-00-02", [b, a, c])
    assert dl_distance(fp1, fp2) == 1
    assert dl_distance(fp1, fp1) == 0
    assert normalized_distance(fp1, fp2) == pytest.approx(1 / 3)


def test_normalized_distance_range_and_empty():
    assert normalized_distance("abc", "abc") == 0.0
    assert normalized_distance("abc", "xyz") == 1.0
    assert normalized_distance("ab", "abcd") == 0.5
    with pytest.raises(BothEmpty):
        normalized_distance([], [])


def test_score_type_rescales_by_reference_count(monkeypatch):
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return dl_distance(a, b)

    monkeypatch.setattr(discriminate_module, "dl_distance", counting)
    one = score_type("cam", "abcd", ["abcd"])
    assert one.score == 0.0 and len(calls) == 1
    # one ref at distance 1/2 counts five-fold
    half = score_type("cam", "ab", ["abcd"])
    assert half.score == pytest.approx(2.5)
    calls.clear()
    full = score_type("cam", "ab", ["abcd"] * MAX_REFERENCES)
    assert full.score == pytest.approx(2.5)
    assert len(calls) == MAX_REFERENCES


def test_score_type_bounds_and_errors():
    worst = score_type("cam", "ab", ["xy"] * 3)
    assert worst.score == pytest.approx(5.0)
    with pytest.raises(NoReferences):
        score_type("cam", "ab", [])
    with pytest.raises(ValueError):
        score_type("cam", "ab", ["xy"] * 6)


def test_discriminate_picks_smallest_score():
    q = "abcdef"
    near = ["abcdxf", "abcdef"]
    far = ["zzzzzz", "azzzzz"]
    assert discriminate(q, [("far", far), ("near", near)]) == "near"


def test_discriminate_breaks_ties_lexicographically():
    q = "abc"
    assert discriminate(q, [("beta", ["abc"]), ("alpha", ["abc"])]) == "alpha"


def test_discriminate_needs_two_candidates():
    with pytest.raises(ValueError):
        discriminate("abc", [("only", ["abc"])])


def test_select_references_recency_and_sampling():
    rng = np.random.default_rng(0)
    pool = [random_fingerprint(rng, mac=f"02-00-00-00-00-{i:02X}", label="cam")
            for i in range(1, 9)]
    other = [random_fingerprint(rng, label="plug") for _ in range(3)]
    db = other[:1] + pool + other[1:]

    assert select_references(db, "cam", k=3) == pool[-3:]
    assert select_references(db, "cam") == pool[-MAX_REFERENCES:]

    few = select_references(db, "plug", k=MAX_REFERENCES)
    assert few == other  # fewer than k: everything, store order

    sampled = select_references(db, "cam", k=4, rng=np.random.default_rng(42))
    again = select_references(db, "cam", k=4, rng=np.random.default_rng(42))
    assert sampled == again
    assert len(sampled) == 4
    positions = [pool.index(fp) for fp in sampled]
    assert positions == sorted(positions)  # store order survives sampling


def test_select_references_errors():
    rng = np.random.default_rng(0)
    db = [random_fingerprint(rng, label="cam")]
    with pytest.raises(NoReferences):
        select_references(db, "missing")
    with pytest.raises(ValueError):
        select_references(db, "cam", k=0)
    with pytest.raises(ValueError):
        select_references(db, "cam", k=MAX_REFERENCES + 1)

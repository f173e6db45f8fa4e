"""Dissimilarity scoring between fingerprints.

When more than one per-type classifier claims a device, the tie is broken by
edit distance over packet vectors: the cheapest way to turn one fingerprint's
column sequence into another using insert / delete / substitute / swap of two
adjacent columns (each costing 1, adjacent swaps non-overlapping).  Distances
are normalized by the longer sequence and summed over up to five reference
fingerprints per candidate type; the smallest total wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .errors import BothEmpty, NoReferences
from .fingerprint import Fingerprint

MAX_REFERENCES = 5


def _symbols(x) -> Sequence[Hashable]:
    return x.columns if isinstance(x, Fingerprint) else x


def dl_distance(a, b) -> int:
    """Edit distance with adjacent transpositions between two sequences.

    Accepts fingerprints or any sequences of hashable symbols.  Hyyrö's
    bit-parallel restricted Damerau-Levenshtein (Nordic J. Computing 2003):
    bit i of each Python int holds row i of the DP table's current column.
    """
    xs, ys = _symbols(a), _symbols(b)
    n = len(xs)
    if n == 0 or len(ys) == 0:
        return max(n, len(ys))
    match: dict = {}  # symbol -> bits of the rows where xs holds it
    for i, s in enumerate(xs):
        match[s] = match.get(s, 0) | (1 << i)
    ones, top = (1 << n) - 1, 1 << (n - 1)
    # vertical +1 and -1 deltas, zero diagonal deltas, previous match bits
    vp, vn, d0, prev_pm, score = ones, 0, 0, 0, n
    for s in ys:
        pm = match.get(s, 0)
        # transposition: xs[i-1] == ys[j], xs[i] == ys[j-1], and row i-1's
        # diagonal delta in the previous column was 0
        swap = (((~d0) & pm) << 1) & prev_pm
        d0 = (((pm & vp) + vp) ^ vp) | pm | vn | swap
        hp = vn | ~(d0 | vp)
        hn = vp & d0
        score += ((hp & top) != 0) - ((hn & top) != 0)
        hp = (hp << 1) | 1  # row 0 of column j is j: always +1
        hn <<= 1
        vp = (hn | ~(d0 | hp)) & ones
        vn = hp & d0 & ones
        prev_pm = pm
    return score


def normalized_distance(a, b) -> float:
    """dl_distance scaled into [0, 1] by the longer sequence's length."""
    xs, ys = _symbols(a), _symbols(b)
    longest = max(len(xs), len(ys))
    if longest == 0:
        raise BothEmpty("normalized distance of two empty sequences")
    return dl_distance(xs, ys) / longest


@dataclass(frozen=True)
class DissimilarityScore:
    device_type: str
    score: float              # in [0, 5]


def score_type(device_type: str, query, refs: Sequence) -> DissimilarityScore:
    """Sum of normalized distances to up to five references of one type.

    With fewer than five references the sum is rescaled by 5/len(refs) so
    scores stay comparable across types with different reference counts.
    """
    if not refs:
        raise NoReferences(f"no reference fingerprints for {device_type!r}")
    if len(refs) > MAX_REFERENCES:
        raise ValueError(f"at most {MAX_REFERENCES} references, got {len(refs)}")
    total = sum(normalized_distance(query, ref) for ref in refs)
    total *= MAX_REFERENCES / len(refs)
    return DissimilarityScore(device_type=device_type, score=total)


def discriminate(query, candidates: Sequence[tuple[str, Sequence]]) -> str:
    """Pick the candidate type with the smallest dissimilarity score.

    candidates pairs each type id with its reference fingerprints.  Exact
    score ties fall back to lexicographic order on the type id.
    """
    if len(candidates) < 2:
        raise ValueError("discrimination needs at least two candidate types")
    scores = [score_type(type_id, query, refs) for type_id, refs in candidates]
    best = min(scores, key=lambda s: (s.score, s.device_type))
    return best.device_type


def select_references(db: Sequence[Fingerprint], device_type: str,
                      k: int = MAX_REFERENCES,
                      rng: np.random.Generator | None = None) -> list[Fingerprint]:
    """Choose up to k reference fingerprints of one type from the store.

    Without an rng the k most recent entries are used; with one, a uniform
    sample without replacement (the evaluation harness passes a seeded rng so
    repeated runs stay reproducible).
    """
    if not 1 <= k <= MAX_REFERENCES:
        raise ValueError(f"k must be in 1..{MAX_REFERENCES}")
    pool = [fp for fp in db if fp.label == device_type]
    if not pool:
        raise NoReferences(f"no fingerprints labeled {device_type!r} in store")
    if len(pool) <= k:
        return pool
    if rng is None:
        return pool[-k:]
    picks = rng.choice(len(pool), size=k, replace=False)
    return [pool[i] for i in sorted(picks)]

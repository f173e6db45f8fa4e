"""Synthetic corpora and the evaluation harness.

The corpus generator fabricates per-type base packet sequences from a small
library of plausible setup-traffic templates (ARP, DHCP, DNS, NTP, HTTP ...)
and then derives each fingerprint from its type's base under configurable
noise: packet drops and frame-size jitter.  Each logical datagram is
emitted as a short burst of identical frames, the way DHCP discovery and
mDNS announcements repeat on the wire; duplicate collapsing
folds a burst into a single fingerprint column, so losing one frame of a
burst never shifts the columns that follow it.  Destination-IP counters are
replayed over the surviving packets so every fingerprint keeps the dense
first-seen numbering a real capture would produce.

cross_validate runs stratified k-fold cross-validation, repeated, over a
labeled fingerprint store: per fold it trains one classifier per type on the
training split only, identifies every held-out fingerprint (discrimination
references also come from the training split only) and accumulates a
confusion matrix with an extra terminal column for Unknown outcomes.

Reports serialize to canonical JSON that is byte-identical across runs with
the same seed; wall-clock timing is kept out of that canonical form.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .discriminate import MAX_REFERENCES
from .fingerprint import Fingerprint, build_fingerprint, to_fixed
from .identify import identify
from .ingest import FEATURE_NAMES, PacketFeatures
from .typemodel import ForestParams, fit_registry

# name, protocol flags, has an IP destination, frame size range, has payload
_TEMPLATES = (
    ("arp", dict(arp=1), False, (42, 60), 0),
    ("dhcp", dict(ip=1, udp=1, dhcp=1, bootp=1,
                  src_port_class=1, dst_port_class=1), True, (300, 600), 1),
    ("dns", dict(ip=1, udp=1, dns=1,
                 src_port_class=3, dst_port_class=1), True, (70, 140), 1),
    ("mdns", dict(ip=1, udp=1, mdns=1,
                  src_port_class=2, dst_port_class=2), True, (80, 300), 1),
    ("ssdp", dict(ip=1, udp=1, ssdp=1,
                  src_port_class=3, dst_port_class=2), True, (150, 400), 1),
    ("ntp", dict(ip=1, udp=1, ntp=1,
                 src_port_class=3, dst_port_class=1), True, (90, 90), 1),
    ("http", dict(ip=1, tcp=1, http=1,
                  src_port_class=3, dst_port_class=1), True, (200, 1400), 1),
    ("https", dict(ip=1, tcp=1, https=1,
                   src_port_class=3, dst_port_class=1), True, (100, 1400), 1),
    ("tcp_syn", dict(ip=1, tcp=1,
                     src_port_class=3, dst_port_class=2), True, (60, 74), 0),
    ("udp_app", dict(ip=1, udp=1,
                     src_port_class=3, dst_port_class=2), True, (80, 500), 1),
    ("icmp", dict(ip=1, icmp=1), True, (98, 120), 1),
    ("icmpv6", dict(ip=1, icmpv6=1), True, (86, 110), 0),
    ("eapol", dict(eapol=1), False, (60, 120), 1),
    ("llc", dict(llc=1), False, (60, 80), 1),
)

_P_NEW_DESTINATION = 0.35
_P_IP_PADDING = 0.05
_P_ROUTER_ALERT = 0.03

# every type shifts its frame sizes by a distinct amount, the way different
# firmware stacks pad the same protocol exchange differently; it keeps types
# separable at any alignment, since packet drops shift later columns of the
# fixed-width form
_TYPE_SIZE_STEP = 13
_TYPE_SIZE_CYCLE = 32


@dataclass(frozen=True)
class CorpusNoise:
    drop_prob: float = 0.0
    size_jitter: int = 0

    def __post_init__(self):
        if not 0.0 <= self.drop_prob < 1.0:
            raise ValueError("drop_prob must be in [0, 1)")
        if self.size_jitter < 0:
            raise ValueError("size_jitter must be non-negative")


@dataclass(frozen=True)
class SyntheticCorpusSpec:
    """Shape of a generated corpus.

    duplicated_type_pairs lists (i, j) type indices where type j reuses type
    i's base sequence, producing deliberately confusable types.  burst_min
    and burst_max bound how often each logical datagram repeats on the wire.
    """

    n_types: int
    fingerprints_per_type: int = 20
    packets_min: int = 12
    packets_max: int = 25
    burst_min: int = 1
    burst_max: int = 2
    noise: CorpusNoise = field(default_factory=CorpusNoise)
    duplicated_type_pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.n_types < 1 or self.fingerprints_per_type < 1:
            raise ValueError("need at least one type and one fingerprint per type")
        if not 1 <= self.packets_min <= self.packets_max:
            raise ValueError("packet count range is empty or non-positive")
        if not 1 <= self.burst_min <= self.burst_max:
            raise ValueError("burst range is empty or non-positive")
        if self.n_types > 65536 or self.fingerprints_per_type > 65536:
            raise ValueError("corpus too large for synthetic MAC space")
        for a, b in self.duplicated_type_pairs:
            if not (0 <= a < self.n_types and 0 <= b < self.n_types) or a == b:
                raise ValueError(f"bad duplicated pair ({a}, {b})")

    def type_name(self, idx: int) -> str:
        width = max(2, len(str(self.n_types - 1)))
        return f"type{idx:0{width}d}"


# a base packet is one logical datagram: (template idx, pad flag, alert
# flag, size, dst-IP slot, burst length); slot 0 means no IP destination,
# slots >= 1 are resolved to counters after noise so the first-seen
# numbering stays dense
_BasePacket = tuple[int, int, int, int, int, int]


def _gen_base(rng: np.random.Generator, spec: SyntheticCorpusSpec,
              type_idx: int) -> tuple[_BasePacket, ...]:
    size_offset = (type_idx % _TYPE_SIZE_CYCLE) * _TYPE_SIZE_STEP
    length = int(rng.integers(spec.packets_min, spec.packets_max + 1))
    n_slots = 0
    pkts = []
    for _ in range(length):
        ti = int(rng.integers(0, len(_TEMPLATES)))
        _, flags, has_ip, (lo, hi), _ = _TEMPLATES[ti]
        size = int(rng.integers(lo, hi + 1)) + size_offset
        pad = alert = 0
        if flags.get("ip"):
            pad = int(rng.random() < _P_IP_PADDING)
            alert = int(rng.random() < _P_ROUTER_ALERT)
        slot = 0
        if has_ip:
            if n_slots == 0 or rng.random() < _P_NEW_DESTINATION:
                n_slots += 1
                slot = n_slots
            else:
                slot = int(rng.integers(1, n_slots + 1))
        burst = int(rng.integers(spec.burst_min, spec.burst_max + 1))
        pkts.append((ti, pad, alert, size, slot, burst))
    return tuple(pkts)


def _make_features(ti: int, pad: int, alert: int, size: int,
                   counter: int) -> PacketFeatures:
    _, flags, _, _, raw = _TEMPLATES[ti]
    # positional, in FEATURE_NAMES order: the 16 protocol flags, then the rest
    return PacketFeatures(*[flags.get(name, 0) for name in FEATURE_NAMES[:16]],
                          pad, alert, size, raw, counter,
                          flags.get("src_port_class", 0),
                          flags.get("dst_port_class", 0))


def _realize(base: tuple[_BasePacket, ...], mac: str, label: str,
             noise: CorpusNoise, rng: np.random.Generator) -> Fingerprint:
    counters: dict[int, int] = {}
    cols: list[PacketFeatures] = []
    for ti, pad, alert, size, slot, burst in base:
        if noise.size_jitter:
            # one draw per datagram: retransmitted frames are byte-identical
            size = max(14, size + int(rng.integers(-noise.size_jitter,
                                                   noise.size_jitter + 1)))
        copies = burst
        if noise.drop_prob:
            copies = sum(1 for _ in range(burst)
                         if rng.random() >= noise.drop_prob)
        if copies == 0:
            continue
        counter = 0
        if slot:
            if slot not in counters:
                counters[slot] = len(counters) + 1
            counter = counters[slot]
        feats = _make_features(ti, pad, alert, size, counter)
        cols.extend([feats] * copies)
    if not cols:
        ti, pad, alert, size, slot, _ = base[0]
        cols = [_make_features(ti, pad, alert, size, 1 if slot else 0)]
    return build_fingerprint(mac, cols, label=label)


def generate_corpus(spec: SyntheticCorpusSpec, seed: int = 0) -> list[Fingerprint]:
    """Fabricate a labeled fingerprint store, type-major order."""
    base_ss, noise_ss = np.random.SeedSequence(seed).spawn(2)
    base_rng = np.random.default_rng(base_ss)
    noise_rng = np.random.default_rng(noise_ss)

    shared = {b for _, b in spec.duplicated_type_pairs}
    bases: list[tuple[_BasePacket, ...]] = []
    seen: set = set()
    for t in range(spec.n_types):
        for _ in range(100):
            base = _gen_base(base_rng, spec, t)
            if base not in seen:
                break
        else:
            raise RuntimeError("could not draw pairwise-distinct base sequences")
        if t not in shared:
            seen.add(base)
        bases.append(base)
    for a, b in spec.duplicated_type_pairs:
        bases[b] = bases[a]

    corpus = []
    for t in range(spec.n_types):
        label = spec.type_name(t)
        for i in range(spec.fingerprints_per_type):
            mac = f"02-00-{t >> 8:02X}-{t & 0xFF:02X}-{i >> 8:02X}-{i & 0xFF:02X}"
            corpus.append(_realize(bases[t], mac, label, spec.noise, noise_rng))
    return corpus


def shuffle_labels(db: Sequence[Fingerprint], seed: int = 0) -> list[Fingerprint]:
    """Random label permutation across the store; a sanity-check control."""
    perm = np.random.default_rng(seed).permutation(len(db))
    return [dataclasses.replace(fp, label=db[p].label)
            for fp, p in zip(db, perm)]


@dataclass
class EvaluationReport:
    """Cross-validation outcome; confusion's last column counts Unknown."""

    types: list[str]
    confusion: list[list[int]]
    per_type_accuracy: dict[str, float]
    global_accuracy: float
    multi_match_rate: float
    folds: int
    repeats: int
    seed: int
    refs_per_type: int
    n_fingerprints: int
    n_trees: int
    timing: dict | None = None

    def to_json_dict(self, include_timing: bool = False) -> dict:
        doc = {
            "config": {
                "folds": self.folds,
                "repeats": self.repeats,
                "seed": self.seed,
                "refs_per_type": self.refs_per_type,
                "n_fingerprints": self.n_fingerprints,
                "n_trees": self.n_trees,
            },
            "types": self.types,
            "confusion": self.confusion,
            "per_type_accuracy": self.per_type_accuracy,
            "global_accuracy": self.global_accuracy,
            "multi_match_rate": self.multi_match_rate,
        }
        if include_timing:
            doc["timing"] = self.timing
        return doc

    def to_json(self, include_timing: bool = False) -> str:
        # timing is wall-clock noise; keeping it out makes reports
        # byte-identical for a fixed seed
        return json.dumps(self.to_json_dict(include_timing),
                          sort_keys=True, separators=(",", ":"))


def cross_validate(db: Sequence[Fingerprint], folds: int = 10,
                   repeats: int = 10, seed: int = 0,
                   params: ForestParams = ForestParams(),
                   refs_per_type: int = MAX_REFERENCES) -> EvaluationReport:
    """Stratified k-fold cross-validation, repeated with fresh splits."""
    if folds < 2:
        raise ValueError("folds must be at least 2")
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    if any(fp.label is None for fp in db):
        raise ValueError("every fingerprint must be labeled")
    types = sorted({fp.label for fp in db})
    n_types = len(types)
    if n_types < 2:
        raise ValueError("need at least two device types")
    type_idx = {t: i for i, t in enumerate(types)}
    y = np.array([type_idx[fp.label] for fp in db], dtype=np.int64)
    X = np.array([to_fixed(fp).values for fp in db], dtype=np.float64)
    by_type = [np.nonzero(y == i)[0] for i in range(n_types)]

    confusion = np.zeros((n_types, n_types + 1), dtype=np.int64)
    n_multi = 0
    n_ident = 0
    classify_ms = 0.0
    discriminate_ms = 0.0
    train_ns = 0

    for repeat_ss in np.random.SeedSequence(seed).spawn(repeats):
        fold_ss, train_ss, ref_ss = repeat_ss.spawn(3)
        fold_rng = np.random.default_rng(fold_ss)
        fold_of = np.empty(len(db), dtype=np.int64)
        for idxs in by_type:
            perm = fold_rng.permutation(idxs)
            for pos, g in enumerate(perm):
                fold_of[g] = pos % folds
        train_children = train_ss.spawn(folds)
        ref_children = ref_ss.spawn(folds)

        for f in range(folds):
            test_idx = np.nonzero(fold_of == f)[0]
            if test_idx.size == 0:
                continue
            train_rows = np.nonzero(fold_of != f)[0]
            train_fps = [db[i] for i in train_rows]
            t_train = time.perf_counter_ns()
            registry = fit_registry(X[train_rows], y[train_rows], types, params,
                                    train_children[f])
            train_ns += time.perf_counter_ns() - t_train
            ref_rng = np.random.default_rng(ref_children[f])
            for g in test_idx:
                result = identify(db[g], registry, train_fps,
                                  refs_per_type=refs_per_type, rng=ref_rng)
                n_ident += 1
                n_multi += result.discrimination_used
                classify_ms += result.times.classify_ms
                discriminate_ms += result.times.discriminate_ms
                pred = (n_types if result.is_unknown
                        else type_idx[result.device_type])
                confusion[y[g], pred] += 1
            # free this fold's forests before the next fold grows its own
            del registry

    row_totals = confusion.sum(axis=1)
    per_type = {
        t: (int(confusion[i, i]) / int(row_totals[i]) if row_totals[i] else 0.0)
        for i, t in enumerate(types)
    }
    total = int(confusion.sum())
    timing = {
        "classify_ms_total": round(classify_ms, 3),
        "discriminate_ms_total": round(discriminate_ms, 3),
        "identifications": n_ident,
        "train_ms_total": round(train_ns / 1e6, 3),
    }
    return EvaluationReport(
        types=types,
        confusion=confusion.tolist(),
        per_type_accuracy=per_type,
        global_accuracy=(int(np.trace(confusion[:, :n_types])) / total
                         if total else 0.0),
        multi_match_rate=(n_multi / n_ident if n_ident else 0.0),
        folds=folds, repeats=repeats, seed=seed, refs_per_type=refs_per_type,
        n_fingerprints=len(db), n_trees=params.n_trees, timing=timing)

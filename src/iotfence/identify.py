"""Device identification and isolation-level assignment.

One fingerprint goes through every per-type classifier.  No match means the
device stays Unknown; a single match names it directly; multiple matches are
settled by dissimilarity scoring against stored reference fingerprints.
The identified type (or its absence) then maps to an isolation level via a
local vulnerability registry, failing closed to strict whenever nothing is
known about the device.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .discriminate import MAX_REFERENCES, discriminate, select_references
from .enforce import IsolationLevel
from .errors import RestrictedWithoutPermittedIps
from .fingerprint import (Fingerprint, SetupSessionConfig, SetupWindow,
                          build_fingerprint, to_fixed)
from .ingest import extract_sessions, read_pcap
from .jsonfile import dump_versioned, load_versioned, str_tuple
from .typemodel import ClassifierRegistry, TypePrediction, predict_all

VULNS_SCHEMA = "iotfence-vulns/1"


def _ms(ns: int) -> float:
    # monotonic nanoseconds to milliseconds at microsecond resolution
    return round(ns / 1e6, 3)


@dataclass(frozen=True)
class StageTimes:
    classify_ms: float
    discriminate_ms: float
    total_ms: float


@dataclass(frozen=True)
class IdentificationResult:
    """What one fingerprint was identified as; device_type None = Unknown."""

    device_mac: str
    device_type: str | None
    predictions: tuple[TypePrediction, ...]
    discrimination_used: bool
    times: StageTimes

    @property
    def is_unknown(self) -> bool:
        return self.device_type is None

    def to_json_dict(self) -> dict:
        return {
            "device_mac": self.device_mac,
            "outcome": "unknown" if self.is_unknown else "identified",
            "device_type": self.device_type,
            "discrimination_used": self.discrimination_used,
            "predictions": [
                {"device_type": p.device_type, "match": p.match, "score": p.score}
                for p in self.predictions
            ],
            "times_ms": {"classify": self.times.classify_ms,
                         "discriminate": self.times.discriminate_ms,
                         "total": self.times.total_ms},
        }


def identify(fp: Fingerprint, registry: ClassifierRegistry,
             store: Sequence[Fingerprint], *,
             refs_per_type: int = MAX_REFERENCES,
             rng: np.random.Generator | None = None) -> IdentificationResult:
    """Classify one fingerprint against every registered type.

    store supplies labeled reference fingerprints for discrimination.  With
    rng=None references are the most recent of each type; a seeded generator
    makes the choice a reproducible uniform sample instead.
    """
    t_start = time.perf_counter_ns()
    fixed = to_fixed(fp)

    t_cls = time.perf_counter_ns()
    predictions = predict_all(registry, fixed)
    classify_ns = time.perf_counter_ns() - t_cls

    matched = [p for p in predictions if p.match]
    discrimination_used = False
    discriminate_ns = 0
    if not matched:
        device_type = None
    elif len(matched) == 1:
        device_type = matched[0].device_type
    else:
        discrimination_used = True
        t_disc = time.perf_counter_ns()
        candidates = [
            (p.device_type,
             select_references(store, p.device_type, k=refs_per_type, rng=rng))
            for p in matched
        ]
        device_type = discriminate(fp, candidates)
        discriminate_ns = time.perf_counter_ns() - t_disc

    total_ns = time.perf_counter_ns() - t_start
    return IdentificationResult(
        device_mac=fp.device_mac,
        device_type=device_type,
        predictions=tuple(predictions),
        discrimination_used=discrimination_used,
        times=StageTimes(classify_ms=_ms(classify_ns),
                         discriminate_ms=_ms(discriminate_ns),
                         total_ms=_ms(total_ns)),
    )


@dataclass(frozen=True)
class VulnerabilityEntry:
    """Per-type verdict: how much network a type can be trusted with."""

    level: IsolationLevel
    permitted_ip: tuple[str, ...] = ()

    def __post_init__(self):
        if self.level is IsolationLevel.RESTRICTED and not self.permitted_ip:
            raise RestrictedWithoutPermittedIps(
                "restricted entry needs at least one permitted IP")
        if self.level is not IsolationLevel.RESTRICTED and self.permitted_ip:
            raise ValueError(f"{self.level.value} entries carry no permitted IPs")


class VulnerabilityRegistry:
    """Local store mapping device types to isolation verdicts."""

    def __init__(self, entries: dict[str, VulnerabilityEntry] | None = None):
        self._entries = dict(entries or {})

    def get(self, device_type: str) -> VulnerabilityEntry | None:
        return self._entries.get(device_type)

    def set(self, device_type: str, entry: VulnerabilityEntry) -> None:
        self._entries[device_type] = entry

    def __len__(self) -> int:
        return len(self._entries)

    def types(self) -> list[str]:
        return sorted(self._entries)

    def save(self, path) -> None:
        dump_versioned(path, VULNS_SCHEMA, {"types": {
            t: {"isolation": e.level.value, "permitted_ip": list(e.permitted_ip)}
            for t, e in self._entries.items()
        }})

    @classmethod
    def load(cls, path) -> "VulnerabilityRegistry":
        def parse(doc: dict) -> "VulnerabilityRegistry":
            return cls({
                t: VulnerabilityEntry(
                    level=IsolationLevel(rec["isolation"]),
                    permitted_ip=str_tuple(rec["permitted_ip"], "permitted_ip"))
                for t, rec in doc["types"].items()
            })
        return load_versioned(path, VULNS_SCHEMA, "vulnerability registry", parse)


@dataclass(frozen=True)
class IsolationAssignment:
    level: IsolationLevel
    permitted_ip: tuple[str, ...]
    reason: str

    def to_json_dict(self) -> dict:
        return {"isolation": self.level.value,
                "permitted_ip": list(self.permitted_ip),
                "reason": self.reason}


def assign_isolation(result: IdentificationResult,
                     vulns: VulnerabilityRegistry) -> IsolationAssignment:
    """Map an identification outcome to an isolation level, failing closed."""
    if result.is_unknown:
        return IsolationAssignment(IsolationLevel.STRICT, (),
                                   "unidentified device is isolated strictly")
    entry = vulns.get(result.device_type)
    if entry is None:
        return IsolationAssignment(
            IsolationLevel.STRICT, (),
            f"type {result.device_type!r} has no vulnerability entry, failing closed")
    return IsolationAssignment(entry.level, entry.permitted_ip,
                               f"vulnerability entry for {result.device_type!r}")


def identify_capture(pcap_path, registry: ClassifierRegistry,
                     store: Sequence[Fingerprint], vulns: VulnerabilityRegistry,
                     config: SetupSessionConfig | None = None, *,
                     refs_per_type: int = MAX_REFERENCES,
                     rng: np.random.Generator | None = None,
                     ) -> list[tuple[IdentificationResult, IsolationAssignment]]:
    """Full pipeline over a capture file: one result per source device.

    Only each device's setup phase is read: once its setup window closes,
    its later frames are passed over without being decoded.  Sessions whose
    every frame failed to decode have nothing to fingerprint and are
    omitted.  A session whose setup cannot be segmented (its
    timestamps go backwards) fails closed on its own: Unknown, with no
    predictions, isolated strictly, while the other devices carry on.
    """
    sessions = extract_sessions(read_pcap(pcap_path),
                                setup_window=lambda: SetupWindow(config))
    out = []
    for mac, sess in sessions.items():
        if not sess.packets:
            continue
        if sess.setup_error is not None:
            failed = IdentificationResult(mac, None, (), False, StageTimes(0.0, 0.0, 0.0))
            reason = f"setup segmentation failed ({sess.setup_error}), isolated strictly"
            out.append((failed, IsolationAssignment(IsolationLevel.STRICT, (), reason)))
            continue
        fp = build_fingerprint(mac, [p.features for p in sess.packets])
        result = identify(fp, registry, store,
                          refs_per_type=refs_per_type, rng=rng)
        out.append((result, assign_isolation(result, vulns)))
    return out

"""Isolation rules and flow decisions.

Identified devices land in one of three isolation levels, which map onto two
network overlays:

    strict      untrusted overlay, no internet
    restricted  untrusted overlay, internet only to an explicit IP list
    trusted     trusted overlay, unrestricted internet

Devices inside the same overlay may talk to each other; traffic across the
overlay boundary is denied in both directions.  A device with no rule at all
is denied everything (fail closed).

Rules serialize with exactly the field set an enforcement point consumes:
id, name, source_mac, permitted_ip, priority, hash, isolation.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .errors import (CapacityExceeded, CorruptFile,
                     RestrictedWithoutPermittedIps)
from .jsonfile import dump_versioned, load_versioned, str_tuple
from .macaddr import normalize_mac

RULES_SCHEMA = "iotfence-rules/1"
RULE_FIELDS = ("id", "name", "source_mac", "permitted_ip", "priority",
               "hash", "isolation")
HASH_LEN = 16


class IsolationLevel(str, Enum):
    STRICT = "strict"
    RESTRICTED = "restricted"
    TRUSTED = "trusted"


class Overlay(str, Enum):
    UNTRUSTED = "untrusted"
    TRUSTED = "trusted"


def overlay_of(level: IsolationLevel) -> Overlay:
    """strict and restricted devices share the untrusted overlay."""
    if level is IsolationLevel.TRUSTED:
        return Overlay.TRUSTED
    return Overlay.UNTRUSTED


def rule_hash(source_mac: Sequence[str], level: IsolationLevel,
              permitted_ip: Sequence[str]) -> str:
    """Deterministic digest of what a rule enforces, order-insensitive."""
    canon = "|".join(sorted(normalize_mac(m) for m in source_mac))
    canon += f"|{level.value}|" + ",".join(sorted(permitted_ip))
    return hashlib.sha256(canon.encode()).hexdigest()[:HASH_LEN]


@dataclass(frozen=True)
class EnforcementRule:
    """One device's isolation policy.

    hash is rule_hash of the policy fields: an unkeyed, truncated sha256
    that catches accidental damage, not tampering, since anyone who edits a
    rule can recompute it.
    """

    id: int
    name: str
    source_mac: tuple[str, ...]
    permitted_ip: tuple[str, ...]
    priority: int
    hash: str
    level: IsolationLevel

    def __post_init__(self):
        if self.id < 0 or self.priority < 0:
            raise ValueError("id and priority must be non-negative")
        if not self.source_mac:
            raise ValueError("rule needs at least one source MAC")
        for mac in self.source_mac:
            if normalize_mac(mac) != mac:
                raise ValueError(f"MAC not in canonical form: {mac!r}")
        if self.level is IsolationLevel.RESTRICTED and not self.permitted_ip:
            raise RestrictedWithoutPermittedIps(
                f"rule {self.id}: restricted level needs a permitted IP list")
        if self.level is not IsolationLevel.RESTRICTED and self.permitted_ip:
            raise ValueError(
                f"rule {self.id}: {self.level.value} rules carry no permitted IPs")
        expect = rule_hash(self.source_mac, self.level, self.permitted_ip)
        if self.hash != expect:
            raise ValueError(f"rule {self.id}: hash does not match contents")

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "source_mac": list(self.source_mac),
            "permitted_ip": list(self.permitted_ip),
            "priority": self.priority,
            "hash": self.hash,
            "isolation": self.level.value,
        }


def make_rule(mac: str | Sequence[str], level: IsolationLevel,
              permitted_ip: Sequence[str] = (), rule_id: int = 0,
              priority: int = 0, name: str = "") -> EnforcementRule:
    """Build a rule; MACs are normalized, the hash is computed here."""
    macs = (mac,) if isinstance(mac, str) else tuple(mac)
    macs = tuple(normalize_mac(m) for m in macs)
    ips = tuple(permitted_ip)
    return EnforcementRule(
        id=rule_id, name=name or f"rule-{rule_id}", source_mac=macs,
        permitted_ip=ips, priority=priority,
        hash=rule_hash(macs, level, ips), level=level)


@dataclass(frozen=True)
class FlowKey:
    """One directed flow: a source device to a peer device or internet IP."""

    src_mac: str
    dst_mac: str | None = None
    dst_overlay: Overlay | None = None
    dst_ip: str | None = None

    def __post_init__(self):
        device = self.dst_mac is not None
        if device != (self.dst_overlay is not None):
            raise ValueError("device destinations need both dst_mac and dst_overlay")
        if device == (self.dst_ip is not None):
            raise ValueError("flow must target exactly one of: device, internet IP")

    @classmethod
    def to_device(cls, src_mac: str, dst_mac: str, overlay: Overlay) -> "FlowKey":
        return cls(src_mac=normalize_mac(src_mac), dst_mac=normalize_mac(dst_mac),
                   dst_overlay=overlay)

    @classmethod
    def to_internet(cls, src_mac: str, dst_ip: str) -> "FlowKey":
        return cls(src_mac=normalize_mac(src_mac), dst_ip=dst_ip)

    @property
    def is_device(self) -> bool:
        return self.dst_mac is not None


@dataclass(frozen=True)
class Decision:
    permit: bool
    reason: str
    level: IsolationLevel | None = None


class RuleCache:
    """Hash table of active rules, one per source MAC.

    Optionally capacity-bounded: inserting a new MAC into a full cache evicts
    the longest-marked-absent device, or fails if nothing is evictable.
    """

    def __init__(self, capacity: int | None = None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive")
        self._capacity = capacity
        self._rules: dict[str, EnforcementRule] = {}
        self._absent: dict[str, None] = {}  # insertion-ordered set

    def __len__(self) -> int:
        return len(self._rules)

    def lookup(self, mac: str) -> EnforcementRule | None:
        return self._rules.get(normalize_mac(mac))

    def update(self, rule: EnforcementRule) -> None:
        """Insert or replace the rule under each of its source MACs.

        New MACs that do not fit evict the longest-absent devices the rule
        does not name; if too few are evictable, nothing changes.
        """
        macs = rule.source_mac
        if self._capacity is not None:
            overflow = len(self._rules) - self._capacity + len(
                {mac for mac in macs if mac not in self._rules})
            if overflow > 0:
                victims = list(itertools.islice(
                    (mac for mac in self._absent if mac not in macs), overflow))
                if len(victims) < overflow:
                    raise CapacityExceeded(
                        f"cache at capacity {self._capacity} with too few absent "
                        f"devices for {len(macs)} MACs")
                for mac in victims:
                    del self._absent[mac]
                    del self._rules[mac]
        for mac in macs:
            self._rules[mac] = rule
            self._absent.pop(mac, None)

    def remove(self, mac: str) -> None:
        mac = normalize_mac(mac)
        self._rules.pop(mac, None)
        self._absent.pop(mac, None)

    def mark_absent(self, mac: str) -> None:
        """Flag a device that left the network; its slot may be reclaimed."""
        mac = normalize_mac(mac)
        if mac in self._rules:
            self._absent.setdefault(mac, None)

    def macs(self) -> list[str]:
        return sorted(self._rules)


def decide(flow: FlowKey, cache: RuleCache) -> Decision:
    """Permit or deny one flow according to the source device's rule."""
    rule = cache.lookup(flow.src_mac)
    if rule is None:
        return Decision(False, "no rule for source device", None)
    level = rule.level

    if flow.is_device:
        same_overlay = flow.dst_overlay is overlay_of(level)
        if same_overlay:
            return Decision(True, f"{flow.dst_overlay.value} overlay peers may intercommunicate", level)
        return Decision(False, f"{overlay_of(level).value} overlay device cannot cross into {flow.dst_overlay.value} overlay", level)

    if level is IsolationLevel.TRUSTED:
        return Decision(True, "trusted level permits all internet destinations", level)
    if level is IsolationLevel.STRICT:
        return Decision(False, "strict level permits no internet destinations", level)
    if flow.dst_ip in rule.permitted_ip:
        return Decision(True, "destination is on the permitted list", level)
    return Decision(False, "destination is not on the permitted list", level)


def save_rules(rules: Sequence[EnforcementRule], path) -> None:
    dump_versioned(path, RULES_SCHEMA, {"rules": [r.to_json_dict() for r in rules]})


def _parse_rules(doc: dict) -> list[EnforcementRule]:
    out = []
    for rec in doc["rules"]:
        if set(rec) != set(RULE_FIELDS):
            raise CorruptFile(
                f"rule fields {sorted(rec)} do not match {sorted(RULE_FIELDS)}")
        out.append(EnforcementRule(
            id=int(rec["id"]), name=rec["name"],
            source_mac=str_tuple(rec["source_mac"], "source_mac"),
            permitted_ip=str_tuple(rec["permitted_ip"], "permitted_ip"),
            priority=int(rec["priority"]), hash=rec["hash"],
            level=IsolationLevel(rec["isolation"])))
    return out


def load_rules(path) -> list[EnforcementRule]:
    """Read a rule file; any deviation from the exact field set is corrupt."""
    return load_versioned(path, RULES_SCHEMA, "rule file", _parse_rules)


def load_flows_csv(path) -> list[FlowKey]:
    """Flow list format: src_mac, dst_kind (device|internet), dst_value,
    dst_overlay (trusted|untrusted, device rows only)."""
    flows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        need = {"src_mac", "dst_kind", "dst_value", "dst_overlay"}
        if reader.fieldnames is None or not need.issubset(reader.fieldnames):
            raise CorruptFile(f"flow csv must have columns {sorted(need)}")
        for lineno, row in enumerate(reader, start=2):
            try:
                kind = row["dst_kind"].strip()
                if kind == "device":
                    flows.append(FlowKey.to_device(
                        row["src_mac"], row["dst_value"],
                        Overlay(row["dst_overlay"].strip())))
                elif kind == "internet":
                    flows.append(FlowKey.to_internet(row["src_mac"],
                                                     row["dst_value"].strip()))
                else:
                    raise ValueError(f"unknown dst_kind {kind!r}")
            except ValueError as exc:
                raise CorruptFile(f"flow csv line {lineno}: {exc}") from exc
    return flows


def simulate_flows(rules: Iterable[EnforcementRule],
                   flows: Sequence[FlowKey]) -> list[tuple[FlowKey, Decision]]:
    """Decide every flow against a cache primed with the given rules."""
    cache = RuleCache()
    for rule in rules:
        cache.update(rule)
    return [(flow, decide(flow, cache)) for flow in flows]

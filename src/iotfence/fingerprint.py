"""Device fingerprints built from setup-phase traffic.

A fingerprint F is the ordered sequence of per-packet feature vectors with
consecutive duplicates collapsed.  Its fixed-width form F' keeps the first
12 globally unique vectors, concatenates their 23 values and zero-pads to
exactly 276 numbers, which is what the classifiers consume.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import EmptyInput, EmptySession
from .ingest import FEATURE_NAMES, PacketFeatures, TimedFeatures
from .jsonfile import dump_versioned, load_versioned

FIXED_PACKETS = 12
VECTOR_LEN = len(FEATURE_NAMES)
FIXED_LEN = FIXED_PACKETS * VECTOR_LEN  # 276

DB_SCHEMA = "iotfence-fingerprints/1"


@dataclass(frozen=True)
class SetupSessionConfig:
    """Knobs for cutting the setup phase out of a capture.

    The setup window ends at the first of: an idle gap of idle_timeout
    seconds, the packet rate over the trailing rate_window falling below
    rate_drop_factor times the session's peak rate, or max_packets packets.
    """

    idle_timeout: float = 30.0
    rate_window: float = 10.0
    rate_drop_factor: float = 0.1
    max_packets: int = 500

    def __post_init__(self):
        if self.idle_timeout <= 0 or self.rate_window <= 0:
            raise ValueError("idle_timeout and rate_window must be positive")
        if not 0 < self.rate_drop_factor < 1:
            raise ValueError("rate_drop_factor must be in (0, 1)")
        if self.max_packets < FIXED_PACKETS:
            raise ValueError(f"max_packets must be at least {FIXED_PACKETS}")


class SetupWindow:
    """The setup-phase cut of one session, fed one packet timestamp at a time.

    push(ts) says whether the packet belongs to the setup phase.  The window
    closes on the packet that shows an idle gap or a rate drop (that packet
    is not taken), or on the packet that fills it to max_packets (taken);
    cut then names the reason.  A closed window must not be pushed again.
    A timestamp before the last taken one raises ValueError and closes the
    window too.
    """

    def __init__(self, config: SetupSessionConfig | None = None):
        self.config = config or SetupSessionConfig()
        self.cut: str | None = None  # "idle" | "rate_drop" | "max_packets" | "backwards"
        self._taken = 0
        self._window: deque[float] = deque()
        self._peak_rate = 0.0
        self._last_ts: float | None = None

    @property
    def closed(self) -> bool:
        return self.cut is not None

    def push(self, ts: float) -> bool:
        cfg = self.config
        if self._last_ts is not None:
            if ts < self._last_ts:
                self.cut = "backwards"
                raise ValueError("timestamps must be non-decreasing")
            if ts - self._last_ts >= cfg.idle_timeout:
                self.cut = "idle"
                return False
        window = self._window
        while window and ts - window[0] > cfg.rate_window:
            window.popleft()
        window.append(ts)
        rate = len(window) / cfg.rate_window
        # a drop is judged against the peak of the traffic seen so far;
        # the packet that reveals the drop belongs to the steady phase
        if self._peak_rate > 0 and rate < cfg.rate_drop_factor * self._peak_rate:
            self.cut = "rate_drop"
            return False
        self._peak_rate = max(self._peak_rate, rate)
        self._last_ts = ts
        self._taken += 1
        if self._taken >= cfg.max_packets:
            self.cut = "max_packets"
        return True


def segment_setup(stream: Iterable[TimedFeatures],
                  config: SetupSessionConfig | None = None) -> list[PacketFeatures]:
    """Return the setup-phase prefix of a timestamped packet stream.

    Timestamps must be non-decreasing.  Raises EmptySession when the stream
    is empty or the very first packet already violates the config.
    """
    window = SetupWindow(config)
    taken: list[PacketFeatures] = []
    for ts, feats in stream:
        if not window.push(ts):
            break
        taken.append(feats)
        if window.closed:
            break

    if not taken:
        raise EmptySession("no packets in setup phase")
    return taken


@dataclass(frozen=True)
class Fingerprint:
    """Ordered feature vectors of one setup session, dedup'd consecutively."""

    device_mac: str
    columns: tuple[PacketFeatures, ...]
    label: str | None = None

    def __post_init__(self):
        if not self.columns:
            raise ValueError("fingerprint must have at least one column")
        for a, b in zip(self.columns, self.columns[1:]):
            if a == b:
                raise ValueError("consecutive duplicate columns")

    def __len__(self) -> int:
        return len(self.columns)


@dataclass(frozen=True)
class FixedFingerprint:
    """Flattened, zero-padded 276-value form consumed by the classifiers."""

    values: tuple[int, ...]
    label: str | None = None

    def __post_init__(self):
        if len(self.values) != FIXED_LEN:
            raise ValueError(f"fixed fingerprint must have {FIXED_LEN} values")


def build_fingerprint(device_mac: str, packets: Sequence[PacketFeatures],
                      label: str | None = None) -> Fingerprint:
    """Collapse runs of identical vectors and wrap the result."""
    if not packets:
        raise EmptyInput("cannot fingerprint an empty packet list")
    cols: list[PacketFeatures] = [packets[0]]
    for feats in packets[1:]:
        if feats != cols[-1]:
            cols.append(feats)
    return Fingerprint(device_mac=device_mac, columns=tuple(cols), label=label)


def to_fixed(fp: Fingerprint) -> FixedFingerprint:
    """First 12 globally unique columns, flattened and zero-padded to 276."""
    seen: set[tuple[int, ...]] = set()
    flat: list[int] = []
    for col in fp.columns:
        key = col.as_tuple()
        if key in seen:
            continue
        seen.add(key)
        flat.extend(key)
        if len(seen) == FIXED_PACKETS:
            break
    flat.extend([0] * (FIXED_LEN - len(flat)))
    return FixedFingerprint(values=tuple(flat), label=fp.label)


def save_fingerprints(db: Sequence[Fingerprint], path) -> None:
    """Write the fingerprint database as a schema-versioned JSON document."""
    records = []
    for fp in db:
        rec: dict = {
            "mac": fp.device_mac,
            "columns": [list(col.as_tuple()) for col in fp.columns],
        }
        if fp.label is not None:
            rec["label"] = fp.label
        records.append(rec)
    dump_versioned(path, DB_SCHEMA, {"fingerprints": records})


def _parse_fingerprints(doc: dict) -> list[Fingerprint]:
    return [Fingerprint(device_mac=rec["mac"],
                        columns=tuple(PacketFeatures.from_values(col)
                                      for col in rec["columns"]),
                        label=rec.get("label"))
            for rec in doc["fingerprints"]]


def load_fingerprints(path) -> list[Fingerprint]:
    return load_versioned(path, DB_SCHEMA, "fingerprint db", _parse_fingerprints)


def write_fixed_csv(db: Sequence[Fingerprint], path) -> None:
    """Export the fixed-width form: label plus 276 value columns per line."""
    with open(path, "w") as fh:
        header = ["label"] + [f"v{i}" for i in range(FIXED_LEN)]
        fh.write(",".join(header) + "\n")
        for fp in db:
            fixed = to_fixed(fp)
            row = [fp.label or ""] + [str(v) for v in fixed.values]
            fh.write(",".join(row) + "\n")

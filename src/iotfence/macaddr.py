"""MAC address formatting.

Rule files and the cache key on the dash-separated uppercase form
(XX-XX-XX-XX-XX-XX), so every MAC is normalized to that exact shape at the
boundary and compared as a plain string afterwards.
"""

import re

_MAC_RE = re.compile(r"^[0-9A-Fa-f]{2}([:-][0-9A-Fa-f]{2}){5}$")


def mac_to_str(raw: bytes) -> str:
    """Render 6 hardware-address bytes as XX-XX-XX-XX-XX-XX."""
    if len(raw) != 6:
        raise ValueError(f"MAC must be 6 bytes, got {len(raw)}")
    return raw.hex("-").upper()


def normalize_mac(mac: str) -> str:
    """Accept colon or dash separators, any case; emit the canonical form."""
    if not _MAC_RE.match(mac):
        raise ValueError(f"not a MAC address: {mac!r}")
    return mac.replace(":", "-").upper()

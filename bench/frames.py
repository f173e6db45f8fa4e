"""Feature vectors rendered as ethernet frames, and the vectors a correct
decoder must read back from written frames.

Frame bytes come from the builders in tests/oracles.py and the reference side
from its `ref_decode`; this module only picks field values (ports, options,
padding, addresses) so that a frame decodes to a given 23-field vector.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tests"))

import oracles  # noqa: E402  (tests/oracles.py)

from iotfence.ingest import FEATURE_NAMES  # noqa: E402

GATEWAY_MAC = "02-FE-00-00-00-01"
LAN_SRC_IP = "192.168.1.10"

_APP_PORTS = {"http": 80, "https": 443, "dhcp": 67, "ssdp": 1900, "dns": 53,
              "mdns": 5353, "ntp": 123}
# one port per class that raises no application flag
_FILLER_PORTS = {1: 7, 2: 8080, 3: 50000}
_IDX = {name: i for i, name in enumerate(FEATURE_NAMES)}


def port_class(port: int | None) -> int:
    if port is None:
        return 0
    if port <= 1023:
        return 1
    return 2 if port <= 49151 else 3


def ip4_for(counter: int) -> str:
    return f"198.18.{counter >> 8}.{counter & 0xFF}"


def ip6_for(counter: int) -> str:
    return f"2001:db8::{counter:x}"


def _ports(v) -> tuple[int, int]:
    src_cls, dst_cls = v[_IDX["src_port_class"]], v[_IDX["dst_port_class"]]
    if not src_cls or not dst_cls:
        raise ValueError("a transport header needs both port classes")
    sport, dport = _FILLER_PORTS[src_cls], _FILLER_PORTS[dst_cls]
    for name, port in _APP_PORTS.items():
        if not v[_IDX[name]]:
            continue
        if port_class(port) == dst_cls:
            dport = port
        elif port_class(port) == src_cls:
            sport = port
        else:
            raise ValueError(f"{name} port {port} fits neither port class")
    return sport, dport


def _fill(head_len: int, size: int, raw: int) -> tuple[int, int]:
    """(payload bytes, trailer bytes) that bring a frame to `size`."""
    avail = size - head_len
    if avail < 0 or (raw and avail == 0):
        raise ValueError(f"size {size} too small for this frame kind")
    return (avail, 0) if raw else (0, avail)


def render(vec, src_mac: str, dst_mac: str = GATEWAY_MAC) -> bytes:
    """One frame whose decode is `vec` (a 23-tuple in FEATURE_NAMES order).

    dest_ip_counter c becomes address ip4_for(c) or, for ICMPv6, ip6_for(c);
    raises ValueError for a vector no frame can carry.
    """
    v = tuple(vec)
    f = {name: v[i] for name, i in _IDX.items()}
    size, raw = f["size"], f["raw_data"]
    if f["arp"]:
        if raw:
            raise ValueError("arp frames carry no payload")
        body = oracles.arp_request(src_mac, LAN_SRC_IP, "192.168.1.1")
        _, trailer = _fill(14 + len(body), size, 0)
        frame = oracles.eth(src_mac, "FF-FF-FF-FF-FF-FF", 0x0806, body) + bytes(trailer)
    elif f["llc"]:
        payload, trailer = _fill(17, size, raw)
        frame = oracles.llc_frame(src_mac, dst_mac, b"\xAA\xAA\x03" + bytes(payload))
        frame += bytes(trailer)
    elif f["eapol"]:
        payload, trailer = _fill(18, size, raw)
        frame = oracles.eth(src_mac, dst_mac, 0x888E, oracles.eapol(bytes(payload)))
        frame += bytes(trailer)
    elif f["ip"] and f["icmpv6"]:
        opts = {(1, 0): b"\x01\x04\x00\x00\x00\x00", (0, 1): b"\x05\x04\x00\x00\x00\x00",
                (1, 1): b"\x05\x02\x00\x00\x01\x00"}.get(
                    (f["ip_opt_padding"], f["ip_opt_router_alert"]))
        head = 14 + 40 + (8 if opts else 0) + 4
        payload, trailer = _fill(head, size, raw)
        body = oracles.icmpv6(128, bytes(payload))
        nh = 58
        if opts:
            body = oracles.hop_by_hop(58, opts) + body
            nh = 0
        packet = oracles.ipv6(nh, body, dst=ip6_for(f["dest_ip_counter"]))
        frame = oracles.eth(src_mac, dst_mac, 0x86DD, packet) + bytes(trailer)
    elif f["ip"]:
        opts = b""
        if f["ip_opt_router_alert"]:
            opts += b"\x94\x04\x00\x00"
        if f["ip_opt_padding"]:
            opts += b"\x01\x01\x01\x01"
        if f["tcp"]:
            proto, l4 = 6, 20
        elif f["udp"]:
            proto, l4 = 17, 8
        elif f["icmp"]:
            proto, l4 = 1, 8
        else:
            proto, l4 = 253, 0
        payload, trailer = _fill(14 + 20 + len(opts) + l4, size, raw)
        data = bytes(payload)
        if f["tcp"]:
            seg = oracles.tcp(*_ports(v), data)
        elif f["udp"]:
            seg = oracles.udp(*_ports(v), data)
        elif f["icmp"]:
            seg = oracles.icmp(8, data)
        else:
            seg = data
        packet = oracles.ipv4(proto, seg, src=LAN_SRC_IP,
                              dst=ip4_for(f["dest_ip_counter"]), options=opts)
        frame = oracles.eth(src_mac, dst_mac, 0x0800, packet) + bytes(trailer)
    else:
        payload, trailer = _fill(14, size, raw)
        frame = oracles.eth(src_mac, dst_mac, 0x88B5, bytes(payload)) + bytes(trailer)
    if len(frame) != size:
        raise ValueError(f"rendered {len(frame)} bytes for size {size}")
    return frame


def wire_numbering(columns):
    """The vectors as the wire numbers them: IPv4 and IPv6 destinations that
    share a harness counter are different addresses, so counters are
    renumbered in first-seen order of (address family, counter)."""
    order: dict = {}
    out = []
    for col in columns:
        v = list(col)
        c = v[_IDX["dest_ip_counter"]]
        if c:
            key = (6 if v[_IDX["icmpv6"]] else 4, c)
            v[_IDX["dest_ip_counter"]] = order.setdefault(key, len(order) + 1)
        out.append(tuple(v))
    return out


def ref_vectors(frames) -> list[tuple[int, ...]]:
    """Vectors of one source's frames, in order, via oracles.ref_decode.

    Destination counters follow first-seen order of destination addresses.
    """
    seen: dict = {}
    out = []
    for data in frames:
        d = oracles.ref_decode(data)
        ports = (d["src_port"], d["dst_port"])
        transport = d["tcp"] or d["udp"]

        def app(port):
            return int(bool(transport) and port in ports)

        dhcp = int(bool(d["udp"]) and (67 in ports or 68 in ports))
        counter = 0 if d["dst_ip"] is None else seen.setdefault(d["dst_ip"], len(seen) + 1)
        out.append((d["arp"], d["llc"], d["ip"], d["icmp"], d["icmpv6"], d["eapol"],
                    d["tcp"], d["udp"], app(80), app(443), dhcp, dhcp, app(1900),
                    app(53), app(5353), app(123), d["padding"], d["router_alert"],
                    d["size"], int(d["payload_len"] > 0), counter,
                    port_class(d["src_port"]), port_class(d["dst_port"])))
    return out


def collapse(vectors) -> list[tuple[int, ...]]:
    """Consecutive duplicates folded, as a fingerprint's columns are."""
    out: list = []
    for v in vectors:
        if not out or out[-1] != v:
            out.append(v)
    return out

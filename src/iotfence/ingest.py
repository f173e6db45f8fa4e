"""Passive capture ingest: pcap reading, frame decoding, feature extraction.

Every packet a device emits during its setup phase is reduced to a fixed
23-field vector.  The first 18 fields are protocol presence flags, the rest
carry coarse size/payload/port information:

    arp | llc | ip | icmp | icmpv6 | eapol
    tcp | udp
    http | https | dhcp | bootp | ssdp | dns | mdns | ntp
    ip_opt_padding | ip_opt_router_alert
    size | raw_data | dest_ip_counter | src_port_class | dst_port_class

The decoder is deliberately small: ethernet (one optional 802.1Q tag), ARP,
802.3/LLC, EAPoL, IPv4 with options, IPv6 with extension headers, TCP, UDP,
ICMP and ICMPv6.  Anything else still yields a vector (all flags zero), only
frames whose bytes contradict their own headers are rejected.
"""

from __future__ import annotations

import csv
import ipaddress
import struct
from collections import namedtuple
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

from .errors import CorruptHeader, MalformedFrame, UnsupportedLinkType
from .macaddr import mac_to_str

if TYPE_CHECKING:  # fingerprint imports ingest at run time
    from .fingerprint import SetupWindow

ETH_HEADER_LEN = 14

ETHERTYPE_IP4 = 0x0800
ETHERTYPE_ARP = 0x0806
ETHERTYPE_VLAN = 0x8100
ETHERTYPE_IP6 = 0x86DD
ETHERTYPE_EAPOL = 0x888E

# application flags are derived from ports only; payload is never inspected
PORT_HTTP = 80
PORT_HTTPS = 443
PORT_DNS = 53
PORT_MDNS = 5353
PORT_SSDP = 1900
PORT_NTP = 123
PORTS_DHCP = (67, 68)

WELL_KNOWN_MAX = 1023
REGISTERED_MAX = 49151

FEATURE_NAMES = (
    "arp", "llc", "ip", "icmp", "icmpv6", "eapol",
    "tcp", "udp",
    "http", "https", "dhcp", "bootp", "ssdp", "dns", "mdns", "ntp",
    "ip_opt_padding", "ip_opt_router_alert",
    "size", "raw_data", "dest_ip_counter", "src_port_class", "dst_port_class",
)

_FLAG_VALUES = frozenset((0, 1))
_PORT_CLASSES = (0, 1, 2, 3)


def port_class(port: int | None) -> int:
    """0 = no port, 1 = well-known, 2 = registered, 3 = dynamic/private."""
    if port is None:
        return 0
    if not 0 <= port <= 65535:
        raise ValueError(f"port out of range: {port}")
    if port <= WELL_KNOWN_MAX:
        return 1
    if port <= REGISTERED_MAX:
        return 2
    return 3


class PacketFeatures(namedtuple("PacketFeatures", FEATURE_NAMES)):
    """One packet reduced to the 23-field vector: a tuple of ints in column
    order, so it equals and hashes like the plain tuple of its values."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not _FLAG_VALUES.issuperset(self[:18]) or self.raw_data not in (0, 1):
            raise ValueError("protocol flags and raw_data must be 0 or 1")
        if self.tcp + self.udp > 1:
            raise ValueError("tcp and udp are mutually exclusive")
        if self.arp and self.ip:
            raise ValueError("arp frames carry no ip layer")
        if self.size < 0 or self.dest_ip_counter < 0:
            raise ValueError("size and dest_ip_counter must be non-negative")
        if (self.src_port_class not in _PORT_CLASSES
                or self.dst_port_class not in _PORT_CLASSES):
            raise ValueError("src_port_class and dst_port_class must be in 0..3")
        return self

    @classmethod
    def _make(cls, iterable) -> "PacketFeatures":
        # namedtuple's own _make (and _replace, which calls it) skips __new__
        return cls(*iterable)

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(self)

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "PacketFeatures":
        """Build a vector from loaded values, which must be 23 ints."""
        vals = tuple(values)
        if len(vals) != len(FEATURE_NAMES):
            raise ValueError(f"expected {len(FEATURE_NAMES)} values, got {len(vals)}")
        for v in vals:
            if type(v) is not int:
                raise ValueError(f"feature values must be integers, got {v!r}")
        return cls(*vals)


@dataclass(frozen=True)
class RawFrame:
    """One captured frame: link bytes plus its capture timestamp."""

    ts_sec: int
    ts_usec: int
    data: bytes

    def __post_init__(self):
        if not 0 <= self.ts_usec <= 999_999:
            raise ValueError(f"ts_usec out of range: {self.ts_usec}")

    @property
    def timestamp(self) -> float:
        return self.ts_sec + self.ts_usec / 1e6


@dataclass(frozen=True)
class DecodedPacket:
    """Protocol facts pulled out of one frame, before vectorization."""

    frame_len: int
    arp: bool = False
    llc: bool = False
    eapol: bool = False
    ip_version: int = 0          # 0 = no IP layer
    icmp: bool = False
    icmpv6: bool = False
    transport: str | None = None  # "tcp" | "udp"
    src_port: int | None = None
    dst_port: int | None = None
    ip_opt_padding: bool = False
    ip_opt_router_alert: bool = False
    dst_ip: str | None = None
    payload_len: int = 0


class DestIpCounterState:
    """First-seen ordering of destination IPs within one device session.

    The n-th distinct destination a device talks to gets counter n; packets
    without an IP destination get 0.
    """

    def __init__(self):
        self._order: dict[str, int] = {}

    def counter_for(self, dst_ip: str | None) -> int:
        if dst_ip is None:
            return 0
        got = self._order.get(dst_ip)
        if got is None:
            got = len(self._order) + 1
            self._order[dst_ip] = got
        return got


def _u16(data: bytes, off: int) -> int:
    return (data[off] << 8) | data[off + 1]


def _walk_ip4_options(hdr: bytes, start: int, end: int) -> tuple[bool, bool]:
    padding = False
    router_alert = False
    i = start
    while i < end:
        opt = hdr[i]
        if opt == 0:            # end of options list
            padding = True
            break
        if opt == 1:            # no-op pad
            padding = True
            i += 1
            continue
        if opt == 0x94:
            router_alert = True
        if i + 1 >= end:
            break
        olen = hdr[i + 1]
        if olen < 2:            # impossible length, stop scanning
            break
        i += olen
    return padding, router_alert


def _walk_ip6_options(block: bytes) -> tuple[bool, bool]:
    # TLV options inside hop-by-hop / destination-options headers
    padding = False
    router_alert = False
    i = 0
    while i < len(block):
        opt = block[i]
        if opt == 0:            # Pad1
            padding = True
            i += 1
            continue
        if opt == 1:            # PadN
            padding = True
        elif opt == 5:
            router_alert = True
        if i + 1 >= len(block):
            break
        i += 2 + block[i + 1]
    return padding, router_alert


def _decode_transport(proto: int, seg: bytes, out: dict) -> None:
    """Fill transport fields from an IP payload; raises on truncation."""
    if proto == 6:
        if len(seg) < 20:
            raise MalformedFrame("tcp header truncated")
        data_off = (seg[12] >> 4) * 4
        if data_off < 20 or data_off > len(seg):
            raise MalformedFrame("tcp data offset out of range")
        out.update(transport="tcp", src_port=_u16(seg, 0), dst_port=_u16(seg, 2),
                   payload_len=len(seg) - data_off)
    elif proto == 17:
        if len(seg) < 8:
            raise MalformedFrame("udp header truncated")
        ulen = _u16(seg, 4)
        if ulen < 8:
            raise MalformedFrame("udp length field too small")
        out.update(transport="udp", src_port=_u16(seg, 0), dst_port=_u16(seg, 2),
                   payload_len=max(min(ulen, len(seg)) - 8, 0))
    elif proto == 1:
        if len(seg) < 4:
            raise MalformedFrame("icmp header truncated")
        out.update(icmp=True, payload_len=max(len(seg) - 8, 0))
    elif proto == 58:
        if len(seg) < 4:
            raise MalformedFrame("icmpv6 header truncated")
        out.update(icmpv6=True, payload_len=max(len(seg) - 4, 0))
    else:
        out.update(payload_len=len(seg))


def _decode_ip4(payload: bytes, out: dict) -> None:
    if len(payload) < 20:
        raise MalformedFrame("ipv4 header truncated")
    if payload[0] >> 4 != 4:
        raise MalformedFrame("ipv4 version nibble mismatch")
    hdr_len = (payload[0] & 0x0F) * 4
    if hdr_len < 20 or hdr_len > len(payload):
        raise MalformedFrame("ipv4 header length out of range")
    total_len = _u16(payload, 2)
    if total_len < hdr_len:
        raise MalformedFrame("ipv4 total length smaller than header")
    out["ip_version"] = 4
    out["dst_ip"] = ".".join(str(b) for b in payload[16:20])
    if hdr_len > 20:
        pad, alert = _walk_ip4_options(payload, 20, hdr_len)
        out["ip_opt_padding"] = pad
        out["ip_opt_router_alert"] = alert
    # total_length bounds the payload so ethernet pad bytes never count
    seg = payload[hdr_len:min(total_len, len(payload))]
    proto = payload[9]
    if proto == 58:  # ICMPv6 is not valid over IPv4
        out["payload_len"] = len(seg)
        return
    _decode_transport(proto, seg, out)


_IP6_EXTENSIONS = (0, 43, 44, 60)  # hop-by-hop, routing, fragment, dest opts


def _decode_ip6(payload: bytes, out: dict) -> None:
    if len(payload) < 40:
        raise MalformedFrame("ipv6 header truncated")
    if payload[0] >> 4 != 6:
        raise MalformedFrame("ipv6 version nibble mismatch")
    body_len = _u16(payload, 4)
    out["ip_version"] = 6
    out["dst_ip"] = ipaddress.IPv6Address(payload[24:40]).compressed
    body = payload[40:40 + body_len]
    if len(body) < body_len:
        raise MalformedFrame("ipv6 payload truncated")
    nh = payload[6]
    off = 0
    while nh in _IP6_EXTENSIONS:
        if len(body) - off < 8:
            raise MalformedFrame("ipv6 extension header truncated")
        ext_len = 8 if nh == 44 else (body[off + 1] + 1) * 8
        if off + ext_len > len(body):
            raise MalformedFrame("ipv6 extension header overruns payload")
        if nh in (0, 60):
            pad, alert = _walk_ip6_options(body[off + 2:off + ext_len])
            out["ip_opt_padding"] = out.get("ip_opt_padding", False) or pad
            out["ip_opt_router_alert"] = out.get("ip_opt_router_alert", False) or alert
        nh = body[off]
        off += ext_len
    if nh == 1:  # ICMPv4 is not valid over IPv6
        out["payload_len"] = len(body) - off
        return
    _decode_transport(nh, body[off:], out)


def decode_frame(frame: RawFrame) -> DecodedPacket:
    """Decode one ethernet frame; raises MalformedFrame on truncation."""
    data = frame.data
    if len(data) < ETH_HEADER_LEN:
        raise MalformedFrame(f"frame too short: {len(data)} bytes")

    out: dict = {"frame_len": len(data)}
    ethertype = _u16(data, 12)
    offset = ETH_HEADER_LEN
    if ethertype == ETHERTYPE_VLAN:
        if len(data) < 18:
            raise MalformedFrame("vlan tag truncated")
        ethertype = _u16(data, 16)
        offset = 18
    payload = data[offset:]

    if ethertype <= 1500:
        # 802.3: the type field is actually the PDU length
        if len(payload) < 3:
            raise MalformedFrame("llc header truncated")
        out["llc"] = True
        out["payload_len"] = max(min(ethertype, len(payload)) - 3, 0)
    elif ethertype == ETHERTYPE_ARP:
        if len(payload) < 28:
            raise MalformedFrame("arp body truncated")
        out["arp"] = True
    elif ethertype == ETHERTYPE_EAPOL:
        if len(payload) < 4:
            raise MalformedFrame("eapol header truncated")
        out["eapol"] = True
        out["payload_len"] = min(_u16(payload, 2), len(payload) - 4)
    elif ethertype == ETHERTYPE_IP4:
        _decode_ip4(payload, out)
    elif ethertype == ETHERTYPE_IP6:
        _decode_ip6(payload, out)
    else:
        out["payload_len"] = len(payload)

    return DecodedPacket(**out)


def _port_flag(pkt: DecodedPacket, port: int) -> bool:
    return pkt.src_port == port or pkt.dst_port == port


def extract_features(pkt: DecodedPacket, state: DestIpCounterState) -> PacketFeatures:
    """Vectorize one decoded packet, advancing the session's dst-IP counter."""
    has_transport = pkt.transport is not None
    dhcp = pkt.transport == "udp" and (
        pkt.src_port in PORTS_DHCP or pkt.dst_port in PORTS_DHCP)
    # positional, in FEATURE_NAMES order: keywords cost three times as much
    return PacketFeatures(
        int(pkt.arp), int(pkt.llc), int(pkt.ip_version != 0), int(pkt.icmp),
        int(pkt.icmpv6), int(pkt.eapol),
        int(pkt.transport == "tcp"), int(pkt.transport == "udp"),
        int(has_transport and _port_flag(pkt, PORT_HTTP)),
        int(has_transport and _port_flag(pkt, PORT_HTTPS)),
        int(dhcp), int(dhcp),                                  # dhcp, bootp
        int(has_transport and _port_flag(pkt, PORT_SSDP)),
        int(has_transport and _port_flag(pkt, PORT_DNS)),
        int(has_transport and _port_flag(pkt, PORT_MDNS)),
        int(has_transport and _port_flag(pkt, PORT_NTP)),
        int(pkt.ip_opt_padding), int(pkt.ip_opt_router_alert),
        pkt.frame_len,                                         # size
        int(pkt.payload_len > 0),                              # raw_data
        state.counter_for(pkt.dst_ip),                         # dest_ip_counter
        port_class(pkt.src_port), port_class(pkt.dst_port),
    )


class TimedFeatures(NamedTuple):
    timestamp: float
    features: PacketFeatures


@dataclass
class SessionFeatures:
    """The vectorized packets one source MAC emitted, in capture order: all
    of them, or only its setup phase when extract_sessions cut it."""

    mac: str
    packets: list[TimedFeatures]
    skipped: int = 0
    setup_error: str | None = None


_PCAP_MAGIC_US = 0xA1B2C3D4
# the largest snaplen libpcap writes; no record may claim more, whatever the
# header says, so a corrupt length cannot make one read swallow the file
_MAX_RECORD_LEN = 262_144


def read_pcap(path) -> Iterator[RawFrame]:
    """Yield the frames of a classic pcap file.

    Both byte orders are accepted; the link type must be ethernet.  Frames
    shorter than an ethernet header carry no usable MAC and are dropped here.
    A record longer than the header's snaplen (0 means unset) or than
    262,144 bytes raises CorruptHeader before its body is read.
    """
    with open(path, "rb") as fh:
        head = fh.read(24)
        if len(head) < 24:
            raise CorruptHeader("pcap global header truncated")
        (magic,) = struct.unpack("<I", head[:4])
        if magic == _PCAP_MAGIC_US:
            endian = "<"
        elif struct.unpack(">I", head[:4])[0] == _PCAP_MAGIC_US:
            endian = ">"
        else:
            raise CorruptHeader(f"unknown pcap magic: 0x{magic:08x}")
        snaplen, link_type = struct.unpack(endian + "II", head[16:24])
        if link_type != 1:
            raise UnsupportedLinkType(f"pcap link type {link_type}, need ethernet (1)")
        max_len = min(snaplen, _MAX_RECORD_LEN) if snaplen else _MAX_RECORD_LEN

        rec_fmt = endian + "IIII"
        while True:
            rec = fh.read(16)
            if not rec:
                break
            if len(rec) < 16:
                raise CorruptHeader("pcap record header truncated")
            ts_sec, ts_usec, incl_len, _orig_len = struct.unpack(rec_fmt, rec)
            if ts_usec > 999_999:
                raise CorruptHeader(f"pcap timestamp microseconds out of range: {ts_usec}")
            if incl_len > max_len:
                raise CorruptHeader(f"pcap record length {incl_len} exceeds "
                                    f"the limit of {max_len} bytes")
            data = fh.read(incl_len)
            if len(data) < incl_len:
                raise CorruptHeader("pcap record body truncated")
            if len(data) < ETH_HEADER_LEN:
                continue
            yield RawFrame(ts_sec, ts_usec, data)


def extract_sessions(frames: Iterable[RawFrame],
                     setup_window: Callable[[], SetupWindow] | None = None,
                     ) -> dict[str, SessionFeatures]:
    """Group frames into per-MAC sessions of feature vectors, keyed by the
    formatted source MAC in first-frame order.  Each frame must hold at least
    an ethernet header, as every frame read_pcap yields does.

    Frames that fail to decode are counted on their session and skipped;
    one bad frame never aborts a capture.

    With setup_window (a SetupWindow factory), each session keeps only its
    setup phase: every decoded packet's timestamp is pushed to the session's
    window, a packet is kept only if the window takes it, and once the
    window closes the session's later frames are passed over before they are
    decoded.  A ValueError from the window (timestamps going backwards) is
    kept in the session's setup_error.
    """
    # keyed on the raw source-MAC bytes, so each MAC is formatted only once
    open_sessions: dict[bytes, tuple[SessionFeatures, DestIpCounterState,
                                     SetupWindow | None]] = {}
    for frame in frames:
        raw_mac = frame.data[6:12]
        got = open_sessions.get(raw_mac)
        if got is None:
            got = open_sessions[raw_mac] = (
                SessionFeatures(mac=mac_to_str(raw_mac), packets=[]),
                DestIpCounterState(),
                setup_window() if setup_window is not None else None)
        sess, counter, window = got
        if window is not None and window.closed:
            continue
        try:
            pkt = decode_frame(frame)
        except MalformedFrame:
            sess.skipped += 1
            continue
        ts = frame.timestamp
        if window is not None:
            try:
                if not window.push(ts):
                    continue
            except ValueError as exc:
                sess.setup_error = str(exc)
                continue
        feats = extract_features(pkt, counter)
        sess.packets.append(TimedFeatures(ts, feats))
    return {sess.mac: sess for sess, _, _ in open_sessions.values()}


def write_features_csv(sessions: dict[str, SessionFeatures], path) -> None:
    """One row per packet: mac, packet_index, then the 23 feature columns."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("mac", "packet_index") + FEATURE_NAMES)
        for sess in sessions.values():
            for idx, (_, feats) in enumerate(sess.packets):
                writer.writerow((sess.mac, idx) + feats)

"""Decoder and feature extraction checked against an independent decoder."""

import copy
import csv
import pickle
import random
import struct

import pytest

from iotfence import ingest
from iotfence.errors import CorruptHeader, MalformedFrame, UnsupportedLinkType
from iotfence.ingest import (DestIpCounterState, FEATURE_NAMES, PacketFeatures,
                             RawFrame, decode_frame, extract_features,
                             extract_sessions, port_class, read_pcap,
                             write_features_csv)
from iotfence.macaddr import mac_to_str

import oracles
from conftest import make_features
from oracles import eth, ipv4, ipv6, tcp, udp, icmp, icmpv6, eapol, hop_by_hop

SRC = "02-AB-CD-00-00-01"
DST = "02-AB-CD-00-00-02"


def _pclass(port):
    if port is None:
        return 0
    return 1 if port <= 1023 else (2 if port <= 49151 else 3)


def features_from_ref(ref: dict, counter: int) -> tuple:
    """Map the reference decoder's facts onto the 23-field vector."""
    ports = {ref["src_port"], ref["dst_port"]}
    has_t = ref["tcp"] or ref["udp"]
    dhcp = int(bool(ref["udp"] and ports & {67, 68}))
    return (
        ref["arp"], ref["llc"], int(bool(ref["ip"])), ref["icmp"],
        ref["icmpv6"], ref["eapol"], ref["tcp"], ref["udp"],
        int(bool(has_t and 80 in ports)), int(bool(has_t and 443 in ports)),
        dhcp, dhcp,
        int(bool(has_t and 1900 in ports)), int(bool(has_t and 53 in ports)),
        int(bool(has_t and 5353 in ports)), int(bool(has_t and 123 in ports)),
        ref["padding"], ref["router_alert"],
        ref["size"], int(ref["payload_len"] > 0), counter,
        _pclass(ref["src_port"]), _pclass(ref["dst_port"]),
    )


FRAMES = {
    "arp": eth(SRC, "FF-FF-FF-FF-FF-FF", 0x0806,
               oracles.arp_request(SRC, "192.168.0.10", "192.168.0.1")),
    "dhcp": eth(SRC, DST, 0x0800, ipv4(17, udp(68, 67, b"\x01" * 240),
                                       dst="255.255.255.255")),
    "dns": eth(SRC, DST, 0x0800, ipv4(17, udp(52001, 53, b"\x12\x34" * 12))),
    "mdns_v6": eth(SRC, DST, 0x86DD, ipv6(17, udp(5353, 5353, b"q" * 30))),
    "ssdp": eth(SRC, DST, 0x0800, ipv4(17, udp(50000, 1900, b"M-SEARCH"))),
    "ntp": eth(SRC, DST, 0x0800, ipv4(17, udp(123, 123, b"\x00" * 40))),
    "http": eth(SRC, DST, 0x0800, ipv4(6, tcp(51000, 80, b"GET / HTTP/1.1"))),
    "https_opts": eth(SRC, DST, 0x0800,
                      ipv4(6, tcp(51000, 443, b"\x16\x03", data_offset=8))),
    "tcp_syn": eth(SRC, DST, 0x0800, ipv4(6, tcp(51000, 8080))),
    "udp_app": eth(SRC, DST, 0x0800, ipv4(17, udp(51000, 60000, b"data"))),
    "icmp_echo": eth(SRC, DST, 0x0800, ipv4(1, icmp(8, b"\x00" * 56))),
    "icmp_bare": eth(SRC, DST, 0x0800, ipv4(1, icmp(8))),
    "icmpv6_ra": eth(SRC, DST, 0x86DD,
                     ipv6(0, hop_by_hop(58, b"\x05\x02\x00\x00")
                          + icmpv6(128, b"ping"))),
    "ip4_router_alert": eth(SRC, DST, 0x0800,
                            ipv4(1, icmp(8, b"abc"),
                                 options=b"\x94\x04\x00\x00")),
    "ip4_padding": eth(SRC, DST, 0x0800,
                       ipv4(17, udp(51000, 53, b"x"),
                            options=b"\x01\x01\x01\x00")),
    "vlan_ip": eth(SRC, DST, 0x0800, ipv4(6, tcp(51000, 443, b"\x16")),
                   vlan=10),
    "llc": oracles.llc_frame(SRC, DST, b"\xAA\xAA\x03" + b"payload"),
    "eapol": eth(SRC, DST, 0x888E, eapol(b"\x01\x02\x03")),
    "unknown_ethertype": eth(SRC, DST, 0x88B5, b"\xDE\xAD\xBE\xEF"),
    "icmpv6_over_v4": eth(SRC, DST, 0x0800, ipv4(58, icmpv6(128, b"zz"))),
    "icmp_over_v6": eth(SRC, DST, 0x86DD, ipv6(1, icmp(8, b"zz"))),
    # trailing pad bytes sit outside ipv4's total_length
    "eth_trailer": eth(SRC, DST, 0x0800,
                       ipv4(17, udp(53000, 53, b"ab"))) + b"\x00" * 8,
}


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_decode_matches_reference(name):
    frame = FRAMES[name]
    ref = oracles.ref_decode(frame)
    pkt = decode_frame(RawFrame(0, 0, frame))
    feats = extract_features(pkt, DestIpCounterState())
    expected_counter = 1 if ref["dst_ip"] else 0
    assert feats.as_tuple() == features_from_ref(ref, expected_counter)
    assert pkt.frame_len == len(frame)


def test_payload_lengths_match_reference():
    for name, frame in FRAMES.items():
        ref = oracles.ref_decode(frame)
        pkt = decode_frame(RawFrame(0, 0, frame))
        assert pkt.payload_len == ref["payload_len"], name


def test_trailer_bytes_do_not_count_as_payload():
    pkt = decode_frame(RawFrame(0, 0, FRAMES["eth_trailer"]))
    assert pkt.payload_len == 2  # udp length field, not the captured bytes


def test_icmpv6_over_ipv4_is_not_icmpv6():
    pkt = decode_frame(RawFrame(0, 0, FRAMES["icmpv6_over_v4"]))
    assert not pkt.icmpv6 and not pkt.icmp
    assert pkt.ip_version == 4


def _ip4_with_byte0(value):
    payload = bytearray(ipv4(17, udp(1, 2, b"x")))
    payload[0] = value
    return eth(SRC, DST, 0x0800, bytes(payload))


def _ip4_with_total_len(value):
    payload = bytearray(ipv4(17, udp(1, 2, b"x")))
    struct.pack_into("!H", payload, 2, value)
    return eth(SRC, DST, 0x0800, bytes(payload))


MALFORMED = {
    "short_frame": b"\x00" * 10,
    "vlan_truncated": eth(SRC, DST, 0x8100, b"")[:16],
    "arp_truncated": eth(SRC, DST, 0x0806, b"\x00" * 27),
    "eapol_truncated": eth(SRC, DST, 0x888E, b"\x01\x00"),
    "ip4_truncated": eth(SRC, DST, 0x0800, b"\x45" + b"\x00" * 10),
    "ip4_bad_version": _ip4_with_byte0(0x55),
    "ip4_bad_ihl": _ip4_with_byte0(0x4F),
    "ip4_total_len_too_small": _ip4_with_total_len(10),
    "tcp_truncated": eth(SRC, DST, 0x0800, ipv4(6, tcp(1, 2)[:10])),
    "tcp_bad_offset": eth(SRC, DST, 0x0800, ipv4(6, bytes(
        tcp(1, 2)[:12]) + b"\xF0" + tcp(1, 2)[13:])),
    "udp_truncated": eth(SRC, DST, 0x0800, ipv4(17, udp(1, 2)[:6])),
    "udp_bad_length": eth(SRC, DST, 0x0800, ipv4(
        17, struct.pack("!HHHH", 1, 2, 4, 0))),
    "icmp_truncated": eth(SRC, DST, 0x0800, ipv4(1, b"\x08\x00")),
    "ip6_truncated": eth(SRC, DST, 0x86DD, b"\x60" + b"\x00" * 20),
    "ip6_ext_overrun": eth(SRC, DST, 0x86DD,
                           ipv6(0, b"\x3A\x03" + b"\x00" * 6)),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_frames_raise(name):
    with pytest.raises(MalformedFrame):
        decode_frame(RawFrame(0, 0, MALFORMED[name]))


def test_ip6_payload_shorter_than_declared():
    frame = bytearray(eth(SRC, DST, 0x86DD, ipv6(17, udp(1, 2, b"x"))))
    struct.pack_into("!H", frame, 14 + 4, 500)
    with pytest.raises(MalformedFrame):
        decode_frame(RawFrame(0, 0, bytes(frame)))


def test_port_class_boundaries():
    assert port_class(None) == 0
    assert port_class(0) == 1
    assert port_class(1023) == 1
    assert port_class(1024) == 2
    assert port_class(49151) == 2
    assert port_class(49152) == 3
    assert port_class(65535) == 3
    with pytest.raises(ValueError):
        port_class(-1)
    with pytest.raises(ValueError):
        port_class(65536)


def test_feature_vector_invariants():
    with pytest.raises(ValueError):
        make_features(tcp=1, udp=1)
    with pytest.raises(ValueError):
        make_features(arp=1, ip=1)
    with pytest.raises(ValueError):
        make_features(dns=2)
    with pytest.raises(ValueError):
        make_features(size=-5)
    with pytest.raises(ValueError):
        make_features(src_port_class=4)
    feats = make_features(ip=1, udp=1, dns=1, size=80,
                          dest_ip_counter=1, src_port_class=3,
                          dst_port_class=1, raw_data=1)
    assert PacketFeatures.from_values(feats.as_tuple()) == feats
    with pytest.raises(ValueError):
        PacketFeatures.from_values((0,) * 22)
    # the namedtuple helpers construct through the same checks
    with pytest.raises(ValueError):
        feats._replace(tcp=1)
    with pytest.raises(ValueError):
        PacketFeatures._make([5] * len(FEATURE_NAMES))
    assert feats._replace(size=90).size == 90
    assert PacketFeatures._make(feats) == feats


def test_dest_ip_counter_is_dense_first_seen():
    state = DestIpCounterState()
    seen = [state.counter_for(ip) for ip in
            ("8.8.8.8", "1.2.3.4", "8.8.8.8", None, "9.9.9.9", "1.2.3.4")]
    assert seen == [1, 2, 1, 0, 3, 2]


def test_raw_frame_validation():
    with pytest.raises(ValueError):
        RawFrame(0, 1_000_000, b"\x00" * 20)
    assert RawFrame(2, 500_000, b"\x00" * 20).timestamp == 2.5


# pcap reading ---------------------------------------------------------------

def _sample_records():
    return [(1, 500_000, FRAMES["arp"]),
            (2, 0, FRAMES["dhcp"]),
            (2, 999_999, FRAMES["icmp_echo"])]


@pytest.mark.parametrize("big_endian", (False, True))
def test_read_pcap_round_trip(tmp_path, big_endian):
    path = tmp_path / "cap.pcap"
    records = _sample_records()
    oracles.write_pcap(path, records, big_endian=big_endian)
    got = list(read_pcap(path))
    assert len(got) == 3
    for (ts_sec, ts_usec, data), frame in zip(records, got):
        assert frame.data == data
        assert (frame.ts_sec, frame.ts_usec) == (ts_sec, ts_usec)


def test_read_pcap_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.pcap"
    oracles.write_pcap(path, [], magic=0xDEADBEEF)
    with pytest.raises(CorruptHeader):
        list(read_pcap(path))


def test_read_pcap_rejects_nanosecond_magic(tmp_path):
    path = tmp_path / "nano.pcap"
    oracles.write_pcap(path, [], magic=0xA1B23C4D)
    with pytest.raises(CorruptHeader):
        list(read_pcap(path))


def test_read_pcap_rejects_non_ethernet(tmp_path):
    path = tmp_path / "wifi.pcap"
    oracles.write_pcap(path, [], link_type=105)
    with pytest.raises(UnsupportedLinkType):
        list(read_pcap(path))


def test_read_pcap_truncations(tmp_path):
    path = tmp_path / "trunc.pcap"
    path.write_bytes(b"\xd4\xc3\xb2\xa1\x02\x00")
    with pytest.raises(CorruptHeader):
        list(read_pcap(path))

    oracles.write_pcap(path, _sample_records())
    whole = path.read_bytes()
    path.write_bytes(whole + b"\x00" * 8)      # half a record header
    with pytest.raises(CorruptHeader):
        list(read_pcap(path))

    path.write_bytes(whole[:-5])               # record body cut short
    with pytest.raises(CorruptHeader):
        list(read_pcap(path))


def test_read_pcap_rejects_overflowing_microseconds(tmp_path):
    path = tmp_path / "usec.pcap"
    with open(path, "wb") as fh:
        fh.write(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1))
        fh.write(struct.pack("<IIII", 1, 1_000_000, 20, 20))
        fh.write(b"\x00" * 20)
    with pytest.raises(CorruptHeader):
        list(read_pcap(path))


def _patched(path, big_endian, snaplen=None, incl_len=None):
    """Rewrite the global header's snaplen or the first record's incl_len."""
    e = ">" if big_endian else "<"
    raw = bytearray(path.read_bytes())
    if snaplen is not None:
        raw[16:20] = struct.pack(e + "I", snaplen)
    if incl_len is not None:
        raw[32:36] = struct.pack(e + "I", incl_len)
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize("big_endian", (False, True))
def test_read_pcap_bounds_record_length_by_snaplen(tmp_path, big_endian):
    path = tmp_path / "snap.pcap"
    records = _sample_records()
    longest = max(len(data) for _, _, data in records)
    oracles.write_pcap(path, records, big_endian=big_endian)
    _patched(path, big_endian, snaplen=longest)
    assert len(list(read_pcap(path))) == 3       # a record may fill snaplen
    _patched(path, big_endian, snaplen=0)
    assert len(list(read_pcap(path))) == 3       # 0: no snaplen given
    _patched(path, big_endian, snaplen=longest - 1)
    with pytest.raises(CorruptHeader, match="exceeds"):
        list(read_pcap(path))


@pytest.mark.parametrize("big_endian", (False, True))
@pytest.mark.parametrize("snaplen", (0, 0xFFFFFFFF))
def test_read_pcap_caps_record_length(tmp_path, big_endian, snaplen):
    path = tmp_path / "huge.pcap"
    frame = FRAMES["arp"] + bytes(262_145 - len(FRAMES["arp"]))
    oracles.write_pcap(path, [(1, 0, frame)], big_endian=big_endian)
    _patched(path, big_endian, snaplen=snaplen)
    with pytest.raises(CorruptHeader, match="exceeds"):
        list(read_pcap(path))
    # refused on the header alone: the claimed body is never read
    oracles.write_pcap(path, _sample_records(), big_endian=big_endian)
    _patched(path, big_endian, snaplen=snaplen, incl_len=0xFFFFFFFF)
    with pytest.raises(CorruptHeader, match="exceeds"):
        list(read_pcap(path))


def test_mac_to_str_matches_formatted_join():
    rng = random.Random(7)
    for _ in range(10_000):
        raw = bytes(rng.randrange(256) for _ in range(6))
        assert mac_to_str(raw) == "-".join(f"{b:02X}" for b in raw)
    for size in (0, 5, 7):
        with pytest.raises(ValueError):
            mac_to_str(bytes(size))


def test_read_pcap_drops_sub_ethernet_frames(tmp_path):
    path = tmp_path / "runt.pcap"
    oracles.write_pcap(path, [(1, 0, b"\x00" * 10), (2, 0, FRAMES["arp"])])
    got = list(read_pcap(path))
    assert len(got) == 1
    assert got[0].data == FRAMES["arp"]


# session grouping -----------------------------------------------------------

OTHER = "02-AB-CD-00-00-99"


def test_extract_sessions_groups_and_counts(tmp_path):
    frames = [
        (1, 0, eth(SRC, DST, 0x0800, ipv4(17, udp(50000, 53, b"q"),
                                          dst="8.8.8.8"))),
        (2, 0, eth(OTHER, DST, 0x0806,
                   oracles.arp_request(OTHER, "10.0.0.2", "10.0.0.1"))),
        (3, 0, eth(SRC, DST, 0x0800, ipv4(17, udp(50000, 123, b"n" * 40),
                                          dst="1.2.3.4"))),
        (4, 0, eth(SRC, DST, 0x0800, ipv4(6, tcp(1, 2)[:10]))),  # malformed
        (5, 0, eth(SRC, DST, 0x0800, ipv4(17, udp(50000, 53, b"q"),
                                          dst="8.8.8.8"))),
    ]
    path = tmp_path / "two.pcap"
    oracles.write_pcap(path, frames)
    sessions = extract_sessions(read_pcap(path))

    assert set(sessions) == {SRC, OTHER}
    mine = sessions[SRC]
    assert [tf.timestamp for tf in mine.packets] == [1.0, 3.0, 5.0]
    assert [tf.features.dest_ip_counter for tf in mine.packets] == [1, 2, 1]
    assert mine.skipped == 1
    assert sessions[OTHER].packets[0].features.arp == 1
    assert sessions[OTHER].skipped == 0


def test_each_mac_is_formatted_once(tmp_path, monkeypatch):
    calls = []

    def counting(raw):
        calls.append(raw)
        return mac_to_str(raw)

    monkeypatch.setattr(ingest, "mac_to_str", counting)
    frames = [FRAMES["dns"], FRAMES["ntp"], oracles.llc_frame(OTHER, DST, b"\xAA\xAA\x03x")]
    records = [(0, i, frames[i % 3]) for i in range(1_000)]
    path = tmp_path / "many.pcap"
    oracles.write_pcap(path, records)
    sessions = extract_sessions(read_pcap(path))
    assert len(calls) == 2
    # keyed as the reference decoder reads each frame's MAC, first frame first
    want = dict.fromkeys(oracles.ref_decode(data)["src_mac"] for _, _, data in records)
    assert list(sessions) == list(want) == [SRC, OTHER]
    assert all(sess.mac == mac for mac, sess in sessions.items())
    assert [len(s.packets) for s in sessions.values()] == [667, 333]


def test_write_features_csv(tmp_path):
    frames = [(1, 0, FRAMES["dns"]), (2, 0, FRAMES["arp"])]
    pcap = tmp_path / "cap.pcap"
    oracles.write_pcap(pcap, frames)
    sessions = extract_sessions(read_pcap(pcap))
    out = tmp_path / "features.csv"
    write_features_csv(sessions, out)

    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["mac", "packet_index"] + list(FEATURE_NAMES)
    assert len(rows) == 3
    sess = sessions[SRC]
    assert tuple(int(v) for v in rows[1][2:]) == sess.packets[0].features.as_tuple()
    assert rows[1][:2] == [SRC, "0"]


# mutated frames ----------------------------------------------------------------

def _facts(pkt) -> dict:
    """A decoded packet in the shape of oracles.ref_decode's dict."""
    return dict(arp=int(pkt.arp), llc=int(pkt.llc), ip=int(pkt.ip_version != 0),
                icmp=int(pkt.icmp), icmpv6=int(pkt.icmpv6), eapol=int(pkt.eapol),
                tcp=int(pkt.transport == "tcp"), udp=int(pkt.transport == "udp"),
                src_port=pkt.src_port, dst_port=pkt.dst_port, dst_ip=pkt.dst_ip,
                payload_len=pkt.payload_len, padding=int(pkt.ip_opt_padding),
                router_alert=int(pkt.ip_opt_router_alert), size=pkt.frame_len)


def _mutations(frame: bytes, rng: random.Random, flips: int):
    for cut in range(len(frame) + 1):
        yield frame[:cut]
    for _ in range(flips):
        data = bytearray(frame)
        for _ in range(rng.randint(1, 3)):
            data[rng.randrange(len(data))] = rng.randrange(256)
        yield bytes(data)


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_mutated_frames_decode_like_reference_or_raise(name):
    # one malformed frame is skipped, anything else raised aborts the capture
    rng = random.Random(f"mutate-{name}")
    for data in _mutations(FRAMES[name], rng, flips=300):
        try:
            pkt = decode_frame(RawFrame(0, 0, data))
        except MalformedFrame:
            continue
        ref = oracles.ref_decode(data)
        del ref["src_mac"]   # decode_frame leaves the MAC to extract_sessions
        assert _facts(pkt) == ref, data.hex()


# feature vectors -----------------------------------------------------------------

def test_feature_hash_is_the_field_tuple_hash():
    rng = random.Random(7)
    for _ in range(200):
        values = [0] * len(FEATURE_NAMES)
        for name in rng.sample(FEATURE_NAMES[:6], 1) + ["ip_opt_padding", "raw_data"]:
            values[FEATURE_NAMES.index(name)] = rng.randint(0, 1)
        values[FEATURE_NAMES.index("size")] = rng.randint(14, 1500)
        values[FEATURE_NAMES.index("dest_ip_counter")] = rng.randint(0, 9)
        if values[FEATURE_NAMES.index("arp")]:
            values[FEATURE_NAMES.index("ip")] = 0
        feats = PacketFeatures(*values)
        again = PacketFeatures.from_values(feats.as_tuple())
        assert again == feats and again is not feats
        # the plain tuple's hash, so set and dict orders, and every output
        # that follows them, are those of the pinned files
        assert hash(feats) == hash(again) == hash(tuple(values))
        assert feats == tuple(values) and feats.as_tuple() == tuple(values)
        assert len({feats, again, tuple(values)}) == 1
        for clone in (copy.copy(feats), copy.deepcopy(feats),
                      pickle.loads(pickle.dumps(feats))):
            assert type(clone) is PacketFeatures
            assert clone == feats and hash(clone) == hash(feats)

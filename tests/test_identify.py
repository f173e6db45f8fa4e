"""Identification outcomes, isolation assignment, the capture pipeline."""

import json
from importlib import import_module

import numpy as np
import pytest

from iotfence.enforce import IsolationLevel
from iotfence.errors import (CorruptFile, RestrictedWithoutPermittedIps,
                             SchemaMismatch)
from iotfence.fingerprint import SetupSessionConfig, build_fingerprint, segment_setup
from iotfence.identify import (IdentificationResult, IsolationAssignment,
                               StageTimes, VulnerabilityEntry,
                               VulnerabilityRegistry, assign_isolation,
                               identify, identify_capture)
from iotfence.ingest import extract_sessions, read_pcap

import oracles
from conftest import make_features
from oracles import eth, ipv4, tcp, udp

# the package re-exports functions named like these modules
identify_module, ingest_module = (import_module(f"iotfence.{m}")
                                  for m in ("identify", "ingest"))


def _alien_fingerprint():
    """Columns far from anything the synthetic corpus produces."""
    cols = [make_features(eapol=1, size=9000 + 7 * i, raw_data=1)
            for i in range(15)]
    return build_fingerprint("02-FF-00-00-00-01", cols)


def test_identify_known_fingerprint(small_corpus, small_registry):
    fp = small_corpus[0]
    result = identify(fp, small_registry, small_corpus)
    assert result.device_type == fp.label
    assert not result.is_unknown
    assert result.device_mac == fp.device_mac
    assert len(result.predictions) == len(small_registry)
    matched = [p for p in result.predictions if p.match]
    assert result.discrimination_used == (len(matched) > 1)


def test_identify_rejects_alien_fingerprint(small_corpus, small_registry):
    result = identify(_alien_fingerprint(), small_registry, small_corpus)
    assert result.is_unknown
    assert result.device_type is None
    assert not result.discrimination_used
    assert all(not p.match for p in result.predictions)


def test_identify_times_are_sane(small_corpus, small_registry):
    result = identify(small_corpus[3], small_registry, small_corpus)
    t = result.times
    assert t.classify_ms >= 0 and t.discriminate_ms >= 0
    assert t.total_ms >= t.classify_ms


def test_result_json_shape(small_corpus, small_registry):
    doc = identify(small_corpus[0], small_registry, small_corpus).to_json_dict()
    assert doc["outcome"] == "identified"
    assert set(doc["times_ms"]) == {"classify", "discriminate", "total"}
    assert len(doc["predictions"]) == len(small_registry)
    alien = identify(_alien_fingerprint(), small_registry, small_corpus)
    assert alien.to_json_dict()["outcome"] == "unknown"


# isolation assignment ---------------------------------------------------------

def _result(device_type):
    return IdentificationResult(
        device_mac="02-00-00-00-00-01", device_type=device_type,
        predictions=(), discrimination_used=False,
        times=StageTimes(0.0, 0.0, 0.0))


def _vulns():
    return VulnerabilityRegistry({
        "cam": VulnerabilityEntry(IsolationLevel.RESTRICTED, ("3.3.3.3",)),
        "tv": VulnerabilityEntry(IsolationLevel.TRUSTED),
        "lock": VulnerabilityEntry(IsolationLevel.STRICT),
    })


def test_unknown_gets_strict():
    asg = assign_isolation(_result(None), _vulns())
    assert asg.level is IsolationLevel.STRICT
    assert asg.permitted_ip == ()


def test_unlisted_type_fails_closed():
    asg = assign_isolation(_result("new-gadget"), _vulns())
    assert asg.level is IsolationLevel.STRICT
    assert "failing closed" in asg.reason


def test_listed_types_get_their_entry():
    asg = assign_isolation(_result("cam"), _vulns())
    assert asg.level is IsolationLevel.RESTRICTED
    assert asg.permitted_ip == ("3.3.3.3",)
    assert assign_isolation(_result("tv"), _vulns()).level is IsolationLevel.TRUSTED
    doc = asg.to_json_dict()
    assert set(doc) == {"isolation", "permitted_ip", "reason"}
    assert doc["isolation"] == "restricted"


def test_vulnerability_entry_validation():
    with pytest.raises(RestrictedWithoutPermittedIps):
        VulnerabilityEntry(IsolationLevel.RESTRICTED)
    with pytest.raises(ValueError):
        VulnerabilityEntry(IsolationLevel.STRICT, ("1.2.3.4",))


def test_vulnerability_registry_round_trip(tmp_path):
    path = tmp_path / "vulns.json"
    vulns = _vulns()
    vulns.save(path)
    loaded = VulnerabilityRegistry.load(path)
    assert loaded.types() == vulns.types()
    for t in vulns.types():
        assert loaded.get(t) == vulns.get(t)


def test_vulnerability_registry_rejects_bad_files(tmp_path):
    path = tmp_path / "vulns.json"
    path.write_text("{")
    with pytest.raises(CorruptFile):
        VulnerabilityRegistry.load(path)
    path.write_text(json.dumps({"schema": "iotfence-vulns/7", "types": {}}))
    with pytest.raises(SchemaMismatch):
        VulnerabilityRegistry.load(path)
    path.write_text(json.dumps({"schema": "iotfence-vulns/1", "types": {
        "cam": {"isolation": "restricted", "permitted_ip": []}}}))
    with pytest.raises(CorruptFile):
        VulnerabilityRegistry.load(path)


# capture pipeline --------------------------------------------------------------

DEV_A = "02-AA-00-00-00-01"
DEV_B = "02-AA-00-00-00-02"


def _setup_frames(mac, base_ts):
    out = []
    for i in range(14):
        frame = eth(mac, "FF-FF-FF-FF-FF-FF", 0x0800,
                    ipv4(17, udp(68, 67, bytes(200 + i)), dst="255.255.255.255"))
        out.append((base_ts, i * 1000, frame))
    return out


def test_identify_capture_end_to_end(tmp_path, small_corpus, small_registry):
    pcap = tmp_path / "setup.pcap"
    frames = sorted(_setup_frames(DEV_A, 10) + _setup_frames(DEV_B, 11),
                    key=lambda r: (r[0], r[1]))
    oracles.write_pcap(pcap, frames)

    results = identify_capture(pcap, small_registry, small_corpus, _vulns())
    assert len(results) == 2
    macs = {res.device_mac for res, _ in results}
    assert macs == {DEV_A, DEV_B}
    for res, asg in results:
        # frames unlike the training corpus: unknown, strictly isolated
        assert res.is_unknown
        assert asg.level is IsolationLevel.STRICT


def _backwards_frames(mac):
    """Two frames of one device, the second stamped 4 ms before the first."""
    first, second = _setup_frames(mac, 12)[:2]
    return [(12, 4000, first[2]), (12, 0, second[2])]


def test_identify_capture_fails_closed_per_device(tmp_path, small_corpus,
                                                   small_registry):
    alone = tmp_path / "alone.pcap"
    oracles.write_pcap(alone, _setup_frames(DEV_A, 10))
    mixed = tmp_path / "mixed.pcap"
    oracles.write_pcap(mixed, _setup_frames(DEV_A, 10) + _backwards_frames(DEV_B))

    [(want, want_asg)] = identify_capture(alone, small_registry, small_corpus, _vulns())
    results = identify_capture(mixed, small_registry, small_corpus, _vulns())
    assert [res.device_mac for res, _ in results] == [DEV_A, DEV_B]
    (good, good_asg), (bad, bad_asg) = results
    # the good device is identified as if it were alone in the capture
    assert len(good.predictions) == len(small_registry)
    assert (good.device_type, good.predictions) == (want.device_type, want.predictions)
    assert good_asg == want_asg
    assert bad.is_unknown and bad.predictions == () and not bad.discrimination_used
    assert bad_asg.level is IsolationLevel.STRICT and bad_asg.permitted_ip == ()
    assert "segmentation failed" in bad_asg.reason
    assert "non-decreasing" in bad_asg.reason


def test_identify_capture_skips_undecodable_sessions(tmp_path, small_corpus,
                                                     small_registry):
    pcap = tmp_path / "broken.pcap"
    bad = eth(DEV_B, DEV_A, 0x0806, b"\x00" * 20)  # truncated arp
    oracles.write_pcap(pcap, _setup_frames(DEV_A, 10) + [(12, 0, bad)])
    results = identify_capture(pcap, small_registry, small_corpus, _vulns())
    assert [res.device_mac for res, _ in results] == [DEV_A]


# streamed setup windows against the whole-session path ----------------------------

DEV_C = "02-AA-00-00-00-03"
BAD_TCP = ipv4(6, tcp(1, 2)[:10])  # tcp header truncated


def _timed(mac, times_us):
    """One DHCP frame per timestamp (microseconds); payload sizes differ, so
    every frame is its own fingerprint column."""
    return [(t // 1_000_000, t % 1_000_000,
             eth(mac, "FF-FF-FF-FF-FF-FF", 0x0800,
                 ipv4(17, udp(68, 67, bytes(200 + i)), dst="255.255.255.255")))
            for i, t in enumerate(times_us)]


def _steady(mac, times_us):
    """Traffic unlike the setup frames: HTTPS to one server, sizes differing."""
    return [(t // 1_000_000, t % 1_000_000,
             eth(mac, DEV_A, 0x0800, ipv4(6, tcp(51000, 443, bytes(i)), dst="10.0.0.9")))
            for i, t in enumerate(times_us)]


def _malformed(mac, t_us):
    return (t_us // 1_000_000, t_us % 1_000_000, eth(mac, DEV_A, 0x0800, BAD_TCP))


def _times_us(start_s, n, step_ms=1):
    return [start_s * 1_000_000 + i * step_ms * 1000 for i in range(n)]


def _in_time_order(*devices):
    return sorted((r for dev in devices for r in dev), key=lambda r: (r[0], r[1]))


def _reference(pcap, registry, store, vulns, config):
    """Every packet of every MAC first, then segment_setup on each session."""
    out = []
    for mac, sess in extract_sessions(read_pcap(pcap)).items():
        if not sess.packets:
            continue
        try:
            setup = segment_setup(sess.packets, config)
        except ValueError as exc:
            reason = f"setup segmentation failed ({exc}), isolated strictly"
            out.append((mac, None, (), IsolationAssignment(IsolationLevel.STRICT, (), reason),
                        None))
            continue
        fp = build_fingerprint(mac, setup)
        res = identify(fp, registry, store)
        out.append((mac, res.device_type, res.predictions, assign_isolation(res, vulns),
                    fp.columns))
    return out


def _check_streamed(monkeypatch, tmp_path, records, registry, store, config=None):
    """identify_capture on the records equals the reference, fingerprints
    included; returns {mac: fingerprint columns, or None when failed}."""
    pcap = tmp_path / "capture.pcap"
    oracles.write_pcap(pcap, records)
    columns = {}

    def spy(fp, *args, **kwargs):
        columns[fp.device_mac] = fp.columns
        return identify(fp, *args, **kwargs)

    want = _reference(pcap, registry, store, _vulns(), config)
    monkeypatch.setattr(identify_module, "identify", spy)
    got = [(res.device_mac, res.device_type, res.predictions, asg,
            columns.get(res.device_mac))
           for res, asg in identify_capture(pcap, registry, store, _vulns(), config)]
    assert got == want
    return {mac: cols for mac, _, _, _, cols in got}


CUTS = {
    # 14 setup frames each, then an idle gap of 40 s before steady traffic
    "idle": (_in_time_order(
        _timed(DEV_A, _times_us(10, 14)) + _steady(DEV_A, _times_us(50, 20)),
        _timed(DEV_B, _times_us(11, 14, 2)) + _steady(DEV_B, _times_us(51, 20))),
        None, {DEV_A: 14, DEV_B: 14}),
    # a 30-frame burst, then stragglers: at 114 s the 10 s window holds two
    "rate_drop": (_in_time_order(
        _timed(DEV_A, _times_us(100, 30, 100))
        + _steady(DEV_A, _times_us(112, 1) + _times_us(114, 1) + _times_us(116, 5)),
        _timed(DEV_B, _times_us(10, 14))),
        None, {DEV_A: 31, DEV_B: 14}),
    "max_packets": (_in_time_order(
        _timed(DEV_A, _times_us(10, 50, 10)), _timed(DEV_B, _times_us(10, 15, 10))),
        SetupSessionConfig(max_packets=20), {DEV_A: 20, DEV_B: 15}),
    "end_of_capture": (_in_time_order(
        _timed(DEV_A, _times_us(10, 14)), _timed(DEV_B, _times_us(10, 3))),
        None, {DEV_A: 14, DEV_B: 3}),
}


@pytest.mark.parametrize("cut", sorted(CUTS))
def test_streamed_setup_matches_whole_sessions(cut, monkeypatch, tmp_path,
                                               small_corpus, small_registry):
    records, config, setup_lengths = CUTS[cut]
    columns = _check_streamed(monkeypatch, tmp_path, records, small_registry,
                              small_corpus, config)
    assert {mac: len(cols) for mac, cols in columns.items()} == setup_lengths


def test_streamed_setup_skips_malformed_frames_around_the_cut(
        monkeypatch, tmp_path, small_corpus, small_registry):
    # malformed frames never reach the setup window: one stamped 40 s late
    # shows no idle gap, and two among DEV_B's first 20 use none of its 20
    setup = _timed(DEV_A, _times_us(10, 14))
    dev_a = (setup[:5] + [_malformed(DEV_A, 50_000_000)] + setup[5:]
             # the first frame after the gap is malformed, so the next one cuts
             + [_malformed(DEV_A, 50_000_000)] + _steady(DEV_A, _times_us(50, 10))
             + [_malformed(DEV_A, 60_000_000)])
    burst = _timed(DEV_B, _times_us(20, 24))
    dev_b = burst[:3] + [_malformed(DEV_B, 20_002_500)] + burst[3:10] + \
        [_malformed(DEV_B, 20_009_500)] + burst[10:]
    columns = _check_streamed(monkeypatch, tmp_path, dev_a + dev_b, small_registry,
                              small_corpus, SetupSessionConfig(max_packets=20))
    assert {mac: len(cols) for mac, cols in columns.items()} == {DEV_A: 14, DEV_B: 20}


def test_streamed_setup_fails_closed_only_before_the_cut(
        monkeypatch, tmp_path, small_corpus, small_registry):
    # DEV_B goes back 4 ms inside its setup; DEV_C only after its idle gap
    back = _timed(DEV_B, _times_us(12, 4))
    back[2] = (12, 0, back[2][2])
    late = _timed(DEV_C, _times_us(13, 14)) + _steady(DEV_C, [60_000_000, 59_000_000])
    records = _timed(DEV_A, _times_us(10, 14)) + back + late
    columns = _check_streamed(monkeypatch, tmp_path, records, small_registry,
                              small_corpus)
    assert list(columns) == [DEV_A, DEV_B, DEV_C]
    assert columns[DEV_B] is None
    assert len(columns[DEV_C]) == 14
    results = identify_capture(tmp_path / "capture.pcap", small_registry,
                               small_corpus, _vulns())
    assert "non-decreasing" in results[1][1].reason


def test_streamed_setup_keeps_first_frame_order_and_omits_undecodable(
        monkeypatch, tmp_path, small_corpus, small_registry):
    # DEV_C's first frame comes first but is malformed; DEV_B never decodes
    records = ([_malformed(DEV_C, 9_000_000)] + _timed(DEV_A, _times_us(10, 14))
               + [_malformed(DEV_B, 10_500_000), _malformed(DEV_B, 10_600_000)]
               + _timed(DEV_C, _times_us(11, 14)))
    columns = _check_streamed(monkeypatch, tmp_path, records, small_registry,
                              small_corpus)
    assert list(columns) == [DEV_C, DEV_A]


def test_steady_frames_are_never_decoded(monkeypatch, tmp_path, small_corpus,
                                         small_registry):
    pcap = tmp_path / "long.pcap"
    oracles.write_pcap(pcap, _timed(DEV_A, _times_us(10, 14))
                       + _steady(DEV_A, _times_us(50, 1000)))
    calls = []
    decode = ingest_module.decode_frame

    def counted(frame):
        calls.append(frame)
        return decode(frame)

    monkeypatch.setattr(ingest_module, "decode_frame", counted)
    [(res, _)] = identify_capture(pcap, small_registry, small_corpus, _vulns())
    assert res.device_mac == DEV_A
    # the 14 setup frames, and the one that shows the idle gap
    assert len(calls) <= 15

"""Identification outcomes, isolation assignment, the capture pipeline."""

import json

import numpy as np
import pytest

from iotfence.enforce import IsolationLevel
from iotfence.errors import (CorruptFile, RestrictedWithoutPermittedIps,
                             SchemaMismatch)
from iotfence.fingerprint import build_fingerprint
from iotfence.identify import (IdentificationResult, IsolationAssignment,
                               StageTimes, VulnerabilityEntry,
                               VulnerabilityRegistry, assign_isolation,
                               identify, identify_capture)

import oracles
from conftest import make_features
from oracles import eth, ipv4, udp


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

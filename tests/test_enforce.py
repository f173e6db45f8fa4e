"""Rules, overlays, flow decisions, the cache, and rule persistence."""

import json
import random

import pytest

from iotfence.enforce import (Decision, EnforcementRule, FlowKey,
                              IsolationLevel, Overlay, RULE_FIELDS, RuleCache,
                              decide, load_flows_csv, load_rules, make_rule,
                              overlay_of, rule_hash, save_rules,
                              simulate_flows)
from iotfence.errors import (CapacityExceeded, CorruptFile,
                             RestrictedWithoutPermittedIps, SchemaMismatch)

from oracles import RefRuleCache

CAM = "02-00-00-00-00-01"
HUB = "02-00-00-00-00-02"
TV = "02-00-00-00-00-03"
PEER = "02-00-00-00-00-99"

LISTED = "34.226.19.10"
UNLISTED = "8.8.8.8"


def _cache():
    cache = RuleCache()
    cache.update(make_rule(CAM, IsolationLevel.STRICT, rule_id=1))
    cache.update(make_rule(HUB, IsolationLevel.RESTRICTED, (LISTED,), rule_id=2))
    cache.update(make_rule(TV, IsolationLevel.TRUSTED, rule_id=3))
    return cache


def test_overlay_mapping():
    assert overlay_of(IsolationLevel.STRICT) is Overlay.UNTRUSTED
    assert overlay_of(IsolationLevel.RESTRICTED) is Overlay.UNTRUSTED
    assert overlay_of(IsolationLevel.TRUSTED) is Overlay.TRUSTED


# level x destination: untrusted peer, trusted peer, listed IP, unlisted IP
TRUTH_TABLE = [
    (CAM, "peer_untrusted", True),
    (CAM, "peer_trusted", False),
    (CAM, "ip_listed", False),
    (CAM, "ip_unlisted", False),
    (HUB, "peer_untrusted", True),
    (HUB, "peer_trusted", False),
    (HUB, "ip_listed", True),
    (HUB, "ip_unlisted", False),
    (TV, "peer_untrusted", False),
    (TV, "peer_trusted", True),
    (TV, "ip_listed", True),
    (TV, "ip_unlisted", True),
]


def _flow(src, dst):
    if dst == "peer_untrusted":
        return FlowKey.to_device(src, PEER, Overlay.UNTRUSTED)
    if dst == "peer_trusted":
        return FlowKey.to_device(src, PEER, Overlay.TRUSTED)
    return FlowKey.to_internet(src, LISTED if dst == "ip_listed" else UNLISTED)


@pytest.mark.parametrize("src,dst,permit", TRUTH_TABLE)
def test_decision_truth_table(src, dst, permit):
    decision = decide(_flow(src, dst), _cache())
    assert decision.permit is permit
    assert decision.level is not None
    assert decision.reason


def test_unknown_source_is_denied():
    decision = decide(FlowKey.to_internet("02-11-22-33-44-55", UNLISTED), _cache())
    assert decision == Decision(False, "no rule for source device", None)


def test_rule_hash_is_order_insensitive():
    h1 = rule_hash((CAM, HUB), IsolationLevel.RESTRICTED, ("1.1.1.1", "2.2.2.2"))
    h2 = rule_hash((HUB, CAM), IsolationLevel.RESTRICTED, ("2.2.2.2", "1.1.1.1"))
    assert h1 == h2
    assert len(h1) == 16 and int(h1, 16) >= 0
    assert h1 != rule_hash((CAM, HUB), IsolationLevel.STRICT, ())


def test_rule_hash_normalizes_macs():
    assert rule_hash(("02:00:00:00:00:01",), IsolationLevel.STRICT, ()) == \
        rule_hash((CAM,), IsolationLevel.STRICT, ())


def test_make_rule_normalizes_and_names():
    rule = make_rule("02:ab:cd:00:00:07", IsolationLevel.STRICT, rule_id=9)
    assert rule.source_mac == ("02-AB-CD-00-00-07",)
    assert rule.name == "rule-9"
    named = make_rule(CAM, IsolationLevel.TRUSTED, name="living-room-tv")
    assert named.name == "living-room-tv"


def test_rule_validation():
    with pytest.raises(RestrictedWithoutPermittedIps):
        make_rule(CAM, IsolationLevel.RESTRICTED)
    with pytest.raises(ValueError):
        make_rule(CAM, IsolationLevel.STRICT, ("1.2.3.4",))
    with pytest.raises(ValueError):
        make_rule(CAM, IsolationLevel.STRICT, rule_id=-1)
    with pytest.raises(ValueError):
        make_rule("not-a-mac", IsolationLevel.STRICT)
    good = make_rule(CAM, IsolationLevel.STRICT)
    with pytest.raises(ValueError):  # tampered hash must not verify
        EnforcementRule(id=good.id, name=good.name, source_mac=good.source_mac,
                        permitted_ip=good.permitted_ip, priority=good.priority,
                        hash="0" * 16, level=good.level)
    with pytest.raises(ValueError):  # MACs must arrive canonical
        EnforcementRule(id=0, name="x", source_mac=("02:00:00:00:00:01",),
                        permitted_ip=(), priority=0,
                        hash=rule_hash((CAM,), IsolationLevel.STRICT, ()),
                        level=IsolationLevel.STRICT)


def test_rule_json_fields_exact():
    rule = make_rule(HUB, IsolationLevel.RESTRICTED, (LISTED,), rule_id=4,
                     priority=100)
    doc = rule.to_json_dict()
    assert set(doc) == set(RULE_FIELDS)
    assert doc["isolation"] == "restricted"
    assert doc["permitted_ip"] == [LISTED]
    assert doc["hash"] == rule.hash


def test_flow_key_validation():
    with pytest.raises(ValueError):
        FlowKey(src_mac=CAM)  # no destination at all
    with pytest.raises(ValueError):
        FlowKey(src_mac=CAM, dst_mac=PEER)  # device without overlay
    with pytest.raises(ValueError):
        FlowKey(src_mac=CAM, dst_mac=PEER, dst_overlay=Overlay.TRUSTED,
                dst_ip="1.2.3.4")  # both kinds at once
    flow = FlowKey.to_device(CAM, PEER, Overlay.UNTRUSTED)
    assert flow.is_device
    assert not FlowKey.to_internet(CAM, UNLISTED).is_device


# cache ----------------------------------------------------------------------

def test_cache_lookup_normalizes():
    cache = _cache()
    assert cache.lookup("02:00:00:00:00:01").level is IsolationLevel.STRICT
    assert cache.lookup("02-00-00-00-00-01") is cache.lookup("02:00:00:00:00:01")
    assert cache.lookup(PEER) is None
    assert len(cache) == 3
    assert cache.macs() == sorted([CAM, HUB, TV])


def test_cache_update_replaces_and_unmarks():
    cache = RuleCache(capacity=1)
    cache.update(make_rule(CAM, IsolationLevel.STRICT, rule_id=1))
    cache.mark_absent(CAM)
    cache.update(make_rule(CAM, IsolationLevel.TRUSTED, rule_id=2))
    assert cache.lookup(CAM).level is IsolationLevel.TRUSTED
    # the replace unmarked CAM, so a new MAC has nothing to evict
    with pytest.raises(CapacityExceeded):
        cache.update(make_rule(HUB, IsolationLevel.STRICT, rule_id=3))


def test_cache_evicts_longest_absent():
    cache = RuleCache(capacity=2)
    cache.update(make_rule(CAM, IsolationLevel.STRICT, rule_id=1))
    cache.update(make_rule(HUB, IsolationLevel.STRICT, rule_id=2))
    cache.mark_absent(HUB)
    cache.mark_absent(CAM)
    cache.update(make_rule(TV, IsolationLevel.STRICT, rule_id=3))
    assert cache.lookup(HUB) is None  # absent longest, evicted first
    assert cache.lookup(CAM) is not None
    assert cache.lookup(TV) is not None


def test_cache_remove_and_absent_of_missing():
    cache = _cache()
    cache.mark_absent(PEER)  # not present: no-op
    cache.remove(CAM)
    assert cache.lookup(CAM) is None
    assert len(cache) == 2
    cache.remove(CAM)  # idempotent


def test_cache_multi_mac_rule_fills_slots():
    cache = RuleCache()
    cache.update(make_rule((CAM, HUB), IsolationLevel.STRICT, rule_id=1))
    assert cache.lookup(CAM) is cache.lookup(HUB)
    assert len(cache) == 2


def test_cache_refused_update_changes_nothing():
    cache = RuleCache(capacity=2)
    cache.update(make_rule(CAM, IsolationLevel.STRICT, rule_id=1))
    with pytest.raises(CapacityExceeded):
        cache.update(make_rule((HUB, TV), IsolationLevel.TRUSTED, rule_id=2))
    assert cache.lookup(HUB) is None and cache.lookup(TV) is None
    assert cache.macs() == [CAM]
    assert not decide(FlowKey.to_internet(HUB, UNLISTED), cache).permit


def test_cache_multi_mac_rule_keeps_its_own_absent_macs():
    cache = RuleCache(capacity=2)
    cache.update(make_rule(CAM, IsolationLevel.STRICT, rule_id=1))
    cache.update(make_rule(HUB, IsolationLevel.STRICT, rule_id=2))
    cache.mark_absent(CAM)
    cache.mark_absent(HUB)
    cache.update(make_rule((TV, CAM), IsolationLevel.TRUSTED, rule_id=3))
    assert cache.macs() == [CAM, TV]  # HUB made room, CAM was re-installed
    assert cache.lookup(CAM) is cache.lookup(TV)


def _cache_state(cache: RuleCache) -> dict:
    return {mac: cache.lookup(mac) for mac in cache.macs()}


def test_cache_matches_dict_model_on_random_operations():
    macs = [f"02-00-00-00-01-{i:02X}" for i in range(7)]
    levels = list(IsolationLevel)
    rng = random.Random(4)
    refused = 0
    for _ in range(150):
        capacity = rng.choice([None, 1, 2, 3, 4])
        cache, ref = RuleCache(capacity), RefRuleCache(capacity)
        for step in range(40):
            op = rng.random()
            mac = rng.choice(macs)
            if op < 0.5:
                level = rng.choice(levels)
                ips = (LISTED,) if level is IsolationLevel.RESTRICTED else ()
                rule = make_rule(rng.sample(macs, rng.randint(1, 3)), level, ips,
                                 rule_id=step)
                before = _cache_state(cache)
                if ref.update(rule.source_mac, rule):
                    cache.update(rule)
                else:
                    refused += 1
                    with pytest.raises(CapacityExceeded):
                        cache.update(rule)
                    assert _cache_state(cache) == before
            elif op < 0.7:
                cache.remove(mac)
                ref.remove(mac)
            else:
                cache.mark_absent(mac)
                ref.mark_absent(mac)
            assert _cache_state(cache) == ref.rules
            for other in macs:
                if other not in ref.rules:
                    flow = FlowKey.to_internet(other, LISTED)
                    assert decide(flow, cache) == Decision(
                        False, "no rule for source device", None)
    assert refused > 50  # the sequences do reach a full cache


def test_cache_capacity_validation():
    with pytest.raises(ValueError):
        RuleCache(capacity=0)


# persistence ------------------------------------------------------------------

def _rules():
    return [make_rule(CAM, IsolationLevel.STRICT, rule_id=1, priority=10),
            make_rule(HUB, IsolationLevel.RESTRICTED, (LISTED, "1.1.1.1"),
                      rule_id=2, priority=20, name="hub"),
            make_rule((TV, PEER), IsolationLevel.TRUSTED, rule_id=3)]


def test_rules_round_trip(tmp_path):
    path = tmp_path / "rules.json"
    save_rules(_rules(), path)
    assert load_rules(path) == _rules()
    records = json.loads(path.read_text())["rules"]
    assert all(set(rec) == set(RULE_FIELDS) for rec in records)


def test_load_rules_rejects_field_drift(tmp_path):
    path = tmp_path / "rules.json"
    save_rules(_rules(), path)
    doc = json.loads(path.read_text())

    doc["rules"][0]["extra"] = 1
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptFile):
        load_rules(path)

    del doc["rules"][0]["extra"]
    del doc["rules"][0]["priority"]
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptFile):
        load_rules(path)


def test_load_rules_rejects_tampering(tmp_path):
    path = tmp_path / "rules.json"
    save_rules(_rules(), path)
    doc = json.loads(path.read_text())
    doc["rules"][1]["permitted_ip"] = ["6.6.6.6"]  # hash no longer matches
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptFile):
        load_rules(path)


def test_load_rules_wants_lists_of_strings(tmp_path):
    path = tmp_path / "rules.json"
    save_rules(_rules(), path)
    doc = json.loads(path.read_text())
    rec = doc["rules"][1]
    # a string read as a tuple is one IP per character; hash that tuple so
    # that only the type check can refuse the record
    rec["permitted_ip"] = LISTED
    rec["hash"] = rule_hash(rec["source_mac"], IsolationLevel.RESTRICTED, tuple(LISTED))
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptFile, match="permitted_ip must be a list of strings"):
        load_rules(path)


def test_load_rules_schema_checks(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text("junk")
    with pytest.raises(CorruptFile):
        load_rules(path)
    path.write_text(json.dumps({"schema": "iotfence-rules/2", "rules": []}))
    with pytest.raises(SchemaMismatch):
        load_rules(path)


def test_flows_csv_and_simulation(tmp_path):
    path = tmp_path / "flows.csv"
    path.write_text(
        "src_mac,dst_kind,dst_value,dst_overlay\n"
        f"{CAM},device,{PEER},untrusted\n"
        f"{HUB},internet,{LISTED},\n"
        f"{TV},internet,{UNLISTED},\n"
        f"02-00-00-00-00-55,internet,{UNLISTED},\n")  # no rule: denied
    flows = load_flows_csv(path)
    assert len(flows) == 4
    decided = simulate_flows(_rules(), flows)
    assert [d.permit for _, d in decided] == [True, True, True, False]


def test_flows_csv_errors(tmp_path):
    path = tmp_path / "flows.csv"
    path.write_text("src_mac,dst_kind\nx,y\n")
    with pytest.raises(CorruptFile):
        load_flows_csv(path)
    path.write_text("src_mac,dst_kind,dst_value,dst_overlay\n"
                    f"{CAM},teleport,{PEER},untrusted\n")
    with pytest.raises(CorruptFile, match="line 2"):
        load_flows_csv(path)

"""Tests of the benchmark itself: frame rendering against the reference
decoder, and every correctness check against deliberately wrong outputs.

    python3 -m pytest bench -q
"""

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import frames  # noqa: E402
import inputs  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
from iotfence.harness import (CorpusNoise, SyntheticCorpusSpec,  # noqa: E402
                              generate_corpus)

CORPORA = [
    SyntheticCorpusSpec(n_types=27, fingerprints_per_type=4, noise=inputs.TRAIN_NOISE,
                        duplicated_type_pairs=(inputs.TRAIN_PAIR,)),
    SyntheticCorpusSpec(n_types=27, fingerprints_per_type=4,
                        noise=CorpusNoise(drop_prob=0.1, size_jitter=3)),
    SyntheticCorpusSpec(n_types=2, fingerprints_per_type=2, packets_min=300,
                        packets_max=300, burst_max=1, noise=inputs.ORDINARY_NOISE),
]


@pytest.mark.parametrize("spec", CORPORA, ids=["train", "noisy", "chatty"])
@pytest.mark.parametrize("seed", [1, 2])
def test_rendered_frames_decode_to_their_vectors(spec, seed):
    arp, size = (frames.FEATURE_NAMES.index(n) for n in ("arp", "size"))
    for fp in generate_corpus(spec, seed=seed):
        cols = [c.as_tuple() for c in fp.columns]
        if any(c[arp] and c[size] < 42 for c in cols):
            # jitter can shrink an ARP vector below the 42 bytes of any ARP frame
            assert not inputs.renderable(fp)
            continue
        written = [frames.render(c, fp.device_mac) for c in cols]
        assert frames.ref_vectors(written) == frames.wire_numbering(cols)


def test_shared_ipv4_ipv6_counter_is_numbered_as_on_the_wire():
    base = dict.fromkeys(frames.FEATURE_NAMES, 0)
    v4 = dict(base, ip=1, udp=1, dns=1, src_port_class=3, dst_port_class=1, size=80,
              raw_data=1, dest_ip_counter=1)
    v6 = dict(base, ip=1, icmpv6=1, size=90, dest_ip_counter=1)
    v4b = dict(v4, dest_ip_counter=2)
    cols = [tuple(v[n] for n in frames.FEATURE_NAMES) for v in (v4, v6, v4b)]
    decoded = frames.ref_vectors(frames.render(c, "02-00-00-00-00-01") for c in cols)
    counter = frames.FEATURE_NAMES.index("dest_ip_counter")
    assert [v[counter] for v in decoded] == [1, 2, 3]
    assert decoded == frames.wire_numbering(cols) != cols


def test_unrenderable_vector_is_refused():
    base = dict.fromkeys(frames.FEATURE_NAMES, 0)
    arp = dict(base, arp=1, size=30)
    with pytest.raises(ValueError):
        frames.render(tuple(arp[n] for n in frames.FEATURE_NAMES), "02-00-00-00-00-01")


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """Scaled-down gateway and join inputs, their measured outputs, truth."""
    mp = pytest.MonkeyPatch()
    for name, value in dict(GATEWAY_DEVICES=20, GATEWAY_FRAMES_PER_DEVICE=60,
                            JOIN_DEVICES=60, JOIN_CHATTY=6, CACHE_CAPACITY=10,
                            DEPART_LAG=8, POOL_PER_TYPE=4, CHATTY_POOL_PER_TYPE=4,
                            CHATTY_LENGTHS=(40, 60)).items():
        mp.setattr(inputs, name, value)
    mp.setattr(measure, "MIN_JOINS", 0)
    out = {}
    for workload in ("gateway", "join"):
        wd = str(tmp_path_factory.mktemp(workload))
        plan, truth = inputs.build(workload, 5, wd)
        plan.update(seconds=0, trace=0)
        r = measure.Run(plan, None)
        if workload == "gateway":
            r.gateway_round()
        r.join_round()
        out[workload] = (plan, r.out, truth)
    yield out
    mp.undo()


def _gateway_fails(plan, out, truth):
    return checks.gateway(out, truth, run.program_sessions(plan["gateway"]["capture"]))


def _rewrite_results(out, tmp_path, edit):
    with open(out["gateway"]["results"]) as fh:
        doc = json.load(fh)
    edit(doc["results"])
    bad = copy.deepcopy(out)
    bad["gateway"]["results"] = str(tmp_path / "results.json")
    with open(bad["gateway"]["results"], "w") as fh:
        json.dump(doc, fh)
    return bad


def test_gateway_checks_pass_on_program_output(small):
    assert _gateway_fails(*small["gateway"]) == []


def test_gateway_check_catches_a_missing_device(small, tmp_path):
    plan, out, truth = small["gateway"]
    bad = _rewrite_results(out, tmp_path, lambda rs: rs.pop(3))
    assert any("results for" in f for f in _gateway_fails(plan, bad, truth))


def test_gateway_check_catches_a_wrong_label(small, tmp_path):
    plan, out, truth = small["gateway"]

    def relabel(rs):
        # two of twenty devices: below the 95% accuracy gate
        for r in rs[:2]:
            r["device_type"] = "type99" if r["device_type"] != "type99" else "type98"
    bad = _rewrite_results(out, tmp_path, relabel)
    assert any("identified as their type" in f for f in _gateway_fails(plan, bad, truth))


def test_gateway_check_catches_a_flipped_decision(small):
    plan, out, truth = small["gateway"]
    bad = copy.deepcopy(out)
    p = bad["gateway"]["permits"]
    bad["gateway"]["permits"] = ("1" if p[0] == "0" else "0") + p[1:]
    assert any("truth table" in f for f in _gateway_fails(plan, bad, truth))


def test_gateway_check_catches_a_dropped_truncated_frame(small):
    plan, out, truth = small["gateway"]
    sessions = run.program_sessions(plan["gateway"]["capture"])
    mac = next(d.mac for d in truth["gateway_devices"] if d.truncated)
    sessions[mac][0].skipped -= 1
    assert any("skipped" in f for f in checks.gateway(out, truth, sessions))


def _join_fails(plan, out, truth):
    spec = plan["joins"]
    return checks.joins(out, truth, spec["capacity"], spec["depart_lag"])


def test_join_checks_pass_on_program_output(small):
    plan, out, truth = small["join"]
    assert _join_fails(plan, out, truth) == []
    assert checks.decisions(out["decisions"]["permits"], truth["decision_flows"],
                            checks.join_assignments(out, truth["vulns"])) == []
    assert any(r["evicted"] for r in out["joins"][0]["records"])


def test_join_check_catches_a_wrong_chatty_label(small):
    plan, out, truth = small["join"]
    bad = copy.deepcopy(out)
    i = next(i for i, d in enumerate(truth["join_devices"]) if d.label.startswith("chatty"))
    bad["joins"][0]["records"][i]["type"] = "type00"
    assert any("confusable" in f for f in _join_fails(plan, bad, truth))


def test_join_check_catches_a_flipped_first_decision(small):
    plan, out, truth = small["join"]
    bad = copy.deepcopy(out)
    rec = bad["joins"][0]["records"][0]
    rec["permit"] = not rec["permit"]
    assert any("truth table" in f for f in _join_fails(plan, bad, truth))


def test_join_check_catches_a_missing_device(small):
    plan, out, truth = small["join"]
    bad = copy.deepcopy(out)
    del bad["joins"][0]["records"][5]
    assert _join_fails(plan, bad, truth)


def test_join_check_catches_a_wrong_eviction(small):
    plan, out, truth = small["join"]
    bad = copy.deepcopy(out)
    rec = next(r for r in bad["joins"][0]["records"] if r["evicted"])
    rec["evicted"] = [truth["join_devices"][-1].mac]
    assert any("reference model" in f for f in _join_fails(plan, bad, truth))


def test_join_check_catches_a_wrong_discrimination(small):
    plan, out, truth = small["join"]
    bad = copy.deepcopy(out)
    records = bad["joins"][0]["records"]
    for r in records:
        r["discriminated"] = False
    i, d = next((i, d) for i, d in enumerate(truth["join_devices"])
                if d.label.startswith("chatty"))
    pair = sorted([d.label, inputs.sibling(d.label)])
    query = frames.collapse(frames.ref_vectors(f for _, f in d.setup))
    right = checks.reference_choice(query, pair, truth["store"])
    records[i].update(discriminated=True, matched=pair,
                      type=next(t for t in pair if t != right))
    assert any("edit distance" in f for f in _join_fails(plan, bad, truth))


def test_reference_edit_distance_matches_the_oracle():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "tests"))
    import oracles
    for a, b in [("ab", "ba"), ("kitten", "sitting"), ("abcdef", "badcfe"), ("", "abc")]:
        assert checks.osa_distance(a, b) == oracles.dl_oracle(a, b)


def test_join_decision_check_catches_a_flipped_decision(small):
    plan, out, truth = small["join"]
    p = out["decisions"]["permits"]
    flipped = p[:-1] + ("1" if p[-1] == "0" else "0")
    assert checks.decisions(flipped, truth["decision_flows"],
                            checks.join_assignments(out, truth["vulns"]))


def test_cv_checks_catch_wrong_reports():
    types = [f"type{i:02d}" for i in range(3)]
    good = {"types": types, "confusion": [[20, 0, 0, 0], [0, 15, 5, 0], [0, 4, 16, 0]],
            "per_type_accuracy": {"type00": 1.0, "type01": 0.75, "type02": 0.8}}
    assert checks.cv_report(good, 60, ["type01", "type02"]) == []
    assert checks.cv_report(good, 61, ["type01", "type02"])
    unknown = copy.deepcopy(good)
    unknown["confusion"][1] = [0, 15, 1, 4]
    assert checks.cv_report(unknown, 60, ["type01", "type02"])
    wrong = copy.deepcopy(good)
    wrong["per_type_accuracy"]["type00"] = 0.9
    assert checks.cv_report(wrong, 60, ["type01", "type02"])

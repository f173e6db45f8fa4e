"""Command-line interface, driven in-process through cli_main; the console
script runs in a subprocess."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

import iotfence
from iotfence import __version__
from iotfence.cli import cli_main
from iotfence.enforce import IsolationLevel, load_rules, make_rule, save_rules
from iotfence.fingerprint import load_fingerprints

import oracles
from oracles import eapol, eth, hop_by_hop, icmp, icmpv6, ipv4, ipv6, tcp, udp

DEV_A = "02-AA-00-00-00-01"
DEV_B = "02-AA-00-00-00-02"

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _dhcp_frames(mac, base_ts, n=14):
    out = []
    for i in range(n):
        frame = eth(mac, "FF-FF-FF-FF-FF-FF", 0x0800,
                    ipv4(17, udp(68, 67, bytes(200 + i)), dst="255.255.255.255"))
        out.append((base_ts, i * 1000, frame))
    return out


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A corpus and trained model shared by the read-only CLI tests."""
    d = tmp_path_factory.mktemp("cli")
    assert cli_main(["gen-corpus", "--out", str(d / "db.json"),
                     "--types", "12", "--per-type", "6",
                     "--drop-prob", "0.05", "--seed", "7"]) == 0
    assert cli_main(["train", "--fingerprints", str(d / "db.json"),
                     "--out", str(d / "model.json"),
                     "--trees", "25", "--seed", "5"]) == 0
    return d


def test_gen_corpus_output(workdir):
    db = load_fingerprints(workdir / "db.json")
    assert len(db) == 72
    assert len({fp.label for fp in db}) == 12


def test_evaluate_json_report(workdir, capsys):
    assert cli_main(["evaluate", "--fingerprints", str(workdir / "db.json"),
                     "--folds", "3", "--repeats", "1", "--trees", "25",
                     "--seed", "11", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert 0.0 <= doc["global_accuracy"] <= 1.0
    assert "timing" not in doc


def test_evaluate_shuffled_labels_scores_low(workdir, capsys):
    args = ["evaluate", "--fingerprints", str(workdir / "db.json"),
            "--folds", "3", "--repeats", "1", "--trees", "25",
            "--seed", "11", "--json"]
    assert cli_main(args) == 0
    honest = json.loads(capsys.readouterr().out)["global_accuracy"]
    assert cli_main(args + ["--shuffle-labels"]) == 0
    shuffled = json.loads(capsys.readouterr().out)["global_accuracy"]
    assert shuffled < honest

    assert cli_main(args + ["--timing"]) == 0
    assert "timing" in json.loads(capsys.readouterr().out)


def test_gen_corpus_jitter_and_duplicate_pair_flags(tmp_path):
    out = tmp_path / "db.json"
    args = ["gen-corpus", "--out", str(out), "--types", "3", "--per-type", "2",
            "--size-jitter", "1", "--seed", "2"]
    assert cli_main(args + ["--duplicate-pair", "0,1"]) == 0
    db = load_fingerprints(out)
    assert len(db) == 6
    assert len({fp.label for fp in db}) == 3

    assert cli_main(args + ["--duplicate-pair", "0,3"]) == 2


def test_extract_features_and_fingerprints(tmp_path):
    pcap = tmp_path / "setup.pcap"
    frames = sorted(_dhcp_frames(DEV_A, 10, 6) + _dhcp_frames(DEV_B, 11, 4),
                    key=lambda r: (r[0], r[1]))
    frames.append((12, 0, frames[-1][2]))  # retransmit of B's last frame
    oracles.write_pcap(pcap, frames)

    csv_out = tmp_path / "features.csv"
    db_out = tmp_path / "fps.json"
    fixed_out = tmp_path / "fixed.csv"
    assert cli_main(["extract", "--pcap", str(pcap), "--out", str(csv_out),
                     "--fingerprints-out", str(db_out), "--label", "camera",
                     "--fixed-csv", str(fixed_out)]) == 0

    lines = csv_out.read_text().splitlines()
    assert lines[0].startswith("mac,packet_index,")
    assert len(lines) == 1 + 11

    db = load_fingerprints(db_out)
    assert {fp.device_mac for fp in db} == {DEV_A, DEV_B}
    assert all(fp.label == "camera" for fp in db)
    # frame sizes all differ, so nothing collapses but the retransmit
    counts = {fp.device_mac: len(fp.columns) for fp in db}
    assert counts == {DEV_A: 6, DEV_B: 4}

    assert fixed_out.read_text().splitlines()[0].startswith("label,v0,")


GW = "02-AA-00-00-00-FE"

# two devices' setup traffic over most decoder paths: a consecutive
# duplicate, a VLAN tag, IPv4 and IPv6 options and one truncated frame
PINNED_CAPTURE = [
    (10, 0, eth(DEV_A, "FF-FF-FF-FF-FF-FF", 0x0806,
                oracles.arp_request(DEV_A, "192.168.0.10", "192.168.0.1"))),
    (10, 2000, eth(DEV_A, "FF-FF-FF-FF-FF-FF", 0x0800,
                   ipv4(17, udp(68, 67, bytes(240)), dst="255.255.255.255"))),
    (10, 2500, eth(DEV_B, GW, 0x86DD, ipv6(17, udp(5353, 5353, b"q" * 30)))),
    (10, 4000, eth(DEV_A, GW, 0x0800, ipv4(17, udp(52001, 53, b"q" * 24), dst="8.8.8.8"))),
    (10, 4000, eth(DEV_A, GW, 0x0800, ipv4(17, udp(52001, 53, b"q" * 24), dst="8.8.8.8"))),
    (10, 5000, eth(DEV_B, GW, 0x0800, ipv4(17, udp(50000, 1900, b"M-SEARCH"),
                                           dst="239.255.255.250"))),
    (10, 6000, eth(DEV_A, GW, 0x0800, ipv4(6, tcp(51000, 443, b"\x16\x03", data_offset=8),
                                           dst="52.1.2.3"))),
    (10, 7000, eth(DEV_B, GW, 0x888E, eapol(b"\x01\x02\x03"))),
    (10, 8000, eth(DEV_B, GW, 0x0800, ipv4(6, tcp(1, 2)[:10]))),
    (11, 0, oracles.llc_frame(DEV_B, GW, b"\xAA\xAA\x03" + b"payload")),
    (11, 500, eth(DEV_A, GW, 0x0800, ipv4(17, udp(123, 123, bytes(40)), dst="8.8.8.8"))),
    (11, 900, eth(DEV_B, GW, 0x0800, ipv4(1, icmp(8, b"abc"), options=b"\x94\x04\x00\x00",
                                          dst="192.168.0.1"))),
    (12, 0, eth(DEV_B, GW, 0x86DD, ipv6(0, hop_by_hop(58, b"\x05\x02\x00\x00")
                                        + icmpv6(128, b"ping")))),
    (12, 100, eth(DEV_A, GW, 0x0800, ipv4(6, tcp(51000, 80, b"GET / HTTP/1.1"),
                                          dst="52.1.2.3"), vlan=10)),
]

# sha256 of the files extract writes for PINNED_CAPTURE, as written when
# PacketFeatures was a frozen dataclass and read_pcap formatted every MAC
PINNED_CSV_SHA256 = "aea64c34a6b0c90058f7e5864fa740b49fc2be5db7626e1828d8236ab607105b"
PINNED_DB_SHA256 = "deeed241809f9413206f8c3e80012c9bbc2d27df7c546e558cca589b3d18759d"


def test_extract_output_bytes_are_pinned(tmp_path, capsys):
    pcap = tmp_path / "pinned.pcap"
    oracles.write_pcap(pcap, PINNED_CAPTURE)
    csv_out, db_out = tmp_path / "features.csv", tmp_path / "fps.json"
    assert cli_main(["extract", "--pcap", str(pcap), "--out", str(csv_out),
                     "--fingerprints-out", str(db_out), "--label", "camera"]) == 0
    assert capsys.readouterr().out.startswith(
        "2 sessions, 13 packets (1 malformed frames skipped) -> ")
    assert hashlib.sha256(csv_out.read_bytes()).hexdigest() == PINNED_CSV_SHA256
    assert hashlib.sha256(db_out.read_bytes()).hexdigest() == PINNED_DB_SHA256


def test_extract_skips_the_fingerprint_of_a_device_whose_clock_goes_back(tmp_path, capsys):
    good, bad = "02-AA-00-00-00-98", "02-AA-00-00-00-99"
    first, second = _dhcp_frames(bad, 60)[:2]
    pcap = tmp_path / "mixed.pcap"
    oracles.write_pcap(pcap, _dhcp_frames(good, 50)
                       + [(60, 4000, first[2]), (60, 0, second[2])])
    csv_out, db_out = tmp_path / "features.csv", tmp_path / "fps.json"
    assert cli_main(["extract", "--pcap", str(pcap), "--out", str(csv_out),
                     "--fingerprints-out", str(db_out)]) == 0
    out, err = capsys.readouterr()
    assert "1 sessions not fingerprinted" in out
    assert bad in err and "non-decreasing" in err
    assert len(csv_out.read_text().splitlines()) == 1 + 14 + 2
    db = load_fingerprints(db_out)
    assert [fp.device_mac for fp in db] == [good]
    assert len(db[0].columns) == 14


def test_extract_session_config(tmp_path, capsys):
    pcap = tmp_path / "setup.pcap"
    frames = [(10 + i, 0,
               eth(DEV_A, "FF-FF-FF-FF-FF-FF", 0x0800,
                   ipv4(17, udp(68, 67, bytes(i)), dst="255.255.255.255")))
              for i in range(15)]
    oracles.write_pcap(pcap, frames)

    conf = tmp_path / "session.conf"
    conf.write_text("max_packets = 12  # cut the tail of the burst\n")
    db_out = tmp_path / "fps.json"
    assert cli_main(["extract", "--pcap", str(pcap),
                     "--out", str(tmp_path / "f.csv"),
                     "--fingerprints-out", str(db_out),
                     "--session-config", str(conf)]) == 0
    db = load_fingerprints(db_out)
    assert len(db) == 1 and len(db[0].columns) == 12

    for bad in ("idle_timeout = fast", "wrong_knob = 1", "idle_timeout = nan"):
        conf.write_text(bad + "\n")
        assert cli_main(["extract", "--pcap", str(pcap),
                         "--out", str(tmp_path / "f.csv"),
                         "--fingerprints-out", str(db_out),
                         "--session-config", str(conf)]) == 2
        assert str(conf) in capsys.readouterr().err


def test_identify_command(workdir, tmp_path, capsys):
    pcap = tmp_path / "new-device.pcap"
    oracles.write_pcap(pcap, _dhcp_frames("02-AA-00-00-00-99", 50))

    out = tmp_path / "results.json"
    rules_out = tmp_path / "rules.json"
    assert cli_main(["identify", "--pcap", str(pcap),
                     "--model", str(workdir / "model.json"),
                     "--fingerprints", str(workdir / "db.json"),
                     "--out", str(out), "--rules-out", str(rules_out)]) == 0
    stdout = capsys.readouterr().out
    # dhcp-only traffic matches no synthetic type: strict isolation
    assert "UNKNOWN" in stdout and "isolation=strict" in stdout

    doc = json.loads(out.read_text())
    assert len(doc["results"]) == 1
    assert doc["results"][0]["assignment"]["isolation"] == "strict"

    rules = load_rules(rules_out)
    assert len(rules) == 1
    assert rules[0].level is IsolationLevel.STRICT
    assert rules[0].source_mac == ("02-AA-00-00-00-99",)

    assert cli_main(["identify", "--pcap", str(pcap),
                     "--model", str(workdir / "model.json"),
                     "--fingerprints", str(workdir / "db.json"),
                     "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"][0]["device_type"] is None


def test_identify_isolates_a_device_whose_clock_goes_back(workdir, tmp_path, capsys):
    good, bad = "02-AA-00-00-00-98", "02-AA-00-00-00-99"
    first, second = _dhcp_frames(bad, 60)[:2]
    pcap = tmp_path / "mixed.pcap"
    oracles.write_pcap(pcap, _dhcp_frames(good, 50)
                       + [(60, 4000, first[2]), (60, 0, second[2])])
    rules_out = tmp_path / "rules.json"
    assert cli_main(["identify", "--pcap", str(pcap),
                     "--model", str(workdir / "model.json"),
                     "--fingerprints", str(workdir / "db.json"),
                     "--rules-out", str(rules_out), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    by_mac = {r["device_mac"]: r for r in doc["results"]}
    assert set(by_mac) == {good, bad}
    assert len(by_mac[good]["predictions"]) > 0
    assert by_mac[bad]["predictions"] == []
    assert by_mac[bad]["assignment"]["isolation"] == "strict"
    assert "segmentation failed" in by_mac[bad]["assignment"]["reason"]
    rules = {r.source_mac: r.level for r in load_rules(rules_out)}
    assert rules[(bad,)] is IsolationLevel.STRICT


def test_enforce_simulate(tmp_path, capsys):
    rules_path = tmp_path / "rules.json"
    save_rules([
        make_rule(DEV_A, IsolationLevel.STRICT, rule_id=1),
        make_rule(DEV_B, IsolationLevel.RESTRICTED,
                  permitted_ip=("198.51.100.7",), rule_id=2),
    ], rules_path)
    flows = tmp_path / "flows.csv"
    flows.write_text(
        "src_mac,dst_kind,dst_value,dst_overlay\n"
        f"{DEV_A},device,{DEV_B},untrusted\n"
        f"{DEV_A},internet,198.51.100.7,\n"
        f"{DEV_B},internet,198.51.100.7,\n"
        f"{DEV_B},internet,203.0.113.5,\n")

    assert cli_main(["enforce", "simulate", "--rules", str(rules_path),
                     "--flows", str(flows), "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["permit"] for r in rows] == [True, False, True, False]

    assert cli_main(["enforce", "simulate", "--rules", str(rules_path),
                     "--flows", str(flows)]) == 0
    verdicts = [line.split()[0] for line in
                capsys.readouterr().out.splitlines()]
    assert verdicts == ["permit", "deny", "permit", "deny"]

    flows.write_text("src_mac,dst_kind\nx,y\n")
    assert cli_main(["enforce", "simulate", "--rules", str(rules_path),
                     "--flows", str(flows)]) == 2


@pytest.mark.parametrize("argv", [
    [],
    ["bogus-command"],
    ["evaluate"],
    ["evaluate", "--fingerprints", "x", "--refs-per-type", "9"],
    ["enforce"],
    # --fixed-csv only exports fingerprints that --fingerprints-out builds
    ["extract", "--pcap", "x", "--out", "y", "--fixed-csv", "z"],
])
def test_usage_errors_exit_1(argv):
    with pytest.raises(SystemExit) as err:
        cli_main(argv)
    assert err.value.code == 1


def test_data_errors_exit_2(tmp_path, workdir):
    assert cli_main(["train", "--fingerprints", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "m.json")]) == 2
    assert cli_main(["gen-corpus", "--out", str(tmp_path / "db.json"),
                     "--duplicate-pair", "zero,one"]) == 2
    garbage = tmp_path / "garbage.pcap"
    garbage.write_bytes(b"this is not a capture")
    assert cli_main(["extract", "--pcap", str(garbage),
                     "--out", str(tmp_path / "f.csv")]) == 2
    # 3 types cannot supply the tenfold negative pool
    small = tmp_path / "small.json"
    assert cli_main(["gen-corpus", "--out", str(small), "--types", "3",
                     "--per-type", "6", "--seed", "1"]) == 0
    assert cli_main(["train", "--fingerprints", str(small),
                     "--out", str(tmp_path / "m.json")]) == 2


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_output_errors_exit_2(workdir, capsys):
    # every write to /dev/full fails with ENOSPC
    assert cli_main(["train", "--fingerprints", str(workdir / "db.json"),
                     "--out", "/dev/full", "--trees", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("iotfence: error: ") and err.count("\n") == 1
    assert "No space left on device" in err


def test_identify_rejects_a_per_tree_model(workdir, tmp_path, capsys):
    # the iotfence-typemodel/1 layout, one record per tree, is not read
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"schema": "iotfence-typemodel/1", "classifiers": [
        {"device_type": "x", "n_features": 1, "trees": [
            {"feature": [-1], "threshold": [0.0], "left": [-1], "right": [-1],
             "leaf_class": [1], "votes": [1]}]}]}))
    pcap = tmp_path / "new-device.pcap"
    oracles.write_pcap(pcap, _dhcp_frames("02-AA-00-00-00-99", 50))
    assert cli_main(["identify", "--pcap", str(pcap), "--model", str(model),
                     "--fingerprints", str(workdir / "db.json")]) == 2
    assert ("model file: expected iotfence-typemodel/2, found 'iotfence-typemodel/1'"
            in capsys.readouterr().err)


@pytest.mark.parametrize("field,value", [("left", 0), ("feature", 999)])
def test_identify_rejects_corrupt_model(workdir, tmp_path, capsys, field, value):
    # a root that is its own child would loop forever; a split on input 999
    # of 276 would index past the fingerprint
    doc = json.loads((workdir / "model.json").read_text())
    rec = doc["classifiers"][0]
    assert rec["feature"][0] >= 0
    rec[field][0] = value
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    pcap = tmp_path / "new-device.pcap"
    oracles.write_pcap(pcap, _dhcp_frames("02-AA-00-00-00-99", 50))
    assert cli_main(["identify", "--pcap", str(pcap), "--model", str(model),
                     "--fingerprints", str(workdir / "db.json")]) == 2
    assert "model file record malformed" in capsys.readouterr().err


def test_identify_rejects_a_model_with_a_nan_threshold(workdir, tmp_path, capsys):
    doc = json.loads((workdir / "model.json").read_text())
    doc["classifiers"][0]["threshold"][0] = float("nan")
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))  # writes the bare token NaN
    pcap = tmp_path / "new-device.pcap"
    oracles.write_pcap(pcap, _dhcp_frames("02-AA-00-00-00-99", 50))
    assert cli_main(["identify", "--pcap", str(pcap), "--model", str(model),
                     "--fingerprints", str(workdir / "db.json")]) == 2
    assert "model file is not valid JSON: NaN" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        cli_main(["--version"])
    assert err.value.code == 0
    assert __version__ in capsys.readouterr().out


def _check_console_script(cmd, tmp_path, **run_kw):
    """The script runs the CLI and passes its exit codes through."""
    def run(*args):
        return subprocess.run([*cmd, *args], capture_output=True, text=True,
                              **run_kw)

    done = run("gen-corpus", "--out", str(tmp_path / "db.json"),
               "--types", "2", "--per-type", "2", "--seed", "1")
    assert done.returncode == 0, done.stderr
    assert "4 fingerprints" in done.stdout

    done = run("--bogus-flag")
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("usage: iotfence")

    done = run("train", "--fingerprints", str(tmp_path / "absent.json"),
               "--out", str(tmp_path / "m.json"))
    assert done.returncode == 2, done.stderr


def test_console_script_entry_point(tmp_path):
    """Run the entry point pyproject.toml declares, through the same wrapper
    pip writes for a console script, without installing the package."""
    toml = tomllib or pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        target = toml.load(fh)["project"]["scripts"]["iotfence"]
    module, attr = target.split(":")
    script = tmp_path / "iotfence"
    script.write_text(f"import sys\nfrom {module} import {attr}\n"
                      f"sys.exit({attr}())\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(iotfence.__file__).resolve().parents[1]))
    _check_console_script([sys.executable, str(script)], tmp_path,
                          cwd=tmp_path, env=env)


@pytest.mark.skipif(shutil.which("iotfence") is None,
                    reason="iotfence console script not installed")
def test_installed_console_script(tmp_path):
    _check_console_script([shutil.which("iotfence")], tmp_path)

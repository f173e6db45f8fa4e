"""Setup segmentation, duplicate collapsing, fixed-width form, persistence."""

import json

import numpy as np
import pytest

from iotfence.errors import (CorruptFile, EmptyInput, EmptySession,
                             SchemaMismatch)
from iotfence.fingerprint import (FIXED_LEN, FIXED_PACKETS, Fingerprint,
                                  FixedFingerprint, SetupSessionConfig,
                                  SetupWindow, build_fingerprint, load_fingerprints,
                                  save_fingerprints, segment_setup, to_fixed,
                                  write_fixed_csv)
from iotfence.ingest import TimedFeatures

from conftest import make_features, random_features, random_fingerprint

MAC = "02-00-00-00-00-01"


def _stream(timestamps):
    # size doubles as a packet id so tests can see which packets were taken
    return [TimedFeatures(ts, make_features(size=100 + i))
            for i, ts in enumerate(timestamps)]


def _taken_ids(taken):
    return [f.size - 100 for f in taken]


# setup segmentation ----------------------------------------------------------

def test_idle_gap_ends_setup():
    taken = segment_setup(_stream([0.0, 1.0, 2.0, 40.0, 41.0]))
    assert _taken_ids(taken) == [0, 1, 2]


def test_idle_gap_boundary_is_inclusive():
    taken = segment_setup(_stream([0.0, 30.0, 31.0]))
    assert _taken_ids(taken) == [0]
    taken = segment_setup(_stream([0.0, 29.999, 30.0]))
    assert _taken_ids(taken) == [0, 1, 2]


def test_max_packets_ends_setup():
    cfg = SetupSessionConfig(max_packets=20)
    taken = segment_setup(_stream([i * 0.01 for i in range(50)]), cfg)
    assert _taken_ids(taken) == list(range(20))


def test_rate_drop_ends_setup():
    # burst of 30 packets in [0, 2.9], one straggler at 12, another at 14:
    # at t=14 the 10 s window holds only {12, 14}, rate 0.2 < 0.1 * peak 3.0,
    # so the packet at 14 starts the steady phase and is excluded
    ts = [i * 0.1 for i in range(30)] + [12.0, 14.0]
    taken = segment_setup(_stream(ts))
    assert _taken_ids(taken) == list(range(31))


def test_timestamps_must_be_monotonic():
    with pytest.raises(ValueError):
        segment_setup(_stream([1.0, 0.5]))


@pytest.mark.parametrize("timestamps,config,cut,n_taken", [
    ([0.0, 1.0, 2.0, 40.0, 41.0], None, "idle", 3),
    ([i * 0.1 for i in range(30)] + [12.0, 14.0], None, "rate_drop", 31),
    ([i * 0.01 for i in range(50)], SetupSessionConfig(max_packets=20), "max_packets", 20),
    ([0.0, 1.0, 2.0], None, None, 3),
])
def test_setup_window_names_its_cut(timestamps, config, cut, n_taken):
    window = SetupWindow(config)
    taken = []
    for ts in timestamps:
        if not window.push(ts):
            break
        taken.append(ts)
        if window.closed:
            break
    assert (window.cut, window.closed) == (cut, cut is not None)
    assert taken == timestamps[:n_taken]


def test_setup_window_closes_on_a_backwards_timestamp():
    window = SetupWindow()
    assert window.push(1.0)
    with pytest.raises(ValueError, match="non-decreasing"):
        window.push(0.5)
    assert window.closed and window.cut == "backwards"


def test_empty_stream_raises():
    with pytest.raises(EmptySession):
        segment_setup([])


def test_session_config_validation():
    with pytest.raises(ValueError):
        SetupSessionConfig(idle_timeout=0)
    with pytest.raises(ValueError):
        SetupSessionConfig(rate_window=-1)
    with pytest.raises(ValueError):
        SetupSessionConfig(rate_drop_factor=1.0)
    with pytest.raises(ValueError):
        SetupSessionConfig(max_packets=FIXED_PACKETS - 1)


# fingerprint building --------------------------------------------------------

def test_build_collapses_consecutive_duplicates():
    a = make_features(arp=1, size=42)
    b = make_features(ip=1, udp=1, size=80, dest_ip_counter=1,
                      src_port_class=3, dst_port_class=1)
    c = make_features(llc=1, size=60)
    fp = build_fingerprint(MAC, [a, a, b, b, b, a, c, c])
    assert fp.columns == (a, b, a, c)
    assert len(fp) == 4
    assert fp.device_mac == MAC


def test_build_rejects_empty():
    with pytest.raises(EmptyInput):
        build_fingerprint(MAC, [])


def test_fingerprint_validates_columns():
    a = make_features(arp=1, size=42)
    with pytest.raises(ValueError):
        Fingerprint(device_mac=MAC, columns=())
    with pytest.raises(ValueError):
        Fingerprint(device_mac=MAC, columns=(a, a))


def test_fixed_fingerprint_length_checked():
    with pytest.raises(ValueError):
        FixedFingerprint(values=(0,) * 275)


# fixed-width form ------------------------------------------------------------

def _unique_prefix(columns):
    """Independent restatement: first 12 globally unique vectors, in order."""
    uniq = list(dict.fromkeys(col.as_tuple() for col in columns))
    return uniq[:FIXED_PACKETS]


def test_to_fixed_takes_first_globally_unique():
    a = make_features(arp=1, size=42)
    b = make_features(llc=1, size=60)
    c = make_features(eapol=1, size=90)
    fp = build_fingerprint(MAC, [a, b, a, c, b, a, c])  # collapses nothing
    fixed = to_fixed(fp)
    expect = [v for col in (a, b, c) for v in col.as_tuple()]
    assert list(fixed.values[:len(expect)]) == expect
    assert all(v == 0 for v in fixed.values[len(expect):])


def test_to_fixed_matches_restatement_on_random_inputs():
    rng = np.random.default_rng(7)
    for _ in range(500):
        fp = random_fingerprint(rng)
        fixed = to_fixed(fp)
        flat = [v for col in _unique_prefix(fp.columns) for v in col]
        assert len(fixed.values) == FIXED_LEN
        assert list(fixed.values[:len(flat)]) == flat
        assert all(v == 0 for v in fixed.values[len(flat):])


def test_to_fixed_ignores_columns_after_the_twelfth_unique():
    rng = np.random.default_rng(3)
    cols = []
    while len(dict.fromkeys(c.as_tuple() for c in cols)) < FIXED_PACKETS + 4:
        cols.append(random_features(rng))
    fp = build_fingerprint(MAC, cols)
    fixed = to_fixed(fp)
    flat = [v for col in _unique_prefix(fp.columns) for v in col]
    assert len(flat) == FIXED_LEN
    assert list(fixed.values) == flat


def test_to_fixed_keeps_label():
    fp = random_fingerprint(np.random.default_rng(1), label="cam")
    assert to_fixed(fp).label == "cam"


# persistence -----------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    db = [random_fingerprint(rng, mac=f"02-00-00-00-00-{i:02X}",
                             label="cam" if i % 2 else None)
          for i in range(1, 21)]
    path = tmp_path / "fps.json"
    save_fingerprints(db, path)
    assert load_fingerprints(path) == db


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    with pytest.raises(CorruptFile):
        load_fingerprints(path)


def test_load_rejects_wrong_schema(tmp_path):
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps({"schema": "other/9", "fingerprints": []}))
    with pytest.raises(SchemaMismatch):
        load_fingerprints(path)


def test_load_rejects_missing_schema(tmp_path):
    path = tmp_path / "none.json"
    path.write_text(json.dumps({"fingerprints": []}))
    with pytest.raises(CorruptFile):
        load_fingerprints(path)


def test_load_rejects_malformed_record(tmp_path):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({
        "schema": "iotfence-fingerprints/1",
        "fingerprints": [{"mac": MAC, "columns": [[0] * 22]}],
    }))
    with pytest.raises(CorruptFile):
        load_fingerprints(path)


def test_write_fixed_csv(tmp_path):
    rng = np.random.default_rng(5)
    db = [random_fingerprint(rng, label="plug"), random_fingerprint(rng)]
    path = tmp_path / "fixed.csv"
    write_fixed_csv(db, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "label," + ",".join(f"v{i}" for i in range(FIXED_LEN))
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "plug"
    assert tuple(int(v) for v in first[1:]) == to_fixed(db[0]).values
    assert lines[2].split(",")[0] == ""

"""Inputs of each workload: corpora, captures, per-device pcaps, flows,
vulnerability entries and the truth the checks compare the program against.

Everything is drawn from numpy generators seeded by the workload seed, except
the reference store and device pool of `gateway` and `join` (see POOL_SEED).
"""

from __future__ import annotations

import csv
import dataclasses
import os
import time
from importlib import import_module

import numpy as np

import frames
from frames import oracles

# the package re-exports functions named like their modules (identify,
# discriminate), so modules are taken from the import system by name
enforce, fingerprint, harness, identify, typemodel = (
    import_module(f"iotfence.{m}") for m in (
        "enforce", "fingerprint", "harness", "identify", "typemodel"))

# gateway and join identify devices against an installed reference store.
# Devices must share their types' base sequences with that store, so store
# and device pool come from one generate_corpus call.  Its seed is fixed:
# training and cross-validation cost moves by up to a third between stores
# drawn from different seeds, far beyond any bound.  The workload seed
# draws which pool devices appear, their MACs, timing, order and traffic.
POOL_SEED = 20161115
# train_evaluate's corpus is fixed for the same reason (its cross-validation
# time ranged 11-19 s over 20 corpus seeds), and so are the forests of the
# registry it trains and joins with: which held-out devices match two types
# and need discrimination, and so the join tail, depends on them.  The
# workload seed drives the folds of cross_validate and the devices' MACs.
TRAIN_CORPUS_SEED = 20161116

N_TREES = 100
ORDINARY_TYPES = 27
STORE_PER_TYPE = 6
POOL_PER_TYPE = 30
ORDINARY_NOISE = harness.CorpusNoise(size_jitter=1)

# two confusable pairs of chatty types, one at each end of 150-300 packets;
# fixed lengths keep the discrimination tail the same on every seed
CHATTY_LENGTHS = (150, 300)
CHATTY_STORE_PER_TYPE = 4
CHATTY_POOL_PER_TYPE = 20

GATEWAY_DEVICES = 200
GATEWAY_FRAMES_PER_DEVICE = 250
GATEWAY_TRUNCATED_EVERY = 10      # every 10th device sends one truncated frame
UNKNOWN_SOURCES = 10              # flow sources with no rule
JOIN_DEVICES = 500
JOIN_CHATTY = 50                  # 10% of joins
TRAIN_TYPES, TRAIN_PER_TYPE, TRAIN_HOLDOUT = 27, 20, 4
TRAIN_NOISE = harness.CorpusNoise(size_jitter=1)
TRAIN_PAIR = (3, 4)
CACHE_CAPACITY = 50
DEPART_LAG = 40                   # after join i, device i-40 leaves
FLOWS_PER_KIND = 5                # decision batch: flows per device and kind

IDLE_GAP_US = (40_000_000, 50_000_000)  # longer than idle_timeout (30 s)
SETUP_SPACING_US = (20_000, 100_000)    # whole setup burst stays < rate_window
STEADY_SPACING_US = (500_000, 1_500_000)

TRUSTED_PEER = "02-FE-00-00-01-01"
UNTRUSTED_PEER = "02-FE-00-00-02-01"
SHARED_IP = "203.0.113.250"
KINDS = ("trusted_peer", "untrusted_peer", "listed_ip", "unlisted_ip")


@dataclasses.dataclass
class Device:
    mac: str
    label: str
    setup: list            # [(ts_us, frame bytes)]
    steady: list = dataclasses.field(default_factory=list)  # [(ts_us, bytes, flow | None)]
    truncated: int = 0
    first_flow: tuple | None = None


def type_entry(types: list[str], t: str) -> tuple[str, tuple[str, ...]] | None:
    """Vulnerability verdict per type: trusted, restricted, strict or unlisted."""
    i = types.index(t)
    return [("trusted", ()), ("restricted", (f"203.0.113.{i + 1}",)),
            ("strict", ()), None][i % 4]


def vulns_doc(types: list[str]) -> dict:
    out = {}
    for t in types:
        e = type_entry(types, t)
        if e is not None:
            out[t] = {"isolation": e[0], "permitted_ip": list(e[1])}
    return out


def write_vulns(types: list[str], path) -> None:
    reg = identify.VulnerabilityRegistry()
    for t, e in vulns_doc(types).items():
        reg.set(t, identify.VulnerabilityEntry(enforce.IsolationLevel(e["isolation"]),
                                               tuple(e["permitted_ip"])))
    reg.save(path)


def flow_for(kind: str, types: list[str], label: str, k: int = 0) -> tuple[str, str, str]:
    """(dst_kind, dst_value, dst_overlay) of a flow of one destination kind.

    listed_ip is the device's true type's permitted IP when it has one."""
    if kind == "trusted_peer":
        return ("device", TRUSTED_PEER, "trusted")
    if kind == "untrusted_peer":
        return ("device", UNTRUSTED_PEER, "untrusted")
    if kind == "listed_ip":
        e = type_entry(types, label)
        return ("internet", e[1][0] if e and e[1] else SHARED_IP, "")
    return ("internet", f"198.51.100.{1 + k % 200}", "")


def write_flows(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("src_mac", "dst_kind", "dst_value", "dst_overlay"))
        w.writerows(rows)


def _relabel(fps, labels: dict, tag: int):
    out = []
    for i, fp in enumerate(fps):
        out.append(dataclasses.replace(
            fp, label=labels[fp.label],
            device_mac=f"02-0{tag}-00-00-{i >> 8:02X}-{i & 0xFF:02X}"))
    return out


def pools(with_chatty: bool):
    """(store, {label: [fingerprints of devices not in the store]}).

    Pool devices with a vector no frame can carry are left out (renderable)."""
    per = STORE_PER_TYPE + POOL_PER_TYPE
    spec = harness.SyntheticCorpusSpec(n_types=ORDINARY_TYPES, fingerprints_per_type=per,
                                       noise=ORDINARY_NOISE)
    corpus = harness.generate_corpus(spec, seed=POOL_SEED)
    store, pool = [], {}
    for i, fp in enumerate(corpus):
        if i % per < STORE_PER_TYPE:
            store.append(fp)
        elif renderable(fp):
            pool.setdefault(fp.label, []).append(fp)
    if with_chatty:
        per = CHATTY_STORE_PER_TYPE + CHATTY_POOL_PER_TYPE
        for p, length in enumerate(CHATTY_LENGTHS):
            spec = harness.SyntheticCorpusSpec(
                n_types=2, fingerprints_per_type=per, packets_min=length,
                packets_max=length, burst_min=1, burst_max=1, noise=ORDINARY_NOISE,
                duplicated_type_pairs=((0, 1),))
            names = {spec.type_name(j): f"chatty{p}{j}" for j in range(2)}
            corpus = _relabel(harness.generate_corpus(spec, seed=POOL_SEED + 1 + p),
                              names, 1 + p)
            for i, fp in enumerate(corpus):
                if i % per < CHATTY_STORE_PER_TYPE:
                    store.append(fp)
                elif renderable(fp):
                    pool.setdefault(fp.label, []).append(fp)
    return store, pool


def sibling(label: str) -> str | None:
    if label.startswith("chatty"):
        return label[:-1] + ("1" if label.endswith("0") else "0")
    return None


def setup_frames(fp, mac: str, t0: int, rng):
    """Each column as a burst of identical frames: 1-2 frames for ordinary
    types, one for chatty ones (their setups must stay under max_packets)."""
    burst_max = 1 if fp.label.startswith("chatty") else 2
    out = []
    t = t0
    for col in fp.columns:
        frame = frames.render(col.as_tuple(), mac)
        for _ in range(int(rng.integers(1, burst_max + 1))):
            t += int(rng.integers(*SETUP_SPACING_US))
            out.append((t, frame))
    return out


def renderable(fp) -> bool:
    try:
        for col in fp.columns:
            frames.render(col.as_tuple(), "02-00-00-00-00-00")
    except ValueError:
        return False
    return True


def _steady_frame(mac: str, flow: tuple, size: int, j: int) -> bytes:
    kind, value, _ = flow
    if kind == "device":
        dst_mac, dst_ip = value, "192.168.1.200"
    else:
        dst_mac, dst_ip = frames.GATEWAY_MAC, value
    payload = bytes(size - 42)
    packet = oracles.ipv4(17, oracles.udp(50000 + j % 1000, 443, payload),
                          src=frames.LAN_SRC_IP, dst=dst_ip)
    return oracles.eth(mac, dst_mac, 0x0800, packet)


def _truncated_frame(mac: str) -> bytes:
    packet = oracles.ipv4(6, oracles.tcp(50000, 443, bytes(40)), src=frames.LAN_SRC_IP,
                          dst=SHARED_IP)
    return oracles.eth(mac, frames.GATEWAY_MAC, 0x0800, packet)[:14 + 20 + 10]


def make_macs(n: int, rng, tag: int) -> list[str]:
    tails = rng.choice(1 << 16, size=n, replace=False)
    return [f"02-1{tag}-{i >> 8:02X}-{i & 0xFF:02X}-{int(r) >> 8:02X}-{int(r) & 0xFF:02X}"
            for i, r in enumerate(tails)]


def draw_devices(pool: dict, counts: dict, rng, tag: int):
    """(fingerprint, label) picks, `counts[label]` of each, in shuffled order."""
    picks = []
    for label in sorted(counts):
        idx = rng.choice(len(pool[label]), size=counts[label], replace=False)
        picks += [(pool[label][int(i)], label) for i in idx]
    order = rng.permutation(len(picks))
    return [picks[int(i)] for i in order], make_macs(len(picks), rng, tag)


def spread_counts(labels: list[str], total: int) -> dict:
    counts = {t: total // len(labels) for t in labels}
    for t in labels[:total % len(labels)]:
        counts[t] += 1
    return counts


def first_flow(types: list[str], label: str, rng) -> tuple:
    kind = KINDS[int(rng.integers(len(KINDS)))]
    return (kind,) + flow_for(kind, types, label)


def unknown_flows(types: list[str], rng) -> list[tuple]:
    """Flows of sources that never joined: no rule, so every one is denied."""
    return [(mac,) + flow_for(kind, types, types[0], k)
            for mac in make_macs(UNKNOWN_SOURCES, rng, 9)
            for k in range(FLOWS_PER_KIND) for kind in KINDS]


def decision_flows(devs: list[Device], types: list[str], rng) -> list[tuple]:
    """FLOWS_PER_KIND flows of each destination kind per joined device."""
    rows = [(d.mac,) + flow_for(kind, types, d.label, k)
            for d in devs for k in range(FLOWS_PER_KIND) for kind in KINDS]
    return rows + unknown_flows(types, rng)


def write_join_pcaps(devs: list[Device], workdir: str) -> list[dict]:
    os.makedirs(os.path.join(workdir, "joins"), exist_ok=True)
    out = []
    for i, d in enumerate(devs):
        path = os.path.join(workdir, "joins", f"{i:04d}.pcap")
        oracles.write_pcap(path, [(t // 1_000_000, t % 1_000_000, f) for t, f in d.setup])
        out.append({"mac": d.mac, "pcap": path, "flow": list(d.first_flow[1:])})
    return out


def gateway_capture(picks, macs, types, rng):
    devs = []
    for n, ((fp, label), mac) in enumerate(zip(picks, macs)):
        t0 = int(rng.integers(0, 60_000_000))
        d = Device(mac, label, setup_frames(fp, mac, t0, rng))
        t = d.setup[-1][0] + int(rng.integers(*IDLE_GAP_US))
        n_steady = GATEWAY_FRAMES_PER_DEVICE - len(d.setup)
        bad_at = int(rng.integers(n_steady)) if n % GATEWAY_TRUNCATED_EVERY == 0 else -1
        for j in range(n_steady):
            if j:
                t += int(rng.integers(*STEADY_SPACING_US))
            if j == bad_at:
                d.steady.append((t, _truncated_frame(mac), None))
                d.truncated += 1
                continue
            kind = KINDS[int(rng.integers(len(KINDS)))]
            flow = flow_for(kind, types, label, j)
            d.steady.append((t, _steady_frame(mac, flow, int(rng.integers(60, 300)), j),
                             (kind,) + flow))
        devs.append(d)
    return devs


def capture_records(devs: list[Device]):
    """Every frame of every device in timestamp order, as write_pcap records,
    plus the flow of each steady frame in the same order."""
    tagged = []
    for n, d in enumerate(devs):
        tagged += [(t, n, j, f, None) for j, (t, f) in enumerate(d.setup)]
        tagged += [(t, n, len(d.setup) + j, f, flow)
                   for j, (t, f, flow) in enumerate(d.steady)]
    tagged.sort(key=lambda r: r[:3])
    records = [(t // 1_000_000, t % 1_000_000, f) for t, _, _, f, _ in tagged]
    flows = [(devs[n].mac,) + flow[1:] for _, n, _, _, flow in tagged if flow is not None]
    return records, flows


def train_model(store, seed: int, path) -> float:
    """Train and save the registry; returns the training time."""
    t0 = time.perf_counter()
    registry = typemodel.train_registry(store, typemodel.ForestParams(n_trees=N_TREES),
                                        seed=seed)
    elapsed = time.perf_counter() - t0
    typemodel.save_model(registry, path)
    return elapsed


def build(workload: str, seed: int, workdir: str) -> tuple[dict, dict]:
    """Write one workload's inputs under workdir.

    Returns (plan for the measuring process, truth for the checks)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, len(workload)]))
    plan: dict = {"workload": workload, "workdir": workdir}
    truth: dict = {}
    p = lambda name: os.path.join(workdir, name)  # noqa: E731

    if workload == "train_evaluate":
        per = TRAIN_PER_TYPE + TRAIN_HOLDOUT
        spec = harness.SyntheticCorpusSpec(n_types=TRAIN_TYPES, fingerprints_per_type=per,
                                           noise=TRAIN_NOISE,
                                           duplicated_type_pairs=(TRAIN_PAIR,))
        corpus = harness.generate_corpus(spec, seed=TRAIN_CORPUS_SEED)
        store = [fp for i, fp in enumerate(corpus) if i % per < TRAIN_PER_TYPE]
        held = [fp for i, fp in enumerate(corpus) if i % per >= TRAIN_PER_TYPE]
        held = [fp for fp in held if renderable(fp)]
        types = sorted({fp.label for fp in store})
        pair = [spec.type_name(i) for i in TRAIN_PAIR]
        truth["pair"] = pair
        truth["siblings"] = {pair[0]: pair[1], pair[1]: pair[0]}
        picks, macs = [(fp, fp.label) for fp in held], make_macs(len(held), rng, 3)
        plan["train"] = {"seed": TRAIN_CORPUS_SEED, "trees": N_TREES, "repeats": 3}
        plan["cv"] = {"seed": seed, "trees": N_TREES}
    else:
        store, pool = pools(with_chatty=workload == "join")
        types = sorted({fp.label for fp in store})
        ordinary = [t for t in types if not t.startswith("chatty")]
        if workload == "gateway":
            counts = spread_counts(ordinary, GATEWAY_DEVICES)
        else:
            counts = spread_counts(ordinary, JOIN_DEVICES - JOIN_CHATTY)
            counts.update(spread_counts([t for t in types if t.startswith("chatty")],
                                        JOIN_CHATTY))
        picks, macs = draw_devices(pool, counts, rng, 1 if workload == "gateway" else 2)
        truth["train_s"] = train_model(store, POOL_SEED, p("model.json"))
        plan["model"] = p("model.json")
        plan["cv"] = {"seed": POOL_SEED, "trees": N_TREES}

    fingerprint.save_fingerprints(store, p("store.json"))
    write_vulns(types, p("vulns.json"))
    plan.update(store=p("store.json"), vulns=p("vulns.json"))
    truth.update(types=types, vulns=vulns_doc(types), store=store)
    truth.setdefault("siblings", {t: sibling(t) for t in types if t.startswith("chatty")})

    if workload == "gateway":
        devs = gateway_capture(picks, macs, types, rng)
        records, flow_rows = capture_records(devs)
        flow_rows += unknown_flows(types, rng)
        oracles.write_pcap(p("capture.pcap"), records)
        write_flows(flow_rows, p("flows.csv"))
        plan["gateway"] = {"capture": p("capture.pcap"), "flows": p("flows.csv"),
                           "frames": len(records)}
        truth["gateway_devices"] = devs
        truth["gateway_flows"] = flow_rows
        # the same devices join one at a time from setup-only pcaps
        for d in devs:
            d.first_flow = first_flow(types, d.label, rng)
        join_devs = devs
    else:
        join_devs = [Device(mac, label, setup_frames(fp, mac, 0, rng),
                            first_flow=first_flow(types, label, rng))
                     for (fp, label), mac in zip(picks, macs)]
        rows = decision_flows(join_devs, types, rng)
        write_flows(rows, p("decision_flows.csv"))
        plan["decisions"] = {"flows": p("decision_flows.csv")}
        truth["decision_flows"] = rows

    plan["joins"] = {"devices": write_join_pcaps(join_devs, workdir),
                     "capacity": CACHE_CAPACITY, "depart_lag": DEPART_LAG}
    truth["join_devices"] = join_devs
    return plan, truth

"""Correctness checks: the program's outputs against computations made apart
from it (reference decode, truth table, cache model, edit distance).

Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import json
from collections import Counter

import frames

MIN_ACCURACY = 0.95
MIN_PAIR_TO_SIBLING = 0.8
DISCRIMINATION_SAMPLE = 4   # discriminated joins re-scored per run

# permit (1) or deny (0) per isolation level and destination kind
TRUTH = {
    "strict": {"trusted_peer": 0, "untrusted_peer": 1, "listed_ip": 0, "unlisted_ip": 0},
    "restricted": {"trusted_peer": 0, "untrusted_peer": 1, "listed_ip": 1, "unlisted_ip": 0},
    "trusted": {"trusted_peer": 1, "untrusted_peer": 0, "listed_ip": 1, "unlisted_ip": 1},
}


def expected_assignment(vulns: dict, device_type: str | None) -> tuple[str, list]:
    """Fail closed: Unknown and unlisted types are isolated strictly."""
    entry = vulns.get(device_type) if device_type is not None else None
    if entry is None:
        return "strict", []
    return entry["isolation"], list(entry["permitted_ip"])


def expected_permit(level: str | None, permitted: list, flow) -> int:
    """flow = (dst_kind, dst_value, dst_overlay); level None = no rule."""
    if level is None:
        return 0
    kind, value, overlay = flow
    if kind == "device":
        dest = "trusted_peer" if overlay == "trusted" else "untrusted_peer"
    else:
        dest = "listed_ip" if value in permitted else "unlisted_ip"
    return TRUTH[level][dest]


def osa_distance(a, b) -> int:
    """Optimal-string-alignment distance over a full (n+1) x (m+1) table."""
    n, m = len(a), len(b)
    d = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        d[i][0] = i
    for j in range(m + 1):
        d[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
            if i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
                d[i][j] = min(d[i][j], d[i - 2][j - 2] + 1)
    return d[n][m]


def reference_choice(query, candidates: list[str], store) -> str:
    """Smallest summed normalized distance to the five most recent store
    entries of each candidate, rescaled to five; ties go to the lower id."""
    scores = []
    for t in candidates:
        refs = [[c.as_tuple() for c in fp.columns] for fp in store if fp.label == t][-5:]
        total = sum(osa_distance(query, r) / max(len(query), len(r)) for r in refs)
        scores.append((total * (5 / len(refs)), t))
    return min(scores)[1]


def identification(records, devices, siblings: dict) -> list[str]:
    """Ordinary devices: 95% their own type.  A device of a confusable pair
    (siblings: type -> its pair) may also come out as its sibling or Unknown."""
    fails = []
    ordinary = [(r, d) for r, d in zip(records, devices) if d.label not in siblings]
    right = sum(r["type"] == d.label for r, d in ordinary)
    if ordinary and right < MIN_ACCURACY * len(ordinary):
        fails.append(f"{right}/{len(ordinary)} ordinary devices identified as their type")
    for r, d in zip(records, devices):
        if d.label in siblings and r["type"] not in (d.label, siblings[d.label], None):
            fails.append(f"confusable {d.mac} ({d.label}) identified as {r['type']}")
    return fails


def joins(out: dict, truth: dict, capacity: int, lag: int) -> list[str]:
    devices, vulns = truth["join_devices"], truth["vulns"]
    fails = []
    sampled = 0
    for rnd in out["joins"]:
        records = rnd["records"]
        if [r["mac"] for r in records] != [d.mac for d in devices]:
            fails.append("join records do not follow the join order")
            continue
        fails += identification(records, devices, truth["siblings"])
        rules: dict = {}
        absent: dict = {}
        for i, (r, d) in enumerate(zip(records, devices)):
            if r["results"] != 1:
                fails.append(f"{d.mac}: {r['results']} results from a one-device pcap")
            level, permitted = expected_assignment(vulns, r["type"])
            if (r["level"], r["permitted_ip"]) != (level, permitted):
                fails.append(f"{d.mac}: isolation {r['level']} {r['permitted_ip']}, "
                             f"want {level} {permitted}")
            evicted = []
            if d.mac in rules:
                absent.pop(d.mac, None)
            elif len(rules) >= capacity:
                evicted = [next(iter(absent))]
                del absent[evicted[0]], rules[evicted[0]]
            rules[d.mac] = True
            if r["evicted"] != evicted or r["cache_len"] != len(rules) or len(rules) > capacity:
                fails.append(f"join {i}: cache evicted {r['evicted']} (size {r['cache_len']}), "
                             f"reference model evicts {evicted} (size {len(rules)})")
            if int(r["permit"]) != expected_permit(level, permitted, d.first_flow[1:]):
                fails.append(f"{d.mac}: first decision {r['permit']} breaks the truth table")
            if i >= lag and devices[i - lag].mac in rules:
                absent.setdefault(devices[i - lag].mac, True)
            if r["discriminated"] and sampled < DISCRIMINATION_SAMPLE:
                sampled += 1
                query = frames.collapse(frames.ref_vectors(f for _, f in d.setup))
                want = reference_choice(query, sorted(r["matched"]), truth["store"])
                if r["type"] != want:
                    fails.append(f"{d.mac}: discriminated to {r['type']}, reference "
                                 f"edit distance picks {want}")
        gone = {g["mac"] for g in rnd["gone"]}
        if gone != {d.mac for d in devices} - set(rules):
            fails.append("devices without a rule differ from the reference cache model")
        fails += [f"{g['mac']} has no rule but was permitted" for g in rnd["gone"] if g["permit"]]
    return fails


def decisions(permits: str, flow_rows, assigned: dict) -> list[str]:
    """assigned: mac -> (level, permitted ips) of every source with a rule."""
    if len(permits) != len(flow_rows):
        return [f"{len(permits)} decisions for {len(flow_rows)} flows"]
    bad = 0
    for got, (mac, *flow) in zip(permits, flow_rows):
        level, permitted = assigned.get(mac, (None, []))
        bad += int(got) != expected_permit(level, permitted, flow)
    return [f"{bad} of {len(flow_rows)} decisions break the truth table"] if bad else []


def join_assignments(out: dict, vulns: dict) -> dict:
    """Assignments of the join round whose rules the decision batches used."""
    used = out["joins"][out["decisions"]["round"]]["records"]
    return {r["mac"]: expected_assignment(vulns, r["type"]) for r in used}


def cv_report(report: dict, n: int, pair: list[str] | None) -> list[str]:
    fails = []
    confusion = report["confusion"]
    if sum(map(sum, confusion)) != n:
        fails.append(f"confusion matrix sums to {sum(map(sum, confusion))}, not {n}")
    if pair is None:
        return fails
    types = report["types"]
    for t, acc in report["per_type_accuracy"].items():
        if t not in pair and acc < MIN_ACCURACY:
            fails.append(f"{t}: cross-validated accuracy {acc:.3f}")
    for a, b in (pair, pair[::-1]):
        row = confusion[types.index(a)]
        errors = sum(row) - row[types.index(a)]
        if errors and row[types.index(b)] < MIN_PAIR_TO_SIBLING * errors:
            fails.append(f"{a}: {row[types.index(b)]} of {errors} errors go to {b}")
    return fails


def gateway(out: dict, truth: dict, sessions: dict) -> list[str]:
    """sessions: the program's extract_sessions output for the capture, and
    the fingerprint it builds per device, as {mac: (session, columns)}."""
    devices, vulns = truth["gateway_devices"], truth["vulns"]
    with open(out["gateway"]["results"]) as fh:
        results = json.load(fh)["results"]
    fails = []
    seen = Counter(r["device_mac"] for r in results)
    want = {d.mac for d in devices}
    if set(seen) != want or any(n != 1 for n in seen.values()):
        fails.append(f"{len(results)} results for {len(want)} devices "
                     f"({sum(n > 1 for n in seen.values())} repeated)")
    by_mac = {r["device_mac"]: r for r in results}
    right = 0
    for d in devices:
        sess, columns = sessions.get(d.mac, (None, None))
        if sess is None:
            fails.append(f"{d.mac}: no session")
            continue
        written = len(d.setup) + len(d.steady)
        if len(sess.packets) + sess.skipped != written or sess.skipped != d.truncated:
            fails.append(f"{d.mac}: {len(sess.packets)} decoded + {sess.skipped} skipped, "
                         f"wrote {written} with {d.truncated} truncated")
        prog = [p.features.as_tuple() for p in sess.packets]
        ref = frames.ref_vectors([f for _, f in d.setup] +
                                 [f for _, f, flow in d.steady if flow is not None])
        if prog != ref:
            fails.append(f"{d.mac}: packet vectors differ from the reference decode")
        if columns != frames.collapse(frames.ref_vectors(f for _, f in d.setup)):
            fails.append(f"{d.mac}: setup fingerprint differs from the frames before "
                         f"the idle gap")
        r = by_mac.get(d.mac)
        if r is None:
            continue
        right += r["device_type"] == d.label
        level, permitted = expected_assignment(vulns, r["device_type"])
        got = r["assignment"]
        if (got["isolation"], got["permitted_ip"]) != (level, permitted):
            fails.append(f"{d.mac}: isolation {got['isolation']} {got['permitted_ip']}, "
                         f"want {level} {permitted}")
    if right < MIN_ACCURACY * len(devices):
        fails.append(f"{right}/{len(devices)} devices identified as their type")
    assigned = {mac: expected_assignment(vulns, r["device_type"]) for mac, r in by_mac.items()}
    fails += decisions(out["gateway"]["permits"], truth["gateway_flows"], assigned)
    return fails

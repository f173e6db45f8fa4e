"""Independent reference implementations the tests check the package against.

Nothing in here imports from iotfence: the decoder is a second opinion
written in a deliberately flat unpack-at-offset style, the pcap writer is the
counterpart of the package's reader, the edit-distance oracle is the
textbook recursion with memoization (and, for inputs too long to recurse
over, the full DP table) instead of bit vectors, the tree walk
recurses over one tree at a time instead of walking packed arrays, the tree
grower sorts each node's rows instead of growing a forest's trees together
on per-value histograms, and the rule cache is a plain dict plus a list.
"""

import struct


# frame builders ------------------------------------------------------------

def mac_bytes(mac: str) -> bytes:
    return bytes(int(p, 16) for p in mac.replace(":", "-").split("-"))


def ip4_bytes(addr: str) -> bytes:
    return bytes(int(p) for p in addr.split("."))


def eth(src: str, dst: str, ethertype: int, payload: bytes,
        vlan: int | None = None) -> bytes:
    head = mac_bytes(dst) + mac_bytes(src)
    if vlan is not None:
        head += struct.pack("!HH", 0x8100, vlan)
    return head + struct.pack("!H", ethertype) + payload


def arp_request(sender_mac: str, sender_ip: str, target_ip: str) -> bytes:
    return struct.pack("!HHBBH", 1, 0x0800, 6, 4, 1) \
        + mac_bytes(sender_mac) + ip4_bytes(sender_ip) \
        + b"\x00" * 6 + ip4_bytes(target_ip)


def ipv4(proto: int, payload: bytes, src: str = "192.168.0.10",
         dst: str = "93.184.216.34", options: bytes = b"",
         total_length: int | None = None) -> bytes:
    if len(options) % 4:
        options += b"\x00" * (4 - len(options) % 4)
    ihl = 5 + len(options) // 4
    if total_length is None:
        total_length = ihl * 4 + len(payload)
    head = struct.pack("!BBHHHBBH", (4 << 4) | ihl, 0, total_length,
                       0x1234, 0, 64, proto, 0)
    return head + ip4_bytes(src) + ip4_bytes(dst) + options + payload


def ipv6(next_header: int, payload: bytes, src: str = "fe80::1",
         dst: str = "2001:db8::99") -> bytes:
    import ipaddress
    head = struct.pack("!IHBB", 6 << 28, len(payload), next_header, 64)
    return head + ipaddress.IPv6Address(src).packed \
        + ipaddress.IPv6Address(dst).packed + payload


def hop_by_hop(next_header: int, options: bytes) -> bytes:
    # pad the option block with Pad1 so the header is a multiple of 8
    pad = (-(2 + len(options))) % 8
    options += b"\x00" * pad
    ext_len = (2 + len(options)) // 8 - 1
    return struct.pack("!BB", next_header, ext_len) + options


def tcp(sport: int, dport: int, payload: bytes = b"",
        data_offset: int = 5) -> bytes:
    head = struct.pack("!HHIIBBHHH", sport, dport, 1, 0,
                       data_offset << 4, 0x02, 8192, 0, 0)
    head += b"\x00" * (data_offset * 4 - 20)
    return head + payload


def udp(sport: int, dport: int, payload: bytes = b"") -> bytes:
    return struct.pack("!HHHH", sport, dport, 8 + len(payload), 0) + payload


def icmp(kind: int = 8, payload: bytes = b"") -> bytes:
    return struct.pack("!BBHHH", kind, 0, 0, 1, 1) + payload


def icmpv6(kind: int = 128, payload: bytes = b"") -> bytes:
    return struct.pack("!BBH", kind, 0, 0) + payload


def eapol(body: bytes = b"", version: int = 1, kind: int = 0) -> bytes:
    return struct.pack("!BBH", version, kind, len(body)) + body


def llc_frame(src: str, dst: str, pdu: bytes) -> bytes:
    # 802.3: the ethertype slot holds the PDU length
    return eth(src, dst, len(pdu), pdu)


# reference pcap writer -----------------------------------------------------

def write_pcap(path, frames, big_endian: bool = False, link_type: int = 1,
               magic: int = 0xA1B2C3D4) -> None:
    """frames: iterable of (ts_sec, ts_usec, frame_bytes)."""
    e = ">" if big_endian else "<"
    with open(path, "wb") as fh:
        fh.write(struct.pack(e + "IHHiIII", magic, 2, 4, 0, 0, 65535, link_type))
        for ts_sec, ts_usec, data in frames:
            fh.write(struct.pack(e + "IIII", ts_sec, ts_usec, len(data), len(data)))
            fh.write(data)


# reference frame decoder ----------------------------------------------------

def ref_decode(data: bytes) -> dict:
    """Second-opinion decode of one ethernet frame into a flat dict."""
    d = dict(arp=0, llc=0, ip=0, icmp=0, icmpv6=0, eapol=0, tcp=0, udp=0,
             src_port=None, dst_port=None, dst_ip=None, payload_len=0,
             padding=0, router_alert=0,
             src_mac="-".join(f"{b:02X}" for b in data[6:12]),
             size=len(data))
    et = struct.unpack_from("!H", data, 12)[0]
    off = 14
    if et == 0x8100:
        et = struct.unpack_from("!H", data, 16)[0]
        off = 18

    if et <= 1500:
        d["llc"] = 1
        d["payload_len"] = max(min(et, len(data) - off) - 3, 0)
        return d
    if et == 0x0806:
        d["arp"] = 1
        return d
    if et == 0x888E:
        d["eapol"] = 1
        body = struct.unpack_from("!H", data, off + 2)[0]
        d["payload_len"] = min(body, len(data) - off - 4)
        return d

    if et == 0x0800:
        d["ip"] = 1
        ihl = (data[off] & 0x0F) * 4
        total = struct.unpack_from("!H", data, off + 2)[0]
        proto = data[off + 9]
        d["dst_ip"] = ".".join(str(b) for b in data[off + 16:off + 20])
        i = off + 20
        while i < off + ihl:
            o = data[i]
            if o == 0:
                d["padding"] = 1
                break
            if o == 1:
                d["padding"] = 1
                i += 1
                continue
            if o == 0x94:
                d["router_alert"] = 1
            if i + 1 >= off + ihl or data[i + 1] < 2:
                break
            i += data[i + 1]
        seg_start = off + ihl
        seg_end = min(off + total, len(data))
        return _ref_transport(data, proto, seg_start, seg_end, d)

    if et == 0x86DD:
        import ipaddress
        d["ip"] = 1
        plen = struct.unpack_from("!H", data, off + 4)[0]
        nh = data[off + 6]
        d["dst_ip"] = ipaddress.IPv6Address(data[off + 24:off + 40]).compressed
        i = off + 40
        end = min(off + 40 + plen, len(data))
        while nh in (0, 43, 44, 60):
            ext = 8 if nh == 44 else (data[i + 1] + 1) * 8
            if nh in (0, 60):
                j = i + 2
                while j < i + ext:
                    o = data[j]
                    if o == 0:
                        d["padding"] = 1
                        j += 1
                        continue
                    if o == 1:
                        d["padding"] = 1
                    elif o == 5:
                        d["router_alert"] = 1
                    j += 2 + data[j + 1]
            nh = data[i]
            i += ext
        return _ref_transport(data, nh, i, end, d, v6=True)

    d["payload_len"] = len(data) - off
    return d


def _ref_transport(data: bytes, proto: int, start: int, end: int, d: dict,
                   v6: bool = False) -> dict:
    n = end - start
    if proto == 6:
        d["tcp"] = 1
        d["src_port"], d["dst_port"] = struct.unpack_from("!HH", data, start)
        doff = (data[start + 12] >> 4) * 4
        d["payload_len"] = n - doff
    elif proto == 17:
        d["udp"] = 1
        d["src_port"], d["dst_port"] = struct.unpack_from("!HH", data, start)
        ulen = struct.unpack_from("!H", data, start + 4)[0]
        d["payload_len"] = max(min(ulen, n) - 8, 0)
    elif proto == 1 and not v6:
        d["icmp"] = 1
        d["payload_len"] = max(n - 8, 0)
    elif proto == 58 and v6:
        d["icmpv6"] = 1
        d["payload_len"] = max(n - 4, 0)
    else:
        d["payload_len"] = n
    return d


# edit-distance oracle --------------------------------------------------------

def dl_oracle(a, b, memo: dict | None = None) -> int:
    """Textbook recursion for edit distance with adjacent transpositions.

    memo may be shared across calls; keys are (suffix, suffix) tuples.
    """
    if memo is None:
        memo = {}

    def rec(x, y):
        if not x:
            return len(y)
        if not y:
            return len(x)
        key = (x, y)
        got = memo.get(key)
        if got is not None:
            return got
        best = min(rec(x[1:], y) + 1,
                   rec(x, y[1:]) + 1,
                   rec(x[1:], y[1:]) + (x[0] != y[0]))
        if len(x) >= 2 and len(y) >= 2 and x[0] == y[1] and x[1] == y[0]:
            best = min(best, rec(x[2:], y[2:]) + 1)
        memo[key] = best
        return best

    return rec(tuple(a), tuple(b))


def ref_dl_table(a, b) -> int:
    """Full-table dynamic program for edit distance with adjacent transpositions.

    The same definition as dl_oracle, filled row by row in O(len(a) *
    len(b)) time and O(len(b)) memory, so it reaches lengths the memoized
    recursion cannot.  Symbols are interned to small ints first so the inner
    loop compares ints, not 23-field vectors.
    """
    codes: dict = {}
    xs = [codes.setdefault(s, len(codes)) for s in a]
    ys = [codes.setdefault(s, len(codes)) for s in b]
    n, m = len(xs), len(ys)
    if n == 0:
        return m
    if m == 0:
        return n

    prev2: list[int] = []
    prev = list(range(m + 1))
    for i in range(1, n + 1):
        cur = [i] + [0] * m
        xi = xs[i - 1]
        for j in range(1, m + 1):
            best = min(prev[j] + 1,                      # delete
                       cur[j - 1] + 1,                   # insert
                       prev[j - 1] + (xi != ys[j - 1]))  # substitute / match
            if i > 1 and j > 1 and xi == ys[j - 2] and xs[i - 2] == ys[j - 1]:
                swap = prev2[j - 2] + 1
                if swap < best:
                    best = swap
            cur[j] = best
        prev2, prev = prev, cur
    return prev[m]


# tree-walk oracle -------------------------------------------------------------

def ref_tree_class(tree: dict, row, node: int = 0) -> int:
    """Class of the leaf one row reaches, walking a tree dict recursively;
    a value equal to the threshold goes left."""
    feat = tree["feature"][node]
    if feat < 0:
        return tree["leaf_class"][node]
    child = tree["left"] if row[feat] <= tree["threshold"][node] else tree["right"]
    return ref_tree_class(tree, row, child[node])


def ref_forest_score(trees: list, row) -> float:
    """Fraction of trees (dicts of node lists) whose leaf class is 1."""
    return sum(ref_tree_class(t, row) for t in trees) / len(trees)


# tree-growing oracle ----------------------------------------------------------

def ref_grow_tree(X, y, rng, max_features: int) -> dict:
    """Fit one CART tree on a bootstrap of (X, y), one node at a time.

    Each impure node draws its feature subset from rng, sorts its rows on
    every sampled feature and takes the first minimum of the weighted Gini
    over (split position, sampled feature).  Returns the tree as a dict of
    node lists, laid out like one tree of TypeClassifier's node arrays.
    """
    import numpy as np

    n_rows, n_feats = X.shape
    max_features = min(max_features, n_feats)

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    leaf_class: list[int] = []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        leaf_class.append(-1)
        return len(feature) - 1

    bootstrap = rng.integers(0, n_rows, n_rows)
    stack = [(new_node(), bootstrap)]
    while stack:
        node, rows = stack.pop()
        ys = y[rows]
        n = len(rows)
        n_pos = int(ys.sum())
        if n_pos == 0 or n_pos == n:
            leaf_class[node] = 1 if n_pos else 0
            continue

        feats = rng.choice(n_feats, size=max_features, replace=False)
        Xn = X[np.ix_(rows, feats)]
        order = np.argsort(Xn, axis=0, kind="stable")
        Xs = np.take_along_axis(Xn, order, axis=0)
        pos_left = np.cumsum(ys[order], axis=0)[:-1].astype(np.float64)

        cnt_left = np.arange(1, n, dtype=np.float64)[:, None]
        cnt_right = n - cnt_left
        pos_right = n_pos - pos_left
        gini_left = 1.0 - (pos_left / cnt_left) ** 2 \
                        - ((cnt_left - pos_left) / cnt_left) ** 2
        gini_right = 1.0 - (pos_right / cnt_right) ** 2 \
                         - ((cnt_right - pos_right) / cnt_right) ** 2
        weighted = (cnt_left * gini_left + cnt_right * gini_right) / n
        # splits between equal values are impossible
        weighted[Xs[:-1] == Xs[1:]] = np.inf

        flat = int(np.argmin(weighted))  # ties: lowest split position, then
        i, j = divmod(flat, weighted.shape[1])  # first sampled feature
        if not np.isfinite(weighted[i, j]):
            # every sampled feature is constant here; settle for majority
            leaf_class[node] = int(2 * n_pos >= n)
            continue

        feat = int(feats[j])
        thr = float((Xs[i, j] + Xs[i + 1, j]) / 2.0)
        go_left = X[rows, feat] <= thr
        feature[node] = feat
        threshold[node] = thr
        left_id = new_node()
        right_id = new_node()
        left[node] = left_id
        right[node] = right_id
        stack.append((right_id, rows[~go_left]))
        stack.append((left_id, rows[go_left]))

    return {"feature": feature, "threshold": threshold, "left": left,
            "right": right, "leaf_class": leaf_class}


# rule-cache model ---------------------------------------------------------------

class RefRuleCache:
    """Dict model of a rule cache keyed by MAC, with an optional capacity.

    An update either fits, evicting the devices marked absent longest ago
    that the rule does not name, or is refused and changes nothing.
    """

    def __init__(self, capacity=None):
        self.capacity = capacity
        self.rules = {}
        self.absent = []  # oldest first

    def update(self, macs, rule) -> bool:
        macs = list(dict.fromkeys(macs))
        need = len(self.rules) + len([m for m in macs if m not in self.rules])
        evictable = [m for m in self.absent if m not in macs]
        if self.capacity is not None:
            overflow = need - self.capacity
            if overflow > len(evictable):
                return False
            for m in evictable[:max(overflow, 0)]:
                self.remove(m)
        for m in macs:
            self.rules[m] = rule
            if m in self.absent:
                self.absent.remove(m)
        return True

    def remove(self, mac) -> None:
        self.rules.pop(mac, None)
        if mac in self.absent:
            self.absent.remove(mac)

    def mark_absent(self, mac) -> None:
        if mac in self.rules and mac not in self.absent:
            self.absent.append(mac)

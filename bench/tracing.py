"""Spans around the public functions of each iotfence module.

Wrappers go where callers look functions up: every loaded iotfence module
attribute (and class attribute) that is the original object is replaced, and
`uninstall` puts the originals back.  Spans stay in memory until the run
ends; a layer's self time is its span time minus its child spans.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from importlib import import_module

# the package re-exports functions named like their modules (identify,
# discriminate), so modules are taken from the import system by name
cli, discriminate, enforce, fingerprint, harness, identify, ingest, typemodel = (
    import_module(f"iotfence.{m}") for m in (
        "cli", "discriminate", "enforce", "fingerprint",
        "harness", "identify", "ingest", "typemodel"))

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start_ns, end_ns, parent index]
        self.counters: Counter = Counter()
        self.samples: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # spans -----------------------------------------------------------------

    def _open(self, name: str) -> int:
        self.spans.append([name, _now(), 0, self._stack[-1] if self._stack else -1])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = _now()
        self._stack.pop()

    def _wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(args, result)
            return result
        return traced

    def _wrap_generator(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def items():
                while True:
                    idx = tracer._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    tracer.counters["ingest.frames"] += 1
                    yield item
            return items()
        return traced

    def _replace(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "iotfence" and not mod_name.startswith("iotfence."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def _replace_method(self, cls, attr: str, wrapper) -> None:
        self._undo.append((cls, attr, getattr(cls, attr)))
        setattr(cls, attr, wrapper)

    # install ---------------------------------------------------------------

    def install(self) -> None:
        c, s = self.counters, self.samples

        def sessions_done(args, result):
            c["ingest.frames_skipped"] += sum(x.skipped for x in result.values())
            c["ingest.packets_decoded"] += sum(len(x.packets) for x in result.values())

        def setup_done(args, result):
            c["fingerprint.setup_packets"] += len(result)

        def fingerprint_done(args, result):
            s["fingerprint.columns"].append(len(result.columns))

        def classifier_done(args, result):
            c["typemodel.classifiers_trained"] += 1
            c["typemodel.trees"] += len(result.trees)
            c["typemodel.tree_nodes"] += sum(len(t.feature) for t in result.trees)

        def identified(args, result):
            c["identify.identifications"] += 1
            c["identify.multi_match"] += int(result.discrimination_used)
            c["identify.unknown"] += int(result.is_unknown)

        def discriminated(args, result):
            c["discriminate.calls"] += 1

        plain = [
            ("ingest.extract_sessions", ingest.extract_sessions, sessions_done),
            ("fingerprint.segment_setup", fingerprint.segment_setup, setup_done),
            ("fingerprint.build_fingerprint", fingerprint.build_fingerprint, fingerprint_done),
            ("fingerprint.to_fixed", fingerprint.to_fixed, None),
            ("typemodel.load_model", typemodel.load_model, None),
            ("typemodel.predict_all", typemodel.predict_all, None),
            ("typemodel.train_type_classifier", typemodel.train_type_classifier,
             classifier_done),
            ("discriminate.discriminate", discriminate.discriminate, discriminated),
            ("discriminate.select_references", discriminate.select_references, None),
            ("identify.identify", identify.identify, identified),
            ("identify.assign_isolation", identify.assign_isolation, None),
            ("enforce.make_rule", enforce.make_rule, None),
            ("enforce.load_rules", enforce.load_rules, None),
            ("enforce.simulate_flows", enforce.simulate_flows, None),
            ("harness.generate_corpus", harness.generate_corpus, None),
            ("harness.cross_validate", harness.cross_validate, None),
            ("cli.cli_main", cli.cli_main, None),
        ]
        for name, fn, after in plain:
            self._replace(fn, self._wrap(name, fn, after))
        self._replace(ingest.read_pcap, self._wrap_generator("ingest.read_pcap",
                                                             ingest.read_pcap))

        dl = discriminate.dl_distance

        @functools.wraps(dl)
        def counted_dl(a, b):
            c["discriminate.dl_pairs"] += 1
            c["discriminate.dl_cells"] += len(a) * len(b)
            return dl(a, b)
        self._replace(dl, counted_dl)

        self._replace_method(typemodel.TypeClassifier, "score_many",
                             self._wrap("typemodel.score_many",
                                        typemodel.TypeClassifier.score_many))
        update = enforce.RuleCache.update
        tracer = self

        @functools.wraps(update)
        def traced_update(cache, rule):
            before = len(cache)
            new = sum(1 for m in rule.source_mac if cache.lookup(m) is None)
            idx = tracer._open("enforce.update")
            try:
                update(cache, rule)
            finally:
                tracer._close(idx)
            c["enforce.evictions"] += before + new - len(cache)
        self._replace_method(enforce.RuleCache, "update", traced_update)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # results ---------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: count, total and self seconds, durations; plus
        counters and samples.  Summaries of several processes add up."""
        child = [0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        by_name: dict = {}
        for i, (name, t0, t1, _) in enumerate(self.spans):
            rec = by_name.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0,
                                            "durations_s": []})
            rec["count"] += 1
            rec["total_s"] += (t1 - t0) / 1e9
            rec["self_s"] += (t1 - t0 - child[i]) / 1e9
            if name in _KEEP_DURATIONS:
                rec["durations_s"].append((t1 - t0) / 1e9)
        return {"spans": by_name, "counters": dict(self.counters),
                "samples": dict(self.samples)}

    def dump(self, path) -> None:
        """Every span as one JSON line: name, start, end (ns), parent index."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


_KEEP_DURATIONS = {"typemodel.predict_all", "identify.identify", "enforce.update"}


def merge(a: dict, b: dict) -> dict:
    out = {"spans": {}, "counters": dict(a["counters"]), "samples": {}}
    for k, v in b["counters"].items():
        out["counters"][k] = out["counters"].get(k, 0) + v
    for src in (a, b):
        for name, rec in src["spans"].items():
            acc = out["spans"].setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0,
                                                 "durations_s": []})
            acc["count"] += rec["count"]
            acc["total_s"] += rec["total_s"]
            acc["self_s"] += rec["self_s"]
            acc["durations_s"] += rec["durations_s"]
        for name, vals in src["samples"].items():
            out["samples"].setdefault(name, []).extend(vals)
    return out


def layer_metrics(summary: dict, overhead_s: float, traced_s: float) -> dict:
    """The per-layer metrics of BENCHMARK.json from a (merged) summary."""
    spans, c, s = summary["spans"], summary["counters"], summary["samples"]

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def p50(name, scale):
        d = spans.get(name, {}).get("durations_s", [])
        return statistics.median(d) * scale if d else 0.0

    def share(num, den):
        return c.get(num, 0) / c[den] if c.get(den) else 0.0

    cols = s.get("fingerprint.columns", [])
    trees = c.get("typemodel.trees", 0)
    values = {
        "ingest.read_pcap_s": (self_s("ingest.read_pcap"), "s"),
        "ingest.extract_sessions_s": (self_s("ingest.extract_sessions"), "s"),
        "ingest.frames": (c.get("ingest.frames", 0), "count"),
        "ingest.frames_skipped": (c.get("ingest.frames_skipped", 0), "count"),
        "ingest.setup_packet_share": (share("fingerprint.setup_packets",
                                            "ingest.packets_decoded"), "ratio"),
        "fingerprint.segment_setup_s": (self_s("fingerprint.segment_setup"), "s"),
        "fingerprint.build_fingerprint_s": (self_s("fingerprint.build_fingerprint"), "s"),
        "fingerprint.to_fixed_s": (self_s("fingerprint.to_fixed"), "s"),
        "fingerprint.columns_mean": (statistics.fmean(cols) if cols else 0.0, "count"),
        "fingerprint.columns_max": (max(cols) if cols else 0, "count"),
        "typemodel.load_model_s": (self_s("typemodel.load_model"), "s"),
        "typemodel.predict_all_ms_p50": (p50("typemodel.predict_all", 1e3), "ms"),
        "typemodel.score_many_s": (self_s("typemodel.score_many"), "s"),
        "typemodel.train_type_classifier_s": (self_s("typemodel.train_type_classifier"), "s"),
        "typemodel.classifiers_trained": (c.get("typemodel.classifiers_trained", 0), "count"),
        "typemodel.tree_nodes_mean": (c.get("typemodel.tree_nodes", 0) / trees if trees
                                      else 0.0, "count"),
        "discriminate.discriminate_s": (self_s("discriminate.discriminate"), "s"),
        "discriminate.select_references_s": (self_s("discriminate.select_references"), "s"),
        "discriminate.calls": (c.get("discriminate.calls", 0), "count"),
        "discriminate.dl_pairs": (c.get("discriminate.dl_pairs", 0), "count"),
        "discriminate.dl_cells": (c.get("discriminate.dl_cells", 0), "count"),
        "identify.identify_ms_p50": (p50("identify.identify", 1e3), "ms"),
        "identify.assign_isolation_s": (self_s("identify.assign_isolation"), "s"),
        "identify.multi_match_share": (share("identify.multi_match",
                                             "identify.identifications"), "ratio"),
        "identify.unknown_share": (share("identify.unknown", "identify.identifications"),
                                   "ratio"),
        "enforce.make_rule_s": (self_s("enforce.make_rule"), "s"),
        "enforce.load_rules_s": (self_s("enforce.load_rules"), "s"),
        "enforce.simulate_flows_s": (self_s("enforce.simulate_flows"), "s"),
        "enforce.update_us_p50": (p50("enforce.update", 1e6), "us"),
        "enforce.evictions": (c.get("enforce.evictions", 0), "count"),
        "harness.generate_corpus_s": (self_s("harness.generate_corpus"), "s"),
        "harness.cross_validate_s": (self_s("harness.cross_validate"), "s"),
        "cli.identify_s": (self_s("cli.cli_main"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.overhead_share": (overhead_s / (traced_s - overhead_s)
                                 if traced_s > overhead_s else 0.0, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

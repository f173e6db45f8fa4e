"""The measuring process: runs only the measured operations on inputs that
set-up wrote, and reports timings and the program's outputs as JSON.

    python3 bench/measure.py <plan.json> <out.json>

Its peak resident memory is read right after the measured work.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from importlib import import_module

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

# the package re-exports functions named like their modules (identify,
# discriminate), so modules are taken from the import system by name
cli, enforce, fingerprint, harness, identify, typemodel = (
    import_module(f"iotfence.{m}") for m in (
        "cli", "enforce", "fingerprint", "harness", "identify", "typemodel"))

import tracing  # noqa: E402

_clock = time.perf_counter
MIN_JOINS = 500          # joins per run, in whole rounds
# Join rounds per cycle and in all.  On gateway and train_evaluate a round
# takes under half a second, so rounds go between the longer operations
# and each device's median join spans the run.  A join round takes over
# ten seconds, and one is enough.
ROUNDS_PER_CYCLE = {"gateway": 2, "join": 1, "train_evaluate": 3}
MIN_ROUNDS = {"gateway": 6, "join": 1, "train_evaluate": 9}
MIN_IDENTIFY_COMMANDS = 3    # gateway: `iotfence identify` runs per run
# Between joins, a decision batch (on gateway: a replay of the steady flows)
# runs when this many seconds, and at least five times the shortest batch
# so far, have passed since the last one, so batches are spread over the run.
DECISION_EVERY_S = 0.25
# Decision batches also run for this long before and after cross-validation.
DECISION_BURST_S = 0.75


def flow_key(mac: str, flow) -> enforce.FlowKey:
    kind, value, overlay = flow
    if kind == "device":
        return enforce.FlowKey.to_device(mac, value, enforce.Overlay(overlay))
    return enforce.FlowKey.to_internet(mac, value)


class Run:
    def __init__(self, plan: dict, run_s: float | None):
        """run_s: seconds of cycles to time; None runs one cycle (trace passes)."""
        self.plan = plan
        self.run_s = run_s
        self.out: dict = {}
        self.store = fingerprint.load_fingerprints(plan["store"])
        self.vulns = identify.VulnerabilityRegistry.load(plan["vulns"])
        self.registry = typemodel.load_model(plan["model"]) if "model" in plan else None
        self._flows = None          # (rules path, flows) of the decision batches
        self._last_batch = 0.0

    def train_once(self) -> None:
        spec = self.plan["train"]
        t0 = _clock()
        self.registry = typemodel.train_registry(
            self.store, typemodel.ForestParams(n_trees=spec["trees"]), seed=spec["seed"])
        self.out.setdefault("train_times_s", []).append(_clock() - t0)
        self.out["train_s"] = statistics.median(self.out["train_times_s"])

    def cv(self) -> None:
        spec = self.plan["cv"]
        t0 = _clock()
        report = harness.cross_validate(self.store, folds=10, repeats=1, seed=spec["seed"],
                                        params=typemodel.ForestParams(n_trees=spec["trees"]))
        self.out["cv_s"] = _clock() - t0
        self.out["cv_report"] = report.to_json_dict()

    def gateway_round(self) -> None:
        """`iotfence identify --out --rules-out` on the capture, then one
        replay of the steady flows against the rules it wrote."""
        spec, wd = self.plan["gateway"], self.plan["workdir"]
        results, rules = os.path.join(wd, "results.json"), os.path.join(wd, "rules.json")
        argv = ["identify", "--pcap", spec["capture"], "--model", self.plan["model"],
                "--fingerprints", self.plan["store"], "--vulns", self.plan["vulns"],
                "--out", results, "--rules-out", rules]
        out = self.out.setdefault("gateway", {"cli_s": [], "decide_s": [],
                                              "results": results, "rules": rules})
        sink = io.StringIO()
        t0 = _clock()
        with contextlib.redirect_stdout(sink):
            code = cli.cli_main(argv)
        out["cli_s"].append(_clock() - t0)
        if code != 0:
            raise RuntimeError(f"iotfence identify exited {code}")
        if self._flows is None:
            self._flows = (rules, enforce.load_flows_csv(spec["flows"]))
        self.decision_batch()

    def decision_batch(self) -> None:
        """One simulate_flows(load_rules(...)) of every decision flow: on
        gateway the steady traffic against the identify command's rules, on
        the other workloads the flows of every joined device against the
        rules of the first join round."""
        rules, flows = self._flows
        key = "gateway" if "gateway" in self.plan else "decisions"
        out = self.out.setdefault(key, {"decide_s": []})
        t0 = _clock()
        decided = enforce.simulate_flows(enforce.load_rules(rules), flows)
        self._last_batch = t1 = _clock()
        out["decide_s"].append(t1 - t0)
        out["permits"] = "".join("1" if d.permit else "0" for _, d in decided)

    def decision_burst(self) -> None:
        if self.run_s is None or self._flows is None:
            return
        until = _clock() + DECISION_BURST_S
        while _clock() < until:
            self.decision_batch()

    def _between_joins(self) -> None:
        if self.run_s is None or self._flows is None:
            return
        spent = self.out["gateway" if "gateway" in self.plan else "decisions"]["decide_s"]
        if _clock() - self._last_batch >= max(DECISION_EVERY_S, 5 * min(spent)):
            self.decision_batch()

    def join_round(self) -> None:
        spec = self.plan["joins"]
        devices = spec["devices"]
        flows = [flow_key(d["mac"], d["flow"]) for d in devices]
        if "joins" not in self.out:
            # the first identification after loading a model fills lazy caches
            identify.identify(self.store[0], self.registry, self.store)
        self.out.setdefault("joins", []).append(self._join_round(devices, flows, spec))
        if "decisions" in self.plan and self._flows is None:
            self._decision_rules()

    def _join_round(self, devices, flows, spec) -> dict:
        cache = enforce.RuleCache(capacity=spec["capacity"])
        lag = spec["depart_lag"]
        records = []
        for i, (dev, flow) in enumerate(zip(devices, flows)):
            before = set(cache.macs())
            t0 = _clock()
            found = identify.identify_capture(dev["pcap"], self.registry, self.store,
                                              self.vulns)
            t1 = _clock()
            res, asg = found[0]
            rule = enforce.make_rule(res.device_mac, asg.level, asg.permitted_ip,
                                     rule_id=i + 1, priority=100)
            cache.update(rule)
            decision = enforce.decide(flow, cache)
            t2 = _clock()
            after = cache.macs()
            records.append({
                "mac": res.device_mac, "results": len(found), "type": res.device_type,
                "level": asg.level.value, "permitted_ip": list(asg.permitted_ip),
                "discriminated": res.discrimination_used,
                "matched": [p.device_type for p in res.predictions if p.match],
                "join_s": t2 - t0, "identify_s": t1 - t0, "cache_len": len(after),
                "evicted": sorted(before - set(after)), "permit": decision.permit})
            if i >= lag:
                cache.mark_absent(devices[i - lag]["mac"])
            self._between_joins()
        # every device that lost its slot has no rule left: its flows are denied
        gone = [(d["mac"], f) for d, f in zip(devices, flows) if cache.lookup(d["mac"]) is None]
        return {"records": records,
                "gone": [{"mac": mac, "permit": enforce.decide(f, cache).permit}
                         for mac, f in gone]}

    def _decision_rules(self) -> None:
        """Rules of the first join round, saved for the decision batches."""
        first = self.out["joins"][0]["records"]
        rules = [enforce.make_rule(r["mac"], enforce.IsolationLevel(r["level"]),
                                   r["permitted_ip"], rule_id=i + 1, priority=100)
                 for i, r in enumerate(first)]
        path = os.path.join(self.plan["workdir"], "join_rules.json")
        enforce.save_rules(rules, path)
        flows = enforce.load_flows_csv(self.plan["decisions"]["flows"])
        self._flows = (path, flows)
        self.out["decisions"] = {"decide_s": [], "flows": len(flows), "round": 0}
        self.decision_batch()

    def _more_cycles(self, cycles: int, timed_s: float) -> bool:
        if self.run_s is None:
            return cycles < 1
        workload = self.plan["workload"]
        rounds = self.out.get("joins", ())
        joins = sum(len(r["records"]) for r in rounds)
        trains = len(self.out.get("train_times_s", ()))
        commands = len(self.out.get("gateway", {}).get("cli_s", ()))
        return (cycles < 1 or timed_s < self.run_s or joins < MIN_JOINS
                or len(rounds) < MIN_ROUNDS[workload]
                or ("train" in self.plan and trains < self.plan["train"]["repeats"])
                or ("gateway" in self.plan and commands < MIN_IDENTIFY_COMMANDS))

    def all_phases(self) -> dict:
        """Cycles of every short phase fill the run, with cross-validation
        after the first, so that each device's median join, the median
        identify command and the median decision batch are taken from
        samples spread over the whole run.  A trace pass runs one cycle of
        one join round and one decision batch."""
        t0 = _clock()
        cycles, cv_s = 0, 0.0
        rounds = 1 if self.run_s is None else ROUNDS_PER_CYCLE[self.plan["workload"]]
        while self._more_cycles(cycles, _clock() - t0 - cv_s):
            train = self.plan.get("train")
            if train and len(self.out.get("train_times_s", ())) < train["repeats"]:
                self.train_once()
            if "gateway" in self.plan:
                self.gateway_round()
            for _ in range(rounds):
                self.join_round()
            if cycles == 0:
                self.decision_burst()
                self.cv()
                cv_s = self.out["cv_s"]
                self.decision_burst()
            cycles += 1
        self.out["phases_s"] = _clock() - t0
        return self.out


def main(plan_path: str, out_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    if plan["trace"]:
        # one cycle untraced, one traced, one untraced again; the overhead is
        # the traced cycle against the mean of the other two
        untraced = [Run(plan, None).all_phases()["phases_s"]]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            out = Run(plan, None).all_phases()
        finally:
            tracer.uninstall()
        untraced.append(Run(plan, None).all_phases()["phases_s"])
        out["untraced_phases_s"] = statistics.fmean(untraced)
        out["trace"] = tracer.summary()
        tracer.dump(plan["spans_out"])
    else:
        out = Run(plan, plan["seconds"]).all_phases()
        # ru_maxrss is in KiB on Linux
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(out_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))

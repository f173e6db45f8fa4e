"""Benchmark entry point.

    python3 bench/run.py --workload gateway|join|train_evaluate \
        --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed (set-up, repeated SETUPS times),
runs the measured operations in a fresh process (bench/measure.py), checks
the program's outputs and prints one JSON line: correct, attempted, failed
and the end-to-end metrics, or with --trace 1 the per-layer metrics.
Generated files live under .bench_work/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("gateway", "join", "train_evaluate")
SETUPS = 3
DEADLINE_S = 170


def p98(values):
    return statistics.quantiles(values, n=50, method="inclusive")[-1]


def program_sessions(capture: str) -> dict:
    """The program's sessions for a capture and the setup fingerprint it
    builds from each, as {mac: (session, columns)}."""
    from iotfence import fingerprint, ingest
    out = {}
    for mac, sess in ingest.extract_sessions(ingest.read_pcap(capture)).items():
        fp = fingerprint.build_fingerprint(mac, fingerprint.segment_setup(sess.packets))
        out[mac] = (sess, [c.as_tuple() for c in fp.columns])
    return out


def check(workload: str, plan: dict, out: dict, truth: dict) -> list[str]:
    import checks
    spec = plan["joins"]
    fails = checks.joins(out, truth, spec["capacity"], spec["depart_lag"])
    fails += checks.cv_report(out["cv_report"], len(truth["store"]), truth.get("pair"))
    if workload == "gateway":
        fails += checks.gateway(out, truth, program_sessions(plan["gateway"]["capture"]))
    else:
        fails += checks.decisions(out["decisions"]["permits"], truth["decision_flows"],
                                  checks.join_assignments(out, truth["vulns"]))
    return fails


def per_device(out: dict, key: str) -> list[float]:
    """Per joining device, its median time over the join rounds."""
    rounds = [[r[key] for r in rnd["records"]] for rnd in out["joins"]]
    return [statistics.median(times) for times in zip(*rounds)]


def end_to_end(plan: dict, out: dict, truth: dict, setup_s: list, train_s: list) -> dict:
    join_s = per_device(out, "join_s")
    if "gateway" in out:
        g = out["gateway"]
        frames_per_s = plan["gateway"]["frames"] / statistics.median(g["cli_s"])
        decisions_per_s = len(truth["gateway_flows"]) / statistics.median(g["decide_s"])
    else:
        frames = sum(len(d.setup) for d in truth["join_devices"])
        frames_per_s = frames / sum(per_device(out, "identify_s"))
        d = out["decisions"]
        decisions_per_s = d["flows"] / statistics.median(d["decide_s"])
    values = {
        "setup_s": (statistics.median(setup_s), "s"),
        "capture_frames_per_s": (frames_per_s, "frames/s"),
        "decisions_per_s": (decisions_per_s, "decisions/s"),
        "join_ms_p50": (statistics.median(join_s) * 1e3, "ms"),
        "join_ms_p98": (p98(join_s) * 1e3, "ms"),
        "train_s": (out["train_s"] if "train_s" in out else statistics.median(train_s), "s"),
        "cv_s": (out["cv_s"], "s"),
        "peak_rss_mb": (out.get("peak_rss_mb", 0.0), "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def attempted(out: dict) -> int:
    """Operations run: identify commands, flow replays, joins, decision
    batches, trainings and the cross-validation."""
    g = out.get("gateway", {})
    n = len(g.get("cli_s", ())) + len(g.get("decide_s", ()))
    n += sum(len(rnd["records"]) for rnd in out["joins"])
    n += len(out.get("decisions", {}).get("decide_s", ()))
    return n + len(out.get("train_times_s", ())) + 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    for need in (("src", "iotfence", "__init__.py"), ("tests", "oracles.py")):
        if not os.path.isfile(os.path.join(ROOT, *need)):
            print(f"bench: {os.path.join(*need)} not found under {ROOT}", file=sys.stderr)
            return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import inputs
    import tracing

    name = f"{args.workload}-{args.seed}-t{args.trace}"
    workdir = os.path.join(WORK, f"{name}-{os.getpid()}")
    for sub in ("results", "traces"):
        os.makedirs(os.path.join(WORK, sub), exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    setup_s, train_s = [], []
    try:
        if tracer:
            tracer.install()
        try:
            for _ in range(1 if args.trace else SETUPS):
                shutil.rmtree(workdir, ignore_errors=True)
                os.makedirs(workdir)
                t0 = time.perf_counter()
                plan, truth = inputs.build(args.workload, args.seed, workdir)
                setup_s.append(time.perf_counter() - t0)
                if "train_s" in truth:
                    train_s.append(truth["train_s"])
        finally:
            if tracer:
                tracer.uninstall()

        plan.update(seconds=args.seconds, trace=args.trace,
                    spans_out=os.path.join(WORK, "traces", f"{name}.measure.jsonl"))
        plan_path, out_path = (os.path.join(workdir, f) for f in ("plan.json", "out.json"))
        with open(plan_path, "w") as fh:
            json.dump(plan, fh)
        left = DEADLINE_S - (time.perf_counter() - started)
        proc = subprocess.run([sys.executable, os.path.join(HERE, "measure.py"),
                               plan_path, out_path], timeout=max(left, 1))
        if proc.returncode != 0:
            print(f"bench: measuring process exited {proc.returncode}", file=sys.stderr)
            return 1
        with open(out_path) as fh:
            out = json.load(fh)

        fails = check(args.workload, plan, out, truth)
        for msg in fails[:20]:
            print(f"bench: check failed: {msg}", file=sys.stderr)
        if tracer:
            tracer.dump(os.path.join(WORK, "traces", f"{name}.setup.jsonl"))
            summary = tracing.merge(tracer.summary(), out["trace"])
            metrics = tracing.layer_metrics(summary, out["phases_s"] - out["untraced_phases_s"],
                                            out["phases_s"])
        else:
            metrics = end_to_end(plan, out, truth, setup_s, train_s)
        result = {"correct": not fails, "attempted": attempted(out), "failed": 0,
                  "metrics": metrics}
        with open(os.path.join(WORK, "results", f"{name}.json"), "w") as fh:
            json.dump(result, fh)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

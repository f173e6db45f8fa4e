"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error (a file that cannot be
read, parsed or written; a domain violation).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .enforce import (IsolationLevel, load_flows_csv, load_rules, make_rule,
                      save_rules, simulate_flows)
from .errors import CorruptFile, IotfenceError
from .fingerprint import (SetupSessionConfig, build_fingerprint,
                          load_fingerprints, save_fingerprints, segment_setup,
                          write_fixed_csv)
from .harness import (CorpusNoise, SyntheticCorpusSpec, cross_validate,
                      generate_corpus, shuffle_labels)
from .identify import VulnerabilityRegistry, identify_capture
from .ingest import extract_sessions, read_pcap, write_features_csv
from .typemodel import ForestParams, load_model, save_model, train_registry

_SESSION_KEYS = ("idle_timeout", "rate_window", "rate_drop_factor", "max_packets")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; 2 is reserved for data errors here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_session_config(path) -> SetupSessionConfig:
    """key=value lines; # starts a comment."""
    kwargs: dict = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if not sep or key not in _SESSION_KEYS:
                raise CorruptFile(f"{path}:{lineno}: expected one of "
                                  f"{', '.join(_SESSION_KEYS)} = value")
            try:
                kwargs[key] = int(val) if key == "max_packets" else float(val)
            except ValueError:
                raise CorruptFile(f"{path}:{lineno}: bad value {val!r}") from None
    try:
        return SetupSessionConfig(**kwargs)
    except ValueError as exc:
        raise CorruptFile(f"{path}: {exc}") from exc


def _cmd_extract(args) -> int:
    if not args.fingerprints_out and (args.label or args.fixed_csv or args.session_config):
        args.usage_error("--label, --fixed-csv and --session-config need --fingerprints-out")
    config = _load_session_config(args.session_config) if args.session_config else None
    sessions = extract_sessions(read_pcap(args.pcap))
    write_features_csv(sessions, args.out)
    n_packets = sum(len(s.packets) for s in sessions.values())
    n_skipped = sum(s.skipped for s in sessions.values())
    n_failed = 0
    if args.fingerprints_out:
        fps = []
        for mac, sess in sessions.items():
            if not sess.packets:
                continue
            try:
                setup = segment_setup(sess.packets, config)
            except ValueError as exc:  # this device's timestamps go backwards
                print(f"iotfence: {mac}: setup segmentation failed ({exc}), "
                      f"no fingerprint", file=sys.stderr)
                n_failed += 1
                continue
            fps.append(build_fingerprint(mac, setup, label=args.label))
        save_fingerprints(fps, args.fingerprints_out)
        if args.fixed_csv:
            write_fixed_csv(fps, args.fixed_csv)
    failed = f", {n_failed} sessions not fingerprinted" if n_failed else ""
    print(f"{len(sessions)} sessions, {n_packets} packets "
          f"({n_skipped} malformed frames skipped{failed}) -> {args.out}")
    return 0


def _cmd_train(args) -> int:
    db = load_fingerprints(args.fingerprints)
    params = ForestParams(n_trees=args.trees)
    registry = train_registry(db, params, seed=args.seed)
    save_model(registry, args.out)
    print(f"trained {len(registry)} type classifiers "
          f"({params.n_trees} trees each) -> {args.out}")
    return 0


def _cmd_identify(args) -> int:
    config = _load_session_config(args.session_config) if args.session_config else None
    registry = load_model(args.model)
    store = load_fingerprints(args.fingerprints)
    vulns = (VulnerabilityRegistry.load(args.vulns) if args.vulns
             else VulnerabilityRegistry())
    rng = np.random.default_rng(args.seed) if args.seed is not None else None
    results = identify_capture(args.pcap, registry, store, vulns, config,
                               refs_per_type=args.refs_per_type, rng=rng)

    doc = {"results": [
        {**res.to_json_dict(), "assignment": asg.to_json_dict()}
        for res, asg in results
    ]}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
    if args.rules_out:
        rules = [
            make_rule(res.device_mac, asg.level, asg.permitted_ip,
                      rule_id=i, priority=100,
                      name=f"{res.device_type or 'unknown'}-{i}")
            for i, (res, asg) in enumerate(results, start=1)
        ]
        save_rules(rules, args.rules_out)
    if args.json:
        print(json.dumps(doc, sort_keys=True))
    else:
        for res, asg in results:
            what = res.device_type if not res.is_unknown else "UNKNOWN"
            print(f"{res.device_mac}  {what}  isolation={asg.level.value}  "
                  f"({res.times.total_ms:.3f} ms)")
    return 0


def _cmd_evaluate(args) -> int:
    db = load_fingerprints(args.fingerprints)
    if args.shuffle_labels:
        db = shuffle_labels(db, seed=args.seed)
    report = cross_validate(db, folds=args.folds, repeats=args.repeats,
                            seed=args.seed, params=ForestParams(n_trees=args.trees),
                            refs_per_type=args.refs_per_type)
    text = report.to_json(include_timing=args.timing)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    if args.json:
        print(text)
    else:
        print(f"global accuracy {report.global_accuracy:.4f} over "
              f"{report.n_fingerprints} fingerprints x {report.repeats} repeats "
              f"({report.folds}-fold); multi-match rate "
              f"{report.multi_match_rate:.4f}")
    return 0


def _cmd_gen_corpus(args) -> int:
    pairs = []
    for raw in args.duplicate_pair or ():
        try:
            a, b = (int(x) for x in raw.split(","))
        except ValueError:
            raise CorruptFile(f"--duplicate-pair wants i,j: got {raw!r}") from None
        pairs.append((a, b))
    spec = SyntheticCorpusSpec(
        n_types=args.types,
        fingerprints_per_type=args.per_type,
        packets_min=args.packets_min,
        packets_max=args.packets_max,
        burst_min=args.burst_min,
        burst_max=args.burst_max,
        noise=CorpusNoise(drop_prob=args.drop_prob, size_jitter=args.size_jitter),
        duplicated_type_pairs=tuple(pairs))
    corpus = generate_corpus(spec, seed=args.seed)
    save_fingerprints(corpus, args.out)
    if args.fixed_csv:
        write_fixed_csv(corpus, args.fixed_csv)
    print(f"{len(corpus)} fingerprints ({spec.n_types} types) -> {args.out}")
    return 0


def _cmd_enforce_simulate(args) -> int:
    rules = load_rules(args.rules)
    flows = load_flows_csv(args.flows)
    decided = simulate_flows(rules, flows)
    if args.json:
        rows = []
        for flow, d in decided:
            dst = flow.dst_mac if flow.is_device else flow.dst_ip
            rows.append({"src_mac": flow.src_mac, "dst": dst,
                         "permit": d.permit, "reason": d.reason,
                         "isolation": d.level.value if d.level else None})
        print(json.dumps(rows, sort_keys=True))
    else:
        for flow, d in decided:
            dst = flow.dst_mac if flow.is_device else flow.dst_ip
            verdict = "permit" if d.permit else "deny"
            print(f"{verdict:6s} {flow.src_mac} -> {dst}  ({d.reason})")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="iotfence",
                     description="Identify IoT device types from setup traffic "
                                 "and derive network isolation rules.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="pcap to per-packet feature vectors")
    p.add_argument("--pcap", required=True)
    p.add_argument("--out", required=True, help="feature CSV path")
    p.add_argument("--fingerprints-out", help="also build and save fingerprints")
    p.add_argument("--fixed-csv", help="export flattened fingerprints as CSV")
    p.add_argument("--label", help="type label for all fingerprints in this capture")
    p.add_argument("--session-config", help="key=value file of setup-segmentation knobs")
    p.set_defaults(func=_cmd_extract, usage_error=p.error)

    p = sub.add_parser("train", help="fit per-type classifiers from a fingerprint db")
    p.add_argument("--fingerprints", required=True)
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trees", type=int, default=100)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("identify", help="identify devices in a capture")
    p.add_argument("--pcap", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--fingerprints", required=True, help="reference fingerprint db")
    p.add_argument("--vulns", help="vulnerability registry JSON")
    p.add_argument("--out", help="write full results JSON here")
    p.add_argument("--rules-out", help="write enforcement rules for the findings")
    p.add_argument("--seed", type=int, default=None,
                   help="seeded random reference selection instead of most-recent")
    p.add_argument("--refs-per-type", type=int, default=5, choices=range(1, 6),
                   metavar="1..5")
    p.add_argument("--session-config")
    p.add_argument("--json", action="store_true", help="print results JSON to stdout")
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser("evaluate", help="cross-validate a labeled fingerprint db")
    p.add_argument("--fingerprints", required=True)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trees", type=int, default=100)
    p.add_argument("--refs-per-type", type=int, default=5, choices=range(1, 6),
                   metavar="1..5")
    p.add_argument("--shuffle-labels", action="store_true",
                   help="permute labels first (sanity-check control)")
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock timing in the report")
    p.add_argument("--out", help="write report JSON here")
    p.add_argument("--json", action="store_true", help="print report JSON to stdout")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("gen-corpus", help="fabricate a labeled synthetic corpus")
    p.add_argument("--out", required=True, help="fingerprint db JSON path")
    p.add_argument("--types", type=int, default=27)
    p.add_argument("--per-type", type=int, default=20)
    p.add_argument("--packets-min", type=int, default=12)
    p.add_argument("--packets-max", type=int, default=25)
    p.add_argument("--burst-min", type=int, default=1)
    p.add_argument("--burst-max", type=int, default=2)
    p.add_argument("--drop-prob", type=float, default=0.0)
    p.add_argument("--size-jitter", type=int, default=0)
    p.add_argument("--duplicate-pair", action="append", metavar="I,J",
                   help="make type J reuse type I's base sequence (repeatable)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fixed-csv", help="export flattened fingerprints as CSV")
    p.set_defaults(func=_cmd_gen_corpus)

    p = sub.add_parser("enforce", help="enforcement-side tools")
    esub = p.add_subparsers(dest="enforce_command", required=True)
    ps = esub.add_parser("simulate", help="decide a flow list against a rule file")
    ps.add_argument("--rules", required=True)
    ps.add_argument("--flows", required=True, help="CSV: src_mac,dst_kind,dst_value,dst_overlay")
    ps.add_argument("--json", action="store_true")
    ps.set_defaults(func=_cmd_enforce_simulate)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (IotfenceError, OSError, ValueError) as exc:
        print(f"iotfence: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()

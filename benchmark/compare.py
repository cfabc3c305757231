#!/usr/bin/env python3
"""Compare two lepbench result sets, one row per workload x end-to-end metric.

A result set is a directory; every record `lepbench` wrote below it
(`<workload>.json`, at any depth - one sub-directory per run is the
convention) belongs to the set.

    benchmark/compare.py BASE NEW [--expect-unchanged]

A record lists each end-to-end metric only on the workloads it is
defined for, so there is one row per such pair. For every row: both
medians with their quartiles, the ratio NEW/BASE (BASE is the base of
every ratio), the bound from BENCHMARK.json, and a verdict:

    regressed   NEW's median is worse than BASE's by more than the bound
    improved    ... better by more than the bound
    unresolved  neither, but a set's run-to-run spread exceeds the bound
    unchanged   neither, and both spreads are within the bound

Spread is (Q3 - Q1) / median over a set's runs; with a single run it is
the round-to-round spread the run recorded. The sets were measured on
the same inputs, so `stored_ratio` and - when both sets hold traced
records - the exact per-layer counts are also reported as `identical`
or `DIFFERS`: they depend on the inputs and the program only.

Exit status: 0 clean; 1 on any regression or any rise in the share of
failed operations (with --expect-unchanged also on any verdict other
than `unchanged` and any count that differs); 2 when the sets must not
be compared: a record of an incorrect run, different host shape or
different inputs.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# Host-shape fields that must agree before two sets are compared.
SHAPE_KEYS = ["nproc", "engine_workers", "simd", "rustc", "profile", "scratch_fs", "clients"]

# Values that depend on the inputs and the program only, never on the
# host: identical in every record of both sets, or the program changed
# what it produces.
EXACT_END_TO_END = ["stored_ratio"]
EXACT_LAYERS = [
    "jpeg.scan_bits",
    "model.stream_bytes",
    "core.segments",
    "core.header_bytes",
    "storage.fsyncs_per_put",
    "corpus.bytes",
]


def load_set(directory, trace):
    """Records of a set by workload, end-to-end or per-layer ones."""
    by_workload = {}
    for path in sorted(Path(directory).rglob("*.json")):
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if not isinstance(record, dict) or "workload" not in record or "result" not in record:
            continue
        if not record["result"]["correct"]:
            refuse(f"{path} records an incorrect run")
        if bool(record.get("trace")) == trace:
            by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread_of(records, name, values):
    q1, median, q3 = quartiles(values)
    if len(values) >= 2:
        return (q3 - q1) / abs(median) if median else 0.0
    return records[0]["metrics"][name]["spread"]


def refuse(message):
    print(f"compare.py: refusing to compare: {message}", file=sys.stderr)
    sys.exit(2)


def check_comparable(workload, base, new):
    for key in SHAPE_KEYS:
        shapes = {json.dumps(r["host"].get(key)) for r in base + new}
        if len(shapes) > 1:
            refuse(f"{workload}: host shape differs in `{key}`: {sorted(shapes)}")
    inputs = lambda records: sorted((r["host"]["seed"], r["inputs_sha256"]) for r in records)
    if inputs(base) != inputs(new):
        refuse(f"{workload}: seeds or input hashes differ: {inputs(base)} vs {inputs(new)}")


def verdict_of(worse_by, bound, spread):
    if worse_by > bound:
        return "regressed"
    if spread > bound:
        return "unresolved"
    if worse_by < -bound:
        return "improved"
    return "unchanged"


def failed_share(records):
    attempted = sum(r["result"]["attempted"] for r in records)
    return sum(r["result"]["failed"] for r in records) / max(attempted, 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--expect-unchanged", action="store_true")
    args = parser.parse_args()

    manifest = json.loads(BENCHMARK.read_text())
    base_set, new_set = load_set(args.base, False), load_set(args.new, False)
    if not base_set or set(base_set) != set(new_set):
        refuse(f"sets hold different workloads: {sorted(base_set)} vs {sorted(new_set)}")

    bad = False
    print(f"{'workload':<12} {'metric':<14} {'unit':<7} {'base median [Q1, Q3]':>36} {'new median [Q1, Q3]':>36} {'new/base':>9} {'bound':>6}  verdict")
    for workload in [w["name"] for w in manifest["workloads"] if w["name"] in base_set]:
        base, new = base_set[workload], new_set[workload]
        check_comparable(workload, base, new)
        for metric in manifest["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            if name not in base[0]["metrics"]:
                continue
            values = lambda records: [r["metrics"][name]["value"] for r in records]
            b, n = values(base), values(new)
            (b1, bm, b3), (n1, nm, n3) = quartiles(b), quartiles(n)
            sign = 1 if metric["better"] == "lower" else -1
            worse_by = sign * (nm - bm) / abs(bm) if bm else 0.0
            spread = max(spread_of(base, name, b), spread_of(new, name, n))
            verdict = verdict_of(worse_by, bound, spread)
            bad |= verdict == "regressed" or (args.expect_unchanged and verdict != "unchanged")
            cell = lambda q1, m, q3: f"{m:.5g} [{q1:.5g}, {q3:.5g}]"
            ratio = nm / bm if bm else float("nan")
            print(f"{workload:<12} {name:<14} {metric['unit']:<7} {cell(b1, bm, b3):>36} {cell(n1, nm, n3):>36} {ratio:>9.4f} {bound:>6}  {verdict}")
        fb, fn = failed_share(base), failed_share(new)
        if fn > fb:
            print(f"{workload}: failed share rose from {fb:.6f} to {fn:.6f}")
            bad = True

    base_layers, new_layers = load_set(args.base, True), load_set(args.new, True)
    for names, base_records, new_records in [(EXACT_END_TO_END, base_set, new_set), (EXACT_LAYERS, base_layers, new_layers)]:
        for workload in sorted(set(base_records) & set(new_records)):
            records = base_records[workload] + new_records[workload]
            for name in names:
                if name not in records[0]["metrics"]:
                    continue
                seen = {(r["host"]["seed"], r["metrics"][name]["value"]) for r in records}
                same = len(seen) == len({seed for seed, _ in seen})
                print(f"{workload:<12} {name:<28} {'identical' if same else 'DIFFERS'} {sorted(seen)}")
                bad |= args.expect_unchanged and not same
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Validate a committed bench trajectory against the fundb-bench-v1 schema.

Usage: check_bench.py BENCH_prN.json [--require E11,E14,...]
                      [--baseline BENCH_prM.json [--allow EXP:column,...]]

Fails (exit 1) when the file is absent, is not valid JSON, or does not
follow the fundb-bench-v1 shape: a top-level object with
  schema  == "fundb-bench-v1"
  pr      -- positive integer
  records -- non-empty list of flat objects, each carrying string
             "experiment" and "workload" keys plus numeric measurements.

With --require, additionally fails when any of the named experiments has
no record in the trajectory — the gate CI uses to make sure a freshly
added experiment family cannot silently drop out of the committed file.

With --baseline, every record present in both files (matched on
experiment, workload and thread count) must carry identical exact
counters: the columns ending in "probes" plus derived_rows, index_hits,
index_misses, replans, shared_prefix_hits, rows, wal_records,
retractions and rederived. Wall-time columns are not gated. A counter
that moves on purpose passes only when named in --allow as EXP:column
(repeatable or comma-separated); each such entry must be justified where
the change is recorded.
"""

import json
import sys

EXACT_COUNTERS = {
    "derived_rows", "index_hits", "index_misses", "replans",
    "shared_prefix_hits", "rows", "wal_records", "retractions", "rederived",
}


def fail(msg: str) -> None:
    print(f"check_bench: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def take_option(argv: list[str], flag: str) -> list[str]:
    """Removes every `flag VALUE` pair from argv, returning the values."""
    values = []
    while flag in argv:
        at = argv.index(flag)
        if at + 1 >= len(argv):
            fail(f"{flag} needs a value")
        values.append(argv[at + 1])
        del argv[at:at + 2]
    return values


def split_list(values: list[str]) -> set[str]:
    return {e.strip() for v in values for e in v.split(",") if e.strip()}


def is_exact_counter(column: str) -> bool:
    return column.endswith("probes") or column in EXACT_COUNTERS


def keyed(records: list[dict]) -> dict:
    """Records by (experiment, workload, threads, occurrence)."""
    out, seen = {}, {}
    for rec in records:
        base = (rec["experiment"], rec["workload"], rec.get("threads"))
        n = seen.get(base, 0)
        seen[base] = n + 1
        out[base + (n,)] = rec
    return out


def compare(path: str, records: list[dict], base_path: str,
            allowed: set[str]) -> None:
    base_doc = load(base_path)
    current, baseline = keyed(records), keyed(base_doc["records"])
    mismatches, waived, used = [], [], set()
    for key in sorted(set(current) & set(baseline), key=str):
        new, old = current[key], baseline[key]
        columns = {c for c in set(new) | set(old) if is_exact_counter(c)}
        for col in sorted(columns):
            if new.get(col) == old.get(col):
                continue
            line = (f"{key[0]} {key[1]!r}"
                    f"{'' if key[2] is None else f' threads={key[2]}'}: "
                    f"{col} {old.get(col)} -> {new.get(col)}")
            tag = f"{key[0]}:{col}"
            if tag in allowed:
                used.add(tag)
                waived.append(line)
            else:
                mismatches.append(line)
    for line in waived:
        print(f"check_bench: allowed: {line}")
    for tag in sorted(allowed - used):
        print(f"check_bench: note: --allow {tag} matched no change")
    if mismatches:
        fail(f"{path} moved exact counters against {base_path} "
             f"(pass --allow EXP:column for intended moves):\n  "
             + "\n  ".join(mismatches))
    print(f"check_bench: OK: exact counters match {base_path} "
          f"({len(set(current) & set(baseline))} shared records, "
          f"{len(waived)} allowed moves)")


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except FileNotFoundError:
        fail(f"{path} is missing — regenerate it with "
             f"`cargo run --release -p fundb-bench --bin experiments` and commit it")
    except json.JSONDecodeError as e:
        fail(f"{path} is not valid JSON: {e}")
    validate(path, doc)
    return doc


def validate(path: str, doc) -> None:
    if not isinstance(doc, dict):
        fail(f"{path}: top level must be an object")
    if doc.get("schema") != "fundb-bench-v1":
        fail(f"{path}: schema must be \"fundb-bench-v1\", got {doc.get('schema')!r}")
    pr = doc.get("pr")
    if not isinstance(pr, int) or isinstance(pr, bool) or pr < 1:
        fail(f"{path}: pr must be a positive integer, got {pr!r}")
    records = doc.get("records")
    if not isinstance(records, list) or not records:
        fail(f"{path}: records must be a non-empty list")
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            fail(f"{path}: records[{i}] is not an object")
        for key in ("experiment", "workload"):
            if not isinstance(rec.get(key), str) or not rec[key]:
                fail(f"{path}: records[{i}] lacks a non-empty string {key!r}")
        measurements = {k: v for k, v in rec.items()
                        if k not in ("experiment", "workload")}
        if not measurements:
            fail(f"{path}: records[{i}] carries no measurements")
        for k, v in measurements.items():
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                fail(f"{path}: records[{i}].{k} must be numeric, got {v!r}")


def main() -> None:
    argv = sys.argv[1:]
    required = split_list(take_option(argv, "--require"))
    baselines = take_option(argv, "--baseline")
    allowed = split_list(take_option(argv, "--allow"))
    if len(argv) != 1 or len(baselines) > 1 or (allowed and not baselines):
        fail("usage: check_bench.py BENCH_prN.json [--require E11,E14,...] "
             "[--baseline BENCH_prM.json [--allow EXP:column,...]]")
    path = argv[0]
    doc = load(path)
    pr, records = doc["pr"], doc["records"]
    experiments = sorted({r["experiment"] for r in records})
    missing = sorted(required - set(experiments))
    if missing:
        fail(f"{path}: required experiments absent: {', '.join(missing)} "
             f"(present: {', '.join(experiments)})")
    print(f"check_bench: OK: {path} (pr {pr}, {len(records)} records, "
          f"experiments: {', '.join(experiments)})")
    if baselines:
        compare(path, records, baselines[0], allowed)


if __name__ == "__main__":
    main()

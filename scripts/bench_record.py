"""Fold the benchmark records of a parent commit and a change into one
committed file, BENCH_<label>.json.

    python3 scripts/bench_record.py PARENT_DIR CHANGE_DIR \\
        --parent-rev REV --change-rev REV --out BENCH_gate.json

Each directory holds the end-to-end records that ``bench/run.py
--trace 0`` writes, ``<workload>_seed<N>_trace0.json``: the parent's
in PARENT_DIR, the change's in CHANGE_DIR.  The two runs of one seed
make a pair.  Per workload the file holds the paired seeds, each
side's median and quartiles of every end-to-end metric that
BENCHMARK.json declares, the pairs the change won (better by the
metric's direction; ties count for neither side), each side's
operations attempted and failed, summed over its records, the host
facts of the records and both revisions.  A record of a seed that the
other side lacks is an error: a record without its pair cannot be
compared.  So is a record whose run did not hold its checks
(``"correct": false``): its timings measure a wrong result.

Run each side from a clean checkout, so that no stale bytecode of the
other side is imported.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import quantiles

ROOT = Path(__file__).resolve().parent.parent


def read_records(directory: Path) -> dict:
    """(workload, seed) -> the record of that end-to-end run."""
    records = {}
    for path in sorted(directory.glob("*_trace0.json")):
        rec = json.loads(path.read_text())
        records[rec["workload"], rec["seed"]] = rec
    return records


def spread(values: list) -> dict:
    """Median and quartiles (inclusive method: they lie within the data)."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def fold(parent: dict, change: dict, metrics: list, parent_rev: str, change_rev: str) -> dict:
    """The BENCH file's content from the two sides' records."""
    unpaired = sorted(set(parent) ^ set(change))
    if unpaired:
        raise ValueError(f"records without a pair (workload, seed): {unpaired}")
    for side, records in (("parent", parent), ("change", change)):
        wrong = sorted(key for key, rec in records.items() if not rec["correct"])
        if wrong:
            raise ValueError(f"{side} records with correct false (workload, seed): {wrong}")
    workloads = {}
    for name in sorted({w for w, _ in parent}):
        seeds = sorted(s for w, s in parent if w == name)
        sides = {"parent": [parent[name, s] for s in seeds], "change": [change[name, s] for s in seeds]}
        entry = {"seeds": seeds}
        for count in ("attempted", "failed"):
            entry[count] = {side: sum(r[count] for r in recs) for side, recs in sides.items()}
        for m in metrics:
            values = {side: [r["metrics"][m["name"]]["value"] for r in recs] for side, recs in sides.items()}
            sign = 1 if m["better"] == "lower" else -1
            won = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
            entry[m["name"]] = {
                "unit": m["unit"],
                "better": m["better"],
                "parent": spread(values["parent"]),
                "change": spread(values["change"]),
                "change_won": won,
                "pairs": len(seeds),
            }
        hosts = []
        for rec in sides["parent"] + sides["change"]:
            if rec["environment"] not in hosts:
                hosts.append(rec["environment"])
        entry["hosts"] = hosts
        workloads[name] = entry
    return {"parent_rev": parent_rev, "change_rev": change_rev, "workloads": workloads}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="fold parent and change benchmark records into a BENCH file")
    ap.add_argument("parent_dir", type=Path)
    ap.add_argument("change_dir", type=Path)
    ap.add_argument("--parent-rev", required=True)
    ap.add_argument("--change-rev", required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent, change = read_records(args.parent_dir), read_records(args.change_dir)
    if not parent:
        print(f"error: no *_trace0.json records in {args.parent_dir}", file=sys.stderr)
        return 2
    try:
        record = fold(parent, change, metrics, args.parent_rev, args.change_rev)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

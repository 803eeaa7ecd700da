#!/usr/bin/env python3
"""Diff two benchmark JSON files (e.g. BENCH_hotpath.json before/after).

Flattens every numeric field (nested objects become dotted paths, lists of
numbers become their median) and prints an aligned table of

    metric | A | B | % delta

so a perf PR can show exactly which counters and rates moved. Fields present
in only one file are listed separately. Exit code is always 0 — this is a
reporting tool, not a gate; CI uploads the table as an artifact and humans
judge the deltas.

Inputs may be a single JSON document or JSONL (one object per line, the
shape `bench_micro --queue-json` emits). A JSONL row in perfbench's
{name, unit, value} metric shape is the one metric `name`; other rows are
keyed by their "workload" field (falling back to "bench"/line number) so
the same workload diffs against itself across captures.

Usage:
    tools/bench_diff.py before.json after.json [--only PREFIX]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Any, Dict


def flatten(value: Any, prefix: str = "") -> Dict[str, float]:
    """Collect numeric leaves as {dotted.path: value}.

    Lists of numbers collapse to their median (the stable summary for
    repeated-measurement arrays); lists of objects are indexed. Strings and
    booleans are ignored — only measured quantities are diffable.
    """
    out: Dict[str, float] = {}
    if isinstance(value, bool):
        return out
    if isinstance(value, (int, float)):
        out[prefix or "value"] = float(value)
        return out
    if isinstance(value, dict):
        for key, child in value.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten(child, path))
        return out
    if isinstance(value, list) and value:
        if all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in value):
            out[f"{prefix}.median" if prefix else "median"] = float(
                statistics.median(value))
        else:
            for i, child in enumerate(value):
                out.update(flatten(child, f"{prefix}[{i}]"))
    return out


def fmt(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return f"{x:.4g}"


def load(path: str) -> Dict[str, float]:
    """Flatten one capture: a JSON document, or JSONL keyed by workload."""
    with open(path) as f:
        text = f.read()
    try:
        return flatten(json.loads(text))
    except json.JSONDecodeError:
        pass
    out: Dict[str, float] = {}
    for i, line in enumerate(text.splitlines()):
        line = line.strip()
        if not line:
            continue
        row = json.loads(line)
        key = f"line{i}"
        if isinstance(row, dict):
            if "name" in row and "value" in row:
                out.update(flatten(row["value"], str(row["name"])))
                continue
            key = str(row.get("workload") or row.get("bench") or key)
        out.update(flatten(row, key))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", help="baseline JSON file")
    parser.add_argument("after", help="candidate JSON file")
    parser.add_argument("--only", default="",
                        help="restrict to metrics whose path starts with this")
    args = parser.parse_args()

    a = load(args.before)
    b = load(args.after)
    if args.only:
        a = {k: v for k, v in a.items() if k.startswith(args.only)}
        b = {k: v for k, v in b.items() if k.startswith(args.only)}

    shared = sorted(set(a) & set(b))
    rows = []
    for key in shared:
        if a[key] == 0.0:
            # A zero baseline has no meaningful percentage — neither 0 -> 0
            # (a counter that never fired, e.g. segment_heap_allocs after
            # the pool landed) nor 0 -> n (infinite growth). Report n/a and
            # let the absolute columns speak.
            delta = "n/a"
        else:
            delta = f"{(b[key] - a[key]) / a[key] * 100.0:+.1f}%"
        rows.append((key, fmt(a[key]), fmt(b[key]), delta))

    if rows:
        widths = [max(len(r[i]) for r in rows) for i in range(4)]
        header = ("metric", "before", "after", "delta")
        widths = [max(w, len(h)) for w, h in zip(widths, header)]
        line = "  ".join(h.ljust(w) for h, w in zip(header, widths))
        print(line)
        print("  ".join("-" * w for w in widths))
        for key, av, bv, delta in rows:
            print(f"{key.ljust(widths[0])}  {av.rjust(widths[1])}  "
                  f"{bv.rjust(widths[2])}  {delta.rjust(widths[3])}")
    else:
        print("no shared numeric metrics")

    only_a = sorted(set(a) - set(b))
    only_b = sorted(set(b) - set(a))
    if only_a:
        print(f"\nonly in {args.before}: " + ", ".join(only_a))
    if only_b:
        print(f"\nonly in {args.after}: " + ", ".join(only_b))
    return 0


if __name__ == "__main__":
    sys.exit(main())

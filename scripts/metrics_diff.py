#!/usr/bin/env python3
"""Diff two metrics-registry JSON snapshots instrument by instrument.

Usage: scripts/metrics_diff.py [--prefix P]... [--ignore P]... \
           [--rel-tol R] <a> <b>

Accepts any of the snapshot shapes the repo emits:
  * a raw registry object        {"name": {"kind": ..., "value": ...}, ...}
  * a BENCH_*.json wrapper       {..., "metrics": {<registry object>}}
  * a murphyd STATS line         "OK ... metrics={<registry object>}"
    (or a whole murphyd transcript — the LAST metrics= line wins)

--prefix restricts the comparison to instruments whose name starts with any
given prefix (repeatable; default: everything). --ignore drops instruments
whose name starts with any given prefix AFTER --prefix selection; wall-clock
namespaces (*_latency., *_wall., phase., service.) legitimately vary run to
run, so CI determinism checks pass e.g.
    --prefix watchdog. --prefix ingest.
Counters and gauges compare by value; histograms by count and sum. Exit 0
when everything selected matches exactly, 1 on any difference, 2 on usage
or parse errors.

--rel-tol R admits numeric values within relative tolerance R
(|a-b| <= R * max(|a|, |b|)): gauges derived from floating-point scores
(the equivalence gate's t-test p-value) drift by ulps across compilers and
libm, so CI gates them approximately while a second exact invocation (no
--rel-tol) still guards the deterministic prefixes. Default 0.0 = exact
comparison.
"""
import json
import sys


def load_registry(path):
    with open(path) as f:
        text = f.read()
    # murphyd transcript: take the last "metrics={...}" payload on any line.
    if "metrics={" in text and not text.lstrip().startswith("{"):
        start = text.rindex("metrics={") + len("metrics=")
        depth = 0
        for i in range(start, len(text)):
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
                if depth == 0:
                    return json.loads(text[start : i + 1])
        raise ValueError(f"{path}: unterminated metrics= object")
    doc = json.loads(text)
    if "metrics" in doc and isinstance(doc["metrics"], dict):
        return doc["metrics"]  # BENCH_*.json wrapper
    return doc


def key_stats(entry):
    if entry.get("kind") == "histogram":
        return {"count": entry.get("count"), "sum": entry.get("sum")}
    return {"value": entry.get("value")}


def within_tolerance(a, b, rel_tol):
    """Exact match, or — for two finite numbers — within relative tolerance."""
    if a == b:
        return True
    if rel_tol <= 0.0:
        return False
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in (a, b)):
        return False
    return abs(a - b) <= rel_tol * max(abs(a), abs(b))


def main():
    prefixes, ignores, paths = [], [], []
    rel_tol = 0.0
    argv = sys.argv[1:]
    i = 0
    while i < len(argv):
        if argv[i] == "--prefix" and i + 1 < len(argv):
            prefixes.append(argv[i + 1])
            i += 2
        elif argv[i] == "--ignore" and i + 1 < len(argv):
            ignores.append(argv[i + 1])
            i += 2
        elif argv[i] == "--rel-tol" and i + 1 < len(argv):
            try:
                rel_tol = float(argv[i + 1])
            except ValueError:
                print(f"bad --rel-tol: {argv[i + 1]}", file=sys.stderr)
                return 2
            i += 2
        else:
            paths.append(argv[i])
            i += 1
    if len(paths) != 2:
        print(
            f"usage: {sys.argv[0]} [--prefix P]... [--ignore P]..."
            f" [--rel-tol R] <a> <b>",
            file=sys.stderr,
        )
        return 2

    def selected(name):
        if prefixes and not any(name.startswith(p) for p in prefixes):
            return False
        return not any(name.startswith(p) for p in ignores)

    try:
        a = {k: v for k, v in load_registry(paths[0]).items() if selected(k)}
        b = {k: v for k, v in load_registry(paths[1]).items() if selected(k)}
    except (ValueError, OSError, json.JSONDecodeError) as e:
        print(f"load failed: {e}", file=sys.stderr)
        return 2
    if not a and not b:
        print("no instruments selected — wrong snapshot or prefix?",
              file=sys.stderr)
        return 2

    bad = 0
    for name in sorted(set(a) | set(b)):
        if name not in a or name not in b:
            where = paths[0] if name in a else paths[1]
            print(f"MISSING {name}: only in {where}")
            bad += 1
            continue
        sa, sb = key_stats(a[name]), key_stats(b[name])
        if any(not within_tolerance(sa.get(k), sb.get(k), rel_tol)
               for k in set(sa) | set(sb)):
            print(f"DIFF {name}: {sa} != {sb}")
            bad += 1
    if bad:
        print(f"{bad} instrument(s) differ", file=sys.stderr)
        return 1
    print(f"{len(a)} instruments match")
    return 0


if __name__ == "__main__":
    sys.exit(main())

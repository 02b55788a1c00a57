#!/usr/bin/env python3
"""Gate one served bench run.

Usage: go run ./bench -workload W ... | tail -n 1 | served_gate.py ALLOC_KB_LIMIT

Reads the run's final JSON line on stdin and prints whether every answer
was correct, how many statements failed, alloc_kb_per_stmt against its
limit, and setup_s and host_cpu_ms_per_stmt, which are reported, not gated.
Exits non-zero unless `correct` is true, `failed` is 0 and
alloc_kb_per_stmt is at most ALLOC_KB_LIMIT. `correct` and `failed` are
read separately, so neither gate can pass on the other.
"""
import json
import sys


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    limit = float(sys.argv[1])
    line = json.load(sys.stdin)
    ok, failed = line["correct"], line["failed"]
    m = line["metrics"]
    kb = m["alloc_kb_per_stmt"]["value"]
    setup = m["setup_s"]["value"]
    cpu = m["host_cpu_ms_per_stmt"]["value"]
    print(f"correct {ok} failed {failed} alloc_kb_per_stmt {kb:.1f} (limit {limit:g}) "
          f"setup_s {setup:.3f} host_cpu_ms_per_stmt {cpu:.2f} (both reported, not gated)")
    sys.exit(ok is not True or failed != 0 or kb > limit)


if __name__ == "__main__":
    main()

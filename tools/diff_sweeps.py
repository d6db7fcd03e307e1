#!/usr/bin/env python3
"""Diff two or more sweep manifests cell by cell.

CI's distributed-smoke job runs the *same* sweep on both executor
backends (serial, local-pool:2), and serially once more on the heap
scheduler (``REPRO_SIM_SCHEDULER=heap``), and pipes the manifests through
this tool: per (figure, seed, params) cell it compares status, verdict,
row counts, and — when the sweeps streamed their rows — the row
payloads byte for byte.  Execution metadata that legitimately differs
across backends (wall times, attempt counters, chunk paths, the
``backend`` field itself) is ignored.

Stdlib-only on purpose: it must run anywhere CI can run ``python3``,
without PYTHONPATH or an installed package.

Usage::

    python tools/diff_sweeps.py serial.json local-pool2.json

Exit status: 0 when all manifests agree, 1 on any divergence (each
difference is printed), 2 on usage errors.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def load_rows(record: dict) -> list | None:
    """The cell's rows, from streamed chunks; None when not streamed."""
    chunks = record.get("row_chunks")
    if not chunks:
        return None
    rows = []
    for chunk in chunks:
        with open(chunk) as handle:
            rows.extend(json.loads(line) for line in handle if line.strip())
    return rows


def cell_key(record: dict) -> str:
    params = json.dumps(record.get("params") or {}, sort_keys=True)
    return f"{record['figure']} seed={record['seed']} {params}"


def load_cells(path: str) -> dict[str, dict]:
    manifest = json.loads(Path(path).read_text())
    cells = {}
    for record in manifest.get("jobs", []):
        key = cell_key(record)
        if key in cells:
            raise SystemExit(f"{path}: duplicate cell {key}")
        cells[key] = record
    return cells


def compare(base_name: str, base: dict, other_name: str, other: dict) -> list:
    problems = []

    def report(key: str, what: str, left, right) -> None:
        problems.append(
            f"{key}: {what} diverged: "
            f"{base_name}={left!r} vs {other_name}={right!r}"
        )

    for key in sorted(set(base) | set(other)):
        if key not in base or key not in other:
            where = other_name if key not in other else base_name
            problems.append(f"{key}: missing from {where}")
            continue
        left, right = base[key], other[key]
        for field in ("status", "verdict", "rows"):
            if left.get(field) != right.get(field):
                report(key, field, left.get(field), right.get(field))
        left_rows, right_rows = load_rows(left), load_rows(right)
        if left_rows is not None and right_rows is not None:
            if left_rows != right_rows:
                report(
                    key, "row payloads",
                    f"{len(left_rows)} rows", f"{len(right_rows)} rows",
                )
    return problems


def main(argv: list[str]) -> int:
    paths = [a for a in argv if not a.startswith("-")]
    if len(paths) < 2 or any(a.startswith("-") for a in argv):
        print(__doc__, file=sys.stderr)
        return 2
    base_name, *other_names = paths
    base = load_cells(base_name)
    failed = False
    for other_name in other_names:
        problems = compare(base_name, base, other_name, load_cells(other_name))
        if problems:
            failed = True
            for problem in problems:
                print(f"DIFF {problem}")
        else:
            print(
                f"OK {other_name} matches {base_name} "
                f"({len(base)} cells)"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

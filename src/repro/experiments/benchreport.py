"""Consolidated benchmark index: the perf trajectory in one file.

Every optimisation PR leaves a ``results/BENCH_<name>.json`` snapshot
behind (replay vectorisation, trace replay, prep slices...), each
with its own shape.  This module folds
them into one machine-readable ``results/BENCH_index.json`` -- name,
headline speedup, gate (when the snapshot records the threshold its
benchmark asserts), lever, and the ``date`` its writer recorded when it
measured (``-`` when a snapshot records none; a file's mtime only says
when it was checked out or copied) -- so "how fast is the
stack now, and what held" is one read instead of a scavenger hunt
across six files.  ``repro bench report`` prints the same table and
rewrites the index.

The extractor is deliberately tolerant of shape drift: a snapshot's
headline number is its top-level ``speedup``, else ``sweep.speedup``,
else the maximum numeric ``speedup*`` value found anywhere in it --
older snapshots need no retrofitting to stay indexed.
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Dict, List, Optional, Tuple

from .engine import RESULTS_DIR

#: Bump when the index layout changes.
INDEX_SCHEMA = 1

INDEX_NAME = "BENCH_index.json"


def _headline_speedup(data) -> Optional[float]:
    """Best-effort headline speedup of one snapshot (see module doc)."""
    found: List[Tuple[tuple, float]] = []

    def walk(node, path: tuple) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                if key.startswith("speedup") and isinstance(
                    value, (int, float)
                ):
                    found.append((path + (key,), float(value)))
                else:
                    walk(value, path + (key,))

    walk(data, ())
    if not found:
        return None
    for preferred in (("speedup",), ("sweep", "speedup")):
        for path, value in found:
            if path == preferred:
                return value
    return max(value for _, value in found)


def build_index(results_dir=None) -> Dict:
    """Aggregate every ``BENCH_*.json`` under ``results_dir``."""
    results_dir = pathlib.Path(results_dir or RESULTS_DIR)
    entries = []
    for path in sorted(results_dir.glob("BENCH_*.json")):
        if path.name == INDEX_NAME:
            continue
        entry = {
            "name": path.stem[len("BENCH_"):],
            "file": path.name,
            "date": None,
        }
        try:
            data = json.loads(path.read_text())
        except ValueError as exc:
            entry["error"] = f"unreadable snapshot: {exc}"
            entries.append(entry)
            continue
        entry["date"] = data.get("date")
        entry["speedup"] = _headline_speedup(data)
        entry["gate"] = data.get("gate")
        entry["lever"] = data.get("lever")
        entries.append(entry)
    return {
        "schema": INDEX_SCHEMA,
        "written_unix": time.time(),
        "benchmarks": entries,
    }


def write_index(results_dir=None) -> pathlib.Path:
    """Build and persist ``results/BENCH_index.json``; returns path."""
    results_dir = pathlib.Path(results_dir or RESULTS_DIR)
    index = build_index(results_dir)
    path = results_dir / INDEX_NAME
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(index, indent=2) + "\n")
    return path


def render_index(index: Dict) -> str:
    """Human-readable table of one :func:`build_index` result."""
    rows = []
    for entry in index["benchmarks"]:
        if "error" in entry:
            rows.append((entry["name"], "ERROR", "-", entry["error"]))
            continue
        speedup = entry.get("speedup")
        gate = entry.get("gate")
        rows.append(
            (
                entry["name"],
                f"{speedup:.2f}x" if speedup is not None else "-",
                f">={gate:g}x" if gate is not None else "-",
                entry.get("date") or "-",
            )
        )
    if not rows:
        return "no BENCH_*.json snapshots found"
    headers = ("benchmark", "speedup", "gate", "date")
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows))
        for i in range(4)
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    lines.extend(
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        for row in rows
    )
    return "\n".join(lines)

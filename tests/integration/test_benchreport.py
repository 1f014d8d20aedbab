"""``repro bench report``: the perf index dates rows as measured."""

import json
import os

from repro.experiments import benchreport


def _snapshot(results_dir, name, **fields):
    path = results_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps({"speedup": 2.0, **fields}) + "\n")
    return path


def test_recorded_date_survives_an_mtime_change(tmp_path):
    """A checkout or copy moves a snapshot's mtime, not the day its
    writer measured it."""
    path = _snapshot(tmp_path, "lever", date="2026-08-06", gate=1.5)
    os.utime(path, (2_000_000_000, 2_000_000_000))  # 2033
    (entry,) = benchreport.build_index(tmp_path)["benchmarks"]
    assert entry["date"] == "2026-08-06"
    assert entry["speedup"] == 2.0 and entry["gate"] == 1.5


def test_undated_snapshot_shows_a_dash(tmp_path):
    _snapshot(tmp_path, "old")
    index = benchreport.build_index(tmp_path)
    (entry,) = index["benchmarks"]
    assert entry["date"] is None
    (row,) = benchreport.render_index(index).splitlines()[2:]
    assert row.split()[-1] == "-"

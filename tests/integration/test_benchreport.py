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


def test_per_component_speedup_dict_gives_a_headline(tmp_path):
    """A snapshot whose ``speedup`` is a dict of per-component ratios
    (``BENCH_sim_throughput.json``'s shape) is headed by its largest
    ratio, and a preferred scalar still wins over such leaves."""
    path = tmp_path / "BENCH_components.json"
    path.write_text(
        json.dumps(
            {
                "before": {"inorder_kips": 178.8},
                "speedup": {"inorder_kips": 3.2, "functional_kips": 5.89},
            }
        )
    )
    (entry,) = benchreport.build_index(tmp_path)["benchmarks"]
    assert entry["speedup"] == 5.89
    assert benchreport._headline_speedup(
        {"sweep": {"speedup": 1.6}, "speedups": {"point": 9.0}}
    ) == 1.6

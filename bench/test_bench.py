"""Self-test of the end-to-end benchmark on a 2-benchmark, 100-iteration
variant of ``ooo_warm``.  Run with ``pytest bench/`` (it is outside the
tier-1 ``testpaths``); it takes about half a minute on two CPUs."""

from __future__ import annotations

import copy
import json
import os

import pytest

import run

TINY = {
    "iterations": 100,
    "figs": {},
    "ladder": [],
    "ooo": ["h264ref", "wrf"],
}

#: Knobs that would change what a pass does if they reached a child:
#: one worker, and no trace capture/replay at all (so a "warm" pass
#: would recapture and fail the warm-pass check).
HOSTILE_ENV = {"REPRO_JOBS": "7", "REPRO_TRACE_REPLAY": "0"}


def _results_snapshot():
    results = run.ROOT / "results"
    return sorted(
        (str(p.relative_to(results)), p.stat().st_mtime_ns)
        for p in results.rglob("*")
    )


@pytest.fixture(scope="module")
def records():
    before = _results_snapshot()
    saved = {k: os.environ.get(k) for k in HOSTILE_ENV}
    os.environ.update(HOSTILE_ENV)
    try:
        plain = run.measure("ooo_warm", 1, 0.0, False, scale=TINY)
        traced = run.measure("ooo_warm", 1, 0.0, True, scale=TINY)
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return {"plain": plain, "traced": traced, "results_before": before}


def _printed_names(record, capsys):
    run.print_metrics(record)
    printed = capsys.readouterr().out.splitlines()
    return {line.split()[1] for line in printed
            if line.startswith(record["workload"] + " ")}


def test_printed_metric_names_match_benchmark_json(records, capsys):
    plain, traced = records["plain"], records["traced"]
    assert plain["correct"] and traced["correct"], (
        plain["problems"], traced["problems"])
    e2e = {m["name"] for m in run.SPEC["end_to_end"]}
    layers = {m["name"] for m in run.SPEC["per_layer"]}
    assert _printed_names(plain, capsys) == e2e
    assert _printed_names(traced, capsys) == layers
    line = run.result_line([plain], prefix=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == e2e
    json.dumps(line)


def test_traced_self_times_cover_the_wall(records):
    metrics = records["traced"]["metrics"]
    assert metrics["bench.self_time_coverage"]["value"] >= 0.95
    assert metrics["bench.traced_wall_s"]["value"] > 0
    assert metrics["uarch.replay_vec.ooo_s"]["value"] > 0


def test_tampered_digest_fails_the_run(records):
    tampered = copy.deepcopy(records["plain"])
    last = tampered["passes"][-1]
    last["digests"] = {k: "0" * 64 for k in last["digests"]}
    run.finish(tampered, cold=False)
    assert not tampered["correct"]
    assert tampered["failed"] >= 1
    assert any("digests" in p for p in tampered["problems"])
    assert not run.result_line([tampered], prefix=False)["correct"]


def _result_file(path, seed, gap):
    metrics = {
        m["name"]: {"value": 1.0, "n": 5, "samples": [1.0] * 5,
                    "unit": m["unit"]}
        for m in run.SPEC["end_to_end"]
    }
    metrics["paper_gap_pp"].update(value=gap, samples=[gap] * 5)
    path.write_text(json.dumps({
        "env": {"seed": seed, "scale": run.SCALE, "jobs": 2, "nproc": 2},
        "workloads": {"ooo_warm": {"trace": False, "metrics": metrics}},
    }))
    return str(path)


def test_compare_refuses_other_run_conditions(tmp_path, capsys):
    a = _result_file(tmp_path / "a.json", seed=1, gap=10.0)
    b = _result_file(tmp_path / "b.json", seed=2, gap=10.0)
    assert run.compare(a, b) == 2
    assert "env.seed differs" in capsys.readouterr().out


def test_compare_holds_the_paper_gap_at_one_seed(tmp_path, capsys):
    a = _result_file(tmp_path / "a.json", seed=1, gap=10.0)
    b = _result_file(tmp_path / "b.json", seed=1, gap=10.01)
    assert run.compare(a, b) == 1
    rows = capsys.readouterr().out.splitlines()
    assert any("paper_gap_pp" in r and r.endswith("regressed") for r in rows)
    assert run.compare(a, a) == 0


def test_scale_is_the_measured_selection():
    chosen = json.loads(
        (run.BENCH_DIR / "baseline" / "subsets.json").read_text())["chosen"]
    assert run.SCALE["ladder"] == chosen["ladder"]
    assert run.SCALE["ooo"] == chosen["ooo"]
    assert sorted(b for names in run.SCALE["figs"].values()
                  for b in names) == sorted(chosen["figs"])


def test_repro_knobs_are_scrubbed(records, tmp_path, monkeypatch):
    for key, value in HOSTILE_ENV.items():
        monkeypatch.setenv(key, value)
    env = run.child_env(tmp_path / "store", tmp_path)
    assert [k for k in env if k.startswith("REPRO_")] == ["REPRO_CACHE_DIR"]
    assert env["REPRO_CACHE_DIR"] == str(tmp_path / "store")
    for record in (records["plain"], records["traced"]):
        assert all(c["repro_env"] == ["REPRO_CACHE_DIR"]
                   for c in record["children"])
    assert _results_snapshot() == records["results_before"]
    assert not list(run.SCRATCH.glob("ooo_warm-*"))

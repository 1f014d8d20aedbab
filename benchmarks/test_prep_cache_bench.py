"""Persisted replay-prep artifact benchmarks.

The scenario the prep cache exists for: a multi-predictor sweep
replaying one captured baseline trace, where every sweep point lands
on a *fresh* store (a new worker process, a new run, or another
host sharing the cache root).  Without persisted
preps each point re-runs the serial per-branch predictor pass and the
cache-tag walk before the vectorized kernels can start; with them the
point attaches the finished layers from ``preps/`` and goes straight
to the kernels.

Two layers:

* pytest-benchmark micros of one cold-store sweep point under a live
  (non-recorded) predictor -- every prep layer rebuilt in-process vs
  the persisted slice attached;
* a snapshot (``results/BENCH_prep_cache.json``) of the full
  multi-predictor sweep across a chain of fresh stores, warm and cold
  sweeps sampled round-robin and gated at >= 1.3x, with the store
  counters proving the fleet-wide build count is exactly one per
  (trace, predictor, config class) and the results bit-identical
  either way.

Correctness (invalidation, quarantine, scalar-oracle equality) is
pinned by ``tests/integration/test_prep_artifacts.py``.
"""

import json
import pathlib
import time

from repro.branchpred import (
    BimodalPredictor,
    GSharePredictor,
    HybridPredictor,
    TagePredictor,
)
from repro.compiler import compile_baseline, profile_program
from repro.experiments.artifacts import ArtifactStore
from repro.ir import lower
from repro.uarch import MachineConfig, replay_inorder, replay_multi
from repro.workloads import spec_benchmark

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

_BUDGET = 400_000
_PREDICTORS = (
    TagePredictor,
    GSharePredictor,
    BimodalPredictor,
    HybridPredictor,
)


def _program_machine():
    spec = spec_benchmark("h264ref", iterations=120)
    profile = profile_program(
        lower(spec.build(seed=0)), max_instructions=_BUDGET
    )
    program = compile_baseline(
        spec.build(seed=1), profile=profile
    ).program
    return program, MachineConfig.paper_default(width=4)


def _sweep_machines(machine):
    """One sweep point per predictor: the recorded one plus live
    passes, every one its own prep slice."""
    return [machine.with_predictor(p) for p in _PREDICTORS]


def _seed_trace(cache_dir):
    store = ArtifactStore(cache_dir=cache_dir)
    program, machine = _program_machine()
    store.simulate_inorder(program, machine, max_instructions=_BUDGET)
    assert store.counters["trace_captures"] == 1
    return program, machine


def _fresh_point(cache_dir, program, machine):
    """One sweep point on a fresh store (new worker/run/host), and so
    with empty walk tables: they are shared by the whole process."""
    replay_multi._clear_tables()
    store = ArtifactStore(cache_dir=cache_dir)
    result = store.simulate_inorder(
        program, machine, max_instructions=_BUDGET
    )
    return result, store.counters


def _unprepped_point(cache_dir, program, machine):
    """The same point replaying the stored trace directly: every prep
    layer is rebuilt in-process, and no slice is attached or
    persisted."""
    replay_multi._clear_tables()
    store = ArtifactStore(cache_dir=cache_dir)
    trace = store.peek_trace(program, machine, max_instructions=_BUDGET)
    return replay_inorder(program, trace, machine), store.counters


def test_point_replay_prep_cold(benchmark, tmp_path):
    """No persisted slice: every fresh store re-runs the serial live
    predictor pass and cache-tag walk before it can replay."""
    program, machine = _seed_trace(tmp_path)
    live = machine.with_predictor(GSharePredictor)
    result = benchmark(
        lambda: _unprepped_point(tmp_path, program, live)[0]
    )
    assert result.cycles > 0


def test_point_replay_prep_warm(benchmark, tmp_path):
    """Persisted preps: a fresh store attaches the finished layers."""
    program, machine = _seed_trace(tmp_path)
    live = machine.with_predictor(GSharePredictor)
    _, counters = _fresh_point(tmp_path, program, live)  # build once
    assert counters["prep_builds"] == 1
    result = benchmark(
        lambda: _fresh_point(tmp_path, program, live)[0]
    )
    assert result.cycles > 0


def _interleaved_best(fns, reps=7):
    """Min-of-``reps`` wall and last output of each of ``fns``, sampled
    round-robin so that a slow stretch of the host hits every side
    alike."""
    best = [float("inf")] * len(fns)
    outs = [None] * len(fns)
    for _ in range(reps):
        for index, fn in enumerate(fns):
            start = time.perf_counter()
            outs[index] = fn()
            best[index] = min(best[index], time.perf_counter() - start)
    return best, outs


def test_prep_cache_snapshot(tmp_path):
    """Archive cold vs warm multi-predictor sweep walls in
    ``results/BENCH_prep_cache.json``, hold warm to the >= 1.3x
    target, and prove one build per (trace, predictor) fleet-wide."""
    program, machine = _seed_trace(tmp_path)
    machines = _sweep_machines(machine)

    def sweep(point=_fresh_point):
        # A chain of fresh stores: the state of a fleet where no two
        # points share a process.  Returns results + summed counters.
        results, totals = [], {}
        for m in machines:
            result, counters = point(tmp_path, program, m)
            results.append(result)
            for name, count in counters.items():
                if count:
                    totals[name] = totals.get(name, 0) + count
        return results, totals

    # Build pass: first time any store sees each point, every slice
    # is built exactly once and persisted.  The seed replayed the
    # capturing (recorded-predictor) point, so that slice is already
    # on disk.
    _, build_totals = sweep()
    assert build_totals.get("prep_builds") == len(machines) - 1
    assert build_totals.get("prep_hits") == 1

    def cold_sweep():
        # The same chain, every prep layer rebuilt per point and
        # nothing attached or persisted.
        return sweep(_unprepped_point)

    # Warm passes reuse those builds forever; cold passes rebuild.
    # Alternate the two so host noise lands on both sides alike.
    (warm_wall, cold_wall), (warm, cold) = _interleaved_best(
        [sweep, cold_sweep]
    )
    warm_results, warm_totals = warm
    cold_results, cold_totals = cold
    assert "prep_builds" not in warm_totals
    assert "prep_misses" not in warm_totals
    assert warm_totals.get("prep_hits") == len(machines)
    assert not any(
        name.startswith("prep_") for name in cold_totals
    )

    assert [r.stats for r in cold_results] == [
        r.stats for r in warm_results
    ], "prep cache changed replay results"
    assert [r.cycles for r in cold_results] == [
        r.cycles for r in warm_results
    ]

    preps = sorted((tmp_path / "preps").glob("*.prep"))
    snapshot = {
        "date": time.strftime("%Y-%m-%d"),
        "config": {
            "workload": "h264ref",
            "iterations": 120,
            "max_instructions": _BUDGET,
            "predictors": [p.__name__ for p in _PREDICTORS],
        },
        "lever": (
            "persisted prep slices (warm: fresh store per point "
            "attaching persisted preps/ slices; cold: same chain "
            "replaying the stored trace with replay_inorder, rebuilding "
            "every prep layer per point; min of 7 samples per side, "
            "taken alternately)"
        ),
        "gate": 1.3,
        "sweep": {
            "points": len(machines),
            "cold_wall_s": round(cold_wall, 3),
            "warm_wall_s": round(warm_wall, 3),
            "speedup": round(cold_wall / warm_wall, 2),
        },
        "counters": {
            "build_pass": build_totals,
            "warm_pass": warm_totals,
            "persisted_slices": len(preps),
        },
        "note": (
            "chain-of-fresh-stores models a fleet (new workers, new "
            "runs, hosts sharing a cache root); with the "
            "seeding replay's slice, build_pass shows exactly one "
            "prep_builds per (trace, predictor, config class), "
            "warm_pass shows pure hits with bit-identical results"
        ),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_prep_cache.json").write_text(
        json.dumps(snapshot, indent=2) + "\n"
    )
    assert snapshot["sweep"]["speedup"] >= snapshot["gate"], (
        f"warm prep sweep speedup {snapshot['sweep']['speedup']}x "
        f"< {snapshot['gate']}x target"
    )

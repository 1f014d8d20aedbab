"""One prepare path: memoised workload builds and content-keyed
compiles (:func:`repro.experiments.harness.prepare_benchmark`)."""

from __future__ import annotations

import dataclasses
import itertools
from collections import Counter, defaultdict

import pytest

from repro.experiments import RunConfig, harness, sensitivity
from repro.experiments.artifacts import _BUILD_MEMO_CAP, ArtifactStore
from repro.experiments.engine import ExperimentEngine
from repro.ir import lower
from repro.uarch.trace import content_digest
from repro.workloads import BranchSiteSpec, WorkloadSpec

LADDER_BENCHMARKS = ("astar", "mcf")
SMALL = RunConfig(iterations=40, ref_seeds=(1,), max_instructions=40_000)
PREPARE = harness.prepare_benchmark
COMPILE_BASELINE = harness.compile_baseline
LOWER = harness.lower


@pytest.fixture
def store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return ArtifactStore(cache_dir=tmp_path)


def _tiny(**fields) -> WorkloadSpec:
    spec = dict(
        name="tiny",
        suite="test",
        sites=[BranchSiteSpec(bias=0.6, predictability=0.9)],
        iterations=16,
        cold_code_factor=0.0,
    )
    spec.update(fields)
    return WorkloadSpec(**spec)


#: One variant per WorkloadSpec field, each differing from ``_tiny()``
#: in that field alone.
ONE_FIELD_VARIANTS = {
    "name": "tiny2",
    "suite": "other",
    "sites": [BranchSiteSpec(bias=0.7, predictability=0.9)],
    "iterations": 17,
    "loads_not_taken": 4,
    "loads_taken": 4,
    "loads_cond_block": 2,
    "cold_loads_per_block": 1,
    "cold_miss": "l2",
    "alu_per_block": 4,
    "hoist_barrier_frac": 0.5,
    "hoist_cap": 2,
    "footprint_words": 512,
    "cond_miss": "l2",
    "cond_chain": 2,
    "fp_fraction": 0.5,
    "inputs": 3,
    "bias_jitter": 0.03,
    "cold_code_factor": 0.5,
}


class TestBuildMemo:
    def test_never_exceeds_its_cap(self, store):
        specs = [_tiny(iterations=16 + i) for i in range(_BUILD_MEMO_CAP + 2)]
        for spec in specs:
            store.build(spec, 0)
            assert len(store._build_memo) <= _BUILD_MEMO_CAP
        assert len(store._build_memo) == _BUILD_MEMO_CAP
        mark = store.mark()
        store.build(specs[-1], 0)
        store.build(specs[0], 0)  # the oldest entry was evicted
        assert store.delta(mark) == {"build_hits": 1, "build_misses": 1}

    def test_a_spec_differing_in_one_field_misses(self, store):
        assert set(ONE_FIELD_VARIANTS) == {
            f.name for f in dataclasses.fields(WorkloadSpec)
        }
        base = store.build(_tiny(), 0)
        mark = store.mark()
        assert store.build(_tiny(), 0) is base
        assert store.build(_tiny(), 1) is not base
        for field, value in ONE_FIELD_VARIANTS.items():
            assert store.build(_tiny(**{field: value}), 0) is not base
        assert store.delta(mark) == {
            "build_hits": 1,
            "build_misses": 1 + len(ONE_FIELD_VARIANTS),
        }

    def test_compiles_leave_the_shared_function_unchanged(self, store):
        spec = _tiny(iterations=64)
        ref = store.build(spec, 1)
        before = content_digest(lower(ref))
        harness.prepare_benchmark(spec, 1, SMALL, store)
        assert store.build(spec, 1) is ref
        assert content_digest(lower(ref)) == before


def _ladder(tmp_path, monkeypatch, fresh_store_per_job=False):
    """A ``jobs=1`` ladder; returns (rendered table, per-benchmark
    counter totals, per-benchmark baseline digests and compile counts)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    digests = defaultdict(set)
    own_profile = defaultdict(list)
    baseline_compiles = Counter()

    def recording_prepare(name, *args, **kwargs):
        baseline, decomposed = PREPARE(name, *args, **kwargs)
        digests[name].add(content_digest(baseline.program))
        # A shared baseline still carries this rung's profile.
        own_profile[name].append(baseline.profile is decomposed.profile)
        return baseline, decomposed

    def counting_compile(func, **kwargs):
        baseline_compiles[func.name.split(".seed")[0]] += 1
        return COMPILE_BASELINE(func, **kwargs)

    monkeypatch.setattr(sensitivity, "prepare_benchmark", recording_prepare)
    monkeypatch.setattr(harness, "compile_baseline", counting_compile)
    if fresh_store_per_job:
        stores = (
            ArtifactStore(cache_dir=tmp_path / f"job{n}")
            for n in itertools.count()
        )
        monkeypatch.setattr(sensitivity, "get_store", lambda: next(stores))
    engine = ExperimentEngine(jobs=1, cache_dir=tmp_path, use_cache=False)
    result = sensitivity.run(LADDER_BENCHMARKS, SMALL, engine=engine)
    counters = defaultdict(Counter)
    for record in engine.manifest()["jobs"]:
        name = record["label"].split(":")[1]
        counters[name].update(record["artifacts"] or {})
    assert all(all(shared) for shared in own_profile.values())
    return result.render(), counters, digests, baseline_compiles


def test_ladder_builds_and_compiles_each_baseline_once(tmp_path, monkeypatch):
    rendered, counters, digests, baseline_compiles = _ladder(
        tmp_path / "shared", monkeypatch
    )
    rungs = len(sensitivity.LADDER)
    for name in LADDER_BENCHMARKS:
        # TRAIN and REF built once, then served to the other rungs.
        assert counters[name]["build_misses"] == 2
        assert counters[name]["build_hits"] == 2 * (rungs - 1)
        # One baseline compile; every decomposed compile misses,
        # because each rung profiles and selects with its predictor.
        assert baseline_compiles[name] == 1
        assert counters[name]["compile_hits"] == rungs - 1
        assert counters[name]["compile_misses"] == 1 + rungs
        assert len(digests[name]) == 1
    fresh, _, _, fresh_compiles = _ladder(
        tmp_path / "fresh", monkeypatch, fresh_store_per_job=True
    )
    assert all(fresh_compiles[name] == rungs for name in LADDER_BENCHMARKS)
    assert fresh == rendered


def test_two_rung_ladder_lowers_train_once(tmp_path, monkeypatch):
    """The second rung profiles under another predictor: its profile
    misses, but the store already holds the TRAIN program's digest and
    branch trace, so nothing lowers the program again."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(sensitivity, "LADDER", sensitivity.LADDER[:2])
    lowered = Counter()

    def counting_lower(func):
        lowered[func.name] += 1
        return LOWER(func)

    monkeypatch.setattr(harness, "lower", counting_lower)
    engine = ExperimentEngine(jobs=1, cache_dir=tmp_path, use_cache=False)
    result = sensitivity.run(("astar",), SMALL, engine=engine)
    assert len(result.points) == 2
    assert dict(lowered) == {"astar.seed0": 1}
    counters = Counter()
    for record in engine.manifest()["jobs"]:
        counters.update(record["artifacts"] or {})
    assert counters["profile_misses"] == 2
    assert counters["btrace_misses"] == 1
    assert counters["btrace_hits"] == 1

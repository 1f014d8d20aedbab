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
from repro.isa import DataSegment
from repro.isa import program as program_module
from repro.uarch.trace import content_digest
from repro.workloads import BranchSiteSpec, WorkloadSpec, spec_benchmark

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

    def test_programs_lowered_from_one_build_hash_its_segment_once(
        self, store, monkeypatch
    ):
        hashed = []
        words_digest = program_module._words_digest

        def counting_digest(words):
            hashed.append(len(words))
            return words_digest(words)

        monkeypatch.setattr(program_module, "_words_digest", counting_digest)
        func = store.build(_tiny(), 1)
        assert isinstance(func.data, DataSegment)
        first, second = lower(func), lower(func)
        assert first is not second
        assert first.data is func.data and second.data is func.data
        assert content_digest(first) == content_digest(second)
        assert hashed == [len(func.data)]


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
        # TRAIN built once, for the one functional run; REF built once,
        # then served to the other rungs.
        assert counters[name]["build_misses"] == 2
        assert counters[name]["build_hits"] == rungs - 1
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


def test_ladder_shares_one_read_only_segment(tmp_path, monkeypatch):
    """After a two-rung mcf ladder, every memoised compiled function
    and program carries the REF build's segment object itself, and a
    write to it raises."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(sensitivity, "LADDER", sensitivity.LADDER[:2])
    store = ArtifactStore(cache_dir=tmp_path)
    monkeypatch.setattr(sensitivity, "get_store", lambda: store)
    engine = ExperimentEngine(jobs=1, cache_dir=tmp_path, use_cache=False)
    assert len(sensitivity.run(("mcf",), SMALL, engine=engine).points) == 2
    spec = spec_benchmark("mcf", iterations=SMALL.iterations)
    segment = store.build(spec, SMALL.ref_seeds[0]).data
    assert isinstance(segment, DataSegment)
    results = list(store._compile_memo.values())
    assert len(results) == 3  # one baseline, one decomposed per rung
    for result in results:
        assert result.function.data is segment
        assert result.program.data is segment
    address = next(iter(segment))
    with pytest.raises(TypeError):
        segment[address] = 0


def test_warm_root_rung_builds_and_lowers_no_train(tmp_path, monkeypatch):
    """A fresh store on a warm cache root finds the TRAIN profile under
    the TRAIN build's key: a rung builds REF only, and nothing goes
    through ``harness.lower``."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    payload = ("mcf", sensitivity.LADDER[0][0], SMALL)
    warm = ArtifactStore(cache_dir=tmp_path)
    monkeypatch.setattr(sensitivity, "get_store", lambda: warm)
    first = sensitivity._sensitivity_job(payload)

    built, lowered = Counter(), Counter()
    build = WorkloadSpec.build

    def counting_build(spec, seed=0):
        built[seed] += 1
        return build(spec, seed=seed)

    def counting_lower(func):
        lowered[func.name] += 1
        return LOWER(func)

    monkeypatch.setattr(WorkloadSpec, "build", counting_build)
    monkeypatch.setattr(harness, "lower", counting_lower)
    fresh = ArtifactStore(cache_dir=tmp_path)
    monkeypatch.setattr(sensitivity, "get_store", lambda: fresh)
    assert sensitivity._sensitivity_job(payload) == first
    assert dict(built) == {SMALL.ref_seeds[0]: 1}
    assert not lowered
    assert fresh.counters["profile_hits"] == 1
    assert fresh.counters["btrace_misses"] == 0

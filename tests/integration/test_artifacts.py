"""The shared artifact store: capture-once semantics, integrity,
quarantine, cache housekeeping, and group scheduling.

These run at quick scale; everything points its cache at ``tmp_path``
via ``REPRO_CACHE_DIR`` (the engine exports the same variable around
``map()`` so worker processes agree).
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.branchpred import GSharePredictor, HybridPredictor
from repro.experiments import ExperimentEngine, RunConfig
from repro.experiments.artifacts import (
    ArtifactStore,
    default_store,
    get_store,
)
from repro.experiments.harness import (
    combine_seed_results,
    prepare_benchmark,
    run_seed,
)
from repro.uarch import InOrderCore, MachineConfig, OutOfOrderCore, Trace


@pytest.fixture
def store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return ArtifactStore(cache_dir=tmp_path)


def _quick_programs(config=None):
    config = config or RunConfig.quick()
    baseline, decomposed = prepare_benchmark("h264ref", 1, config)
    return config, baseline.program, decomposed.program


class TestCaptureOnce:
    def test_second_simulation_replays(self, store):
        config, baseline, _ = _quick_programs()
        machine = config.machine_for(4)
        mark = store.mark()
        first = store.simulate_inorder(
            baseline, machine, max_instructions=config.max_instructions
        )
        assert store.delta(mark).get("trace_captures") == 1
        mark = store.mark()
        second = store.simulate_inorder(
            baseline, machine, max_instructions=config.max_instructions
        )
        delta = store.delta(mark)
        assert delta.get("trace_replays") == 1
        assert "trace_captures" not in delta
        assert first.cycles == second.cycles
        assert first.stats == second.stats

    def test_width_change_is_a_replay(self, store):
        config, baseline, _ = _quick_programs()
        store.simulate_inorder(
            baseline,
            config.machine_for(2),
            max_instructions=config.max_instructions,
        )
        mark = store.mark()
        store.simulate_inorder(
            baseline,
            config.machine_for(8),
            max_instructions=config.max_instructions,
        )
        assert store.delta(mark).get("trace_replays") == 1

    def test_fresh_store_loads_from_disk(self, store, tmp_path):
        config, baseline, _ = _quick_programs()
        machine = config.machine_for(4)
        store.simulate_inorder(
            baseline, machine, max_instructions=config.max_instructions
        )
        other = ArtifactStore(cache_dir=tmp_path)
        mark = other.mark()
        other.simulate_inorder(
            baseline, machine, max_instructions=config.max_instructions
        )
        assert other.delta(mark).get("trace_replays") == 1

    def test_unnameable_predictor_runs_reference_core(self, store):
        """A closure factory has no stable name to key a trace on, so
        the front doors run the execute-driven core for it: the same
        answer, with no capture and no replay, even though a baseline
        trace of the program is already stored."""
        config, baseline, _ = _quick_programs()
        budget = config.max_instructions
        store.simulate_inorder(
            baseline, config.machine_for(4), max_instructions=budget
        )
        machines = [
            config.machine_for(width).with_predictor(
                lambda: GSharePredictor()
            )
            for width in (2, 4)
        ]
        mark = store.mark()
        runs = store.simulate_inorder_sweep(
            baseline, machines, max_instructions=budget
        )
        ooo = store.simulate_ooo(
            baseline, machines[1], max_instructions=budget
        )
        delta = store.delta(mark)
        assert "trace_captures" not in delta
        assert "trace_replays" not in delta
        expected = [
            InOrderCore(machine).run(baseline, max_instructions=budget)
            for machine in machines
        ] + [
            OutOfOrderCore(machines[1]).run(
                baseline, max_instructions=budget
            )
        ]
        for run, ref in zip(runs + [ooo], expected):
            assert run.stats == ref.stats
            assert run.registers == ref.registers
            assert run.memory.snapshot() == ref.memory.snapshot()


class TestColdPaths:
    """A store miss captures timing-free and then replays: no front
    door runs the execute-driven core for a nameable predictor."""

    def test_cold_sweep_never_runs_reference_core(
        self, store, monkeypatch
    ):
        config, baseline, _ = _quick_programs()
        machines = [config.machine_for(w) for w in (2, 4, 8)]
        expected = [
            InOrderCore(machine).run(
                baseline, max_instructions=config.max_instructions
            )
            for machine in machines
        ]
        core_runs = []
        original = InOrderCore.run

        def spy(self, *args, **kwargs):
            core_runs.append(self.config.width)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(InOrderCore, "run", spy)
        mark = store.mark()
        runs = store.simulate_inorder_sweep(
            baseline, machines, max_instructions=config.max_instructions
        )
        delta = store.delta(mark)
        assert core_runs == []
        assert delta.get("trace_captures") == 1
        assert delta.get("trace_replays") == 3
        # Every width walks the one region table the first one built.
        trace = store.peek_trace(
            baseline, machines[0], config.max_instructions
        )
        assert len(trace._prep.regions) == 1
        for run, ref in zip(runs, expected):
            assert run.stats == ref.stats
            assert run.registers == ref.registers
            assert run.memory.snapshot() == ref.memory.snapshot()

    def test_sweep_across_kernel_tables_matches_core(self, store):
        """One sweep over points that share the trace but not the
        kernel table -- a recorded 4-wide point, an 8-wide point with
        a 1024-entry BTB (another prep slice) and a live gshare 8-wide
        point -- walks each on its own region table, point by point
        equal to the reference core."""
        import dataclasses as dc

        config, baseline, _ = _quick_programs()
        budget = config.max_instructions
        machines = [
            config.machine_for(4),
            dc.replace(config.machine_for(8), btb_entries=1024),
            config.machine_for(8).with_predictor(GSharePredictor),
        ]
        runs = store.simulate_inorder_sweep(
            baseline, machines, max_instructions=budget
        )
        assert store.counters["trace_captures"] == 1
        assert store.counters["trace_replays"] == 3
        for run, machine in zip(runs, machines):
            ref = InOrderCore(machine).run(baseline, max_instructions=budget)
            assert run.stats == ref.stats
            assert run.registers == ref.registers
            assert run.memory.snapshot() == ref.memory.snapshot()
        trace = store.peek_trace(baseline, machines[0], budget)
        assert len(trace._prep.regions) == 3

    def test_cold_ooo_captures_then_replays(self, store):
        config, _, decomposed = _quick_programs()
        machine = config.machine_for(4)
        budget = config.max_instructions
        mark = store.mark()
        run = store.simulate_ooo(
            decomposed, machine, max_instructions=budget
        )
        delta = store.delta(mark)
        assert delta.get("trace_captures") == 1
        assert delta.get("trace_replays") == 1
        ref = OutOfOrderCore(machine).run(
            decomposed, max_instructions=budget
        )
        assert run.stats == ref.stats
        assert run.registers == ref.registers
        assert run.memory.snapshot() == ref.memory.snapshot()

        # The OOO miss stored the trace the in-order core replays.
        mark = store.mark()
        store.simulate_inorder(decomposed, machine, max_instructions=budget)
        delta = store.delta(mark)
        assert "trace_captures" not in delta
        assert delta.get("trace_replays") == 1


class TestIntegrity:
    def test_truncated_trace_quarantined_and_recaptured(
        self, store, tmp_path
    ):
        config, baseline, _ = _quick_programs()
        machine = config.machine_for(4)
        store.simulate_inorder(
            baseline, machine, max_instructions=config.max_instructions
        )
        traces = list((tmp_path / "traces").glob("*.trace"))
        assert len(traces) == 1
        blob = traces[0].read_bytes()
        traces[0].write_bytes(blob[: len(blob) // 2])

        # A fresh store (cold LRU) hits the corrupt file: it must
        # quarantine it and transparently recapture.
        fresh = ArtifactStore(cache_dir=tmp_path)
        mark = fresh.mark()
        result = fresh.simulate_inorder(
            baseline, machine, max_instructions=config.max_instructions
        )
        delta = fresh.delta(mark)
        assert delta.get("trace_quarantined") == 1
        assert delta.get("trace_captures") == 1
        # The recapture is timing-free; the answer is its replay.
        assert delta.get("trace_replays") == 1
        assert list((tmp_path / "quarantine").iterdir())
        assert result.stats.committed > 0
        # The recaptured artifact is valid again.
        mark = fresh.mark()
        fresh2 = ArtifactStore(cache_dir=tmp_path)
        fresh2.simulate_inorder(
            baseline, machine, max_instructions=config.max_instructions
        )
        assert fresh2.counters["trace_replays"] == 1

    def test_corrupt_trace_fault_kind(
        self, store, tmp_path, monkeypatch
    ):
        """A stored trace truncated to its first half (the first
        ``Trace.to_bytes`` returns half its blob) drives the quarantine
        + recapture path end to end."""
        config, baseline, _ = _quick_programs()
        machine = config.machine_for(4)
        to_bytes = Trace.to_bytes
        calls = []

        def torn_first_store(trace):
            blob = to_bytes(trace)
            calls.append(len(blob))
            return blob[: len(blob) // 2] if len(calls) == 1 else blob

        monkeypatch.setattr(Trace, "to_bytes", torn_first_store)
        store.simulate_inorder(
            baseline, machine, max_instructions=config.max_instructions
        )
        assert len(calls) == 1
        fresh = ArtifactStore(cache_dir=tmp_path)
        mark = fresh.mark()
        fresh.simulate_inorder(
            baseline, machine, max_instructions=config.max_instructions
        )
        delta = fresh.delta(mark)
        assert delta.get("trace_quarantined") == 1
        assert delta.get("trace_captures") == 1


class TestSweepCapturesOnce:
    def test_two_point_width_sweep_one_capture_per_program(
        self, tmp_path
    ):
        """A two-width sweep performs exactly one capture per
        (benchmark, seed, program variant), proven by the manifest's
        schema-4 artifact counters."""
        import dataclasses

        config = dataclasses.replace(RunConfig.quick(), widths=(2, 4))
        engine = ExperimentEngine(
            jobs=1, cache_dir=tmp_path, use_cache=True
        )
        engine.run_benchmark("h264ref", config)
        manifest = engine.manifest(config)
        artifacts = manifest["totals"]["artifacts"]
        # One REF seed, two program variants (baseline + decomposed):
        # 2 timing-free captures, then both widths of both variants
        # replay.
        assert artifacts["trace_captures"] == 2
        assert artifacts["trace_replays"] == 4
        assert artifacts["profile_misses"] == 1

    def test_warm_cache_run_skips_all_work(self, tmp_path):
        config = RunConfig.quick()
        ExperimentEngine(
            jobs=1, cache_dir=tmp_path, use_cache=True
        ).run_benchmark("h264ref", config)
        second = ExperimentEngine(
            jobs=1, cache_dir=tmp_path, use_cache=True
        )
        second.run_benchmark("h264ref", config)
        # Result-cache hits: the artifact layer never even runs.
        assert second.cache_hits == len(config.ref_seeds)
        assert second.artifact_totals().get("trace_captures", 0) == 0


class TestSeedSharing:
    def test_seed_jobs_share_profile_and_baseline_trace(
        self, tmp_path, monkeypatch
    ):
        """Satellite: run_seed's TRAIN profile flows through the
        content-addressed store, so a second seed reuses it (and the
        baseline trace) instead of recomputing."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        config = RunConfig.quick()
        store = get_store()
        run_seed("h264ref", 1, config)
        mark = store.mark()
        result = run_seed("h264ref", 2, config)
        delta = store.delta(mark)
        # TRAIN profile shared; baseline program identical across REF
        # seeds only if the workload's data segment is -- but the
        # profile artifact must not be recomputed either way.
        assert delta.get("profile_hits", 0) >= 1
        assert "profile_misses" not in delta
        # The engine's envelope measures a job's counters; the job's
        # own result carries none.
        assert "artifacts" not in result

    def test_combine_asserts_compile_divergence(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        config = RunConfig.quick()
        seed = run_seed("h264ref", 1, config)
        import dataclasses

        config2 = dataclasses.replace(config, ref_seeds=(1, 2))
        other = dict(seed, seed=2, converted=seed["converted"] + 1)
        with pytest.raises(AssertionError, match="h264ref"):
            combine_seed_results("h264ref", config2, [seed, other])
        other = dict(
            seed,
            seed=2,
            forward_branches=seed["forward_branches"] + 3,
        )
        with pytest.raises(
            AssertionError, match="diverged across REF seeds"
        ):
            combine_seed_results("h264ref", config2, [seed, other])


class TestProfileMemo:
    def test_repeat_lookups_stop_touching_disk(self, store, tmp_path):
        """A predictor ladder hits the same measured profile many
        times; after the first disk read the bounded memo serves it."""
        config, baseline, _ = _quick_programs()
        first = store.profile(
            "baseline", lambda: baseline, config.max_instructions,
            HybridPredictor,
        )

        # A fresh store (cold memo) loads the artifact from disk once.
        fresh = ArtifactStore(cache_dir=tmp_path)
        mark = fresh.mark()
        second = fresh.profile(
            "baseline", lambda: baseline, config.max_instructions,
            HybridPredictor,
        )
        assert fresh.delta(mark).get("profile_hits") == 1
        assert second == first  # BranchStats is a frozen dataclass

        # Deleting the JSON artifact proves the repeat lookup never
        # goes back to disk: the memo alone must serve it.
        for path in (tmp_path / "profiles").glob("*.json"):
            path.unlink()
        mark = fresh.mark()
        third = fresh.profile(
            "baseline", lambda: baseline, config.max_instructions,
            HybridPredictor,
        )
        assert fresh.delta(mark).get("profile_hits") == 1
        assert "profile_misses" not in fresh.delta(mark)
        assert third == first

    def test_load_profile_absent_is_silent(self, store):
        assert store.load_profile("00" * 32) is None
        assert store.counters["profile_hits"] == 0
        assert store.counters["profile_misses"] == 0


class TestDefaultStoreRerooting:
    def test_equivalent_env_paths_keep_the_store(
        self, tmp_path, monkeypatch
    ):
        """The engine exports REPRO_CACHE_DIR around every map call;
        spelling the same root differently must not discard the
        process store (and its warm memos)."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        first = default_store()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path) + os.sep)
        assert default_store() is first
        monkeypatch.setenv(
            "REPRO_CACHE_DIR", str(tmp_path / ".." / tmp_path.name)
        )
        assert default_store() is first
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_store() is not first


class TestGroupScheduling:
    def test_group_followers_wait_for_leader(self, tmp_path):
        """With groups, the leader job finishes before any follower of
        its group starts (so the leader's artifacts are on disk), and
        the released followers run as separate pool jobs side by side
        rather than one after the other in a single submission."""
        engine = ExperimentEngine(
            jobs=2, cache_dir=tmp_path, use_cache=False
        )
        results = engine.map(
            _stamp_job,
            [("g", 0.2), ("g", 0.3), ("g", 0.3), ("solo", 0.0)],
            labels=["lead", "f1", "f2", "solo"],
            groups=["g", "g", "g", "other"],
        )
        lead, f1, f2, solo = results
        assert f1["start"] >= lead["end"]
        assert f2["start"] >= lead["end"]
        assert max(f1["start"], f2["start"]) < min(f1["end"], f2["end"])
        assert not (tmp_path / "batches").exists()

    def test_groups_preserve_order_and_results(self, tmp_path):
        engine = ExperimentEngine(
            jobs=2, cache_dir=tmp_path, use_cache=False
        )
        results = engine.map(
            _ident_job,
            list(range(6)),
            groups=["a", "b", "a", "b", "a", "b"],
        )
        assert results == [0, 2, 4, 6, 8, 10]


def _stamp_job(payload):
    _, sleep_s = payload
    start = time.time()
    if sleep_s:
        time.sleep(sleep_s)
    return {"start": start, "end": time.time()}


def _ident_job(payload):
    return payload * 2


class TestCacheCtl:
    def test_scan_and_prune(self, tmp_path):
        from repro.experiments import cachectl

        (tmp_path / "traces").mkdir()
        old = tmp_path / "traces" / "old.trace"
        new = tmp_path / "traces" / "new.trace"
        old.write_bytes(b"x" * 1000)
        new.write_bytes(b"y" * 1000)
        import os

        stale = time.time() - 10 * 86400
        os.utime(old, (stale, stale))
        (tmp_path / "r1.json").write_text("{}\n")

        report = cachectl.scan(tmp_path)
        assert report["traces"].files == 2
        assert report["traces"].bytes == 2000
        assert report["results"].files == 1
        assert "runs" not in report  # no run journals any more

        removed = cachectl.prune(tmp_path, max_age_days=5)
        assert removed["traces"] == (1, 1000)
        assert not old.exists() and new.exists()

        removed = cachectl.prune(tmp_path, max_size_mb=0.0)
        assert not new.exists()
        assert not (tmp_path / "r1.json").exists()

    def test_prune_without_limits_is_noop(self, tmp_path):
        from repro.experiments import cachectl

        (tmp_path / "traces").mkdir()
        keep = tmp_path / "traces" / "keep.trace"
        keep.write_bytes(b"z")
        removed = cachectl.prune(tmp_path)
        assert all(v == (0, 0) for v in removed.values())
        assert keep.exists()

    def test_artifact_counters_reads_schema4(self, tmp_path):
        """``repro cache`` shows counters only from a manifest of the
        schema this code writes; an older manifest's counters describe
        other code.  (The name predates that rule.)"""
        from repro.experiments import cachectl
        from repro.experiments.engine import MANIFEST_SCHEMA

        path = tmp_path / "m.json"
        for schema in (MANIFEST_SCHEMA, MANIFEST_SCHEMA - 1):
            path.write_text(
                json.dumps(
                    {
                        "schema": schema,
                        "totals": {"artifacts": {"trace_replays": 7}},
                    }
                )
            )
            report = cachectl.render_report(tmp_path, path)
            shown = schema == MANIFEST_SCHEMA
            assert (
                f"last run artifact counters (manifest schema "
                f"{MANIFEST_SCHEMA}):" in report
            ) == shown
            assert ("trace_replays" in report) == shown

    def test_report_tells_an_all_hits_run_from_no_manifest(self, tmp_path):
        """A run whose jobs were all cache hits aggregates an empty
        ``totals.artifacts``: that is a run that did no artifact work,
        not a missing manifest.  A manifest of another schema (the
        committed sample, say) is named as such, and its counters are
        not shown as the last run's."""
        from repro.experiments import cachectl
        from repro.experiments.engine import MANIFEST_SCHEMA

        path = tmp_path / "m.json"
        path.write_text(
            json.dumps(
                {"schema": MANIFEST_SCHEMA, "totals": {"artifacts": {}}}
            )
        )
        report = cachectl.render_report(tmp_path, path)
        assert "last run did no artifact work" in report
        assert "no artifact counters" not in report
        report = cachectl.render_report(tmp_path, tmp_path / "nope.json")
        assert "no artifact counters (no run manifest found)" in report
        assert "last run did no artifact work" not in report
        path.write_text(
            json.dumps(
                {
                    "schema": 7,
                    "totals": {"artifacts": {"shm_publishes": 57}},
                }
            )
        )
        report = cachectl.render_report(tmp_path, path)
        assert (
            "no artifact counters (the run manifest is schema 7; this "
            f"code writes schema {MANIFEST_SCHEMA})"
        ) in report
        assert "shm_publishes" not in report
        assert "last run" not in report

    def test_cli_cache_command(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        (tmp_path / "traces").mkdir()
        (tmp_path / "traces" / "t.trace").write_bytes(b"x" * 10)
        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert "traces" in out and "1 files" in out
        assert main(["cache", "--prune", "--max-size-mb", "0"]) == 0
        out = capsys.readouterr().out
        assert "pruned traces: 1 files" in out
        assert not (tmp_path / "traces" / "t.trace").exists()


class TestTraceLru:
    """In-process hot-trace LRU: replacement, byte accounting, the
    ``REPRO_TRACE_LRU_MB`` knob, and mtime refresh on disk hits."""

    @staticmethod
    def _trace_for(program, machine, budget):
        from repro.uarch import Trace, capture_trace

        return Trace.from_bytes(
            capture_trace(
                program, machine.predictor_factory, budget
            ).to_bytes()
        )

    def test_reput_replaces_object_and_recharges(self, store):
        """A re-put under an existing key (transparent recapture) must
        swap in the fresh Trace and keep byte accounting exact."""
        config, baseline, _ = _quick_programs()
        machine = config.machine_for(4)
        stale = self._trace_for(baseline, machine, 2_000)
        fresh = self._trace_for(baseline, machine, config.max_instructions)
        assert stale.nbytes() != fresh.nbytes()
        store._lru_put("k", stale)
        store._lru_put("k", fresh)
        assert store._lru_get("k") is fresh
        assert store._trace_lru_bytes == fresh.nbytes()

    def test_eviction_subtracts_put_time_charge(self, store, monkeypatch):
        """A trace whose footprint grows *after* the put (replay prep
        attaching) must not drive the accounting negative on evict."""
        from repro.experiments.artifacts import ArtifactStore
        from repro.uarch import replay_inorder

        config, baseline, _ = _quick_programs()
        machine = config.machine_for(4)
        trace = self._trace_for(baseline, machine, config.max_instructions)
        monkeypatch.setenv("REPRO_TRACE_LRU_MB", "0.01")
        tiny = ArtifactStore(cache_dir=store.cache_dir)
        tiny._lru_put("a", trace)
        charged = trace.nbytes()
        replay_inorder(baseline, trace, machine)  # attaches prep
        assert trace.nbytes() > charged
        other = self._trace_for(baseline, machine, 2_000)
        tiny._lru_put("b", other)  # evicts "a" (over budget)
        assert tiny._lru_get("a") is None
        assert tiny._lru_get("b") is other
        assert tiny._trace_lru_bytes == other.nbytes()

    def test_oversized_single_trace_does_not_wedge(self, store, monkeypatch):
        """One trace larger than the whole budget stays resident (the
        len > 1 guard) instead of wedging the eviction loop."""
        from repro.experiments.artifacts import ArtifactStore

        config, baseline, _ = _quick_programs()
        machine = config.machine_for(4)
        trace = self._trace_for(baseline, machine, config.max_instructions)
        monkeypatch.setenv("REPRO_TRACE_LRU_MB", "0.000001")
        tiny = ArtifactStore(cache_dir=store.cache_dir)
        assert 0 < tiny._lru_budget < trace.nbytes()
        tiny._lru_put("big", trace)
        assert tiny._lru_get("big") is trace
        assert tiny._trace_lru_bytes == trace.nbytes()

    def test_lru_disabled_bypasses_memory_not_disk(self, tmp_path, monkeypatch):
        """``REPRO_TRACE_LRU_MB=0``: no in-process caching, but disk
        persistence and the hit/miss counters still behave."""
        from repro.experiments.artifacts import ArtifactStore

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_TRACE_LRU_MB", "0")
        store = ArtifactStore(cache_dir=tmp_path)
        config, baseline, _ = _quick_programs()
        machine = config.machine_for(4)
        mark = store.mark()
        first = store.simulate_inorder(
            baseline, machine, max_instructions=config.max_instructions
        )
        assert store.delta(mark).get("trace_captures") == 1
        assert not store._trace_lru
        assert store._trace_lru_bytes == 0
        mark = store.mark()
        second = store.simulate_inorder(
            baseline, machine, max_instructions=config.max_instructions
        )
        delta = store.delta(mark)
        assert delta.get("trace_replays") == 1
        assert delta.get("trace_hits") == 1
        assert "trace_captures" not in delta
        assert not store._trace_lru
        assert first.stats == second.stats

    def test_lru_budget_defaults_when_unset(self, tmp_path, monkeypatch):
        from repro.experiments.artifacts import ArtifactStore
        from repro.experiments.settings import setting

        monkeypatch.delenv("REPRO_TRACE_LRU_MB", raising=False)
        assert setting("REPRO_TRACE_LRU_MB") == 256
        store = ArtifactStore(cache_dir=tmp_path)
        assert store._lru_budget == 256 * 1024 * 1024

    def test_prune_keeps_recently_hit_traces(self, store, tmp_path):
        """A disk hit refreshes mtime, so age-based pruning spares
        traces a long-running sweep is actively replaying."""
        import os

        from repro.experiments import cachectl
        from repro.experiments.artifacts import ArtifactStore

        config, baseline, _ = _quick_programs()
        machine = config.machine_for(4)
        store.simulate_inorder(
            baseline, machine, max_instructions=config.max_instructions
        )
        [path] = (tmp_path / "traces").glob("*.trace")
        stale = time.time() - 10 * 86400
        os.utime(path, (stale, stale))

        # A fresh store (empty memory layer) replays from disk: hot.
        other = ArtifactStore(cache_dir=tmp_path)
        assert other.load_trace(path.stem) is not None

        removed = cachectl.prune(tmp_path, max_age_days=5)
        assert removed["traces"] == (0, 0)
        assert path.exists()

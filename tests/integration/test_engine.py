"""The parallel experiment engine: determinism, caching, observability.

These run at quick scale so the parallel path (2+ worker processes) is
exercised on every pytest run.
"""

import dataclasses
import json

import pytest

from repro.core import SelectionConfig
from repro.experiments import ExperimentEngine, RunConfig
from repro.experiments.engine import code_version, fingerprint


def _outcomes_equal(a, b) -> bool:
    return (
        a.name == b.name
        and a.speedups == b.speedups
        and vars(a.metrics) == vars(b.metrics)
        and a.converted == b.converted
        and a.forward_branches == b.forward_branches
    )


class TestDeterminism:
    def test_parallel_matches_serial(self):
        """jobs=1 and jobs=4 produce identical BenchmarkOutcomes."""
        config = RunConfig.quick()
        names = ["h264ref", "omnetpp"]
        serial = ExperimentEngine(jobs=1, use_cache=False).run_benchmarks(
            names, config
        )
        parallel = ExperimentEngine(jobs=4, use_cache=False).run_benchmarks(
            names, config
        )
        assert len(serial) == len(parallel) == 2
        for a, b in zip(serial, parallel):
            assert _outcomes_equal(a, b)

    def test_table2_metrics_pinned_to_4wide(self):
        """Every Table 2 column comes from the 4-wide runs, so adding
        other widths to the sweep must not change the metrics."""
        multi = dataclasses.replace(RunConfig.quick(), widths=(2, 4, 8))
        only4 = dataclasses.replace(RunConfig.quick(), widths=(4,))
        engine = ExperimentEngine(jobs=1, use_cache=False)
        a = engine.run_benchmark("omnetpp", multi)
        b = engine.run_benchmark("omnetpp", only4)
        assert vars(a.metrics) == vars(b.metrics)
        assert a.speedups[4] == b.speedups[4]


class TestCache:
    def test_second_run_is_all_hits(self, tmp_path):
        config = RunConfig.quick()
        first_engine = ExperimentEngine(
            jobs=1, cache_dir=tmp_path, use_cache=True
        )
        first = first_engine.run_benchmark("h264ref", config)
        assert first_engine.cache_misses == len(config.ref_seeds)
        assert first_engine.cache_hits == 0

        second_engine = ExperimentEngine(
            jobs=1, cache_dir=tmp_path, use_cache=True
        )
        second = second_engine.run_benchmark("h264ref", config)
        assert second_engine.cache_hits == len(config.ref_seeds)
        assert second_engine.cache_misses == 0
        assert _outcomes_equal(first, second)

    def test_config_field_edit_invalidates(self, tmp_path):
        config = RunConfig.quick()
        ExperimentEngine(
            jobs=1, cache_dir=tmp_path, use_cache=True
        ).run_benchmark("h264ref", config)

        changed = dataclasses.replace(
            config,
            selection=SelectionConfig(min_exposed_predictability=0.07),
        )
        engine = ExperimentEngine(
            jobs=1, cache_dir=tmp_path, use_cache=True
        )
        engine.run_benchmark("h264ref", changed)
        assert engine.cache_hits == 0
        assert engine.cache_misses == len(changed.ref_seeds)

    def test_fingerprint_covers_nested_configs(self):
        a = fingerprint(RunConfig.quick())
        b = fingerprint(
            dataclasses.replace(
                RunConfig.quick(),
                transform=dataclasses.replace(
                    RunConfig.quick().transform, max_hoist_per_side=3
                ),
            )
        )
        assert a != b
        json.dumps(a)  # must be JSON-serialisable

    def test_code_version_is_stable(self):
        assert code_version() == code_version()
        assert len(code_version()) == 16


class TestObservability:
    def test_manifest_written(self, tmp_path):
        config = RunConfig.quick()
        seen = []
        engine = ExperimentEngine(
            jobs=1,
            cache_dir=tmp_path,
            use_cache=True,
            progress=lambda done, total, label: seen.append(
                (done, total, label)
            ),
        )
        engine.run_benchmark("h264ref", config)
        assert seen and seen[-1][0] == seen[-1][1] == len(config.ref_seeds)

        path = tmp_path / "run_manifest.json"
        engine.write_manifest(path, config=config)
        manifest = json.loads(path.read_text())
        assert manifest["totals"]["jobs"] == len(config.ref_seeds)
        assert manifest["totals"]["cache_misses"] == len(config.ref_seeds)
        assert manifest["totals"]["simulated_cycles"] > 0
        assert manifest["totals"]["wall_s"] > 0
        assert manifest["engine"]["code_version"] == code_version()
        assert manifest["config"]["__class__"] == "RunConfig"
        for record in manifest["jobs"]:
            assert record["cache"] in ("hit", "miss")
            assert "h264ref" in record["label"]

    def test_manifest_schema4_health_fields(self, tmp_path):
        """Schema >= 4 fields: per-job status/error plus run label,
        the timeout knob, health totals, artifact counters; the per-job
        ``worker_pid``; the v9 removal of the plane and batch-dispatch
        fields; the v11 removal of the backend block; the v12 removal
        of the run journal's fields and the per-worker block; the v13
        removal of the fault-injection field; and the v14 removal of
        the retry fields."""
        config = RunConfig.quick()
        engine = ExperimentEngine(
            jobs=1, cache_dir=tmp_path, use_cache=True, run_id="m3",
            job_timeout=30.0,
        )
        engine.run_benchmark("h264ref", config)
        manifest = engine.manifest(config)
        assert manifest["schema"] == 14
        assert "backend" not in manifest
        assert "workers" not in manifest
        block = manifest["engine"]
        assert "backend" not in block
        assert "resume" not in block
        assert block["run_id"] == "m3"
        assert "retries" not in block
        assert block["job_timeout_s"] == 30.0
        assert "fault_inject" not in block
        totals = manifest["totals"]
        assert totals["ok"] == totals["jobs"] == len(config.ref_seeds)
        assert totals["failed"] == totals["timeout"] == 0
        assert totals["skipped"] == 0
        assert "retries_used" not in totals
        assert totals["quarantined"] == 0
        assert "journal_hits" not in totals
        # v4: per-job artifact counters aggregate into the totals.
        assert totals["artifacts"].get("trace_captures", 0) > 0
        # v9: fused batch dispatch and the shm plane are gone; the two
        # batch totals stay for older readers and always read 0.
        assert totals["batches"] == totals["batch_points"] == 0
        assert "shm_segments_cleaned" not in totals
        for record in manifest["jobs"]:
            assert record["status"] == "ok"
            assert "attempts" not in record
            assert record["error"] is None
            assert isinstance(record["artifacts"], dict)
            assert isinstance(record["worker_pid"], int)
            assert "batched" not in record
        # Every completed job went into the result cache as a blob
        # with its digest sidecar; there is no run journal.
        assert len(list(tmp_path.glob("*.json.sum"))) == len(
            config.ref_seeds
        )
        assert not (tmp_path / "runs").exists()

    def test_manifest_reports_simulated_kips(self, tmp_path):
        config = RunConfig.quick()
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path, use_cache=True)
        engine.run_benchmark("h264ref", config)
        path = tmp_path / "run_manifest.json"
        engine.write_manifest(path, config=config)
        manifest = json.loads(path.read_text())
        assert manifest["totals"]["committed_instructions"] > 0
        assert manifest["totals"]["sim_kips"] > 0
        for record in manifest["jobs"]:
            assert record["committed_instructions"] > 0
            assert record["sim_kips"] > 0

    def test_profile_env_writes_summaries(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        engine = ExperimentEngine(jobs=1, use_cache=False)
        engine.run_benchmark("h264ref", RunConfig.quick())
        assert len(engine.profiles) == 1
        label, text = engine.profiles[0]
        assert "h264ref" in label
        assert "cumulative" in text

        engine.write_manifest(tmp_path / "run_manifest.json")
        profile_path = tmp_path / "run_manifest.profile.txt"
        assert "cumulative" in profile_path.read_text()

    def test_profile_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        engine = ExperimentEngine(jobs=1, use_cache=False)
        engine.run_benchmark("h264ref", RunConfig.quick())
        assert engine.profiles == []


class TestQuickConfig:
    def test_quick_scales_every_budget(self):
        full, quick = RunConfig(), RunConfig.quick()
        assert quick.iterations < full.iterations
        assert len(quick.ref_seeds) < len(full.ref_seeds)
        assert quick.max_instructions < full.max_instructions
        # The instruction budget shrinks in step with the iteration count,
        # so "quick" can never simulate a full-length program.
        assert quick.max_instructions / full.max_instructions == pytest.approx(
            quick.iterations / full.iterations, rel=0.05
        )

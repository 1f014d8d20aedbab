"""Engine robustness under faults: isolation, timeouts, the result cache.

Every scenario the supervision layer claims to survive is exercised
here at quick scale, each fault made by the test itself: a worker
that raises, exits or sleeps, a cache entry rewritten on disk, or a
``monkeypatch`` of the one function the fault corrupts (a region
walk's validation, a job's ``run_seed``) -- no flaky sleeps, no random
kill signals.
"""

import hashlib
import json
import os
import pathlib
import time

import pytest

from repro.experiments import ExperimentEngine, RunConfig
from repro.experiments.engine import CACHE_SCHEMA, MANIFEST_SCHEMA

pytestmark = pytest.mark.faults


class PlannedCrash(RuntimeError):
    """A deliberate, deterministic worker failure."""


#: The payloads :func:`_planned_crash_job` fails on.
PLANNED_CRASHES = frozenset({1, 2, 5})


# -- engine-mappable workers (top level so they pickle) --------------------

def _square_job(payload) -> dict:
    return {
        "value": payload * payload,
        "simulated_cycles": 10,
        "committed_instructions": 10,
    }


def _odd_boom_job(payload) -> dict:
    """Deterministic worker exception on odd payloads."""
    if payload % 2:
        raise ValueError(f"odd payload {payload}")
    return {"value": payload}


def _die_once_job(payload) -> dict:
    """Kills its worker process the first time each payload runs
    (simulating an OOM kill); succeeds when a re-run runs it again.
    The marker file is how the first run survives the process death."""
    marker_dir, value = payload
    marker = pathlib.Path(marker_dir) / f"{value}.died"
    if not marker.exists():
        marker.write_text("died")
        os._exit(3)
    return {"value": value}


def _always_die_job(payload) -> dict:
    os._exit(3)


def _sleep_job(payload) -> dict:
    time.sleep(payload)
    return {"value": payload}


def _case_job(payload) -> dict:
    """Runs ``job(argument)`` for a ``(job, argument)`` payload, so one
    map can mix the jobs above."""
    job, argument = payload
    return job(argument)


def _planned_crash_job(payload) -> dict:
    """Raises for the payloads in :data:`PLANNED_CRASHES`."""
    if payload in PLANNED_CRASHES:
        raise PlannedCrash(f"planned crash on payload {payload}")
    return _square_job(payload)


def _sidecar(entry: pathlib.Path) -> pathlib.Path:
    """The digest sidecar the blob store keeps next to ``entry``."""
    return entry.with_name(entry.name + ".sum")


class TestWorkerExceptionIsolation:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raise_is_recorded_not_raised(self, jobs):
        engine = ExperimentEngine(jobs=jobs, use_cache=False)
        results = engine.map(
            _odd_boom_job, [0, 1, 2, 3],
            labels=[f"boom{i}" for i in range(4)],
        )
        assert results == [{"value": 0}, None, {"value": 2}, None]
        statuses = [r["status"] for r in engine.records]
        assert statuses == ["ok", "failed", "ok", "failed"]
        failed = engine.failures
        assert len(failed) == 2
        for record in failed:
            assert record["error"]["type"] == "ValueError"
            assert "odd payload" in record["error"]["message"]
            assert "ValueError" in record["error"]["traceback"]


class TestBrokenPool:
    def test_dead_worker_fails_the_jobs_in_flight_only(self):
        """A dead worker breaks its pool, and the pool cannot say which
        worker died: the job that died and the one running beside it
        both fail, and the jobs submitted after run on a fresh pool."""
        payloads = [
            (_always_die_job, None),
            (_sleep_job, 1.0),
            (_sleep_job, 0.01),
            (_sleep_job, 0.02),
        ]
        engine = ExperimentEngine(jobs=2, use_cache=False)
        results = engine.map(
            _case_job, payloads, labels=["dies", "beside", "q1", "q2"]
        )
        assert results == [None, None, {"value": 0.01}, {"value": 0.02}]
        assert [r["status"] for r in engine.records] \
            == ["failed", "failed", "ok", "ok"]
        for record in engine.failures:
            assert record["error"]["type"] == "BrokenProcessPool"

    def test_rerun_after_a_dead_worker_runs_only_its_failures(
        self, tmp_path
    ):
        """Nothing that failed is cached, so re-running the same map on
        the same cache root is the retry: it runs exactly the jobs the
        pool death took, and the dead worker's job now succeeds."""
        # Only payload 0 dies, once.  Payload 1 sleeps beside it, so it
        # is in flight when the pool dies and fails with it; a second
        # dying payload could still be in the call queue when the pool
        # died, write no marker, and die again on the re-run.
        payloads = [
            (_die_once_job, (str(tmp_path), 0)),
            (_sleep_job, 5.0),
            (_sleep_job, 0.01),
            (_sleep_job, 0.02),
        ]
        labels = ["dies-once", "beside", "q1", "q2"]
        cache = tmp_path / "cache"
        first = ExperimentEngine(jobs=2, cache_dir=cache, use_cache=True)
        assert first.map(_case_job, payloads, labels=labels) == [
            None, None, {"value": 0.01}, {"value": 0.02},
        ]
        rerun = ExperimentEngine(jobs=2, cache_dir=cache, use_cache=True)
        assert rerun.map(_case_job, payloads, labels=labels) == [
            {"value": 0}, {"value": 5.0}, {"value": 0.01}, {"value": 0.02},
        ]
        assert [r["cache"] for r in rerun.records] \
            == ["miss", "miss", "hit", "hit"]


class TestTimeouts:
    def test_watchdog_kills_overrunning_job(self):
        engine = ExperimentEngine(jobs=2, use_cache=False, job_timeout=0.5)
        start = time.monotonic()
        results = engine.map(
            _sleep_job, [30.0, 0.05], labels=["slow", "fast"]
        )
        elapsed = time.monotonic() - start
        assert results[0] is None and results[1] == {"value": 0.05}
        assert [r["status"] for r in engine.records] == ["timeout", "ok"]
        assert engine.records[0]["error"]["type"] == "TimeoutError"
        assert elapsed < 10.0  # nowhere near the 30s sleep

    def test_watchdog_requeues_innocent_in_flight_job(self):
        """The watchdog kills the whole pool: the job that overran ends
        ``timeout``, and the job still running beside it goes back on
        the queue and finishes on the next pool."""
        engine = ExperimentEngine(jobs=2, use_cache=False, job_timeout=2.0)
        results = engine.map(
            _sleep_job, [30.0, 1.0, 1.5], labels=["slow", "fast", "beside"]
        )
        assert results == [None, {"value": 1.0}, {"value": 1.5}]
        assert [r["status"] for r in engine.records] \
            == ["timeout", "ok", "ok"]

    def test_injected_hang_hits_the_watchdog(self):
        """Every worker hangs at once: the watchdog times each out."""
        engine = ExperimentEngine(jobs=2, use_cache=False, job_timeout=0.4)
        start = time.monotonic()
        results = engine.map(_sleep_job, [30.0, 30.0], labels=["a", "b"])
        elapsed = time.monotonic() - start
        assert results == [None, None]
        assert all(r["status"] == "timeout" for r in engine.records)
        assert elapsed < 10.0  # nowhere near the 30s sleeps


class TestCacheIntegrity:
    def _seed_cache(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path, use_cache=True)
        (result,) = engine.map(_square_job, [3], labels=["sq3"])
        (entry,) = tmp_path.glob("*.json")
        # Every result is a store blob with its digest sidecar.
        assert _sidecar(entry).is_file()
        return result, entry

    def _reload(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path, use_cache=True)
        (result,) = engine.map(_square_job, [3], labels=["sq3"])
        return engine, result

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda text: text[: len(text) // 2],          # truncated JSON
            lambda text: json.dumps({"schema": 999, "result": {}}),
            lambda text: json.dumps({"schema": CACHE_SCHEMA}),  # no result
            lambda text: json.dumps(
                {"schema": CACHE_SCHEMA, "result": "not-a-dict"}
            ),
        ],
        ids=["truncated", "stale-schema", "missing-result", "bad-result"],
    )
    def test_bad_entry_quarantined_and_recomputed(self, tmp_path, mangle):
        first, entry = self._seed_cache(tmp_path)
        entry.write_text(mangle(entry.read_text()))
        engine, second = self._reload(tmp_path)
        assert second == first
        assert engine.cache_quarantined == 1
        assert engine.cache_hits == 0 and engine.cache_misses == 1
        quarantined = list((tmp_path / "quarantine").iterdir())
        assert [p.name for p in quarantined] == [entry.name]

    def test_valid_digest_stale_schema_quarantined_and_recomputed(
        self, tmp_path
    ):
        """An entry rewritten together with its sidecar passes the
        digest check, so only the JSON checks can refuse it."""
        from repro.experiments import cachectl

        first, entry = self._seed_cache(tmp_path)
        stale = json.loads(entry.read_text())
        stale["schema"] = CACHE_SCHEMA - 1
        blob = json.dumps(stale).encode()
        entry.write_bytes(blob)
        _sidecar(entry).write_text(hashlib.sha256(blob).hexdigest())
        report = cachectl.verify(tmp_path)
        assert report.ok == 1 and not report.mismatched
        engine, second = self._reload(tmp_path)
        assert second == first
        assert engine.cache_quarantined == 1
        assert engine.cache_hits == 0 and engine.cache_misses == 1
        quarantined = list((tmp_path / "quarantine").iterdir())
        assert [p.name for p in quarantined] == [entry.name]
        # The recomputed entry went back in whole.
        report = cachectl.verify(tmp_path)
        assert report.ok == 1 and not report.mismatched

    def test_injected_corruption_round_trip(self, tmp_path):
        """An entry truncated under a valid digest (its first half
        written back with a matching sidecar): the JSON checks of the
        next read quarantine it and the job recomputes bit-identical
        results."""
        first, entry = self._seed_cache(tmp_path)
        torn = entry.read_bytes()
        torn = torn[: len(torn) // 2]
        entry.write_bytes(torn)
        _sidecar(entry).write_text(hashlib.sha256(torn).hexdigest())
        with pytest.raises(ValueError):
            json.loads(entry.read_text())  # really was corrupted
        assert _sidecar(entry).read_text() == hashlib.sha256(
            entry.read_bytes()
        ).hexdigest()
        engine, second = self._reload(tmp_path)
        assert second == first == {
            "value": 9, "simulated_cycles": 10,
            "committed_instructions": 10,
        }
        assert engine.cache_quarantined == 1


class TestCrashInjectionSmoke:
    """Fast smoke of the whole loop: a worker that crashes on a fixed
    subset of payloads fails exactly those jobs, and nothing else."""

    def test_exactly_the_planned_jobs_fail(self):
        labels = [f"smoke{i}" for i in range(6)]
        engine = ExperimentEngine(jobs=2, use_cache=False)
        results = engine.map(
            _planned_crash_job, list(range(6)), labels=labels
        )
        expected = [i in PLANNED_CRASHES for i in range(6)]
        assert any(expected) and not all(expected)
        observed = [r["status"] == "failed" for r in engine.records]
        assert observed == expected
        for record, crashed in zip(engine.records, expected):
            if crashed:
                assert record["error"]["type"] == "PlannedCrash"
        assert [r is None for r in results] == expected


class TestInterruptResume:
    def _interrupting_engine(self, tmp_path, after):
        calls = []

        def progress(done, total, label):
            calls.append(label)
            if done == after:
                raise KeyboardInterrupt

        engine = ExperimentEngine(
            jobs=1, cache_dir=tmp_path, use_cache=True,
            run_id="test-run", progress=progress,
        )
        return engine

    def test_interrupt_checkpoints_then_resume_finishes(self, tmp_path):
        payloads = list(range(5))
        labels = [f"sq{i}" for i in payloads]

        engine = self._interrupting_engine(tmp_path, after=2)
        engine.manifest_path = tmp_path / "partial_manifest.json"
        with pytest.raises(KeyboardInterrupt):
            engine.map(_square_job, payloads, labels=labels)

        # Completed jobs went into the result cache the moment they
        # finished; the interrupted rest is recorded as skipped.
        assert [r["status"] for r in engine.records] == [
            "ok", "ok", "skipped", "skipped", "skipped",
        ]
        assert len(list(tmp_path.glob("*.json"))) == 2 + 1  # + manifest
        assert len(list(tmp_path.glob("*.json.sum"))) == 2

        partial = json.loads(engine.manifest_path.read_text())
        assert partial["schema"] == MANIFEST_SCHEMA
        assert partial["totals"]["ok"] == 2
        assert partial["totals"]["skipped"] == 3

        # Re-running on the same cache root is the resume: the
        # finished jobs hit, only the unfinished ones run.
        resumed = ExperimentEngine(jobs=1, cache_dir=tmp_path, use_cache=True)
        results = resumed.map(_square_job, payloads, labels=labels)
        clean = ExperimentEngine(jobs=1, use_cache=False).map(
            _square_job, payloads, labels=labels
        )
        assert results == clean == [
            {
                "value": i * i,
                "simulated_cycles": 10,
                "committed_instructions": 10,
            }
            for i in payloads
        ]
        assert resumed.cache_hits == 2
        assert resumed.cache_misses == 3
        assert [r["cache"] for r in resumed.records] \
            == ["hit", "hit", "miss", "miss", "miss"]


def _diverge_every_walk(monkeypatch):
    """Corrupt every region walk's accumulators right before its
    validation: negate the load-use stall total and halve the cycle
    count, then run the real check.  Returns the real check."""
    from repro.uarch import replay_multi

    validate = replay_multi._validate

    def corrupted(config, lc, lus, rst, issued):
        validate(config, lc // 2, -1 - lus, rst, issued)

    monkeypatch.setattr(replay_multi, "_validate", corrupted)
    return validate


class TestFusedDivergence:
    """A region walk whose accumulators are corrupted (see
    :func:`_diverge_every_walk`).  Validation must detect the damage
    and raise ``WalkDivergence``; the artifact store catches it per
    point, re-runs that point on the reference core (bit-identical to
    an undisturbed run), and counts the degradation so the manifest
    records it.  (The class name predates the removal of lane
    fusion.)"""

    def _sweep_setup(self, tmp_path, monkeypatch):
        import dataclasses as dc

        from repro.experiments.harness import prepare_benchmark

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        config = dc.replace(RunConfig.quick(), widths=(2, 4, 8))
        baseline, _ = prepare_benchmark(
            "h264ref", config.ref_seeds[0], config
        )
        machines = [config.machine_for(w) for w in config.widths]
        return config, baseline.program, machines

    def test_detection_falls_back_per_point(self, tmp_path, monkeypatch):
        import dataclasses as dc

        from repro.experiments.artifacts import ArtifactStore

        config, program, machines = self._sweep_setup(
            tmp_path, monkeypatch
        )
        store = ArtifactStore(cache_dir=tmp_path)
        clean = store.simulate_inorder_sweep(
            program, machines, max_instructions=config.max_instructions
        )
        assert store.counters["walk_diverges"] == 0

        _diverge_every_walk(monkeypatch)
        faulted = ArtifactStore(cache_dir=tmp_path)
        degraded = faulted.simulate_inorder_sweep(
            program, machines, max_instructions=config.max_instructions
        )
        # Warm trace: every width's walk trips validation, and each
        # point degrades to the reference core on its own.
        assert faulted.counters["trace_replays"] == 3
        assert faulted.counters["walk_diverges"] == 3
        for a, b in zip(clean, degraded):
            assert dc.asdict(a.stats) == dc.asdict(b.stats)
            assert a.registers == b.registers
            assert a.memory.snapshot() == b.memory.snapshot()

    def test_manifest_records_degradation(self, tmp_path, monkeypatch):
        import dataclasses as dc

        # Three widths, as in the paper's sweep: the fault trips every
        # width's walk.  The serial engine runs the jobs in this
        # process, where the monkeypatch lives.
        config = dc.replace(RunConfig.quick(), widths=(2, 4, 8))
        validate = _diverge_every_walk(monkeypatch)
        engine = ExperimentEngine(
            jobs=1, cache_dir=tmp_path, use_cache=False, run_id="fd"
        )
        outcomes = engine.run_benchmarks(["h264ref"], config)
        assert all(o.ok for o in outcomes)
        manifest = engine.manifest(config)
        art = manifest["totals"]["artifacts"]
        assert art.get("walk_diverges", 0) >= 1

        # Lane fusion's counters are gone from every block.
        assert '"fused_' not in json.dumps(manifest)

        # The degraded sweep is invisible in the numbers: a clean run
        # scores identically.
        monkeypatch.setattr(
            "repro.uarch.replay_multi._validate", validate
        )
        clean = ExperimentEngine(jobs=1, use_cache=False).run_benchmarks(
            ["h264ref"], config
        )
        for a, b in zip(outcomes, clean):
            assert a.ok and b.ok
            assert a.speedups == b.speedups
            assert vars(a.metrics) == vars(b.metrics)

    def test_single_point_runs_reference_core(
        self, tmp_path, monkeypatch, kernel_declines
    ):
        """A single point is a region walk like any other: the fault
        trips it, the store counts the divergence and the reference
        core answers, bit-identical to a clean run."""
        import dataclasses as dc

        from repro.experiments.artifacts import ArtifactStore
        from repro.uarch import InOrderCore

        config, program, machines = self._sweep_setup(
            tmp_path, monkeypatch
        )
        machine = machines[1]
        core_calls = []
        core_run = InOrderCore.run

        def counted_run(core, *args, **kwargs):
            core_calls.append(core.config)
            return core_run(core, *args, **kwargs)

        monkeypatch.setattr(InOrderCore, "run", counted_run)
        clean = ArtifactStore(cache_dir=tmp_path).simulate_inorder(
            program, machine, max_instructions=config.max_instructions
        )
        # Cold store: a timing-free capture, then the walk serves it.
        assert kernel_declines == [False]
        assert core_calls == []

        _diverge_every_walk(monkeypatch)
        faulted = ArtifactStore(cache_dir=tmp_path)
        degraded = faulted.simulate_inorder(
            program, machine, max_instructions=config.max_instructions
        )
        assert core_calls == [machine]
        assert faulted.counters["trace_replays"] == 1
        assert faulted.counters["walk_diverges"] == 1
        assert dc.asdict(clean.stats) == dc.asdict(degraded.stats)
        assert clean.registers == degraded.registers
        assert clean.memory.snapshot() == degraded.memory.snapshot()

    def test_replay_raises_walk_divergence(self, tmp_path, monkeypatch):
        """Outside the store nothing catches a divergence:
        ``replay_inorder`` raises it to the caller."""
        from repro.uarch import capture_trace, replay_inorder, replay_multi
        from repro.uarch.replay_multi import WalkDivergence

        config, program, machines = self._sweep_setup(
            tmp_path, monkeypatch
        )
        machine = machines[1]
        trace = capture_trace(
            program, machine.predictor_factory, config.max_instructions
        )
        _diverge_every_walk(monkeypatch)
        with pytest.raises(WalkDivergence):
            replay_inorder(program, trace, machine)
        # The failed walk cleared every shared table before it raised,
        # so no transition it stepped outlives it.
        assert not replay_multi._walks
        assert not replay_multi._contents
        assert not replay_multi._region_ids
        assert not replay_multi._signatures


class TestBenchmarkSweepAcceptance:
    """The acceptance scenario at quick scale: a sweep whose omnetpp
    jobs crash marks exactly those failures in its manifest, and
    re-running it on the same cache root without the crash runs only
    the failed jobs, producing results identical to an undisturbed
    run."""

    def test_faulted_sweep_then_resume_matches_clean_run(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments import harness

        config = RunConfig.quick()
        names = ["h264ref", "omnetpp"]
        labels = [
            f"{name}@seed{seed}"
            for name in names for seed in config.ref_seeds
        ]
        expected_failures = [
            label for label in labels if label.startswith("omnetpp@")
        ]
        run_seed = harness.run_seed

        def crashing_run_seed(name, seed, config):
            if name == "omnetpp":
                raise PlannedCrash(f"planned crash in {name}@seed{seed}")
            return run_seed(name, seed, config)

        # A monkeypatch reaches a pool worker only through fork; the
        # serial engine runs every job in this process.
        monkeypatch.setattr(harness, "run_seed", crashing_run_seed)
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path, use_cache=True)
        outcomes = engine.run_benchmarks(names, config)
        manifest = engine.manifest(config)
        assert manifest["schema"] == MANIFEST_SCHEMA
        failed_labels = [
            r["label"] for r in manifest["jobs"]
            if r["status"] != "ok"
        ]
        assert failed_labels == expected_failures
        by_name = dict(zip(names, outcomes))
        assert by_name["h264ref"].ok
        assert not by_name["omnetpp"].ok
        assert by_name["omnetpp"].status == "failed"
        assert "PlannedCrash" in by_name["omnetpp"].error

        # Re-run without the crash: only the failed job runs again.
        monkeypatch.setattr(harness, "run_seed", run_seed)
        resumed = ExperimentEngine(jobs=2, cache_dir=tmp_path, use_cache=True)
        resumed_outcomes = resumed.run_benchmarks(names, config)
        assert resumed.cache_hits == len(labels) - len(expected_failures)
        assert resumed.cache_misses == len(expected_failures)

        clean = ExperimentEngine(jobs=1, use_cache=False).run_benchmarks(
            names, config
        )
        for a, b in zip(resumed_outcomes, clean):
            assert a.ok and b.ok
            assert a.name == b.name
            assert a.speedups == b.speedups
            assert vars(a.metrics) == vars(b.metrics)
            assert a.converted == b.converted

"""Seeded chaos tests for the pluggable execution backends.

Everything the queue backend and the blob-store protocol claim to
survive is exercised here deterministically: lease expiry and reclaim,
vanished workers and failover, duplicate completions, torn transfers,
and the circuit breaker that degrades a dead queue to the local pool.
Fault decisions come from ``REPRO_FAULT_INJECT`` seeds (no random kill
signals); small lease TTLs keep the reclaim paths fast.
"""

import os

import pytest

from repro.experiments import ExperimentEngine, RunConfig
from repro.experiments.engine import MANIFEST_SCHEMA
from repro.experiments.faults import parse_plan
from repro.experiments.settings import setting
from repro.experiments.store import (
    FileStore,
    QUARANTINE_CAP,
    STORE_RETRIES,
    fsync_write,
    quarantine_file,
)

pytestmark = pytest.mark.chaos


@pytest.fixture(autouse=True)
def _fast_chaos_env(monkeypatch):
    """Tight queue timings and no fault plan leaking in from the
    caller's environment; tests that want injection set the knobs."""
    monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_QUEUE_WORKERS", raising=False)
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
    monkeypatch.setenv("REPRO_LEASE_TTL", "0.4")
    monkeypatch.setenv("REPRO_QUEUE_POLL", "0.02")


# -- engine-mappable workers (top level so they pickle) --------------------

def _square_job(payload) -> dict:
    return {
        "value": payload * payload,
        "simulated_cycles": 10,
        "committed_instructions": 10,
    }


def _queue_engine(tmp_path, retries=4, jobs=2) -> ExperimentEngine:
    return ExperimentEngine(
        jobs=jobs, cache_dir=tmp_path, use_cache=False,
        retries=retries, backend="queue",
    )


def _squares(n):
    return [
        {
            "value": i * i,
            "simulated_cycles": 10,
            "committed_instructions": 10,
        }
        for i in range(n)
    ]


class TestStoreProtocol:
    def test_put_get_round_trip_with_sidecar(self, tmp_path):
        store = FileStore(tmp_path)
        assert store.put("traces/a.bin", b"payload")
        assert store.contains("traces/a.bin")
        assert (tmp_path / "traces" / "a.bin.sum").is_file()
        assert store.get("traces/a.bin") == b"payload"
        store.delete("traces/a.bin")
        assert not store.contains("traces/a.bin")
        assert not (tmp_path / "traces" / "a.bin.sum").exists()
        assert store.get("traces/a.bin") is None

    def test_pre_sidecar_blob_served_unverified(self, tmp_path):
        (tmp_path / "old.bin").write_bytes(b"legacy")
        store = FileStore(tmp_path)
        assert store.get("old.bin") == b"legacy"

    def test_tampered_blob_quarantined_and_missed(self, tmp_path):
        store = FileStore(tmp_path)
        store.put("t.bin", b"original-bytes")
        (tmp_path / "t.bin").write_bytes(b"tampered-bytes")
        assert store.get("t.bin") is None
        assert store.counters["verify_failures"] == 1
        assert [p.name for p in (tmp_path / "quarantine").iterdir()] \
            == ["t.bin"]
        # The sidecar went with it, so a recapture starts clean.
        assert store.put("t.bin", b"recaptured")
        assert store.get("t.bin") == b"recaptured"

    def test_torn_put_detected_on_read_then_recaptured(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "torn_put:1.0@seed=1")
        store = FileStore(tmp_path)
        assert store.put("torn.bin", b"X" * 64)  # digest full, blob half
        assert (tmp_path / "torn.bin").stat().st_size == 32
        assert store.get("torn.bin") is None  # tear detected
        assert store.counters["verify_failures"] == 1
        monkeypatch.delenv("REPRO_FAULT_INJECT")
        assert store.put("torn.bin", b"X" * 64)
        assert store.get("torn.bin") == b"X" * 64

    def test_quarantine_uniquifies_collisions(self, tmp_path):
        qdir = tmp_path / "q"
        for round_no in range(3):
            victim = tmp_path / "same-name.bin"
            victim.write_text(f"round {round_no}")
            assert quarantine_file(qdir, victim) is not None
        names = sorted(p.name for p in qdir.iterdir())
        assert len(names) == 3  # nothing clobbered
        assert "same-name.bin" in names
        assert all(n.startswith("same-name.bin") for n in names)

    def test_transient_put_error_is_retried(self, tmp_path, monkeypatch):
        calls = []

        def flaky_write(path, blob):
            calls.append(path)
            if len(calls) == 1:
                raise OSError("transient")
            fsync_write(path, blob)

        monkeypatch.setattr(
            "repro.experiments.store.fsync_write", flaky_write
        )
        store = FileStore(tmp_path)
        assert store.put("r.bin", b"payload")
        assert store.counters["put_retries"] == 1
        assert store.get("r.bin") == b"payload"

    def test_persistent_put_error_gives_up(self, tmp_path, monkeypatch):
        calls = []

        def broken_write(path, blob):
            calls.append(path)
            raise OSError("mount gone")

        monkeypatch.setattr(
            "repro.experiments.store.fsync_write", broken_write
        )
        store = FileStore(tmp_path)
        assert store.put("r.bin", b"payload") is False
        assert len(calls) == STORE_RETRIES + 1
        assert store.counters["put_retries"] == STORE_RETRIES
        assert store.counters["puts"] == 0

    def test_missing_blob_is_not_retried(self, tmp_path):
        store = FileStore(tmp_path)
        assert store.get("absent.bin") is None
        assert store.counters["get_retries"] == 0

    def test_quarantine_retention_cap(self, tmp_path):
        qdir = tmp_path / "q"
        for i in range(QUARANTINE_CAP + 5):
            victim = tmp_path / f"victim{i:03d}.bin"
            victim.write_text("x")
            quarantine_file(qdir, victim)
        assert len(list(qdir.iterdir())) == QUARANTINE_CAP


class TestQueueBackendClean:
    def test_two_worker_run_completes_and_reports_health(self, tmp_path):
        engine = _queue_engine(tmp_path)
        results = engine.map(
            _square_job, list(range(6)),
            labels=[f"q{i}" for i in range(6)],
        )
        assert results == _squares(6)
        assert all(r["status"] == "ok" for r in engine.records)
        assert engine.backend_degraded == 0
        totals = engine.backend_totals
        assert totals["jobs_submitted"] == 6
        assert totals["completions"] == 6
        assert totals["leases_granted"] >= 6
        assert totals["jobs_done"] == 6
        assert len(engine.backend_workers) == 2
        manifest = engine.manifest()
        assert manifest["schema"] == MANIFEST_SCHEMA == 10
        assert manifest["engine"]["backend"] == "queue"
        assert manifest["backend"]["name"] == "queue"
        assert manifest["backend"]["degraded"] == 0
        assert manifest["backend"]["totals"] == totals
        # The run directory is torn down on a clean close.
        assert list((tmp_path / "queue").iterdir()) == []

    def test_env_knob_selects_backend(self, tmp_path, monkeypatch):
        assert setting("REPRO_BACKEND") == "local"
        monkeypatch.setenv("REPRO_BACKEND", "queue")
        assert setting("REPRO_BACKEND") == "queue"
        assert ExperimentEngine(jobs=2, cache_dir=tmp_path).backend \
            == "queue"
        monkeypatch.setenv("REPRO_BACKEND", "carrier-pigeon")
        with pytest.raises(ValueError):
            setting("REPRO_BACKEND")
        with pytest.raises(ValueError):
            ExperimentEngine(jobs=2, backend="carrier-pigeon")


class TestLeaseExpiry:
    def test_dropped_leases_are_reclaimed(self, tmp_path, monkeypatch):
        spec = "lease_expire:0.5@seed=5"
        labels = [f"lq{i}" for i in range(8)]
        plan = parse_plan(spec)
        dropped = [l for l in labels if plan.decide("lease_expire", l, 0)]
        assert dropped and len(dropped) < len(labels)

        monkeypatch.setenv("REPRO_FAULT_INJECT", spec)
        # lq0 (deterministically) drops its lease five attempts in a
        # row at this seed; the budget must outlast the streak.
        engine = _queue_engine(tmp_path, retries=6)
        results = engine.map(_square_job, list(range(8)), labels=labels)
        assert results == _squares(8)
        assert all(r["status"] == "ok" for r in engine.records)
        assert engine.backend_degraded == 0
        totals = engine.backend_totals
        assert totals["leases_dropped"] >= len(dropped)
        # Every dropped lease was reclaimed by a surviving worker (or
        # resubmitted by the parent); nothing lost, nothing duplicated.
        assert totals["leases_reclaimed"] \
            + totals.get("jobs_resubmitted", 0) >= len(dropped)
        assert totals["completions"] == 8


class TestWorkerVanish:
    def test_vanished_workers_fail_over(self, tmp_path, monkeypatch):
        # Seed chosen so the (deterministic) death count stays inside
        # the respawn budget: the queue must fail over, not degrade.
        spec = "worker_vanish:0.4@seed=13"
        labels = [f"vq{i}" for i in range(8)]
        plan = parse_plan(spec)
        vanished = [
            l for l in labels if plan.decide("worker_vanish", l, 0)
        ]
        assert vanished and len(vanished) < len(labels)

        monkeypatch.setenv("REPRO_FAULT_INJECT", spec)
        engine = _queue_engine(tmp_path)
        results = engine.map(_square_job, list(range(8)), labels=labels)
        assert results == _squares(8)
        assert all(r["status"] == "ok" for r in engine.records)
        assert engine.backend_degraded == 0
        totals = engine.backend_totals
        assert totals["worker_deaths"] >= len(vanished)
        assert totals["worker_respawns"] >= 1
        assert totals["completions"] == 8


class TestDuplicateCompletion:
    def test_first_durable_result_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULT_INJECT", "dup_complete:1.0@seed=1"
        )
        engine = _queue_engine(tmp_path)
        results = engine.map(
            _square_job, list(range(6)),
            labels=[f"dup{i}" for i in range(6)],
        )
        assert results == _squares(6)
        # One record per job -- the duplicate publishes were discarded
        # at the durable os.link boundary, not absorbed twice.
        assert len(engine.records) == 6
        assert all(r["status"] == "ok" for r in engine.records)
        totals = engine.backend_totals
        assert totals["dup_discards"] == 6
        assert totals["completions"] == 6


class TestCircuitBreaker:
    def test_dead_queue_degrades_to_local_pool(
        self, tmp_path, monkeypatch
    ):
        """Every queue worker dies after claiming (vanish at rate 1.0,
        which also holds across retry attempts), so the respawn budget
        runs out and the breaker trips; the engine must finish every
        job on the local pool and record the degradation."""
        monkeypatch.setenv(
            "REPRO_FAULT_INJECT", "worker_vanish:1.0@seed=1"
        )
        monkeypatch.setenv("REPRO_QUEUE_WORKERS", "1")
        engine = _queue_engine(tmp_path, retries=10)
        results = engine.map(
            _square_job, list(range(4)),
            labels=[f"cb{i}" for i in range(4)],
        )
        assert results == _squares(4)
        assert all(r["status"] == "ok" for r in engine.records)
        assert engine.backend_degraded == 1
        assert engine.backend_totals["worker_deaths"] >= 1
        manifest = engine.manifest()
        assert manifest["backend"]["degraded"] == 1

    def test_spawnless_queue_with_no_workers_degrades(
        self, tmp_path, monkeypatch
    ):
        """REPRO_QUEUE_WORKERS=0 means "external workers will join";
        when none shows up within the grace window the breaker trips
        and the local pool finishes the sweep."""
        monkeypatch.setenv("REPRO_QUEUE_WORKERS", "0")
        monkeypatch.setenv("REPRO_QUEUE_GRACE_S", "0.3")
        engine = _queue_engine(tmp_path)
        results = engine.map(
            _square_job, list(range(3)),
            labels=[f"ng{i}" for i in range(3)],
        )
        assert results == _squares(3)
        assert engine.backend_degraded == 1
        assert all(r["status"] == "ok" for r in engine.records)


class TestBackendEquivalence:
    def test_local_and_queue_produce_identical_results(self, tmp_path):
        payloads = list(range(6))
        labels = [f"eq{i}" for i in range(6)]
        local = ExperimentEngine(
            jobs=2, cache_dir=tmp_path / "l", use_cache=False,
            backend="local",
        )
        queue = _queue_engine(tmp_path / "q")
        local_results = local.map(_square_job, payloads, labels=labels)
        queue_results = queue.map(_square_job, payloads, labels=labels)
        assert local_results == queue_results == _squares(6)
        strip = lambda r: {
            k: r[k] for k in ("label", "status", "attempts", "cache")
        }
        assert [strip(r) for r in local.records] \
            == [strip(r) for r in queue.records]
        assert local.manifest()["engine"]["backend"] == "local"
        assert queue.manifest()["engine"]["backend"] == "queue"


class TestChaosSweepAcceptance:
    """The ISSUE acceptance scenario: a two-worker queue sweep under
    combined lease-expiry and worker-vanish injection completes with
    zero lost or duplicated jobs, its manifest health counters prove
    reclaim/failover actually happened, and the numbers match a clean
    local-backend run exactly."""

    def test_faulted_queue_sweep_matches_clean_local_run(
        self, tmp_path, monkeypatch
    ):
        config = RunConfig.quick()
        names = ["h264ref", "omnetpp"]

        clean = ExperimentEngine(
            jobs=2, cache_dir=tmp_path / "clean", use_cache=False,
            backend="local",
        )
        clean_outcomes = clean.run_benchmarks(names, config)
        assert all(o.ok for o in clean_outcomes)

        # Seed chosen so both kinds (deterministically) fire on the two
        # sweep labels while staying inside the retry/respawn budgets.
        monkeypatch.setenv(
            "REPRO_FAULT_INJECT",
            "lease_expire:0.4,worker_vanish:0.3@seed=16",
        )
        chaos = _queue_engine(tmp_path / "chaos", retries=4)
        chaos_outcomes = chaos.run_benchmarks(names, config)
        manifest = chaos.manifest(config)

        # Zero lost, zero duplicated: one ok record per sweep job.
        assert all(r["status"] == "ok" for r in chaos.records)
        assert len(chaos.records) == len(clean.records)
        totals = manifest["backend"]["totals"]
        assert totals["completions"] == len(chaos.records)
        # The health counters prove the chaos actually bit: hosts died
        # AND leases were silently dropped, and everything failed over.
        assert totals["worker_deaths"] >= 1
        assert totals.get("leases_dropped", 0) >= 1
        assert totals.get("leases_reclaimed", 0) \
            + totals.get("jobs_resubmitted", 0) \
            + totals["worker_respawns"] >= 1

        for a, b in zip(chaos_outcomes, clean_outcomes):
            assert a.ok and b.ok
            assert a.name == b.name
            assert a.speedups == b.speedups
            assert vars(a.metrics) == vars(b.metrics)
            assert a.converted == b.converted

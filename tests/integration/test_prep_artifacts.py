"""Persisted replay-prep slices: keying, invalidation, integrity,
cross-process reuse, and the sidecar-aware cache housekeeping.

The prep cache is a *derived* layer: every test here can assert
bit-identical results because a lost or corrupted slice is never a
wrong answer, only a rebuild.  Everything points its cache at
``tmp_path`` via ``REPRO_CACHE_DIR`` (same convention as
``test_artifacts``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import os

import numpy as np
import pytest

from repro.branchpred import GSharePredictor
from repro.experiments import RunConfig, cachectl
from repro.experiments.artifacts import ArtifactStore
from repro.experiments.harness import prepare_benchmark
from repro.uarch import InOrderCore, OutOfOrderCore, columns, replay_vec


@pytest.fixture
def store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return ArtifactStore(cache_dir=tmp_path)


def _quick_programs(config=None):
    config = config or RunConfig.quick()
    baseline, decomposed = prepare_benchmark("h264ref", 1, config)
    return config, baseline.program, decomposed.program


def _prep_files(tmp_path):
    preps = tmp_path / "preps"
    if not preps.is_dir():
        return []
    return sorted(p for p in preps.iterdir() if p.suffix == ".prep")


class TestPrepPersistence:
    def test_replay_builds_and_persists_slice(self, store, tmp_path):
        config, baseline, _ = _quick_programs()
        machine = config.machine_for(4)
        # A cold call captures the trace and then replays it: that
        # replay builds the slice.
        mark = store.mark()
        store.simulate_inorder(
            baseline, machine, max_instructions=config.max_instructions
        )
        delta = store.delta(mark)
        assert delta.get("prep_misses") == 1
        assert delta.get("prep_builds") == 1
        files = _prep_files(tmp_path)
        assert len(files) == 1
        assert (files[0].parent / (files[0].name + ".sum")).is_file()
        # Same store again: layers are already on the (LRU-cached)
        # trace object -- in-process memoisation is not a cache event.
        mark = store.mark()
        store.simulate_inorder(
            baseline, machine, max_instructions=config.max_instructions
        )
        delta = store.delta(mark)
        assert not any(k.startswith("prep_") for k in delta)

    def test_fresh_store_warm_starts_from_disk(self, store, tmp_path):
        config, baseline, _ = _quick_programs()
        machine = config.machine_for(4)
        store.simulate_inorder(
            baseline, machine, max_instructions=config.max_instructions
        )
        first = store.simulate_inorder(
            baseline, machine, max_instructions=config.max_instructions
        )
        other = ArtifactStore(cache_dir=tmp_path)
        mark = other.mark()
        second = other.simulate_inorder(
            baseline, machine, max_instructions=config.max_instructions
        )
        delta = other.delta(mark)
        assert delta.get("prep_hits") == 1
        assert "prep_builds" not in delta
        assert "prep_misses" not in delta
        assert first.cycles == second.cycles
        assert first.stats == second.stats

    def test_ooo_shares_the_inorder_slice(self, store, tmp_path):
        config, baseline, _ = _quick_programs()
        machine = config.machine_for(4)
        store.simulate_inorder(
            baseline, machine, max_instructions=config.max_instructions
        )
        store.simulate_inorder(
            baseline, machine, max_instructions=config.max_instructions
        )
        other = ArtifactStore(cache_dir=tmp_path)
        mark = other.mark()
        other.simulate_inorder(
            baseline, machine, max_instructions=config.max_instructions
        )
        other.simulate_ooo(
            baseline, machine, max_instructions=config.max_instructions
        )
        delta = other.delta(mark)
        # One attach serves both cores: the slice carries both BTB
        # working sets, so the OOO replay moves no prep counters.
        assert delta.get("prep_hits") == 1
        assert "prep_builds" not in delta
        assert len(_prep_files(tmp_path)) == 1

    def test_cached_prep_matches_scalar_oracle(
        self, store, tmp_path, kernel_declines
    ):
        """Replays served by the kernels from an attached prep slice
        match the scalar execute-driven reference cores exactly."""
        config, baseline, _ = _quick_programs()
        machine = config.machine_for(4)
        # One cold call captures, replays and persists the slice.
        store.simulate_inorder(
            baseline, machine, max_instructions=config.max_instructions
        )
        warm = ArtifactStore(cache_dir=tmp_path)
        vec_io = warm.simulate_inorder(
            baseline, machine, max_instructions=config.max_instructions
        )
        vec_ooo = warm.simulate_ooo(
            baseline, machine, max_instructions=config.max_instructions
        )
        assert warm.counters.get("prep_hits") == 1
        assert warm.counters.get("trace_replays") == 2
        assert kernel_declines == [False] * 3  # no replay fell back
        ref_io = InOrderCore(machine).run(
            baseline, max_instructions=config.max_instructions
        )
        ref_ooo = OutOfOrderCore(machine).run(
            baseline, max_instructions=config.max_instructions
        )
        assert vec_io.stats == ref_io.stats
        assert vec_io.registers == ref_io.registers
        assert vec_ooo.stats == ref_ooo.stats
        assert vec_ooo.registers == ref_ooo.registers


    def test_latencies_beyond_a_byte_round_trip(self, store, tmp_path):
        """A 300-cycle DRAM puts latencies above 255 into the memory
        layer a fresh store derives from an attached slice's hit
        levels: its ``fetch_add`` reaches 300 at int32, and the replay
        matches the reference core."""
        config, baseline, _ = _quick_programs()
        machine = config.machine_for(4)
        slow = dataclasses.replace(
            machine,
            hierarchy=dataclasses.replace(
                machine.hierarchy, dram_latency=300
            ),
        )
        store.simulate_inorder(
            baseline, slow, max_instructions=config.max_instructions
        )
        fresh = ArtifactStore(cache_dir=tmp_path)
        mark = fresh.mark()
        replayed = fresh.simulate_inorder(
            baseline, slow, max_instructions=config.max_instructions
        )
        assert fresh.delta(mark).get("prep_hits") == 1
        trace = fresh.peek_trace(
            baseline, slow, max_instructions=config.max_instructions
        )
        (mem,) = trace._prep.mems.values()
        assert int(mem["fetch_add"].max()) == 300
        assert mem["fetch_add"].dtype == np.int32
        executed = InOrderCore(slow).run(
            baseline, max_instructions=config.max_instructions
        )
        assert replayed.stats == executed.stats
        assert replayed.registers == executed.registers
        assert replayed.memory.snapshot() == executed.memory.snapshot()

    def test_slice_keeps_only_the_pass_outputs(self, store, tmp_path):
        """A slice holds what the four sequential passes decide and
        nothing a replay can rebuild: the live predictor's bits (live
        mode only), the RAS bits, the cache-tag pass's hit levels and
        both cores' BTB bits; its header names the slice and carries
        no counters."""
        config, baseline, _ = _quick_programs()
        machine = config.machine_for(4)
        for point in (machine, machine.with_predictor(GSharePredictor)):
            store.simulate_inorder(
                baseline, point, max_instructions=config.max_instructions
            )
        passes = [
            "ras_bits", "inst_level", "load_level", "store_level",
            "btb_io_bits", "btb_ooo_bits",
        ]
        found = {}
        for path in _prep_files(tmp_path):
            header, arrays = columns.decode(
                replay_vec._PREP_MAGIC, path.read_bytes()
            )
            assert sorted(header) == [
                "columns", "config", "mode", "schema", "trace"
            ]
            assert header["schema"] == 3
            found[header["mode"] == "recorded"] = list(arrays)
        assert found == {True: passes, False: ["pred_bits", *passes]}

    def test_code_change_rebuilds_the_slice(
        self, store, tmp_path, monkeypatch
    ):
        """A source change recaptures a baseline trace to the same
        content digest (same program, same capturing predictor), so
        the slice key alone would attach what the old code decided:
        the blob's name carries ``code_version()`` as well."""
        from repro.experiments import engine

        config, baseline, _ = _quick_programs()
        machine = config.machine_for(4)
        store.simulate_inorder(
            baseline, machine, max_instructions=config.max_instructions
        )
        monkeypatch.setattr(engine, "_CODE_VERSION", "0" * 16)
        other = ArtifactStore(cache_dir=tmp_path)
        mark = other.mark()
        other.simulate_inorder(
            baseline, machine, max_instructions=config.max_instructions
        )
        delta = other.delta(mark)
        assert delta.get("trace_captures") == 1
        assert delta.get("prep_builds") == 1
        assert "prep_hits" not in delta
        assert len(_prep_files(tmp_path)) == 2


class TestPrepInvalidation:
    def _trace_and_key(self, store, config, baseline, machine):
        store.simulate_inorder(
            baseline, machine, max_instructions=config.max_instructions
        )
        trace = store.peek_trace(
            baseline, machine, max_instructions=config.max_instructions
        )
        assert trace is not None
        key = replay_vec.prep_slice_key(baseline, trace, machine)
        assert key is not None
        return trace, key

    def test_predictor_change_changes_key_and_rebuilds(
        self, store, tmp_path
    ):
        config, baseline, _ = _quick_programs()
        machine = config.machine_for(4)
        trace, key = self._trace_and_key(
            store, config, baseline, machine
        )
        gshare = machine.with_predictor(GSharePredictor)
        other_key = replay_vec.prep_slice_key(baseline, trace, gshare)
        assert other_key is not None and other_key != key
        store.simulate_inorder(
            baseline, machine, max_instructions=config.max_instructions
        )
        fresh = ArtifactStore(cache_dir=tmp_path)
        mark = fresh.mark()
        fresh.simulate_inorder(
            baseline, gshare, max_instructions=config.max_instructions
        )
        delta = fresh.delta(mark)
        # A foreign predictor means a live per-branch pass: its own
        # slice, built once, alongside the recorded-mode one.
        assert delta.get("prep_builds") == 1
        assert "prep_hits" not in delta
        assert len(_prep_files(tmp_path)) == 2

    def test_width_change_shares_the_slice(self, store, tmp_path):
        config, baseline, _ = _quick_programs()
        machine = config.machine_for(4)
        trace, key = self._trace_and_key(
            store, config, baseline, machine
        )
        wide = config.machine_for(8)
        assert replay_vec.prep_slice_key(baseline, trace, wide) == key
        store.simulate_inorder(
            baseline, machine, max_instructions=config.max_instructions
        )
        fresh = ArtifactStore(cache_dir=tmp_path)
        mark = fresh.mark()
        fresh.simulate_inorder(
            baseline, wide, max_instructions=config.max_instructions
        )
        delta = fresh.delta(mark)
        assert delta.get("prep_hits") == 1
        assert "prep_builds" not in delta
        assert len(_prep_files(tmp_path)) == 1

    def test_geometry_change_changes_key(self, store):
        config, baseline, _ = _quick_programs()
        machine = config.machine_for(4)
        trace, key = self._trace_and_key(
            store, config, baseline, machine
        )
        smaller_btb = dataclasses.replace(
            machine, btb_entries=machine.btb_entries // 2
        )
        assert (
            replay_vec.prep_slice_key(baseline, trace, smaller_btb)
            != key
        )
        smaller_ras = dataclasses.replace(
            machine, ras_entries=machine.ras_entries // 2
        )
        assert (
            replay_vec.prep_slice_key(baseline, trace, smaller_ras)
            != key
        )

    def test_trace_content_drives_key(self, store):
        config, baseline, _ = _quick_programs()
        machine = config.machine_for(4)
        trace, key = self._trace_and_key(
            store, config, baseline, machine
        )
        shorter = config.max_instructions // 2
        store.simulate_inorder(
            baseline, machine, max_instructions=shorter
        )
        other = store.peek_trace(
            baseline, machine, max_instructions=shorter
        )
        assert other is not None
        assert other.content_digest() != trace.content_digest()
        assert (
            replay_vec.prep_slice_key(baseline, other, machine) != key
        )

    def test_schema_bump_forces_rebuild(
        self, store, tmp_path, monkeypatch
    ):
        config, baseline, _ = _quick_programs()
        machine = config.machine_for(4)
        store.simulate_inorder(
            baseline, machine, max_instructions=config.max_instructions
        )
        store.simulate_inorder(
            baseline, machine, max_instructions=config.max_instructions
        )
        assert len(_prep_files(tmp_path)) == 1
        monkeypatch.setattr(
            replay_vec, "PREP_SCHEMA", replay_vec.PREP_SCHEMA + 1
        )
        fresh = ArtifactStore(cache_dir=tmp_path)
        mark = fresh.mark()
        fresh.simulate_inorder(
            baseline, machine, max_instructions=config.max_instructions
        )
        delta = fresh.delta(mark)
        assert delta.get("prep_misses") == 1
        assert delta.get("prep_builds") == 1
        assert len(_prep_files(tmp_path)) == 2


class TestPrepIntegrity:
    def _seed(self, store, tmp_path):
        config, baseline, _ = _quick_programs()
        machine = config.machine_for(4)
        store.simulate_inorder(
            baseline, machine, max_instructions=config.max_instructions
        )
        result = store.simulate_inorder(
            baseline, machine, max_instructions=config.max_instructions
        )
        (blob_path,) = _prep_files(tmp_path)
        return config, baseline, machine, result, blob_path

    def test_torn_blob_is_quarantined_and_rebuilt(
        self, store, tmp_path
    ):
        config, baseline, machine, result, blob_path = self._seed(
            store, tmp_path
        )
        blob = blob_path.read_bytes()
        blob_path.write_bytes(blob[: len(blob) // 2])
        fresh = ArtifactStore(cache_dir=tmp_path)
        mark = fresh.mark()
        second = fresh.simulate_inorder(
            baseline, machine, max_instructions=config.max_instructions
        )
        delta = fresh.delta(mark)
        assert delta.get("prep_quarantined") == 1
        assert delta.get("prep_builds") == 1
        assert result.cycles == second.cycles
        assert result.stats == second.stats
        quarantine = tmp_path / "quarantine"
        assert quarantine.is_dir() and any(quarantine.iterdir())
        # The rebuild re-persisted a good slice.
        assert len(_prep_files(tmp_path)) == 1

    def test_valid_digest_bad_container_is_quarantined(
        self, store, tmp_path
    ):
        config, baseline, machine, result, blob_path = self._seed(
            store, tmp_path
        )
        # Bytes that verify against their sidecar but are not a prep
        # container (a cache poisoned at write time, not in transit).
        garbage = b"not a prep container" * 4
        blob_path.write_bytes(garbage)
        sidecar = blob_path.parent / (blob_path.name + ".sum")
        sidecar.write_text(hashlib.sha256(garbage).hexdigest())
        fresh = ArtifactStore(cache_dir=tmp_path)
        mark = fresh.mark()
        second = fresh.simulate_inorder(
            baseline, machine, max_instructions=config.max_instructions
        )
        delta = fresh.delta(mark)
        assert delta.get("prep_quarantined") == 1
        assert delta.get("prep_builds") == 1
        assert result.cycles == second.cycles
        assert result.stats == second.stats

    @pytest.mark.parametrize(
        "column",
        [
            "pred_bits", "ras_bits", "inst_level", "load_level",
            "store_level", "btb_io_bits", "btb_ooo_bits",
        ],
    )
    def test_short_column_is_quarantined(self, store, tmp_path, column):
        """A well-formed live-mode container, digest-verified, with one
        column that does not fit the event count its builder gives
        (one element short, or one long where the trace leaves the
        column empty): attach must refuse it, and the store
        quarantines it and rebuilds."""
        config, baseline, _, _, _ = self._seed(store, tmp_path)
        machine = config.machine_for(4).with_predictor(GSharePredictor)
        result = store.simulate_inorder(
            baseline, machine, max_instructions=config.max_instructions
        )
        (blob_path,) = [
            path
            for path in _prep_files(tmp_path)
            if "pred_bits" in columns.decode(
                replay_vec._PREP_MAGIC, path.read_bytes()
            )[1]
        ]
        short = _shorten_column(blob_path.read_bytes(), column)
        blob_path.write_bytes(short)
        sidecar = blob_path.parent / (blob_path.name + ".sum")
        sidecar.write_text(hashlib.sha256(short).hexdigest())
        fresh = ArtifactStore(cache_dir=tmp_path)
        mark = fresh.mark()
        second = fresh.simulate_inorder(
            baseline, machine, max_instructions=config.max_instructions
        )
        delta = fresh.delta(mark)
        assert "prep_hits" not in delta
        assert delta.get("prep_quarantined") == 1
        assert delta.get("prep_builds") == 1
        assert result.stats == second.stats


def _shorten_column(blob: bytes, name: str) -> bytes:
    """``blob`` re-encoded with column ``name`` one element short (one
    long when it is empty): a well-formed container whose digests and
    counts all agree, so only the length check can refuse it."""
    header, arrays = columns.decode(replay_vec._PREP_MAGIC, blob)
    column = arrays[name]
    arrays[name] = (
        column[:-1] if len(column) else np.zeros(1, column.dtype)
    )
    del header["columns"]
    return columns.encode(replay_vec._PREP_MAGIC, header, arrays)


class TestCacheCtlSidecars:
    def _blob(self, tmp_path, section, name, payload):
        directory = tmp_path / section
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / name
        path.write_bytes(payload)
        sidecar = directory / (name + ".sum")
        sidecar.write_text(hashlib.sha256(payload).hexdigest())
        return path, sidecar

    def test_scan_folds_sidecar_into_blob_entry(self, tmp_path):
        path, sidecar = self._blob(
            tmp_path, "traces", "k.trace", b"x" * 1000
        )
        report = cachectl.scan(tmp_path)
        stats = report["traces"]
        assert stats.files == 1
        assert stats.bytes == 1000 + sidecar.stat().st_size
        assert [entry[2] for entry in stats.entries] == [path]

    def test_scan_preps_section(self, tmp_path):
        self._blob(tmp_path, "preps", "k.prep", b"y" * 64)
        report = cachectl.scan(tmp_path)
        assert report["preps"].files == 1
        assert report["preps"].bytes > 64

    def test_orphaned_sidecar_is_its_own_entry(self, tmp_path):
        path, sidecar = self._blob(
            tmp_path, "traces", "k.trace", b"x" * 100
        )
        path.unlink()
        report = cachectl.scan(tmp_path)
        stats = report["traces"]
        assert stats.files == 1
        assert [entry[2] for entry in stats.entries] == [sidecar]
        # ...and prune can finally collect it.
        removed = cachectl.prune(tmp_path, max_age_days=0.0)
        assert removed["traces"][0] == 1
        assert not sidecar.exists()

    def test_prune_removes_blob_and_sidecar_as_unit(self, tmp_path):
        path, sidecar = self._blob(
            tmp_path, "traces", "k.trace", b"x" * 1000
        )
        old = 1_000_000.0
        os.utime(path, (old, old))
        removed = cachectl.prune(tmp_path, max_age_days=1.0)
        files, nbytes = removed["traces"]
        assert files == 2
        assert nbytes == 1000 + 64  # sidecar counted in the budget
        assert not path.exists() and not sidecar.exists()

    def test_size_budget_counts_sidecars(self, tmp_path):
        # Two 1000-byte blobs plus their 64-byte sidecars: a 2 KiB
        # budget that ignored sidecars would keep both.
        a, _ = self._blob(tmp_path, "traces", "a.trace", b"a" * 1000)
        self._blob(tmp_path, "traces", "b.trace", b"b" * 1000)
        os.utime(a, (1_000_000.0, 1_000_000.0))
        removed = cachectl.prune(
            tmp_path, max_size_mb=2000 / (1024 * 1024)
        )
        assert removed["traces"][0] == 2  # blob + sidecar of oldest
        assert not a.exists()


class TestCacheVerify:
    def _blob(self, tmp_path, section, name, payload):
        directory = tmp_path / section
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / name
        path.write_bytes(payload)
        sidecar = directory / (name + ".sum")
        sidecar.write_text(hashlib.sha256(payload).hexdigest())
        return path, sidecar

    def test_clean_cache_verifies_ok(self, tmp_path):
        self._blob(tmp_path, "traces", "a.trace", b"a" * 100)
        self._blob(tmp_path, "preps", "b.prep", b"b" * 100)
        report = cachectl.verify(tmp_path)
        assert report.checked == 2
        assert report.ok == 2
        assert not report.mismatched and not report.orphaned

    def test_mismatch_and_orphan_detected(self, tmp_path):
        bad, _ = self._blob(tmp_path, "traces", "a.trace", b"a" * 100)
        bad.write_bytes(b"tampered")
        gone, sidecar = self._blob(
            tmp_path, "preps", "b.prep", b"b" * 100
        )
        gone.unlink()
        report = cachectl.verify(tmp_path)
        assert report.mismatched == [bad]
        assert report.orphaned == [sidecar]
        assert not report.quarantined  # report-only by default
        assert bad.exists()
        text = cachectl.render_verify(report)
        assert "MISMATCH" in text and "ORPHAN" in text

    def test_quarantine_moves_mismatches(self, tmp_path):
        bad, sidecar = self._blob(
            tmp_path, "traces", "a.trace", b"a" * 100
        )
        bad.write_bytes(b"tampered")
        report = cachectl.verify(tmp_path, quarantine=True)
        assert report.quarantined == [bad]
        assert not bad.exists() and not sidecar.exists()
        quarantine = tmp_path / "quarantine"
        assert quarantine.is_dir() and any(quarantine.iterdir())

    def test_sidecarless_store_blob_counted_unverified(self, tmp_path):
        directory = tmp_path / "traces"
        directory.mkdir(parents=True)
        (directory / "old.trace").write_bytes(b"pre-sidecar")
        report = cachectl.verify(tmp_path)
        assert report.checked == 0
        assert report.unverified == 1

    def test_cli_cache_verify(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        self._blob(tmp_path, "traces", "a.trace", b"a" * 100)
        assert main(["cache", "verify"]) == 0
        assert "1 ok" in capsys.readouterr().out
        bad, _ = self._blob(tmp_path, "traces", "b.trace", b"b" * 100)
        bad.write_bytes(b"tampered")
        with pytest.raises(SystemExit) as exc:
            main(["cache", "verify"])
        assert exc.value.code == 1
        assert bad.exists()  # report-only without --quarantine
        with pytest.raises(SystemExit):
            main(["cache", "verify", "--quarantine"])
        assert not bad.exists()
        assert main(["cache", "verify"]) == 0

"""Chaos tests for the blob-store protocol under the artifact
layer.

Everything :class:`~repro.experiments.store.FileStore` claims to
survive is exercised here deterministically: digest sidecars,
tampered and torn transfers (quarantine, then recapture), quarantine
name collisions and its retention cap, and transient versus
persistent I/O errors.  Each test makes its own fault: it rewrites a
file on disk or monkeypatches ``fsync_write`` (no random kill
signals).
"""

import pytest

from repro.experiments.store import (
    FileStore,
    QUARANTINE_CAP,
    STORE_RETRIES,
    fsync_write,
    quarantine_file,
)

pytestmark = pytest.mark.chaos


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

    def test_sidecarless_blob_misses_until_put_heals_it(self, tmp_path):
        """A blob whose sidecar is missing (a put between its two
        writes, or a lost sidecar) cannot be verified: it reads as a
        plain miss, is not quarantined, and the next put of the name
        rewrites both files."""
        (tmp_path / "old.bin").write_bytes(b"unverifiable")
        store = FileStore(tmp_path)
        assert store.get("old.bin") is None
        assert store.counters["verify_failures"] == 0
        assert (tmp_path / "old.bin").read_bytes() == b"unverifiable"
        assert not (tmp_path / "quarantine").exists()
        assert store.put("old.bin", b"recomputed")
        assert store.get("old.bin") == b"recomputed"
        assert store.verify_blob("old.bin") == "ok"

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
        def tearing_write(path, blob):
            """A transfer that died mid-copy: the blob lands short,
            its digest sidecar whole."""
            if not path.name.endswith(".sum"):
                blob = blob[: len(blob) // 2]
            fsync_write(path, blob)

        monkeypatch.setattr(
            "repro.experiments.store.fsync_write", tearing_write
        )
        store = FileStore(tmp_path)
        assert store.put("torn.bin", b"X" * 64)  # digest full, blob half
        assert (tmp_path / "torn.bin").stat().st_size == 32
        assert store.get("torn.bin") is None  # tear detected
        assert store.counters["verify_failures"] == 1
        monkeypatch.setattr(
            "repro.experiments.store.fsync_write", fsync_write
        )
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

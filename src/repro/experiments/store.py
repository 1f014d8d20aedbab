"""Durable blob store: everything a run keeps on disk goes through it.

Every pool worker and every run reads and writes job results, traces,
prep slices and profiles through the cache root concurrently (a cache
root may also sit on a shared filesystem), and every crossing of that
boundary is a chance for a torn or corrupt transfer.  This module pins
the contract down:

* :class:`FileStore` -- ``get``/``put``/``contains`` (+ ``delete``)
  over named blobs in one directory.  ``put`` is durable (fsync before
  the atomic rename) and records a SHA-256 digest in a ``<name>.sum``
  sidecar; ``get`` verifies the digest on every read and treats a
  mismatch as a miss after quarantining the damage.  A blob without
  a sidecar is a plain miss: every store key carries
  ``code_version()``, so no blob written before sidecars existed is
  ever addressed, and a sidecar-less blob is a put caught between
  its two writes or one whose sidecar was lost.  Transient I/O errors
  are retried with backoff.
* :func:`quarantine_file` -- the one shared quarantine move.  It
  uniquifies the destination (two different corrupt artifacts can
  share a basename) and enforces a small retention cap so quarantine
  can never grow without bound.

Fault injection: the ``torn_put`` kind (:mod:`.faults`) truncates the
blob *after* its digest was recorded, modelling a transfer that died
mid-copy; the next verified ``get`` detects the tear, quarantines the
blob, and reports a miss so the caller recomputes.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import secrets
import tempfile
import time
from typing import Callable, Dict, Optional

from . import faults

#: Quarantined files kept per quarantine directory (oldest beyond the
#: cap are deleted on the next quarantine).
QUARANTINE_CAP = 64

#: Transient-I/O retries per store operation, and the first retry's
#: backoff in seconds (doubled on each later retry).
STORE_RETRIES = 2
STORE_BACKOFF_S = 0.05


def quarantine_file(
    quarantine_dir: pathlib.Path,
    path: pathlib.Path,
    cap: int = QUARANTINE_CAP,
) -> Optional[pathlib.Path]:
    """Move ``path`` into ``quarantine_dir`` without clobbering.

    The destination used to be ``quarantine_dir / path.name``, which
    silently overwrote an earlier quarantined file with the same
    basename (a recaptured-then-recorrupted artifact, or a result
    cache entry and a trace sharing a digest prefix).  Collisions now
    get a uniquifying suffix, and the directory is trimmed to ``cap``
    entries (oldest first) so inspection debris cannot accumulate
    forever.  Returns the destination, or ``None`` when the move
    failed (the caller treats that as "nothing quarantined").
    """
    try:
        quarantine_dir.mkdir(parents=True, exist_ok=True)
        dest = quarantine_dir / path.name
        if dest.exists():
            dest = quarantine_dir / (
                f"{path.name}.{int(time.time() * 1000):x}"
                f"-{secrets.token_hex(3)}"
            )
        os.replace(path, dest)
    except OSError:
        return None
    _trim_quarantine(quarantine_dir, cap)
    return dest


def _trim_quarantine(quarantine_dir: pathlib.Path, cap: int) -> None:
    try:
        entries = [
            (p.stat().st_mtime, p)
            for p in quarantine_dir.iterdir()
            if p.is_file()
        ]
    except OSError:
        return
    entries.sort()
    for _, stale in entries[: max(0, len(entries) - cap)]:
        try:
            stale.unlink()
        except OSError:
            pass


def fsync_write(path: pathlib.Path, blob: bytes) -> None:
    """Durable atomic write: temp file, fsync, ``os.replace``.

    The fsync *before* the rename is what makes the artifact survive a
    SIGKILL or power loss: without it the rename can land while the
    data is still only in the page cache, leaving a durable name over
    torn contents.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class FileStore:
    """Directory-backed named-blob store with digest sidecars.

    ``put(name, blob)`` writes ``<root>/<name>`` (fsync + atomic
    rename) and a ``<name>.sum`` sidecar holding the blob's SHA-256;
    ``get`` re-hashes the blob against the sidecar and quarantines
    both on mismatch (a failed verification is a miss, not an error).
    Names are relative POSIX-style paths (``traces/<key>.trace``,
    ``<key>.json``).  A blob without a sidecar reads as a miss and is
    left in place (the next ``put`` of its name rewrites both files).
    Transient ``OSError``\\ s (a flaky shared mount) are retried with
    backoff.
    """

    SIDECAR_SUFFIX = ".sum"

    def __init__(
        self,
        root: pathlib.Path,
        quarantine_dir: Optional[pathlib.Path] = None,
        on_counter: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.root = pathlib.Path(root)
        self.quarantine_dir = pathlib.Path(
            quarantine_dir
            if quarantine_dir is not None
            else self.root / "quarantine"
        )
        self.counters: Dict[str, int] = {
            "puts": 0,
            "gets": 0,
            "put_retries": 0,
            "get_retries": 0,
            "verify_failures": 0,
        }
        #: Optional counter mirror (the artifact store aggregates
        #: these into its per-job envelope counters).
        self._on_counter = on_counter

    def _bump(self, name: str, by: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by
        if self._on_counter is not None:
            for _ in range(by):
                self._on_counter(name)

    def path_for(self, name: str) -> pathlib.Path:
        return self.root / name

    def _sidecar(self, name: str) -> pathlib.Path:
        return self.root / (name + self.SIDECAR_SUFFIX)

    def _retry(self, op: Callable[[], bytes], counter: str):
        """Run ``op``; retry transient OSErrors with backoff."""
        attempt = 0
        while True:
            try:
                return op()
            except FileNotFoundError:
                raise
            except OSError:
                if attempt >= STORE_RETRIES:
                    raise
                self._bump(counter)
                time.sleep(STORE_BACKOFF_S * (2 ** attempt))
                attempt += 1

    def put(self, name: str, blob: bytes) -> bool:
        """Store ``blob`` durably under ``name``; True on success."""
        digest = hashlib.sha256(blob).hexdigest()
        if faults.should_tear_put(name):
            # A transfer that died mid-copy: the digest was computed
            # over the full payload, the bytes on disk are short.
            blob = blob[: max(1, len(blob) // 2)]
        path = self.path_for(name)
        try:
            self._retry(
                lambda: fsync_write(path, blob), "put_retries"
            )
            self._retry(
                lambda: fsync_write(
                    self._sidecar(name), digest.encode()
                ),
                "put_retries",
            )
        except OSError:
            return False
        self._bump("puts")
        return True

    def get(self, name: str) -> Optional[bytes]:
        """Verified read; ``None`` for absent *or corrupt* blobs."""
        path = self.path_for(name)
        try:
            blob = self._retry(path.read_bytes, "get_retries")
        except OSError:
            return None
        self._bump("gets")
        try:
            recorded = self._sidecar(name).read_text().strip()
        except OSError:
            # Unverifiable: a put whose sidecar is not written yet, or
            # was lost.  A plain miss; the caller's put rewrites both.
            return None
        if hashlib.sha256(blob).hexdigest() != recorded:
            self._bump("verify_failures")
            self.quarantine(name)
            return None
        return blob

    def quarantine(self, name: str) -> bool:
        """Move blob ``name`` aside for inspection and drop its sidecar
        (a later ``put`` starts clean); True when the blob moved."""
        if quarantine_file(self.quarantine_dir, self.path_for(name)) is None:
            return False
        try:
            self._sidecar(name).unlink()
        except OSError:
            pass
        return True

    def contains(self, name: str) -> bool:
        """Whether a blob named ``name`` exists (unverified)."""
        return self.path_for(name).exists()

    def verify_blob(self, name: str) -> str:
        """Offline integrity check of one blob against its sidecar.

        Returns ``"ok"`` (digest matches), ``"mismatch"`` (bytes do
        not hash to the recorded digest -- a torn or corrupted blob),
        ``"unverified"`` (no sidecar: :meth:`get` never serves it), or
        ``"missing"`` (no blob).  Unlike :meth:`get` this moves no
        counters and quarantines nothing -- it exists for ``repro cache
        verify``, which decides what to do with the report."""
        path = self.path_for(name)
        try:
            blob = path.read_bytes()
        except OSError:
            return "missing"
        try:
            recorded = self._sidecar(name).read_text().strip()
        except OSError:
            return "unverified"
        if hashlib.sha256(blob).hexdigest() != recorded:
            return "mismatch"
        return "ok"

    def delete(self, name: str) -> None:
        """Remove ``name`` and its sidecar, if present."""
        for victim in (self.path_for(name), self._sidecar(name)):
            try:
                victim.unlink()
            except OSError:
                pass

"""Housekeeping for the on-disk cache (``repro cache``).

The experiment cache root (``results/.cache/`` or ``REPRO_CACHE_DIR``)
accumulates five kinds of state; the blob store (:mod:`.store`)
writes the first four, each blob with a ``.sum`` digest sidecar:

* ``results`` -- cached job results (``<key>.json`` in the cache root,
  keyed by job fingerprint);
* ``traces``  -- captured instruction traces (``traces/<key>.trace``);
* ``preps``   -- persisted replay-prep slices (``preps/<key>.prep``):
  the derived predictor/cache/BTB layers one trace replay needs,
  shared across workers, runs and hosts (see
  :mod:`repro.uarch.replay_vec`);
* ``profiles`` -- TRAIN branch traces and measured profiles
  (``profiles/<key>.btrace`` / ``.json``);
* ``quarantine`` -- artifacts that failed integrity validation.

Everything here is derived state: deleting any of it costs recompute
time, never correctness (content addressing recaptures on demand).
:func:`scan` sizes each section; :func:`prune` applies an age cutoff
and/or a total size budget (oldest files evicted first).  Store-layer
``.sum`` digest sidecars (:mod:`.store`) are handled as part of their
blob: a blob entry's size includes its sidecar, pruning a blob
removes the sidecar with it, and a sidecar whose blob is already gone
(orphaned by pre-fix prunes) is listed -- and prunable -- on its own.
Only regular files are ever entries.  :func:`verify` offline
re-hashes every sidecarred blob and parses every trace and prep slice
(``repro cache verify``);
:func:`render_report` also shows the hit/miss counters the last run
manifest aggregated, when it is of the schema this code writes
(:data:`.engine.MANIFEST_SCHEMA`): another schema's counters describe
a run of other code.
"""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .engine import MANIFEST_SCHEMA
from .settings import RESULTS_DIR, cache_root

#: section name -> (subdirectory or "" for the cache root, glob pattern).
SECTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("results", "", "*.json"),
    ("traces", "traces", "*.trace"),
    ("preps", "preps", "*.prep"),
    ("profiles", "profiles", "*"),
    ("quarantine", "quarantine", "*"),
)


@dataclass
class SectionStats:
    name: str
    files: int = 0
    bytes: int = 0
    oldest_age_s: float = 0.0
    #: (mtime, size, path) per file, for prune ordering.
    entries: List[Tuple[float, int, pathlib.Path]] = field(
        default_factory=list
    )


def _sidecar_suffix() -> str:
    from .store import FileStore

    return FileStore.SIDECAR_SUFFIX


def scan(
    cache_dir: Optional[pathlib.Path] = None,
    now: Optional[float] = None,
) -> Dict[str, SectionStats]:
    """Size every cache section (missing directories scan as empty).

    Entries are regular files only: a directory a glob matches is
    never counted nor handed to prune's ``unlink``.  A store-layer
    digest sidecar is not its own entry: its size is folded into its
    blob's entry so the pair is budgeted and pruned as a unit.  A sidecar whose blob is gone
    (orphaned by pre-fix prunes) *is* its own entry, so prune can
    finally collect it.
    """
    root = cache_root(cache_dir)
    now = time.time() if now is None else now
    suffix = _sidecar_suffix()
    report: Dict[str, SectionStats] = {}
    for name, subdir, pattern in SECTIONS:
        stats = SectionStats(name=name)
        directory = root / subdir if subdir else root
        if directory.is_dir():
            matches = set(directory.glob(pattern))
            if not pattern.endswith(suffix):
                # Narrow globs (``*.trace``) never see their blobs'
                # sidecars; include them so orphans cannot accumulate
                # invisibly forever.
                matches.update(directory.glob(pattern + suffix))
            for path in sorted(matches):
                if not path.is_file():
                    continue
                if path.name.endswith(suffix):
                    blob = path.parent / path.name[: -len(suffix)]
                    if blob.is_file():
                        continue  # accounted with its blob
                try:
                    stat = path.stat()
                except OSError:
                    continue
                size = stat.st_size
                if not path.name.endswith(suffix):
                    sidecar = path.parent / (path.name + suffix)
                    try:
                        if sidecar.is_file():
                            size += sidecar.stat().st_size
                    except OSError:
                        pass
                stats.files += 1
                stats.bytes += size
                stats.oldest_age_s = max(
                    stats.oldest_age_s, now - stat.st_mtime
                )
                stats.entries.append((stat.st_mtime, size, path))
        report[name] = stats
    return report


def prune(
    cache_dir: Optional[pathlib.Path] = None,
    max_age_days: Optional[float] = None,
    max_size_mb: Optional[float] = None,
    sections: Optional[Tuple[str, ...]] = None,
    now: Optional[float] = None,
) -> Dict[str, Tuple[int, int]]:
    """Delete cache files by age and/or total-size budget.

    Age first (anything older than ``max_age_days`` goes), then the
    size budget: if the survivors still exceed ``max_size_mb`` in
    total, the oldest files across all selected sections are evicted
    until the total fits.  Returns ``{section: (files, bytes)}``
    removed.  With neither limit set this is a no-op.
    """
    now = time.time() if now is None else now
    report = scan(cache_dir, now=now)
    selected = [
        stats
        for stats in report.values()
        if sections is None or stats.name in sections
    ]
    removed: Dict[str, Tuple[int, int]] = {
        stats.name: (0, 0) for stats in selected
    }
    survivors: List[Tuple[float, int, pathlib.Path, str]] = []
    for stats in selected:
        for mtime, size, path in stats.entries:
            age_days = (now - mtime) / 86400.0
            if max_age_days is not None and age_days > max_age_days:
                _remove(path, stats.name, size, removed)
            else:
                survivors.append((mtime, size, path, stats.name))
    if max_size_mb is not None:
        budget = int(max_size_mb * 1024 * 1024)
        total = sum(size for _, size, _, _ in survivors)
        survivors.sort()  # oldest first
        for _, size, path, section in survivors:
            if total <= budget:
                break
            _remove(path, section, size, removed)
            total -= size
    return removed


def _remove(
    path: pathlib.Path,
    section: str,
    size: int,
    removed: Dict[str, Tuple[int, int]],
) -> None:
    """Unlink one scan entry: the file plus -- when the entry is a
    store blob -- its digest sidecar, as a unit.  (``_remove`` used to
    unlink only the blob, stranding ``.sum`` sidecars that the narrow
    section globs then never matched again.)  ``size`` is the entry's
    scan size, which already includes the sidecar."""
    try:
        path.unlink()
    except OSError:
        return
    count = 1
    suffix = _sidecar_suffix()
    if not path.name.endswith(suffix):
        try:
            (path.parent / (path.name + suffix)).unlink()
            count += 1
        except OSError:
            pass
    files, nbytes = removed[section]
    removed[section] = (files + count, nbytes + size)


@dataclass
class VerifyReport:
    """Outcome of one offline integrity sweep (:func:`verify`)."""

    checked: int = 0
    ok: int = 0
    #: Blobs whose bytes no longer hash to their recorded digest.
    mismatched: List[pathlib.Path] = field(default_factory=list)
    #: Sidecars whose blob is gone entirely.
    orphaned: List[pathlib.Path] = field(default_factory=list)
    #: Store-section blobs with no sidecar (a put that lost its
    #: sidecar; the store never serves them -- worth knowing about).
    unverified: int = 0
    #: Traces and prep slices in this code's container format whose
    #: digest holds but which fail to parse.
    undecodable: List[pathlib.Path] = field(default_factory=list)
    #: Traces and prep slices in another container format (an older
    #: schema's): no key of this code names them, so no run reads
    #: them; ``repro cache prune`` ages them out.
    stale: List[pathlib.Path] = field(default_factory=list)
    #: Mismatched and undecodable blobs moved aside
    #: (``quarantine=True`` only).
    quarantined: List[pathlib.Path] = field(default_factory=list)


def _containers():
    """(directory, suffix) -> (magic, parser) for the blobs that are
    :mod:`repro.uarch.columns` containers, traces and prep slices: the
    magic this code writes and the parse a run applies to one."""
    from ..uarch import columns, replay_vec
    from ..uarch.trace import _MAGIC, Trace

    return {
        ("traces", ".trace"): (_MAGIC, Trace.from_bytes),
        ("preps", ".prep"): (
            replay_vec._PREP_MAGIC,
            lambda blob: columns.decode(replay_vec._PREP_MAGIC, blob),
        ),
    }


def _parse_status(blob: pathlib.Path, magic: bytes, parse) -> str:
    """``"ok"``, ``"stale"`` (another magic) or ``"undecodable"`` for
    one digest-verified container."""
    from ..uarch.columns import ColumnError
    from ..uarch.trace import TraceError

    try:
        data = blob.read_bytes()
    except OSError:
        return "undecodable"
    if data[: len(magic)] != magic:
        return "stale"
    try:
        parse(data)
    except (ColumnError, TraceError):
        return "undecodable"
    return "ok"


def verify(
    cache_dir: Optional[pathlib.Path] = None,
    quarantine: bool = False,
) -> VerifyReport:
    """Offline integrity sweep: re-hash every sidecarred blob under
    the cache root against its recorded digest, then parse every
    trace and prep slice whose digest holds (``repro cache verify``).

    The hot path only verifies a blob when something *reads* it; this
    walks everything at rest, so bit rot or a torn transfer on a
    shared cache is found before a run trips over it.  The digest
    check itself is the store layer's (:meth:`.store.FileStore.
    verify_blob`) -- one hashing discipline, two entry points -- and
    the parse is the one a run applies (``Trace.from_bytes``,
    ``columns.decode``), so a blob that hashes right but would be
    quarantined on read counts as undecodable; one in an older
    container format counts as stale.  With ``quarantine=True``
    mismatched and undecodable blobs move to ``quarantine/`` (and
    their sidecars are dropped) exactly as a read would have done;
    recompute stays transparent either way.
    """
    from .store import FileStore

    root = cache_root(cache_dir)
    suffix = _sidecar_suffix()
    report = VerifyReport()
    if not root.is_dir():
        return report
    store = FileStore(root)
    quarantine_dir = root / "quarantine"
    containers = _containers()
    failures = {
        "mismatch": report.mismatched,
        "undecodable": report.undecodable,
    }
    for sidecar in sorted(root.rglob(f"*{suffix}")):
        if quarantine_dir in sidecar.parents or not sidecar.is_file():
            continue
        blob = sidecar.parent / sidecar.name[: -len(suffix)]
        name = blob.relative_to(root).as_posix()
        status = store.verify_blob(name)
        if status == "missing":
            report.orphaned.append(sidecar)
            continue
        report.checked += 1
        container = containers.get((name.rpartition("/")[0], blob.suffix))
        if status == "ok" and container:
            status = _parse_status(blob, *container)
        if status in ("ok", "stale"):
            report.ok += 1
            if status == "stale":
                report.stale.append(blob)
        elif status in failures:
            failures[status].append(blob)
            if quarantine and store.quarantine(name):
                report.quarantined.append(blob)
    # Every section but quarantine holds store blobs: count the ones
    # without a sidecar as unverified.
    for section, subdir, pattern in SECTIONS:
        if section == "quarantine":
            continue
        for path in sorted((root / subdir).glob(pattern)):
            if not path.is_file() or path.name.endswith(suffix):
                continue
            if not (path.parent / (path.name + suffix)).is_file():
                report.unverified += 1
    return report


def render_verify(report: VerifyReport) -> str:
    """Human-readable :func:`verify` outcome."""
    lines = [
        f"verified {report.checked} blobs: {report.ok} ok"
        + (f" ({len(report.stale)} stale)" if report.stale else "")
        + f", {len(report.mismatched)} mismatched, "
        f"{len(report.undecodable)} undecodable"
        + (
            f" ({len(report.quarantined)} quarantined)"
            if report.quarantined
            else ""
        )
    ]
    for blob in report.mismatched:
        lines.append(f"  MISMATCH {blob}")
    for blob in report.undecodable:
        lines.append(f"  UNDECODABLE {blob}")
    if report.stale:
        lines.append(
            f"{len(report.stale)} stale blobs (an older container "
            "format; no run reads them):"
        )
        for blob in report.stale:
            lines.append(f"  STALE    {blob}")
    if report.orphaned:
        lines.append(
            f"{len(report.orphaned)} orphaned sidecars (blob gone):"
        )
        for sidecar in report.orphaned:
            lines.append(f"  ORPHAN   {sidecar}")
    if report.unverified:
        lines.append(
            f"{report.unverified} blobs have no digest sidecar "
            "(never served; the next put of each rewrites it)"
        )
    return "\n".join(lines)


def _read_manifest(manifest_path: Optional[pathlib.Path]) -> Optional[Dict]:
    """The last run manifest, or ``None`` when absent/unreadable."""
    if manifest_path is None:
        manifest_path = RESULTS_DIR / "run_manifest.json"
    try:
        manifest = json.loads(pathlib.Path(manifest_path).read_text())
    except (OSError, ValueError):
        return None
    return manifest if isinstance(manifest, dict) else None


def _human(nbytes: int) -> str:
    value = float(nbytes)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return (
                f"{int(value)} {unit}"
                if unit == "B"
                else f"{value:.1f} {unit}"
            )
        value /= 1024
    return f"{value:.1f} GiB"


def render_report(
    cache_dir: Optional[pathlib.Path] = None,
    manifest_path: Optional[pathlib.Path] = None,
) -> str:
    """Human-readable cache + artifact-counter report."""
    root = cache_root(cache_dir)
    report = scan(root)
    lines = [f"cache root: {root}"]
    total_files = total_bytes = 0
    for stats in report.values():
        total_files += stats.files
        total_bytes += stats.bytes
        age = (
            f", oldest {stats.oldest_age_s / 86400:.1f}d"
            if stats.files
            else ""
        )
        lines.append(
            f"  {stats.name:<10} {stats.files:>5} files  "
            f"{_human(stats.bytes):>10}{age}"
        )
    lines.append(
        f"  {'total':<10} {total_files:>5} files  "
        f"{_human(total_bytes):>10}"
    )
    manifest = _read_manifest(manifest_path) or {}
    counters = manifest.get("totals", {}).get("artifacts")
    if not manifest:
        lines.append("no artifact counters (no run manifest found)")
    elif manifest.get("schema") != MANIFEST_SCHEMA:
        lines.append(
            f"no artifact counters (the run manifest is schema "
            f"{manifest.get('schema')}; this code writes schema "
            f"{MANIFEST_SCHEMA})"
        )
    elif not counters:
        # Cache hits run no job, so an all-hits run moves no counter.
        lines.append(
            "last run did no artifact work (every counter 0, as when "
            "every job is a cache hit)"
        )
    else:
        lines.append(
            f"last run artifact counters (manifest schema "
            f"{MANIFEST_SCHEMA}):"
        )
        for name, value in sorted(counters.items()):
            lines.append(f"  {name:<20} {value}")
    return "\n".join(lines)

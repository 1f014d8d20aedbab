"""Parallel experiment-execution engine: supervision and the result cache.

Every paper figure is a bag of *independent* simulation jobs (one
benchmark, one REF seed, every width -- see :func:`.harness.run_seed`).
The engine fans those jobs out over a :class:`ProcessPoolExecutor`,
reassembles the results deterministically (order is fixed by submission
index, never completion time), and memoises each job in the blob store
so that re-running an unchanged command is instant.

* Worker count comes from the ``REPRO_JOBS`` environment variable, the
  CLI ``--jobs`` flag, or ``os.cpu_count()``; ``jobs=1`` is the serial
  path and runs every job in-process with no executor.
* The cache key is a SHA-256 over the worker's qualified name, a stable
  fingerprint of the job payload (benchmark, seed, widths, and every
  ``RunConfig``/``MachineConfig``/``SelectionConfig``/``TransformConfig``
  field), the source hash of the whole ``repro`` package
  (:func:`code_version`), and a schema version -- so any edit under
  ``src/repro``, a report renderer included, re-keys every result, as
  it does every trace, prep slice and profile (ROADMAP.md's "Key each
  artifact by the code that produces it" is the fix).  Each result
  is one blob of the digest-verified store (:class:`.store.FileStore`):
  ``<key>.json`` with a ``.sum`` sidecar, put durably and retried on
  transient I/O errors.  The engine keeps no persistence of its own.
  An entry that fails its digest (torn or edited) or validation (wrong
  schema, truncated JSON, missing ``result``) counts as a miss and is
  moved to ``results/.cache/quarantine/`` for inspection.
* **Supervision**: no failed job is retried, and a failure is
  recorded instead of aborting the run.  A worker that raises ends its
  job ``failed`` with the traceback.  A worker process that dies
  (``BrokenProcessPool``, e.g. an OOM kill) ends every job in flight on
  that pool ``failed``: the pool cannot say which worker died.  A job
  that exceeds the per-job timeout (``REPRO_JOB_TIMEOUT`` /
  ``--job-timeout``) ends ``timeout``: a watchdog kills and respawns
  the pool and resubmits the innocent jobs that were in flight beside
  it.  No failure is cached, and the simulation is deterministic, so
  re-running the command is the retry.  The engine owns its pool
  directly: :meth:`ExperimentEngine._run_parallel` is the one parallel
  path.
* **Re-running is resuming**: every successful job is put in the
  result cache the moment it completes, so re-running the same command
  after an interrupt or a partial failure serves every finished job
  from the cache and runs only the unfinished or failed ones.  A run
  with the cache off keeps nothing to resume from.
* Observability: per-job wall time and simulated-cycle counters, a
  ``progress(done, total, label)`` callback, and a machine-readable
  manifest (:meth:`ExperimentEngine.write_manifest`) recording config,
  timings, per-job status/error, and cache hit/miss counts.
* **Artifact groups**: jobs that share content-addressed artifacts
  (traces, profiles, prep slices) run leader-first -- the leader
  captures and persists them, then its followers are released to
  replay from the store.  Every pool submission is one job; traces and
  prep slices cross processes only through the digest-verified blob
  store (:mod:`.store`), and each worker keeps a warm in-process store
  for its whole lifetime.

Every environment knob, with its default, is a row of
:data:`.settings.KNOBS`; the engine checks them all on construction.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import secrets
import time
import traceback
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
)

from .settings import (
    RESULTS_DIR,
    cache_root,
    check_settings,
    restored,
    setting,
)
from .store import FileStore

#: Bump when the cached-result layout changes.
CACHE_SCHEMA = 1

#: Manifest layout version (see EXPERIMENTS.md for the schema).
#: v2 adds committed-instruction counts and simulated-KIPS per job and in
#: the totals; v3 adds per-job status (ok/failed/timeout/skipped),
#: attempt counts, failure tracebacks, and the run id / robustness knobs;
#: v4 adds per-job and total artifact counters (trace capture/replay,
#: shared profile and compile hits -- see :mod:`.artifacts`); v5 adds
#: per-job ``worker_pid`` and a per-worker artifact-counter breakdown
#: (``workers``); v6 added the execution backend block
#: (``engine.backend`` and a top-level ``backend``: requested backend,
#: degradations, queue lease/heartbeat/failover counters,
#: per-queue-worker health records); v7 adds the persisted replay-prep
#: slice counters to the per-job/total artifact blocks (``prep_hits``/
#: ``prep_misses``/``prep_builds``/``prep_quarantined`` -- see
#: :mod:`.artifacts`): a warm fleet shows exactly one ``prep_builds``
#: per (trace, predictor, config class) and hits everywhere else;
#: v8 added the sweep-fused replay counters to the artifact blocks and
#: two fusion mirrors to the totals; v9 drops
#: ``totals.shm_segments_cleaned`` and the per-job ``batched`` flag
#: with the shared-memory trace plane and fused batch dispatch
#: (``totals.batches``/``totals.batch_points`` stay, always 0, for
#: readers of older layouts); v10 drops v8's fusion counters and
#: mirrors with lane fusion itself, and renames v8's divergence
#: counter to ``walk_diverges``: every in-order point is its own
#: region walk, and a nonzero ``walk_diverges`` records a walk that
#: failed validation and degraded to the (bit-identical) reference
#: core; v11 drops v6's ``engine.backend`` and top-level ``backend``
#: block with the lease-based queue backend: the local pool is the one
#: parallel path; v12 drops ``engine.resume``, ``totals.journal_hits``
#: and v5's ``workers`` block with the run journal (re-running a command
#: is its resume; each job keeps its ``worker_pid`` and ``artifacts``);
#: v13 drops ``engine.fault_inject`` with the fault-injection knob;
#: v14 drops ``engine.retries``, the totals' count of retries used and
#: the per-job ``attempts`` with engine retries: no failed job is
#: retried; v15 adds ``walk_visits`` and ``walk_misses`` to the
#: artifact blocks: the in-order walks' region visits and the visits
#: that missed the process's shared transition memo.
MANIFEST_SCHEMA = 15

_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Hash of every ``repro`` source file; part of every cache key."""
    global _CODE_VERSION
    if _CODE_VERSION is None:
        package_root = pathlib.Path(__file__).resolve().parents[1]
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(path.read_bytes())
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


def fingerprint(obj: Any) -> Any:
    """Reduce ``obj`` to a stable, JSON-serialisable structure.

    Dataclasses flatten to their field dict (tagged with the class name),
    callables/classes to their qualified name, so two configs fingerprint
    equal exactly when every field is equal.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: fingerprint(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return {"__class__": type(obj).__qualname__, **fields}
    if isinstance(obj, dict):
        return {str(k): fingerprint(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [fingerprint(v) for v in obj]
    if isinstance(obj, pathlib.Path):
        return str(obj)
    if callable(obj):
        return f"{obj.__module__}.{obj.__qualname__}"
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot fingerprint {type(obj).__name__}: {obj!r}")


#: Number of cumulative-time entries kept per profiled job.
PROFILE_TOP = 20


def _profile_text(profiler) -> str:
    """Top-N cumulative entries of a cProfile run, as plain text."""
    import io
    import pstats

    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(PROFILE_TOP)
    return buffer.getvalue()


def _error_dict(exc: BaseException, trace: Optional[str] = None) -> Dict:
    """Structured failure record for manifests."""
    if trace is None:
        trace = "".join(
            traceback.format_exception_only(type(exc), exc)
        ).strip()
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": trace,
    }


def _run_timed(worker: Callable[[Any], Dict], payload: Any) -> Dict:
    """Top-level so it pickles; returns a status envelope.

    ``{"status": "ok", "result": ..., "wall_s": ..., "profile": ...}``
    on success, ``{"status": "failed", "wall_s": ..., "error": {...}}``
    when the worker raises -- exceptions are captured *inside* the
    worker process so the full traceback survives the trip back and a
    deterministic failure can be told apart from infrastructure faults
    (which surface as ``BrokenProcessPool``/timeouts instead).

    Profiling is keyed off the ``REPRO_PROFILE`` environment variable
    (not an argument) so the switch survives the trip into
    ``ProcessPoolExecutor`` workers.

    Every envelope additionally carries ``worker_pid`` and the
    *worker-process* artifact-counter movement (``artifacts``) for the
    job, measured around the whole job: the one source of per-job
    artifact counters.  They have to travel in the envelope: the store
    that did the work lives in the pool worker, and its counters would
    otherwise be lost when results cross back to the parent.
    """
    start = time.perf_counter()
    profile = None
    mark = None
    store = None
    try:
        from .artifacts import default_store

        store = default_store()
        mark = store.mark()
    except Exception:
        store = None
    try:
        if setting("REPRO_PROFILE"):
            import cProfile

            profiler = cProfile.Profile()
            result = profiler.runcall(worker, payload)
            profile = _profile_text(profiler)
        else:
            result = worker(payload)
    except Exception as exc:
        return {
            "status": "failed",
            "wall_s": time.perf_counter() - start,
            "error": _error_dict(exc, trace=traceback.format_exc()),
            "artifacts": store.delta(mark) if store is not None else None,
            "worker_pid": os.getpid(),
        }
    return {
        "status": "ok",
        "result": result,
        "wall_s": time.perf_counter() - start,
        "profile": profile,
        "artifacts": store.delta(mark) if store is not None else None,
        "worker_pid": os.getpid(),
    }


def _pool_worker_init(env: Dict[str, str]) -> None:
    """Pool initializer: pin the artifact environment in the worker and
    build the worker-resident store before the first job arrives.

    The store (and everything it memoises: the hot-trace LRU, prep
    layers, profiles, compiles) lives for the worker's whole lifetime,
    across jobs; after a watchdog kill-and-respawn the fresh workers
    run this again and repopulate from the on-disk store.
    """
    for name, value in env.items():
        if value:
            os.environ[name] = value
        else:
            os.environ.pop(name, None)
    try:
        from .artifacts import default_store

        default_store()
    except Exception:
        pass


def _seed_worker(payload) -> Dict:
    """One (benchmark, REF seed) simulation job (see harness.run_seed)."""
    from .harness import run_seed

    name, seed, config = payload
    return run_seed(name, seed, config)


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Terminate a pool's workers and abandon it without waiting.

    ``ProcessPoolExecutor`` has no public kill switch, so the watchdog
    reaches for the worker ``Process`` handles directly; the management
    thread notices the deaths and winds itself down.
    """
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.terminate()
        except Exception:
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass


class _JobState:
    """Mutable per-payload bookkeeping for one :meth:`map` call."""

    __slots__ = (
        "result", "wall_s", "source", "profile", "status", "error",
        "artifacts", "worker_pid",
    )

    def __init__(self) -> None:
        self.result: Optional[Dict] = None
        self.wall_s = 0.0
        #: "hit" (cache) or "miss" (executed).
        self.source = "miss"
        self.profile: Optional[str] = None
        #: "pending" -> "ok" | "failed" | "timeout" | "skipped".
        self.status = "pending"
        self.error: Optional[Dict] = None
        #: Worker-process artifact-counter movement (from the envelope).
        self.artifacts: Optional[Dict] = None
        self.worker_pid: Optional[int] = None


class ExperimentEngine:
    """Schedules experiment jobs over processes, with a result cache in
    the blob store and per-job fault isolation."""

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache_dir: Optional[pathlib.Path] = None,
        use_cache: Optional[bool] = None,
        progress: Optional[Callable[[int, int, str], None]] = None,
        run_id: Optional[str] = None,
        job_timeout: Optional[float] = None,
    ) -> None:
        check_settings()
        if jobs is None:
            jobs = setting("REPRO_JOBS") or os.cpu_count() or 1
        self.jobs = max(1, jobs)
        self.cache_dir = cache_root(cache_dir)
        self.use_cache = (
            use_cache if use_cache is not None else setting("REPRO_CACHE")
        )
        self.progress = progress
        #: Run label recorded in the manifest (the CLI stamps one per run).
        self.run_id = run_id
        self.job_timeout = (
            job_timeout if job_timeout is not None
            else setting("REPRO_JOB_TIMEOUT")
        )
        #: When set (the CLI does), a partial manifest is written here if
        #: a run is interrupted mid-:meth:`map`.
        self.manifest_path: Optional[pathlib.Path] = None
        #: Job results: one digest-verified ``<key>.json`` blob each.
        self._results = FileStore(self.cache_dir)
        self.reset_stats()

    @staticmethod
    def new_run_id() -> str:
        """Fresh run label, e.g. ``20260806-104512-3fa9c1``."""
        return time.strftime("%Y%m%d-%H%M%S") + "-" + secrets.token_hex(3)

    # -- observability -----------------------------------------------------

    def reset_stats(self) -> None:
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_quarantined = 0
        #: One record per executed/looked-up job, in submission order.
        self.records: List[Dict] = []
        #: Records of the most recent :meth:`map` call, payload-aligned.
        self._last_records: List[Dict] = []
        #: (label, text) per profiled job (``REPRO_PROFILE=1`` runs only).
        self.profiles: List[tuple] = []

    @property
    def total_wall_s(self) -> float:
        return sum(r["wall_s"] for r in self.records)

    @property
    def total_simulated_cycles(self) -> int:
        return sum(r["simulated_cycles"] for r in self.records)

    @property
    def total_committed_instructions(self) -> int:
        return sum(r["committed_instructions"] for r in self.records)

    @property
    def total_sim_kips(self) -> float:
        """Simulated-KIPS over every recorded job: committed (simulated)
        instructions per wall-clock millisecond of job time."""
        wall = self.total_wall_s
        if wall <= 0:
            return 0.0
        return self.total_committed_instructions / wall / 1000.0

    def artifact_totals(self) -> Dict[str, int]:
        """Sum of per-job artifact counters (see :mod:`.artifacts`).

        Only jobs that actually executed this run contribute (cache
        hits record ``artifacts: null``), so the totals describe the
        artifact work *this* run performed.
        """
        totals: Dict[str, int] = {}
        for record in self.records:
            for name, value in (record.get("artifacts") or {}).items():
                totals[name] = totals.get(name, 0) + value
        return totals

    @property
    def failures(self) -> List[Dict]:
        """Records that ended in ``failed``/``timeout`` (not skipped)."""
        return [
            r for r in self.records if r["status"] in ("failed", "timeout")
        ]

    def status_counts(self) -> Dict[str, int]:
        counts = {"ok": 0, "failed": 0, "timeout": 0, "skipped": 0}
        for record in self.records:
            counts[record.get("status", "ok")] = (
                counts.get(record.get("status", "ok"), 0) + 1
            )
        return counts

    def manifest(self, config: Any = None) -> Dict:
        """Machine-readable run record (see EXPERIMENTS.md for schema)."""
        counts = self.status_counts()
        artifact_totals = self.artifact_totals()
        out = {
            "schema": MANIFEST_SCHEMA,
            "written_unix": time.time(),
            "engine": {
                "jobs": self.jobs,
                "cache_dir": str(self.cache_dir),
                "cache_enabled": self.use_cache,
                "code_version": code_version(),
                "run_id": self.run_id,
                "job_timeout_s": self.job_timeout,
            },
            "totals": {
                "jobs": len(self.records),
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "quarantined": self.cache_quarantined,
                "artifacts": artifact_totals,
                # Always 0 (every submission is one point); kept for
                # readers of the v5 layout, such as bench/child.py.
                "batches": 0,
                "batch_points": 0,
                "ok": counts["ok"],
                "failed": counts["failed"],
                "timeout": counts["timeout"],
                "skipped": counts["skipped"],
                "wall_s": self.total_wall_s,
                "simulated_cycles": self.total_simulated_cycles,
                "committed_instructions":
                    self.total_committed_instructions,
                "sim_kips": self.total_sim_kips,
            },
            "jobs": self.records,
        }
        if config is not None:
            out["config"] = fingerprint(config)
        return out

    def write_manifest(self, path: pathlib.Path, config: Any = None) -> None:
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.manifest(config), indent=2) + "\n")
        if self.profiles:
            self.write_profiles(path.with_suffix(".profile.txt"))

    def write_profiles(self, path: pathlib.Path) -> None:
        """Write the per-job cProfile summaries gathered under
        ``REPRO_PROFILE=1`` (one top-20-cumulative section per job)."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        sections = [
            f"==== {label} ====\n{text.strip()}\n"
            for label, text in self.profiles
        ]
        path.write_text("\n".join(sections))

    # -- cache -------------------------------------------------------------

    def _cache_key(self, worker: Callable, payload: Any) -> str:
        blob = json.dumps(
            {
                "schema": CACHE_SCHEMA,
                "worker": f"{worker.__module__}.{worker.__qualname__}",
                "payload": fingerprint(payload),
                "code": code_version(),
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def _cache_load(self, key: Optional[str]) -> Optional[Dict]:
        """Verified cache read: a missing blob is a plain miss; a blob
        that fails its digest (torn or edited), is not valid JSON,
        carries the wrong schema, or lacks a dict ``result`` is
        quarantined and counts as a miss."""
        if key is None or not self.use_cache:
            return None
        name = f"{key}.json"
        failures = self._results.counters["verify_failures"]
        blob = self._results.get(name)
        if blob is None:
            if self._results.counters["verify_failures"] > failures:
                self.cache_quarantined += 1
            return None
        try:
            entry = json.loads(blob)
        except ValueError:
            entry = None
        if (
            not isinstance(entry, dict)
            or entry.get("schema") != CACHE_SCHEMA
            or not isinstance(entry.get("result"), dict)
        ):
            if self._results.quarantine(name):
                self.cache_quarantined += 1
            return None
        return entry

    def _cache_store(
        self, key: Optional[str], label: str, result: Dict, wall_s: float
    ) -> None:
        if key is None or not self.use_cache:
            return
        payload = json.dumps(
            {
                "schema": CACHE_SCHEMA,
                "label": label,
                "wall_s": wall_s,
                "result": result,
            }
        ).encode()
        self._results.put(f"{key}.json", payload)

    # -- execution ---------------------------------------------------------

    def map(
        self,
        worker: Callable[[Any], Dict],
        payloads: Sequence[Any],
        labels: Optional[Sequence[str]] = None,
        groups: Optional[Sequence[Any]] = None,
    ) -> List[Optional[Dict]]:
        """Run ``worker`` over every payload; results in payload order.

        ``groups``, when given, is a payload-aligned sequence of
        hashable artifact-group ids: jobs in one group share
        content-addressed artifacts (traces/profiles), so the first
        pending job of each group runs as the *leader* -- it captures
        and persists the shared artifacts -- and the rest of the group
        is held back until the leader finishes, then fanned out, one
        submission per follower, to replay from the warm store.  Only
        the parallel path reorders; ``jobs=1`` already runs in payload
        order.  Result order is unaffected.

        ``worker`` must be a top-level function returning a
        JSON-serialisable dict (so results can cross process boundaries
        and live in the cache).  A ``"simulated_cycles"`` key, when
        present, feeds the manifest's cycle counter.

        No failed job is retried.  A job whose worker raises, whose
        process dies, or which exceeds the per-job timeout yields
        ``None`` in the returned list instead of aborting the whole
        call; the corresponding entry of :attr:`records` carries the
        status and the failure detail.  Every successful job is put in
        the result cache *as it completes*, so an interrupt or crash
        loses at most the jobs in flight, and re-running the same call
        runs only the jobs that did not finish.

        On ``KeyboardInterrupt``: pending work is cancelled, the pool
        is shut down without waiting, completed results are already on
        disk, unfinished jobs are recorded as ``skipped``, a partial
        manifest is written to :attr:`manifest_path` (when set), and
        the interrupt is re-raised.
        """
        total = len(payloads)
        if labels is None:
            labels = [f"{worker.__name__}[{i}]" for i in range(total)]
        keys = [self._cache_key(worker, p) for p in payloads]
        states = [_JobState() for _ in range(total)]
        progress_done = [0]

        def tick(i: int) -> None:
            progress_done[0] += 1
            if self.progress:
                self.progress(progress_done[0], total, labels[i])

        pending: List[int] = []
        for i in range(total):
            state = states[i]
            cached = self._cache_load(keys[i])
            if cached is not None:
                state.result = cached["result"]
                state.wall_s = cached.get("wall_s", 0.0)
                state.source = "hit"
                state.status = "ok"
                tick(i)
            else:
                pending.append(i)

        try:
            # Workers resolve the artifact store (traces/profiles)
            # through REPRO_CACHE_DIR; export this engine's root for the
            # duration of the call so a test engine on a tmp cache_dir
            # keeps its artifacts there too (pool workers inherit the
            # environment at spawn, the serial path reads it directly).
            with restored("REPRO_CACHE_DIR"):
                os.environ["REPRO_CACHE_DIR"] = str(self.cache_dir)
                if pending and self.jobs > 1:
                    self._run_parallel(
                        worker, payloads, labels, keys, states, pending,
                        tick, groups=groups,
                    )
                elif pending:
                    self._run_serial(
                        worker, payloads, labels, keys, states, pending,
                        tick,
                    )
        except KeyboardInterrupt:
            self._finalise(labels, keys, states)
            if self.manifest_path is not None:
                try:
                    self.write_manifest(self.manifest_path)
                except OSError:
                    pass
            raise

        self._finalise(labels, keys, states)
        return [
            state.result if state.status == "ok" else None
            for state in states
        ]

    # -- completion plumbing (shared by serial + supervised paths) ---------

    def _absorb(
        self,
        i: int,
        envelope: Dict,
        labels: Sequence[str],
        keys: Sequence[str],
        states: Sequence[_JobState],
        tick: Callable[[int], None],
    ) -> None:
        """Fold one worker envelope into the job state; persist it."""
        state = states[i]
        state.wall_s = envelope.get("wall_s", 0.0)
        state.artifacts = envelope.get("artifacts")
        state.worker_pid = envelope.get("worker_pid")
        if envelope.get("status") == "ok":
            state.result = envelope.get("result")
            state.profile = envelope.get("profile")
            state.status = "ok"
            self._cache_store(keys[i], labels[i], state.result, state.wall_s)
        else:
            error = envelope.get("error") or {
                "type": "InvalidEnvelope",
                "message": repr(envelope),
                "traceback": "",
            }
            self._fail(i, "failed", error, states)
        tick(i)

    def _fail(
        self,
        i: int,
        status: str,
        error: Dict,
        states: Sequence[_JobState],
    ) -> None:
        """Record a job's final failure (never cached)."""
        state = states[i]
        state.status = status
        state.error = error

    def _run_serial(
        self, worker, payloads, labels, keys, states, pending, tick
    ) -> None:
        """The ``jobs=1`` path: in-process, no watchdog (a timeout
        cannot interrupt the main process), deterministic failures
        isolated exactly like the pool path."""
        for i in pending:
            envelope = _run_timed(worker, payloads[i])
            self._absorb(i, envelope, labels, keys, states, tick)

    def _run_parallel(
        self, worker, payloads, labels, keys, states, pending, tick,
        groups=None,
    ) -> None:
        """The supervised ``ProcessPoolExecutor`` path.

        The queue holds payload indices; every submission is one job,
        and at most ``min(jobs, len(pending))`` futures are outstanding,
        so a job starts about when it is submitted and its deadline
        times the run, not the wait.  A settled future is absorbed; a
        future whose result cannot be read (e.g. the envelope failed to
        unpickle, or the pool died under it) ends its job ``failed``,
        and an overrun ends its job ``timeout``.  Nothing is retried.

        The pool is spawned lazily, with :func:`_pool_worker_init`,
        and killed when it breaks (every future on it fails with
        ``BrokenProcessPool``: the pool cannot say which worker died),
        when a submit raises (that job is offered again) or when the
        watchdog fires.  The watchdog can only kill whole pools: the
        overrunning job ends ``timeout``, futures that finished
        meanwhile are absorbed, and still-running innocents go back on
        the queue -- the engine killed them, they did not fail, and each
        such requeue follows another job's final ``timeout``, so it
        cannot loop.  The next submit respawns the pool.

        Artifact groups (see :meth:`map`): the first pending member of
        each group enters the queue as leader; the rest wait in
        ``held`` and are released -- one queue entry per follower --
        the moment the leader reaches a terminal status (ok *or*
        failed -- followers of a failed leader still run, they just
        find a cold artifact store).
        """
        max_workers = min(self.jobs, len(pending))
        timeout = self.job_timeout
        poll_s = max(0.01, min(0.1, timeout / 5.0)) if timeout else 0.1
        worker_env = {"REPRO_CACHE_DIR": str(self.cache_dir)}
        queue: List[int] = []
        held: Dict[Any, List[int]] = {}
        leaders: Dict[Any, int] = {}
        for i in pending:
            group = groups[i] if groups is not None else None
            if group is None:
                queue.append(i)
            elif group not in leaders:
                leaders[group] = i
                queue.append(i)
            else:
                held.setdefault(group, []).append(i)
        #: future -> (index, deadline)
        outstanding: Dict[Any, tuple] = {}
        pool: Optional[ProcessPoolExecutor] = None

        def settle(future) -> bool:
            """Fold one finished future into its job; True when it
            found the pool dead."""
            i, _ = outstanding.pop(future)
            try:
                envelope = future.result()
            except Exception as exc:
                self._fail(i, "failed", _error_dict(exc), states)
                tick(i)
                return isinstance(exc, (BrokenProcessPool, CancelledError))
            self._absorb(i, envelope, labels, keys, states, tick)
            return False

        try:
            while queue or outstanding or held:
                for group in list(held):
                    if states[leaders[group]].status != "pending":
                        queue.extend(held.pop(group))
                while queue and len(outstanding) < max_workers:
                    if pool is None:
                        pool = ProcessPoolExecutor(
                            max_workers=max_workers,
                            initializer=_pool_worker_init,
                            initargs=(worker_env,),
                        )
                    try:
                        future = pool.submit(
                            _run_timed, worker, payloads[queue[0]]
                        )
                    except Exception:
                        # The pool broke between loops: kill it so its
                        # futures settle as broken-pool failures, and
                        # offer this job again on a fresh pool.
                        _kill_pool(pool)
                        pool = None
                        break
                    deadline = time.monotonic() + timeout if timeout else None
                    outstanding[future] = (queue.pop(0), deadline)

                if not outstanding:
                    continue

                done, _ = wait(
                    outstanding, timeout=poll_s, return_when=FIRST_COMPLETED
                )
                broken = False
                for future in done:
                    broken = settle(future) or broken
                if broken:
                    # Every other future on the dead pool fails as
                    # well; settle them all, then respawn lazily.
                    for future in list(outstanding):
                        settle(future)
                    if pool is not None:
                        _kill_pool(pool)
                        pool = None
                    continue
                if not timeout:
                    continue
                now = time.monotonic()
                expired = {
                    future
                    for future, (_, deadline) in outstanding.items()
                    if now >= deadline and not future.done()
                }
                if not expired:
                    continue
                for future in list(outstanding):
                    if future in expired:
                        i, _ = outstanding.pop(future)
                        exc = TimeoutError(
                            f"job {labels[i]!r} exceeded {timeout:g}s"
                        )
                        self._fail(i, "timeout", _error_dict(exc), states)
                        tick(i)
                    elif future.done():
                        settle(future)
                    else:
                        queue.append(outstanding.pop(future)[0])
                if pool is not None:
                    _kill_pool(pool)
                    pool = None
        except KeyboardInterrupt:
            for future in outstanding:
                future.cancel()
            if pool is not None:
                _kill_pool(pool)
            raise
        if pool is not None:
            pool.shutdown(wait=True)

    def _finalise(
        self,
        labels: Sequence[str],
        keys: Sequence[str],
        states: Sequence[_JobState],
    ) -> None:
        """Build the per-job records (payload order) and update counters;
        jobs still pending (interrupted run) become ``skipped``."""
        self._last_records = []
        for i, state in enumerate(states):
            if state.status == "pending":
                state.status = "skipped"
            if state.source == "hit":
                self.cache_hits += 1
            elif state.status != "skipped":
                self.cache_misses += 1
            result = state.result
            if isinstance(result, dict):
                cycles = result.get("simulated_cycles", 0)
                committed = result.get("committed_instructions", 0)
            else:
                cycles = 0
                committed = 0
            wall = state.wall_s
            record = {
                "label": labels[i],
                "key": keys[i],
                # The envelope's counter movement; ``None`` for a cache
                # hit, which did no artifact work in *this* run.
                "artifacts": state.artifacts,
                "cache": (
                    state.source if state.status != "skipped"
                    else "skipped"
                ),
                "status": state.status,
                "error": state.error,
                "worker_pid": state.worker_pid,
                "wall_s": wall,
                "simulated_cycles": cycles,
                "committed_instructions": committed,
                # Simulated instructions per wall-clock millisecond;
                # for cache hits this reflects the recorded wall time
                # of the original execution.
                "sim_kips": (
                    committed / wall / 1000.0 if wall > 0 else 0.0
                ),
            }
            self.records.append(record)
            self._last_records.append(record)
            if state.profile is not None:
                self.profiles.append((labels[i], state.profile))

    # -- benchmark-level API ----------------------------------------------

    def run_benchmarks(self, names: Sequence[str], config) -> List:
        """Fan (benchmark x REF seed) jobs out; reassemble per benchmark.

        Byte-identical to the serial path: job order, and therefore
        every combine step, is fixed by (name, seed) submission order.
        A benchmark with any failed seed job comes back as a
        failure-status :class:`~.harness.BenchmarkOutcome` (carrying
        the per-seed error summary) instead of aborting the sweep.
        """
        from .harness import BenchmarkOutcome, combine_seed_results

        payloads = [
            (name, seed, config)
            for name in names
            for seed in config.ref_seeds
        ]
        labels = [f"{name}@seed{seed}" for name, seed, _ in payloads]
        # Seeds of one benchmark share the TRAIN profile artifact: the
        # first seed job (leader) computes and persists it, the rest
        # load it from the store.
        results = self.map(
            _seed_worker,
            payloads,
            labels=labels,
            groups=[name for name, _, _ in payloads],
        )
        records = self._last_records
        per_seed = len(config.ref_seeds)
        outcomes = []
        for i, name in enumerate(names):
            lo, hi = i * per_seed, (i + 1) * per_seed
            chunk = results[lo:hi]
            if all(r is not None for r in chunk):
                outcomes.append(combine_seed_results(name, config, chunk))
                continue
            bad = [r for r in records[lo:hi] if r["status"] != "ok"]
            statuses = {r["status"] for r in bad}
            status = (
                "timeout" if "timeout" in statuses
                else "failed" if "failed" in statuses
                else "skipped"
            )
            detail = "; ".join(
                "{}: {}".format(
                    r["label"],
                    (r.get("error") or {}).get("type", r["status"]),
                )
                for r in bad
            )
            outcomes.append(
                BenchmarkOutcome.failure(
                    name, config, status=status, error=detail
                )
            )
        return outcomes

    def run_benchmark(self, name: str, config):
        return self.run_benchmarks([name], config)[0]

    def run_suite(self, suite: str, config) -> List:
        from ..workloads import suite_benchmarks

        return self.run_benchmarks(suite_benchmarks(suite), config)


_DEFAULT_ENGINE: Optional[ExperimentEngine] = None


def default_engine() -> ExperimentEngine:
    """Process-wide engine (``REPRO_JOBS``/``REPRO_CACHE`` honoured)."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = ExperimentEngine()
    return _DEFAULT_ENGINE


def get_engine(engine: Optional[ExperimentEngine] = None) -> ExperimentEngine:
    return engine if engine is not None else default_engine()

"""Pluggable execution backends for the experiment engine.

The engine's generic driver (:meth:`.engine.ExperimentEngine.map`)
schedules jobs -- cache lookups, artifact-group leadership, retries
with backoff, journalling -- but delegates the *mechanics* of running
a submission to a :class:`Backend`:

* :class:`LocalPoolBackend` -- the supervised ``ProcessPoolExecutor``:
  one job per submission, broken-pool detection and respawn, the
  per-job deadline watchdog that kills the pool and requeues innocent
  in-flight jobs at no attempt cost.
* :class:`QueueBackend` -- a multi-worker work queue over a shared
  directory (the same substrate ``REPRO_CACHE_DIR`` re-roots), built
  for partial failure:

  - **atomic claim**: a job is a file in ``pending/``; a worker owns
    it by ``os.replace``-ing it into ``claimed/`` -- exactly one
    claimer wins, on any POSIX filesystem.
  - **leases + heartbeats**: every claim writes a lease with a TTL
    (``REPRO_LEASE_TTL``); a renewal thread re-arms it at TTL/4 while
    the job runs, and each worker heartbeats a health record in
    ``workers/``.
  - **failover**: a claimed job whose lease expired (dead or
    partitioned host) is *reclaimed* -- atomically stolen back,
    attempt incremented, re-run by a live worker, up to the engine's
    retry budget.
  - **idempotent completion**: results are published with
    ``os.link`` into ``done/`` after an fsync -- the first durable
    result wins and duplicate completions are discarded, so a
    reclaimed job finishing twice can never double-count.
  - **circuit breaker**: when the queue is unreachable (worker
    respawn budget exhausted with no survivors, or repeated I/O
    errors on the shared directory) the backend raises
    :class:`BackendUnavailable` and the engine degrades the rest of
    the run to :class:`LocalPoolBackend`.

Queue directory layout (one run under ``<cache>/queue/<token>/``)::

    pending/<job>.job    picklable job record, awaiting a claimer
    claimed/<job>.job    owned by a worker (lease in leases/)
    leases/<job>.json    {"worker", "deadline_unix"}
    done/<job>.json      completion envelope (first link wins)
    workers/<id>.json    per-worker health heartbeat records
    tmp/                 staging for every atomic rename/link
    stop                 graceful-shutdown flag the parent writes

Because every queue worker roots its :class:`~.artifacts.
ArtifactStore` at the shared cache directory, the content-addressed
artifacts -- traces *and* the persisted replay-prep slices
(``preps/``) -- warm-start across hosts: the first worker anywhere in
the fleet to replay a ``(trace, predictor, config class)`` point pays
the prep build, and every other host attaches the digest-verified
slice from the shared store (the ``prep_builds``/``prep_hits``
counters in the manifest's artifact totals prove the single build).

Distributed fault kinds (:mod:`.faults`): ``lease_expire`` (worker
silently drops a claimed job), ``worker_vanish`` (``os._exit`` after
claim), ``stale_heartbeat`` (health record stops renewing),
``dup_complete`` (completion published twice); ``torn_put`` lives in
:mod:`.store`.

Environment knobs: ``REPRO_BACKEND`` (``local``/``queue``),
``REPRO_QUEUE_WORKERS`` (queue worker count, default = engine jobs),
``REPRO_LEASE_TTL`` (seconds, default 30), ``REPRO_QUEUE_POLL``
(poll interval, default 0.05), ``REPRO_QUEUE_GRACE_S`` (seconds the
parent waits for a first live worker, default 5).

Known limitation: the queue path does not enforce the engine's
per-job wall-clock timeout -- lease expiry is the liveness mechanism,
and a *hung* worker keeps renewing its lease.  ``REPRO_BACKEND=local``
retains the watchdog semantics.
"""

from __future__ import annotations

import abc
import json
import multiprocessing
import os
import pathlib
import pickle
import secrets
import shutil
import tempfile
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from . import faults

#: Recognised ``REPRO_BACKEND`` values.
BACKEND_NAMES = ("local", "queue")

#: Consecutive shared-directory I/O errors before the queue trips.
IO_ERROR_TRIP = 5


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name, "").strip()
    try:
        return float(raw) if raw else default
    except ValueError:
        return default


def env_backend() -> str:
    """``REPRO_BACKEND`` with validation (default ``local``)."""
    raw = os.environ.get("REPRO_BACKEND", "").strip().lower()
    if not raw:
        return "local"
    if raw not in BACKEND_NAMES:
        raise ValueError(
            f"REPRO_BACKEND={raw!r}; expected one of {BACKEND_NAMES}"
        )
    return raw


def lease_ttl() -> float:
    return max(0.05, _env_float("REPRO_LEASE_TTL", 30.0))


def queue_poll() -> float:
    return max(0.005, _env_float("REPRO_QUEUE_POLL", 0.05))


def queue_grace() -> float:
    return max(0.0, _env_float("REPRO_QUEUE_GRACE_S", 5.0))


def env_queue_workers(default: int) -> int:
    """Queue worker count; an explicit 0 means "spawn none, external
    ``repro worker`` processes will join" (the run degrades to the
    local pool if nobody heartbeats within the grace window)."""
    raw = os.environ.get("REPRO_QUEUE_WORKERS", "").strip()
    try:
        return max(0, int(raw)) if raw else max(1, default)
    except ValueError:
        return max(1, default)


class BackendUnavailable(RuntimeError):
    """The backend cannot make progress; the engine should degrade."""


@dataclass
class BackendEvent:
    """One settled submission, reported by :meth:`Backend.poll`.

    ``kind`` is ``"done"`` (envelope ready), ``"error"`` (deterministic
    failure outside the worker function, e.g. an unpicklable result),
    ``"infra"`` (infrastructure fault -- retried with the attempt
    charged), or ``"requeue"`` (innocent victim of a pool kill --
    retried at no attempt cost).
    """

    kind: str
    handle: Any
    envelope: Optional[Dict] = None
    fault: str = ""
    error: Optional[BaseException] = None
    #: Authoritative attempt number, when the backend retried
    #: internally (queue reclaims); ``None`` = submit-time attempt.
    attempt: Optional[int] = None


class Backend(abc.ABC):
    """Execution mechanics behind the engine's generic driver.

    The engine submits one job at a time while
    :meth:`has_capacity` allows, then folds the :class:`BackendEvent`
    stream from :meth:`poll` back into job state.  Implementations own
    their worker lifecycle entirely (spawn, death detection, respawn,
    failover) and surface it through :meth:`health`.
    """

    name = "abstract"

    @abc.abstractmethod
    def submit(
        self,
        attempt: int,
        worker,
        payload: Any,
        label: str,
    ) -> Optional[Any]:
        """Dispatch one job; an opaque handle, or ``None`` when the
        backend cannot accept it right now (the engine re-offers it on
        a later pass)."""

    @abc.abstractmethod
    def poll(self) -> List[BackendEvent]:
        """Settled submissions since the last call (may block briefly).

        Raises :class:`BackendUnavailable` when the backend can no
        longer make progress at all.
        """

    @abc.abstractmethod
    def has_capacity(self) -> bool:
        """Whether :meth:`submit` would currently accept work."""

    @abc.abstractmethod
    def cancel(self) -> None:
        """Abandon outstanding work immediately (interrupt path)."""

    @abc.abstractmethod
    def close(self) -> None:
        """Graceful shutdown after the last event was consumed."""

    def health(self) -> Dict:
        """``{"name", "counters": {...}, "workers": {...}}``."""
        return {"name": self.name, "counters": {}, "workers": {}}


# -- local pool --------------------------------------------------------------


class LocalPoolBackend(Backend):
    """Supervised ``ProcessPoolExecutor`` execution (the default).

    One job per future: lazy pool (re)spawn, broken-pool drain (every
    future on a dead pool settles as a charged ``broken-pool`` infra
    fault), and the per-job deadline watchdog -- an expired submission
    is charged a ``timeout``, completed-in-the-meantime futures fold
    normally, and still-running innocents requeue uncharged while the
    pool is killed and respawned.
    """

    name = "local"

    def __init__(
        self,
        max_workers: int,
        job_timeout: Optional[float],
        worker_env: Dict[str, str],
    ) -> None:
        self.max_workers = max(1, max_workers)
        self.timeout = job_timeout
        self.worker_env = dict(worker_env)
        self.poll_s = (
            max(0.01, min(0.1, job_timeout / 5.0))
            if job_timeout
            else 0.1
        )
        self._pool = None
        #: future -> (deadline, label, attempt)
        self._meta: Dict[Any, tuple] = {}
        self.pool_respawns = 0

    def has_capacity(self) -> bool:
        return len(self._meta) < self.max_workers

    def submit(self, attempt, worker, payload, label):
        from . import engine as _engine

        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=_engine._pool_worker_init,
                initargs=(self.worker_env,),
            )
        try:
            future = self._pool.submit(
                _engine._run_timed, worker, payload, label, attempt
            )
        except Exception:
            # The pool broke between loops; kill it so outstanding
            # futures settle (as broken-pool infra faults on the next
            # poll) and let the engine re-offer this entry uncharged.
            self._respawn()
            return None
        deadline = (
            time.monotonic() + self.timeout if self.timeout else None
        )
        self._meta[future] = (deadline, label, attempt)
        return future

    def _respawn(self) -> None:
        from . import engine as _engine

        if self._pool is not None:
            _engine._kill_pool(self._pool)
            self._pool = None
            self.pool_respawns += 1

    def _resolve(self, future, meta) -> BackendEvent:
        try:
            envelope = future.result()
        except (BrokenProcessPool, CancelledError) as exc:
            return BackendEvent(
                "infra", future, fault="broken-pool", error=exc
            )
        except Exception as exc:
            # e.g. the envelope failed to unpickle: deterministic.
            return BackendEvent("error", future, error=exc)
        return BackendEvent("done", future, envelope=envelope)

    def poll(self) -> List[BackendEvent]:
        if not self._meta:
            return []
        done, _ = wait(
            set(self._meta),
            timeout=self.poll_s,
            return_when=FIRST_COMPLETED,
        )
        events: List[BackendEvent] = []
        broken = False
        for future in done:
            meta = self._meta.pop(future)
            event = self._resolve(future, meta)
            broken = broken or event.fault == "broken-pool"
            events.append(event)
        if broken:
            # Every other future on the dead pool resolves
            # exceptionally as well; settle them all, then respawn.
            for future in list(self._meta):
                events.append(
                    self._resolve(future, self._meta.pop(future))
                )
            self._respawn()
            return events
        if self.timeout:
            now = time.monotonic()
            expired = {
                future
                for future, (deadline, _, _) in self._meta.items()
                if deadline is not None
                and now >= deadline
                and not future.done()
            }
            if expired:
                # The watchdog can only kill whole pools: expired
                # futures are charged a timeout, completed-in-the-
                # meantime ones fold normally, innocents requeue
                # uncharged.
                for future in list(self._meta):
                    deadline, label, attempt = self._meta.pop(future)
                    if future in expired:
                        exc = TimeoutError(
                            f"job {label!r} exceeded {self.timeout:g}s "
                            f"(attempt {attempt})"
                        )
                        events.append(
                            BackendEvent(
                                "infra",
                                future,
                                fault="timeout",
                                error=exc,
                            )
                        )
                    elif future.done():
                        events.append(self._resolve(future, None))
                    else:
                        events.append(BackendEvent("requeue", future))
                self._respawn()
        return events

    def cancel(self) -> None:
        from . import engine as _engine

        for future in self._meta:
            future.cancel()
        if self._pool is not None:
            _engine._kill_pool(self._pool)
            self._pool = None
        self._meta.clear()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def health(self) -> Dict:
        return {
            "name": self.name,
            "counters": {"pool_respawns": self.pool_respawns},
            "workers": {},
        }


# -- shared-directory queue --------------------------------------------------


class QueuePaths:
    """Directory layout of one queue run (see the module docstring)."""

    def __init__(self, run_dir: pathlib.Path) -> None:
        self.run_dir = pathlib.Path(run_dir)
        self.pending = self.run_dir / "pending"
        self.claimed = self.run_dir / "claimed"
        self.leases = self.run_dir / "leases"
        self.done = self.run_dir / "done"
        self.workers = self.run_dir / "workers"
        self.tmp = self.run_dir / "tmp"
        self.stop = self.run_dir / "stop"
        self.meta = self.run_dir / "meta.json"

    def create(self) -> None:
        for sub in (
            self.pending, self.claimed, self.leases,
            self.done, self.workers, self.tmp,
        ):
            sub.mkdir(parents=True, exist_ok=True)


def _atomic_json(paths: QueuePaths, path: pathlib.Path, obj: Dict) -> None:
    """Durable JSON write via the run's tmp/ staging directory."""
    fd, tmp = tempfile.mkstemp(dir=paths.tmp)
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(obj, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _read_json(path: pathlib.Path) -> Optional[Dict]:
    try:
        obj = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return obj if isinstance(obj, dict) else None


def _write_job(paths: QueuePaths, path: pathlib.Path, record: Dict) -> None:
    """Durable pickle write of one job record."""
    blob = pickle.dumps(record)
    fd, tmp = tempfile.mkstemp(dir=paths.tmp)
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


def _read_job(path: pathlib.Path) -> Optional[Dict]:
    try:
        record = pickle.loads(path.read_bytes())
    except Exception:
        return None
    return record if isinstance(record, dict) else None


def _publish(paths: QueuePaths, job_id: str, envelope: Dict,
             health: Dict) -> bool:
    """Idempotent completion: fsync'd temp file hard-linked into
    ``done/`` -- the link either creates the durable name (first
    result wins) or raises ``FileExistsError`` (duplicate discarded).
    """
    blob = (json.dumps(envelope) + "\n").encode()
    fd, tmp = tempfile.mkstemp(dir=paths.tmp)
    published = False
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        try:
            os.link(tmp, paths.done / f"{job_id}.json")
            published = True
        except FileExistsError:
            health["dup_discards"] = health.get("dup_discards", 0) + 1
    finally:
        try:
            os.unlink(tmp)
        except OSError:
            pass
    return published


def _release(paths: QueuePaths, job_id: str) -> None:
    """Drop a finished job's claim + lease (after its done/ link)."""
    for victim in (
        paths.claimed / f"{job_id}.job",
        paths.leases / f"{job_id}.json",
    ):
        try:
            victim.unlink()
        except OSError:
            pass


def _write_lease(paths: QueuePaths, job_id: str, worker_id: str,
                 ttl: float) -> None:
    _atomic_json(
        paths,
        paths.leases / f"{job_id}.json",
        {"worker": worker_id, "deadline_unix": time.time() + ttl},
    )


def _lease_deadline(paths: QueuePaths, job_id: str,
                    claimed: pathlib.Path, ttl: float) -> float:
    """When the claim on ``job_id`` expires.  A missing/torn lease
    falls back to the claimed file's mtime + TTL, so a worker that
    died between claim and lease-write is still reclaimable."""
    lease = _read_json(paths.leases / f"{job_id}.json")
    if lease is not None and isinstance(
        lease.get("deadline_unix"), (int, float)
    ):
        return float(lease["deadline_unix"])
    try:
        return claimed.stat().st_mtime + ttl
    except OSError:
        return 0.0


# -- queue worker (runs in its own process) ----------------------------------


def _exhausted_envelope(record: Dict) -> Dict:
    return {
        "status": "failed",
        "wall_s": 0.0,
        "error": {
            "type": "LeaseRetriesExhausted",
            "message": (
                f"job {record.get('label')!r} lost its lease "
                f"{record.get('attempt')} times; retry budget "
                f"({record.get('max_attempts')}) exhausted"
            ),
            "traceback": "",
        },
        "artifacts": None,
        "worker_pid": os.getpid(),
        "attempt": record.get("attempt", 0),
    }


def _claim_pending(paths: QueuePaths, worker_id: str,
                   ttl: float, health: Dict) -> Optional[Dict]:
    """Try to own the oldest pending job via atomic rename."""
    try:
        names = sorted(
            p.name for p in paths.pending.iterdir()
            if p.name.endswith(".job")
        )
    except OSError:
        return None
    for name in names:
        dst = paths.claimed / name
        try:
            os.replace(paths.pending / name, dst)
        except OSError:
            continue  # another worker won the claim
        job_id = name[: -len(".job")]
        _write_lease(paths, job_id, worker_id, ttl)
        health["leases_granted"] = health.get("leases_granted", 0) + 1
        record = _read_job(dst)
        if record is None:
            # Poison job file: publish a failure so the parent is
            # never left waiting on an unrunnable job.
            _publish(
                paths, job_id,
                {
                    "status": "failed",
                    "wall_s": 0.0,
                    "error": {
                        "type": "UnreadableJob",
                        "message": f"queue job {job_id} failed to "
                        "unpickle",
                        "traceback": "",
                    },
                    "artifacts": None,
                    "worker_pid": os.getpid(),
                },
                health,
            )
            _release(paths, job_id)
            continue
        return record
    return None


def _reclaim_expired(paths: QueuePaths, worker_id: str,
                     ttl: float, health: Dict) -> Optional[Dict]:
    """Steal one expired-lease job from a dead/partitioned owner.

    The steal is an atomic ``os.replace`` into tmp/ (two reclaimers
    cannot both win); the attempt is charged before the job re-enters
    ``claimed/`` under our lease, and a job whose budget is exhausted
    is settled with a failure envelope instead of looping forever.
    """
    try:
        entries = sorted(
            p for p in paths.claimed.iterdir()
            if p.name.endswith(".job")
        )
    except OSError:
        return None
    now = time.time()
    for claimed in entries:
        job_id = claimed.name[: -len(".job")]
        if (paths.done / f"{job_id}.json").exists():
            # Its owner completed but died before cleanup.
            _release(paths, job_id)
            continue
        if now < _lease_deadline(paths, job_id, claimed, ttl):
            continue
        steal = paths.tmp / f"steal-{job_id}-{secrets.token_hex(3)}"
        try:
            os.replace(claimed, steal)
        except OSError:
            continue  # another reclaimer won
        record = _read_job(steal)
        try:
            os.unlink(steal)
        except OSError:
            pass
        health["leases_reclaimed"] = (
            health.get("leases_reclaimed", 0) + 1
        )
        if record is None:
            _release(paths, job_id)
            continue
        record["attempt"] = record.get("attempt", 0) + 1
        if record["attempt"] > record.get("max_attempts", 2):
            _publish(paths, job_id, _exhausted_envelope(record), health)
            _release(paths, job_id)
            continue
        _write_job(paths, claimed, record)
        _write_lease(paths, job_id, worker_id, ttl)
        return record


def _run_claimed(paths: QueuePaths, record: Dict, worker_id: str,
                 ttl: float, health: Dict) -> None:
    """Run one owned job to durable completion (or inject its doom)."""
    from .engine import _run_timed

    job_id = record["job_id"]
    label = record.get("label", job_id)
    attempt = record.get("attempt", 0)
    if faults.should_vanish_worker(label, attempt):
        os._exit(faults.DIE_EXIT_STATUS)
    if faults.should_expire_lease(label, attempt):
        # Partitioned away: no renewal, no completion.  The claim and
        # its lease are left to expire; a live worker reclaims.
        health["leases_dropped"] = health.get("leases_dropped", 0) + 1
        return
    stop_renew = threading.Event()

    def renew() -> None:
        while not stop_renew.wait(max(0.02, ttl / 4.0)):
            try:
                _write_lease(paths, job_id, worker_id, ttl)
                health["lease_renewals"] = (
                    health.get("lease_renewals", 0) + 1
                )
            except OSError:
                pass

    renewer = threading.Thread(target=renew, daemon=True)
    renewer.start()
    try:
        envelope = _run_timed(
            record["worker"], record["payload"], label, attempt
        )
    finally:
        stop_renew.set()
        renewer.join()
    envelope["attempt"] = attempt
    envelope["queue_worker"] = worker_id
    _publish(paths, job_id, envelope, health)
    if faults.should_dup_complete(label):
        _publish(paths, job_id, envelope, health)
    _release(paths, job_id)
    health["jobs_done"] = health.get("jobs_done", 0) + 1


def queue_worker_main(
    run_dir,
    env: Optional[Dict[str, str]] = None,
    worker_id: Optional[str] = None,
    ttl: Optional[float] = None,
    poll_s: Optional[float] = None,
) -> int:
    """One queue worker: claim, run, complete, until told to stop.

    Runs in a child process of :class:`QueueBackend` or standalone on
    another host via ``repro worker <run-dir>`` -- the directory (on a
    shared filesystem) is the only coordination channel.  TTL/poll
    default from the run's ``meta.json``, then the environment.
    """
    from .engine import _pool_worker_init

    paths = QueuePaths(pathlib.Path(run_dir))
    meta = _read_json(paths.meta) or {}
    if ttl is None:
        ttl = float(meta.get("ttl", 0) or 0) or lease_ttl()
    if poll_s is None:
        poll_s = float(meta.get("poll", 0) or 0) or queue_poll()
    if worker_id is None:
        worker_id = f"w-{os.getpid():d}-{secrets.token_hex(2)}"
    _pool_worker_init(env or {})
    health: Dict = {
        "worker_id": worker_id,
        "pid": os.getpid(),
        "started_unix": time.time(),
        "jobs_done": 0,
    }
    stale = faults.should_stale_heartbeat(worker_id)
    health["stale_injected"] = bool(stale)
    last_beat = 0.0

    def beat(force: bool = False) -> None:
        nonlocal last_beat
        now = time.time()
        if not force:
            if stale and last_beat:
                return  # injected stale heartbeat: never renew
            if now - last_beat < max(0.02, ttl / 4.0):
                return
        health["heartbeat_unix"] = now
        try:
            _atomic_json(
                paths, paths.workers / f"{worker_id}.json", health
            )
        except OSError:
            return
        last_beat = now

    beat(force=True)
    while True:
        if paths.stop.exists():
            health["stopped_unix"] = time.time()
            beat(force=True)
            return 0
        beat()
        record = _claim_pending(paths, worker_id, ttl, health)
        if record is None:
            record = _reclaim_expired(paths, worker_id, ttl, health)
        if record is None:
            time.sleep(poll_s)
            continue
        _run_claimed(paths, record, worker_id, ttl, health)
        beat(force=stale is False)


def _worker_entry(run_dir: str, env: Dict[str, str], worker_id: str,
                  ttl: float, poll_s: float) -> None:
    """``multiprocessing.Process`` target for parent-spawned workers."""
    try:
        queue_worker_main(
            run_dir, env=env, worker_id=worker_id,
            ttl=ttl, poll_s=poll_s,
        )
    except KeyboardInterrupt:
        pass


class QueueBackend(Backend):
    """Lease-based multi-worker work queue over a shared directory.

    The parent side: writes job files into ``pending/``, reaps
    completion envelopes from ``done/``, keeps its spawned worker
    fleet alive (respawning dead processes within a budget), watches
    worker heartbeats for staleness, and trips
    :class:`BackendUnavailable` when the queue cannot make progress
    (no live workers left, or the shared directory keeps erroring).
    External workers started with ``repro worker <run-dir>`` join the
    same fleet; the parent only *requires* its own spawns.

    Every submission is one job, the queue's unit of failover.  Workers
    stay warm across jobs because they share the content-addressed
    store.
    """

    name = "queue"

    def __init__(
        self,
        queue_root: pathlib.Path,
        workers: int,
        retries: int,
        worker_env: Dict[str, str],
        ttl: Optional[float] = None,
        poll_s: Optional[float] = None,
        spawn_workers: bool = True,
    ) -> None:
        self.token = (
            time.strftime("%Y%m%d-%H%M%S") + "-" + secrets.token_hex(3)
        )
        self.paths = QueuePaths(pathlib.Path(queue_root) / self.token)
        self.paths.create()
        self.workers = max(0, workers)
        self.retries = max(0, retries)
        self.worker_env = dict(worker_env)
        self.ttl = ttl if ttl is not None else lease_ttl()
        self.poll_s = poll_s if poll_s is not None else queue_poll()
        self.grace_s = queue_grace()
        _atomic_json(
            self.paths, self.paths.meta,
            {
                "created_unix": time.time(),
                "parent_pid": os.getpid(),
                "ttl": self.ttl,
                "poll": self.poll_s,
            },
        )
        self.counters: Dict[str, int] = {
            "jobs_submitted": 0,
            "completions": 0,
            "worker_deaths": 0,
            "worker_respawns": 0,
            "stale_heartbeats": 0,
            "jobs_resubmitted": 0,
            "io_errors": 0,
        }
        self._seq = 0
        self._outstanding: Dict[str, bytes] = {}  # job_id -> record blob
        self._missing_polls: Dict[str, int] = {}
        self._procs: Dict[str, multiprocessing.Process] = {}
        self._stale_seen: set = set()
        self._respawn_budget = 2 * max(1, self.workers) + 2
        self._started = time.monotonic()
        self._stopping = False
        #: Set by a clean close() before the run dir is torn down.
        self._health_snapshot: Optional[Dict] = None
        if spawn_workers:
            for _ in range(self.workers):
                self._spawn()

    def _spawn(self) -> None:
        worker_id = f"w{len(self._procs)}-{secrets.token_hex(2)}"
        proc = multiprocessing.Process(
            target=_worker_entry,
            args=(
                str(self.paths.run_dir), self.worker_env, worker_id,
                self.ttl, self.poll_s,
            ),
            daemon=True,
        )
        proc.start()
        self._procs[worker_id] = proc

    def _io_error(self) -> None:
        self.counters["io_errors"] += 1
        if self.counters["io_errors"] >= IO_ERROR_TRIP:
            raise BackendUnavailable(
                f"queue directory {self.paths.run_dir} failed "
                f"{self.counters['io_errors']} operations"
            )

    def has_capacity(self) -> bool:
        return not self._stopping  # the directory buffers arbitrarily

    def submit(self, attempt, worker, payload, label):
        job_id = f"{self._seq:05d}-{secrets.token_hex(3)}"
        self._seq += 1
        record = {
            "job_id": job_id,
            "label": label,
            "attempt": attempt,
            "max_attempts": attempt + self.retries,
            "worker": worker,
            "payload": payload,
        }
        blob = pickle.dumps(record)  # propagate pickling errors: they
        # are deterministic and the pool path would hit them too
        try:
            self._enqueue(job_id, blob)
        except OSError:
            self._io_error()
            return None
        self.counters["jobs_submitted"] += 1
        self._outstanding[job_id] = blob
        return job_id

    def _enqueue(self, job_id: str, blob: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.paths.tmp)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.paths.pending / f"{job_id}.job")
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def poll(self) -> List[BackendEvent]:
        events: List[BackendEvent] = []
        for job_id in list(self._outstanding):
            done_path = self.paths.done / f"{job_id}.json"
            envelope = _read_json(done_path)
            if envelope is None:
                continue
            del self._outstanding[job_id]
            self._missing_polls.pop(job_id, None)
            self.counters["completions"] += 1
            events.append(
                BackendEvent(
                    "done", job_id, envelope=envelope,
                    attempt=envelope.get("attempt"),
                )
            )
        self._tend_workers()
        if self._outstanding:
            self._resubmit_lost()
        if not events:
            time.sleep(self.poll_s)
        return events

    def _tend_workers(self) -> None:
        """Liveness + heartbeat accounting; trips the breaker when the
        fleet is gone and the respawn budget is spent."""
        for worker_id, proc in list(self._procs.items()):
            if proc.is_alive():
                continue
            del self._procs[worker_id]
            if self._stopping:
                continue
            self.counters["worker_deaths"] += 1
            if (
                self._outstanding
                and self.counters["worker_respawns"]
                < self._respawn_budget
            ):
                self.counters["worker_respawns"] += 1
                self._spawn()
        if self._outstanding and self.workers and not self._procs:
            raise BackendUnavailable(
                "queue backend has no live workers (respawn budget "
                f"{self._respawn_budget} exhausted)"
            )
        if (
            self._outstanding
            and not self.workers
            and time.monotonic() - self._started > self.grace_s
        ):
            # Spawnless run (external workers expected): nobody showed
            # up within the grace window.
            if not self._any_external_heartbeat():
                raise BackendUnavailable(
                    "queue backend saw no worker heartbeat within "
                    f"{self.grace_s:g}s grace"
                )
        now = time.time()
        for record_path in self._worker_records():
            record = _read_json(record_path) or {}
            worker_id = record.get("worker_id")
            beat = record.get("heartbeat_unix", 0.0)
            if (
                worker_id in self._procs
                and worker_id not in self._stale_seen
                and now - float(beat or 0.0) > 2.0 * self.ttl
            ):
                self._stale_seen.add(worker_id)
                self.counters["stale_heartbeats"] += 1

    def _worker_records(self) -> List[pathlib.Path]:
        try:
            return sorted(self.paths.workers.glob("*.json"))
        except OSError:
            return []

    def _any_external_heartbeat(self) -> bool:
        return bool(self._worker_records())

    def _resubmit_lost(self) -> None:
        """Safety net: a job that exists nowhere (not pending, not
        claimed, not done) was lost -- e.g. a reclaimer died inside
        its steal window.  Two consecutive sightings (the window
        between a steal and the rewrite is also file-less) trigger a
        resubmit; a duplicate completion is idempotently discarded."""
        for job_id, blob in list(self._outstanding.items()):
            present = (
                (self.paths.pending / f"{job_id}.job").exists()
                or (self.paths.claimed / f"{job_id}.job").exists()
                or (self.paths.done / f"{job_id}.json").exists()
            )
            if present:
                self._missing_polls.pop(job_id, None)
                continue
            seen = self._missing_polls.get(job_id, 0) + 1
            self._missing_polls[job_id] = seen
            if seen >= 2:
                try:
                    self._enqueue(job_id, blob)
                except OSError:
                    self._io_error()
                    continue
                self.counters["jobs_resubmitted"] += 1
                self._missing_polls.pop(job_id, None)

    def _signal_stop(self) -> None:
        self._stopping = True
        try:
            self.paths.stop.touch()
        except OSError:
            pass

    def cancel(self) -> None:
        self._signal_stop()
        for proc in self._procs.values():
            try:
                proc.terminate()
            except Exception:
                pass
        for proc in self._procs.values():
            proc.join(timeout=1.0)
        self._procs.clear()

    def close(self) -> None:
        self._signal_stop()
        deadline = time.monotonic() + max(1.0, self.ttl / 2.0)
        for proc in self._procs.values():
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
        for proc in self._procs.values():
            if proc.is_alive():
                try:
                    proc.terminate()
                    proc.join(timeout=1.0)
                except Exception:
                    pass
        self._procs.clear()
        if not self._outstanding and self.workers:
            # Fully drained and nobody external may still be reading:
            # snapshot health (it reads worker records from the run
            # dir), then tear the run directory down.  Spawnless runs
            # keep theirs so external workers can notice the stop flag.
            self._health_snapshot = self.health()
            try:
                shutil.rmtree(self.paths.run_dir)
            except OSError:
                pass

    def health(self) -> Dict:
        if self._health_snapshot is not None:
            return self._health_snapshot
        workers: Dict[str, Dict] = {}
        totals = dict(self.counters)
        for record_path in self._worker_records():
            record = _read_json(record_path)
            if not record:
                continue
            worker_id = str(record.get("worker_id", record_path.stem))
            workers[worker_id] = record
            for key in (
                "jobs_done", "leases_granted", "lease_renewals",
                "leases_reclaimed", "leases_dropped", "dup_discards",
            ):
                value = record.get(key)
                if isinstance(value, (int, float)):
                    totals[key] = totals.get(key, 0) + value
        return {
            "name": self.name,
            "run_dir": str(self.paths.run_dir),
            "counters": totals,
            "workers": workers,
        }

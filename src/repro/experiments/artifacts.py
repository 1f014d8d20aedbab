"""Content-addressed shared artifacts: traces, profiles, compiles.

Every sweep used to re-run the full execute-driven pipeline -- TRAIN
profiling, compilation, and instruction-by-instruction semantics -- for
each ``(benchmark, seed, sweep-point)`` job, even though the committed
instruction stream is invariant across almost every swept knob (see
:mod:`repro.uarch.trace`).  This module is the capture-once /
replay-everywhere layer on top of the experiment cache:

* **Traces** (``results/.cache/traces/<key>.trace``): the committed
  stream of one ``(program content, instruction budget[, predictor])``
  execution, captured timing-free
  (:func:`~repro.uarch.functional.capture_trace`) by the first
  simulation that needs it and replayed (bit-identically) for every
  simulation of the same program, the capturing one included -- across
  widths, ports, cache geometry, BTB/RAS/DBB sizing, both cores, and
  (for baseline programs) across direction predictors.
* **Prep slices** (``.../preps/<key>.prep``): what the four
  sequential replay-prep passes decide for one ``(trace content
  digest, prediction mode, config class)`` -- the live predictor's
  bits, the RAS mispredict bits, the cache-tag pass's hit levels and
  both cores' BTB miss bits (:mod:`repro.uarch.replay_vec`); every
  other prep layer is rebuilt from the trace and them.  Named by the
  slice key plus ``code_version()``, built at most once fleet-wide
  per source version, and attached from the digest-verified blob
  store by pool siblings, later runs and other hosts.

Traces and prep slices share one versioned, per-column-checksummed
container (:mod:`repro.uarch.columns`): each column is stored at the
narrowest dtype its values need and zlib-compressed, and is widened
back to its in-memory dtype when read, so a loaded trace or attached
slice holds exactly the arrays its writer held.
* **Branch traces** (``.../profiles/<key>.btrace``): the functional
  TRAIN branch-outcome stream, predictor-independent, shared by every
  predictor a sensitivity ladder measures it with.  Keyed by the
  TRAIN build's key (workload fingerprint and seed), the budget and
  ``code_version()``, so a hit needs no TRAIN program at all.
* **Profiles** (``.../profiles/<key>.json``): the measured per-branch
  :class:`~repro.branchpred.BranchStats`, keyed additionally by the
  measuring predictor.
* **Builds and compiles**: in-process memos, never on disk (their
  values are live IR objects).  :meth:`ArtifactStore.build` keeps each
  built workload function, keyed by every ``WorkloadSpec`` field plus
  the input seed; :meth:`ArtifactStore.compile` keeps
  :func:`~repro.compiler.compile_baseline` /
  :func:`~repro.compiler.compile_decomposed` outputs under the content
  keys :func:`.harness.prepare_benchmark` gives them.  A pool worker
  keeps both for its lifetime, so its later jobs reuse its earlier
  jobs' builds and baseline compiles; a new process starts empty.

All disk artifacts carry integrity validation: traces and prep
slices via the checksummed column container
(:meth:`repro.uarch.trace.Trace.from_bytes`,
:func:`repro.uarch.replay_vec.attach_prep_slice`), JSON artifacts via
schema checks.  Anything unreadable is moved to
``results/.cache/quarantine/`` -- the same discipline as the result
cache -- and transparently recomputed.  The fault harness's
``corrupt_trace`` kind (:mod:`.faults`) writes deliberately truncated
traces to exercise exactly that path.

The layer has one configuration: every simulation goes through a
trace and its persisted prep slice.  Its one knob,
``REPRO_TRACE_LRU_MB`` (:data:`.settings.KNOBS`), budgets the
in-process hot-trace LRU.  The execute-driven reference cores run
behind it in three places only: a predictor factory with no stable
name (no trace key), a replay kernel that declines, and a region walk
that fails validation.

Counter semantics (reported per job via :meth:`ArtifactStore.mark` /
:meth:`ArtifactStore.delta`, aggregated by manifest schema 4):
``trace_captures`` counts timing-free trace captures (store misses),
``trace_replays`` counts simulations served from a trace -- every
trace-keyed simulation, including the one whose miss captured it,
``trace_hits``/``trace_misses`` count store lookups (memory or disk),
``profile_*``/``btrace_*``/``build_*``/``compile_*`` likewise;
``prep_hits``/``prep_misses`` count prep-slice lookups on disk
(layers already on the in-process trace object move no counter),
``prep_builds`` counts slices computed from scratch -- in a warm
fleet exactly one per ``(trace, predictor, config class)`` --
``prep_quarantined`` counts corrupt slice blobs sidelined;
``walk_diverges`` counts in-order region walks that failed validation
and were re-run on the reference core;
``store_*`` count the durable blob layer underneath (:mod:`.store`):
fsync'd puts, transient-I/O retries, and digest-verification failures
(torn transfers quarantined on read).
"""

from __future__ import annotations

import os
import pathlib
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

from ..branchpred import BranchStats, measure_trace
from ..isa import DataSegment
from ..isa.decode import predecode
from ..uarch import (
    InOrderCore,
    MachineConfig,
    capture_trace,
    collect_branch_trace,
)
from ..uarch import replay_vec
from ..uarch.ooo import OutOfOrderCore
from ..uarch.replay import replay_inorder, replay_ooo
from ..uarch.replay_multi import WalkDivergence
from ..uarch.trace import Trace, TraceError, content_digest, predictor_id
from . import faults
from .settings import cache_root, setting
from .store import FileStore

#: Bump when a JSON artifact layout changes.
ARTIFACT_SCHEMA = 1

_COUNTER_NAMES = (
    "trace_hits",
    "trace_misses",
    "trace_captures",
    "trace_replays",
    "trace_quarantined",
    "prep_hits",
    "prep_misses",
    "prep_builds",
    "prep_quarantined",
    "walk_diverges",
    "btrace_hits",
    "btrace_misses",
    "profile_hits",
    "profile_misses",
    "build_hits",
    "build_misses",
    "compile_hits",
    "compile_misses",
    "store_puts",
    "store_put_retries",
    "store_get_retries",
    "store_verify_failures",
)

#: FileStore counter -> artifact counter (see :mod:`.store`).
_STORE_COUNTER_MAP = {
    "puts": "store_puts",
    "put_retries": "store_put_retries",
    "get_retries": "store_get_retries",
    "verify_failures": "store_verify_failures",
}

#: Bound on the in-process measured-profile memo (entries are small --
#: one BranchStats dict per (program, budget, predictor) -- but sweeps
#: can touch many predictors; keep the memo from growing unbounded).
_PROFILE_MEMO_CAP = 128

#: Bound on the in-process workload-build memo.  An entry is one IR
#: function with its data segment (mcf's holds ~134k words), and a
#: worker's jobs rarely span more than a few benchmarks at a time.
_BUILD_MEMO_CAP = 16


def _remember(memo: "OrderedDict", key: str, value, cap: int) -> None:
    """Insert ``key`` as the newest entry of an LRU memo of ``cap``."""
    memo[key] = value
    memo.move_to_end(key)
    while len(memo) > cap:
        memo.popitem(last=False)


class ArtifactStore:
    """Content-addressed artifact storage under one cache directory.

    Layout (sharing the result cache's root and quarantine)::

        <cache_dir>/traces/<sha256>.trace
        <cache_dir>/preps/<sha256>.prep
        <cache_dir>/profiles/<sha256>.btrace
        <cache_dir>/profiles/<sha256>.json
        <cache_dir>/quarantine/        <- corrupt artifacts land here
    """

    def __init__(self, cache_dir: Optional[pathlib.Path] = None) -> None:
        self.cache_dir = cache_root(cache_dir)
        self.traces_dir = self.cache_dir / "traces"
        self.preps_dir = self.cache_dir / "preps"
        self.profiles_dir = self.cache_dir / "profiles"
        self.quarantine_dir = self.cache_dir / "quarantine"
        self.counters: Dict[str, int] = {n: 0 for n in _COUNTER_NAMES}
        #: Durable blob layer every disk crossing goes through: fsync'd
        #: atomic puts with digest sidecars, verified (and quarantining)
        #: gets, retry-with-backoff on transient I/O (see :mod:`.store`).
        self.store = FileStore(
            self.cache_dir,
            quarantine_dir=self.quarantine_dir,
            on_counter=self._on_store_counter,
        )
        #: Hot-trace LRU: key -> Trace, bounded by REPRO_TRACE_LRU_MB.
        self._trace_lru: "OrderedDict[str, Tuple[Trace, int]]" = (
            OrderedDict()
        )
        self._trace_lru_bytes = 0
        self._lru_budget = int(setting("REPRO_TRACE_LRU_MB") * 1024 * 1024)
        #: In-process memos (never persisted; values hold live objects).
        self._btrace_memo: Dict[str, List[Tuple[int, bool]]] = {}
        self._profile_memo: "OrderedDict[str, Dict[int, BranchStats]]" = (
            OrderedDict()
        )
        self._build_memo: "OrderedDict[str, object]" = OrderedDict()
        self._compile_memo: Dict[str, object] = {}

    # -- counters ----------------------------------------------------------

    def mark(self) -> Dict[str, int]:
        """Snapshot the counters (pair with :meth:`delta`)."""
        return dict(self.counters)

    def delta(self, mark: Dict[str, int]) -> Dict[str, int]:
        """Counter movement since ``mark`` (zero entries dropped)."""
        return {
            name: self.counters[name] - mark.get(name, 0)
            for name in _COUNTER_NAMES
            if self.counters[name] != mark.get(name, 0)
        }

    def _bump(self, name: str, by: int = 1) -> None:
        self.counters[name] += by

    def _on_store_counter(self, name: str) -> None:
        mapped = _STORE_COUNTER_MAP.get(name)
        if mapped is not None:
            self._bump(mapped)

    # -- plumbing ----------------------------------------------------------

    def _store_name(self, path: pathlib.Path) -> str:
        """Store-protocol name of an artifact path (root-relative)."""
        return path.relative_to(self.cache_dir).as_posix()

    def _quarantine(
        self, path: pathlib.Path, counter: str = "trace_quarantined"
    ) -> None:
        if self.store.quarantine(self._store_name(path)):
            self._bump(counter)

    def _write_atomic(self, path: pathlib.Path, blob: bytes) -> None:
        """Durable artifact write through the store protocol: fsync'd
        atomic rename plus a digest sidecar verified on every read."""
        self.store.put(self._store_name(path), blob)

    def _read_verified(
        self,
        path: pathlib.Path,
        counter: str = "trace_quarantined",
    ) -> Optional[bytes]:
        """Digest-verified read; a torn/corrupt blob is quarantined by
        the store layer and reported as a miss (counted as a
        quarantined artifact up here too)."""
        before = self.store.counters.get("verify_failures", 0)
        blob = self.store.get(self._store_name(path))
        if (
            blob is None
            and self.store.counters.get("verify_failures", 0) > before
        ):
            self._bump(counter)
        return blob

    # -- traces ------------------------------------------------------------

    def _lru_get(self, key: str) -> Optional[Trace]:
        entry = self._trace_lru.get(key)
        if entry is None:
            return None
        self._trace_lru.move_to_end(key)
        return entry[0]

    def _lru_put(self, key: str, trace: Trace) -> None:
        if self._lru_budget <= 0:
            return
        # Entries are (trace, bytes charged at put time): eviction must
        # subtract exactly what was added even if the trace's footprint
        # changed afterwards (replay prep attaching, for instance).
        charged = trace.nbytes()
        previous = self._trace_lru.get(key)
        if previous is not None:
            # Replace the stored object (a re-put after transparent
            # recapture carries fresh data) and recompute accounting.
            self._trace_lru_bytes -= previous[1]
        self._trace_lru[key] = (trace, charged)
        self._trace_lru.move_to_end(key)
        self._trace_lru_bytes += charged
        while (
            self._trace_lru_bytes > self._lru_budget
            and len(self._trace_lru) > 1
        ):
            _, (_, evicted_bytes) = self._trace_lru.popitem(last=False)
            self._trace_lru_bytes -= evicted_bytes

    def load_trace(self, key: str) -> Optional[Trace]:
        """Memory-first lookup: in-process LRU, then the
        digest-verified disk container.  A corrupt disk trace is
        quarantined and reported as a miss (the caller recaptures
        transparently)."""
        trace = self._lru_get(key)
        if trace is not None:
            self._bump("trace_hits")
            return trace
        path = self.traces_dir / f"{key}.trace"
        blob = self._read_verified(path)
        if blob is not None:
            try:
                trace = Trace.from_bytes(blob)
            except TraceError:
                self._quarantine(path)
            else:
                self._bump("trace_hits")
                self._lru_put(key, trace)
                try:
                    # Refresh mtime so age-based pruning (``repro
                    # cache prune --max-age``) keeps hot traces.
                    os.utime(path)
                except OSError:
                    pass
                return trace
        self._bump("trace_misses")
        return None

    def _trace_or_capture(
        self, key: str, program, config: MachineConfig, max_instructions: int
    ) -> Trace:
        """The trace under ``key``; on a miss, capture it timing-free
        under ``config``'s predictor and store it."""
        trace = self.load_trace(key)
        if trace is None:
            trace = capture_trace(
                program, config.predictor_factory, max_instructions
            )
            self.store_trace(key, trace)
            self._bump("trace_captures")
        return trace

    def store_trace(self, key: str, trace: Trace) -> None:
        self._lru_put(key, trace)
        blob = trace.to_bytes()
        if faults.should_corrupt_trace(key):
            blob = blob[: max(1, len(blob) // 2)]
        self._write_atomic(self.traces_dir / f"{key}.trace", blob)

    # -- persisted replay-prep slices --------------------------------------

    def _ensure_prep(self, program, trace: Trace, config) -> None:
        """Attach (or build and persist) the replay-prep slice one
        replay of ``trace`` under ``config`` needs.

        Lookup order mirrors :meth:`load_trace`: layers already on the
        trace object (no counter movement -- in-process memoisation is
        not a cache event), then the digest-verified blob store
        (``preps/<key>.prep``, shared across pool workers, runs and
        hosts sharing a cache root).  A miss builds every layer and
        persists the slice, so every later lookup in any process, run
        or host attaches it instead of building.  Corrupt blobs are
        quarantined by the store layer and rebuilt transparently --
        never a wrong answer, at worst a recompute.

        The blob's name adds ``code_version()`` to the slice key: a
        trace's content digest survives a source change that leaves
        the program and the capturing predictor alone (a reworked
        live predictor, say), and a slice is only ever read by the
        code that wrote it.
        """
        import hashlib

        from .engine import code_version

        key = replay_vec.prep_slice_key(program, trace, config)
        if key is None:
            return
        if replay_vec.prep_slice_ready(program, trace, config):
            return
        name = hashlib.sha256(f"{key}|{code_version()}".encode()).hexdigest()
        path = self.preps_dir / f"{name}.prep"
        blob = self._read_verified(path, counter="prep_quarantined")
        if blob is not None:
            if replay_vec.attach_prep_slice(program, trace, config, blob):
                self._bump("prep_hits")
                try:
                    # Keep hot slices out of --max-age pruning's
                    # reach, same as disk trace hits.
                    os.utime(path)
                except OSError:
                    pass
                return
            # Digest-verified bytes that still fail container/key
            # validation: quarantine for inspection and rebuild.
            self._quarantine(path, counter="prep_quarantined")
        self._bump("prep_misses")
        blob = replay_vec.build_prep_slice(program, trace, config)
        if blob is None:
            return  # outside the vectorized path: no prep to share
        self._bump("prep_builds")
        self._write_atomic(path, blob)

    # -- branch traces (functional TRAIN runs) -----------------------------

    def _branch_trace(
        self, program_key: str, lower: Callable, max_instructions: int
    ) -> List[Tuple[int, bool]]:
        """The (predictor-independent) TRAIN branch-outcome stream of
        the program ``lower()`` returns, which ``program_key`` names by
        content; ``lower`` is called only for a functional run."""
        import hashlib
        import json
        import zlib

        from .engine import code_version

        key = hashlib.sha256(
            json.dumps(
                {
                    "kind": "btrace",
                    "schema": ARTIFACT_SCHEMA,
                    "program": program_key,
                    "budget": max_instructions,
                    "code": code_version(),
                },
                sort_keys=True,
            ).encode()
        ).hexdigest()
        memoed = self._btrace_memo.get(key)
        if memoed is not None:
            self._bump("btrace_hits")
            return memoed
        path = self.profiles_dir / f"{key}.btrace"
        blob = self._read_verified(path)
        if blob is not None:
            try:
                payload = json.loads(zlib.decompress(blob))
                if payload["schema"] != ARTIFACT_SCHEMA:
                    raise ValueError("wrong schema")
                events = [
                    (int(b), bool(t))
                    for b, t in zip(payload["ids"], payload["taken"])
                ]
                if len(events) != payload["count"]:
                    raise ValueError("count mismatch")
            except (ValueError, KeyError, TypeError, zlib.error):
                self._quarantine(path)
            else:
                self._bump("btrace_hits")
                self._btrace_memo[key] = events
                return events
        self._bump("btrace_misses")
        events = collect_branch_trace(
            lower(), max_instructions=max_instructions
        )
        self._btrace_memo[key] = events
        blob = zlib.compress(
            json.dumps(
                {
                    "schema": ARTIFACT_SCHEMA,
                    "count": len(events),
                    "ids": [b for b, _ in events],
                    "taken": [1 if t else 0 for _, t in events],
                }
            ).encode(),
            6,
        )
        self._write_atomic(path, blob)
        return events

    # -- measured profiles -------------------------------------------------

    def profile(
        self,
        program_key: str,
        lower: Callable[[], object],
        max_instructions: int,
        predictor_factory: Callable,
    ) -> Dict[int, BranchStats]:
        """Shared equivalent of :func:`repro.compiler.profile_program`
        for the program ``lower()`` returns, which ``program_key``
        names by content (a build memo key, for example).

        The functional branch trace and the measured statistics are
        separate artifacts, so a predictor ladder pays for one
        functional TRAIN run total plus one (cheap) measurement per
        predictor.  A factory without a stable name (lambda/closure)
        disables sharing and computes directly.  Both artifacts are
        keyed by ``program_key`` (plus the budget and ``code_version()``),
        so ``lower`` runs for a functional run only: a profile or
        branch-trace hit neither builds, lowers nor hashes the program.
        """
        import hashlib
        import json

        from .engine import code_version

        pid = predictor_id(predictor_factory)
        if pid is None:
            self._bump("profile_misses")
            events = self._branch_trace(
                program_key, lower, max_instructions
            )
            return measure_trace(events, predictor_factory)
        key = hashlib.sha256(
            json.dumps(
                {
                    "kind": "profile",
                    "schema": ARTIFACT_SCHEMA,
                    "program": program_key,
                    "budget": max_instructions,
                    "predictor": pid,
                    "code": code_version(),
                },
                sort_keys=True,
            ).encode()
        ).hexdigest()
        profile = self.load_profile(key)
        if profile is not None:
            return profile
        self._bump("profile_misses")
        events = self._branch_trace(program_key, lower, max_instructions)
        profile = measure_trace(events, predictor_factory)
        _remember(self._profile_memo, key, profile, _PROFILE_MEMO_CAP)
        self._write_atomic(
            self.profiles_dir / f"{key}.json",
            json.dumps(
                {
                    "schema": ARTIFACT_SCHEMA,
                    "stats": {
                        str(b): [s.executions, s.taken, s.correct]
                        for b, s in sorted(profile.items())
                    },
                }
            ).encode(),
        )
        return profile

    def load_profile(
        self, key: str
    ) -> Optional[Dict[int, BranchStats]]:
        """Keyed measured-profile lookup: bounded memo first, then the
        JSON artifact on disk.

        The memo is the fix for a quiet hot-path tax: a predictor
        ladder calls :meth:`profile` with the same key many times, and
        each disk hit used to re-read and re-parse the JSON artifact.
        Returns ``None`` (with no counter movement) when the profile is
        absent -- the caller computes and stores it.
        """
        import json

        memoed = self._profile_memo.get(key)
        if memoed is not None:
            self._profile_memo.move_to_end(key)
            self._bump("profile_hits")
            return memoed
        path = self.profiles_dir / f"{key}.json"
        blob = self._read_verified(path)
        if blob is None:
            return None
        try:
            payload = json.loads(blob.decode())
            if payload["schema"] != ARTIFACT_SCHEMA:
                raise ValueError("wrong schema")
            profile = {
                int(b): BranchStats(
                    branch_id=int(b),
                    executions=row[0],
                    taken=row[1],
                    correct=row[2],
                )
                for b, row in payload["stats"].items()
            }
        except (ValueError, KeyError, TypeError, IndexError):
            self._quarantine(path)
            return None
        self._bump("profile_hits")
        _remember(self._profile_memo, key, profile, _PROFILE_MEMO_CAP)
        return profile

    # -- built workloads and compiled programs (in-process only) ----------

    def build(self, spec, seed: int):
        """``spec.build(seed=seed)``, memoised by every field of the
        :class:`~repro.workloads.WorkloadSpec` plus ``seed`` in a
        bounded LRU (:data:`_BUILD_MEMO_CAP`).

        Every caller gets the same :class:`~repro.ir.Function`, so it is
        read-only: the compile pipelines clone it before they transform
        it, and its data segment is frozen here into a
        :class:`~repro.isa.DataSegment` that every clone of it and
        every program lowered from it shares (one copy per build, hashed
        once by :func:`~repro.uarch.trace.content_digest`).
        """
        import json

        from .engine import fingerprint

        key = json.dumps([fingerprint(spec), seed], sort_keys=True)
        func = self._build_memo.get(key)
        if func is not None:
            self._build_memo.move_to_end(key)
            self._bump("build_hits")
            return func
        self._bump("build_misses")
        func = spec.build(seed=seed)
        func.data = DataSegment.of(func.data)
        _remember(self._build_memo, key, func, _BUILD_MEMO_CAP)
        return func

    def compile(self, memo_key: Optional[str], build: Callable[[], object]):
        """Memoise one compilation by content key (``None``: the
        content has no stable key, so compile without memoising).

        ``CompilationResult`` carries live ``Function``/``Program``
        objects, so this memo is in-process only; with ``jobs=N`` each
        worker process warms its own.
        """
        if memo_key is None:
            self._bump("compile_misses")
            return build()
        cached = self._compile_memo.get(memo_key)
        if cached is not None:
            self._bump("compile_hits")
            return cached
        self._bump("compile_misses")
        result = build()
        self._compile_memo[memo_key] = result
        return result

    # -- simulation front doors --------------------------------------------

    def _trace_key(
        self, program, config: MachineConfig, max_instructions: int
    ) -> Optional[str]:
        """Content address of the trace a simulation of ``program``
        under ``config`` captures or replays; ``None`` means run the
        execute-driven reference core instead (the predictor factory
        has no stable name to key on).

        A baseline program's committed stream is predictor-independent,
        so its key leaves the predictor out and one trace serves every
        predictor; a decomposed program's key names it."""
        import hashlib
        import json

        from .engine import code_version
        from ..uarch.trace import TRACE_SCHEMA

        pid = predictor_id(config.predictor_factory)
        if pid is None:
            return None
        has_decomposed = predecode(program).has_decomposed
        return hashlib.sha256(
            json.dumps(
                {
                    "kind": "trace",
                    "schema": TRACE_SCHEMA,
                    "program": content_digest(program),
                    "budget": max_instructions,
                    "predictor": pid if has_decomposed else None,
                    "code": code_version(),
                },
                sort_keys=True,
            ).encode()
        ).hexdigest()

    def simulate_inorder(
        self,
        program,
        config: MachineConfig,
        max_instructions: int = 2_000_000,
    ):
        """Simulate on the in-order core via the trace fast path: the
        one-config call of :meth:`simulate_inorder_sweep`.

        The first simulation of a program captures its trace
        timing-free and stores it; every simulation -- that first one
        included, and any width, ports, cache geometry, DBB/BTB/RAS
        sizing, and (for baseline programs) any predictor -- replays
        it.  Bit-identical to ``InOrderCore(config).run(program, ...)``
        by construction and by the golden/equivalence suites.
        """
        [result] = self.simulate_inorder_sweep(
            program, [config], max_instructions
        )
        return result

    def simulate_inorder_sweep(
        self,
        program,
        configs: List[MachineConfig],
        max_instructions: int = 2_000_000,
    ):
        """Simulate one program under a whole sweep axis.  (The one
        in-order front door; ``bench/spans.py`` wraps it by name.)

        Configs are grouped by trace key, so a trace the store lacks is
        captured once, timing-free, under the group's first config:
        a cold axis costs one capture plus one replay per point.  Each
        point then attaches its prep slice and walks the trace's region
        table, which every point sharing a kernel table reuses.  A walk
        that fails validation is counted (``walk_diverges``) and that
        point runs on the reference core at the trace's budget, as a
        config without a trace key always does (moving no trace
        counter).  Results are returned in config order and are
        bit-identical to ``InOrderCore(config).run`` per config.
        """
        configs = list(configs)
        results: List = [None] * len(configs)
        trace_groups: "OrderedDict[str, List[int]]" = OrderedDict()
        for index, config in enumerate(configs):
            key = self._trace_key(program, config, max_instructions)
            if key is None:
                results[index] = InOrderCore(config).run(
                    program, max_instructions=max_instructions
                )
            else:
                trace_groups.setdefault(key, []).append(index)

        for key, members in trace_groups.items():
            trace = self._trace_or_capture(
                key, program, configs[members[0]], max_instructions
            )
            for index in members:
                config = configs[index]
                self._ensure_prep(program, trace, config)
                self._bump("trace_replays")
                try:
                    results[index] = replay_inorder(program, trace, config)
                except WalkDivergence:
                    self._bump("walk_diverges")
                    results[index] = InOrderCore(config).run(
                        program, max_instructions=trace.meta["budget"]
                    )
        return results

    def simulate_ooo(
        self,
        program,
        config: MachineConfig,
        max_instructions: int = 2_000_000,
        window: int = 64,
    ):
        """OOO twin of :meth:`simulate_inorder`.

        The committed stream is core-independent, so one trace serves
        both cores: a miss captures it timing-free exactly as the
        in-order front doors do (and a later in-order simulation of
        the program replays it), then the OOO kernel replays it.
        Without a trace key the OOO reference core runs instead.
        """
        key = self._trace_key(program, config, max_instructions)
        if key is None:
            return OutOfOrderCore(config, window=window).run(
                program, max_instructions=max_instructions
            )
        trace = self._trace_or_capture(
            key, program, config, max_instructions
        )
        self._bump("trace_replays")
        self._ensure_prep(program, trace, config)
        return replay_ooo(program, trace, config, window=window)

    def peek_trace(
        self,
        program,
        config: MachineConfig,
        max_instructions: int = 2_000_000,
    ) -> Optional[Trace]:
        """The stored trace a :meth:`simulate_inorder` call would replay
        (without counting a lookup); ``None`` when it is absent or the
        config has no trace key."""
        key = self._trace_key(program, config, max_instructions)
        if key is None:
            return None
        trace = self._lru_get(key)
        if trace is None:
            blob = self._read_verified(self.traces_dir / f"{key}.trace")
            if blob is None:
                return None
            try:
                trace = Trace.from_bytes(blob)
            except TraceError:
                return None
        return trace


_DEFAULT_STORE: Optional[ArtifactStore] = None
_DEFAULT_STORE_DIR: Optional[str] = None


def default_store() -> ArtifactStore:
    """Process-wide store rooted at the engine's cache directory.

    Re-rooted automatically when ``REPRO_CACHE_DIR`` changes (tests
    repoint it per tmp_path).  Comparison is by *resolved path*, not
    the raw env string: the engine exports ``REPRO_CACHE_DIR`` around
    each parallel map and restores it after, and a string-based check
    used to discard the store -- and every warm memo in it -- on each
    of those no-op toggles.
    """
    global _DEFAULT_STORE, _DEFAULT_STORE_DIR
    root = cache_root()
    try:
        configured = str(root.resolve())
    except OSError:
        configured = str(root)
    if _DEFAULT_STORE is None or _DEFAULT_STORE_DIR != configured:
        _DEFAULT_STORE = ArtifactStore(root)
        _DEFAULT_STORE_DIR = configured
    return _DEFAULT_STORE


def get_store(store: Optional[ArtifactStore] = None) -> ArtifactStore:
    return store if store is not None else default_store()

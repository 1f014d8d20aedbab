"""Deterministic, seeded fault injection for the experiment engine.

The supervision layer in :mod:`.engine` has to survive worker crashes,
hung jobs, OOM-killed processes, and corrupted cache entries -- none of
which occur naturally in a deterministic simulator.  This module makes
every one of those paths exercisable on demand, *deterministically*:
whether a given job faults is a pure function of the fault plan's seed,
the fault kind, the job label, and the attempt number, so tests can
predict the exact set of injected failures without flaky sleeps or real
resource pressure.

Activate via the environment (which is how the switch reaches
``ProcessPoolExecutor`` workers; ``REPRO_FAULT_INJECT`` is a row of
:data:`.settings.KNOBS`, and :func:`parse_plan` holds the grammar)::

    REPRO_FAULT_INJECT="crash:0.2,hang:0.1,corrupt_cache:0.1@seed=7"

Kinds:

* ``crash``         -- the worker raises :class:`InjectedCrash`: a
  *deterministic* application failure (the engine records it, never
  retries it).
* ``die``           -- the worker process calls ``os._exit``: simulates
  an OOM kill; surfaces as ``BrokenProcessPool``, an *infrastructure*
  fault the engine retries.
* ``hang``          -- the worker sleeps :data:`HANG_S` seconds, far
  past any job timeout: exercises the per-job timeout watchdog, whose
  pool kill ends the sleeping worker.  On the serial (``jobs=1``)
  path, where no watchdog can interrupt the main process, it degrades
  to raising :class:`InjectedHang` immediately, which the engine
  records as a ``timeout``.
* ``corrupt_cache`` -- the engine writes a truncated result entry for
  the job under a valid digest: exercises the JSON checks of the next
  cache read, quarantine, and recompute.
* ``corrupt_trace`` -- the artifact store writes a truncated trace
  container (:mod:`.artifacts`): exercises trace checksum validation,
  quarantine, and transparent recapture on the next load.
* ``walk_diverge``  -- the in-order region walk
  (:mod:`repro.uarch.replay_multi`) corrupts its stat accumulators
  right before validation: exercises divergence detection, the
  artifact store's per-point reference-core fallback, and the
  ``walk_diverges`` artifact counter that surfaces the degradation in
  the run manifest.
* ``torn_put``      -- the blob store (:mod:`.store`) truncates a
  transfer *after* recording its digest: exercises digest verification,
  quarantine, and recapture on the next read.

Decisions are independent per kind.  ``crash``/``die``/``hang`` hash
the attempt number too, so a retried job may (deterministically)
succeed on a later attempt; ``corrupt_cache``/``corrupt_trace``/
``walk_diverge``/``torn_put`` are attempt-independent.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from .settings import setting

#: Recognised fault kinds (see the module docstring).
FAULT_KINDS = (
    "crash",
    "die",
    "hang",
    "corrupt_cache",
    "corrupt_trace",
    "walk_diverge",
    "torn_put",
)

#: Seconds an injected ``hang`` sleeps: an hour, so only the
#: watchdog's pool kill ends it.
HANG_S = 3600.0

#: Exit status an injected ``die`` uses (mirrors a SIGKILL-style death
#: as far as ``ProcessPoolExecutor`` is concerned: the pool breaks).
DIE_EXIT_STATUS = 3


class InjectedCrash(RuntimeError):
    """Deterministic worker failure injected by the fault harness."""


class InjectedHang(RuntimeError):
    """Serial-path stand-in for a hung worker (recorded as a timeout)."""


@dataclass(frozen=True)
class FaultPlan:
    """Parsed ``REPRO_FAULT_INJECT`` specification."""

    rates: Dict[str, float] = field(default_factory=dict)
    seed: int = 0

    @property
    def active(self) -> bool:
        return any(rate > 0.0 for rate in self.rates.values())

    def decide(self, kind: str, label: str, attempt: int = 0) -> bool:
        """Deterministically decide whether ``kind`` fires for this job.

        A SHA-256 over (seed, kind, label, attempt) is mapped to a
        uniform value in [0, 1) and compared against the kind's rate --
        the same inputs always produce the same decision, in any
        process, on any platform.
        """
        rate = self.rates.get(kind, 0.0)
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        blob = f"{self.seed}|{kind}|{label}|{attempt}".encode()
        digest = hashlib.sha256(blob).digest()
        uniform = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return uniform < rate

    def spec(self) -> str:
        """Round-trippable textual form (for manifests/logs)."""
        rates = ",".join(
            f"{kind}:{rate:g}" for kind, rate in sorted(self.rates.items())
        )
        return f"{rates}@seed={self.seed}"


def parse_plan(text: Optional[str]) -> Optional[FaultPlan]:
    """Parse ``"crash:0.2,hang:0.1@seed=7"``; None/"" means no plan.

    Raises ``ValueError`` on unknown kinds or malformed rates so a typo
    in ``REPRO_FAULT_INJECT`` fails loudly instead of silently running
    fault-free.
    """
    if not text or not text.strip():
        return None
    body, seed = text.strip(), 0
    if "@" in body:
        body, _, tail = body.partition("@")
        key, _, value = tail.partition("=")
        if key.strip() != "seed":
            raise ValueError(f"bad fault-plan modifier {tail!r}")
        seed = int(value)
    rates: Dict[str, float] = {}
    for clause in body.split(","):
        clause = clause.strip()
        if not clause:
            continue
        kind, sep, rate_text = clause.partition(":")
        kind = kind.strip()
        if not sep or kind not in FAULT_KINDS:
            raise ValueError(
                f"bad fault clause {clause!r}; kinds: {FAULT_KINDS}"
            )
        rate = float(rate_text)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate out of [0,1]: {clause!r}")
        rates[kind] = rate
    if not rates:
        raise ValueError(f"empty fault plan {text!r}")
    return FaultPlan(rates=rates, seed=seed)


def plan_from_env() -> Optional[FaultPlan]:
    return setting("REPRO_FAULT_INJECT")


def inject_worker_faults(
    label: str, attempt: int, in_process: bool = False
) -> None:
    """Apply worker-side faults for this (label, attempt), if any.

    Called at the top of every engine job.  ``in_process`` marks the
    serial path, where ``die`` must not take the caller down (it
    degrades to :class:`InjectedCrash`) and ``hang`` cannot be
    interrupted by the watchdog (it degrades to :class:`InjectedHang`).
    """
    plan = plan_from_env()
    if plan is None or not plan.active:
        return
    if plan.decide("die", label, attempt):
        if in_process:
            raise InjectedCrash(
                f"injected die (serial degradation) in {label!r} "
                f"attempt {attempt}"
            )
        os._exit(DIE_EXIT_STATUS)
    if plan.decide("hang", label, attempt):
        if in_process:
            raise InjectedHang(
                f"injected hang (serial degradation) in {label!r} "
                f"attempt {attempt}"
            )
        time.sleep(HANG_S)
    if plan.decide("crash", label, attempt):
        raise InjectedCrash(
            f"injected crash in {label!r} attempt {attempt}"
        )


def should_corrupt_cache(label: str) -> bool:
    """Parent-side decision: corrupt this job's cache entry on store?"""
    plan = plan_from_env()
    return plan is not None and plan.decide("corrupt_cache", label)


def should_corrupt_trace(key: str) -> bool:
    """Store-side decision: truncate this trace artifact on write?"""
    plan = plan_from_env()
    return plan is not None and plan.decide("corrupt_trace", key)


def should_diverge_walk(label: str) -> bool:
    """Replay-side decision: corrupt this region walk's accumulators?

    Attempt-independent, like the other data-corruption kinds: a walk
    with the same label always diverges, so running the reference
    core -- not a retry of the walk -- is what restores the results.
    """
    plan = plan_from_env()
    return plan is not None and plan.decide("walk_diverge", label)


def should_tear_put(name: str) -> bool:
    """Store-side decision: truncate this blob after digesting it?"""
    plan = plan_from_env()
    return plan is not None and plan.decide("torn_put", name)

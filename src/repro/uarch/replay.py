"""Trace replay: re-time a committed stream, bit-exactly.

A trace (:mod:`repro.uarch.trace`) carries everything architectural
about one run of a program -- control flow, branch/divert outcomes,
load/store addresses, the final register file, and the final memory
image as int and float (address, value) columns.  The functions here
re-time that stream under another machine configuration without
re-executing the program.

Bit-exactness contract: a replay's ``SimStats`` and final state equal
those of the execute-driven reference core -- :class:`InOrderCore` or
:class:`OutOfOrderCore` -- running the same program under the same
configuration for the trace's instruction budget.  The 330 golden
fingerprints in ``tests/golden`` pin that core, and the replay suites
in ``tests/uarch`` compare the kernels against it directly.

The fast path precomputes every clock-independent decision once
(:mod:`.replay_vec`) and leaves one serial kernel per core, run once
per point.  In-order replay walks the trace's region table
(:mod:`.replay_multi`), built once per kernel table and shared by
every width, ports and front-end setting.  A walk that fails its
validation raises :class:`~.replay_multi.WalkDivergence` to the
caller; the artifact store counts it and runs the reference core.

When a kernel declines -- an empty or malformed trace, a live
predictor without a stable name -- the replay runs the reference core
on the program at ``trace.meta["budget"]`` instead, so a decline costs
time, never a different answer.  Degenerate machines (no ports of some
class, an empty fetch buffer, an OOO window below one) are rejected
when they are built, so no kernel has to guard against them.

Two replay modes per conditional branch:

* **recorded** -- the replay configuration runs the same direction
  predictor the trace was captured under, so the captured
  predicted/actual bits are authoritative and the predictor is not
  even instantiated.  Always valid; the only legal mode for decomposed
  programs (their PREDICTs architecturally steer the committed path).
* **live** -- the configuration's predictor differs: a fresh predictor
  is lookup/updated with the recorded actual outcomes, recomputing the
  mispredict timing for *this* predictor.  Valid only for traces of
  programs without PREDICT/RESOLVE (``meta["has_decomposed"]`` false),
  whose committed stream is predictor-independent -- this is what lets
  one baseline trace serve a whole predictor-sensitivity ladder.
"""

from __future__ import annotations

from itertools import chain
from typing import Optional

from ..isa import Memory
from . import replay_vec
from .config import MachineConfig
from .core import InOrderCore, SimulationResult
from .ooo import OutOfOrderCore
from .stats import SimStats
from .trace import Trace, TraceMismatch, content_digest, predictor_id


def _describe(value) -> str:
    """Render an identity (content digest, predictor id) for an error
    message: hex digests cleanly shortened to ``head..tail``, anything
    else (predictor ids, odd metadata) verbatim -- never a truncated
    repr with a dangling quote."""
    if value is None:
        return "<none>"
    if not isinstance(value, str):
        return repr(value)
    is_digest = len(value) >= 32 and all(
        c in "0123456789abcdef" for c in value
    )
    if is_digest:
        return f"{value[:16]}..{value[-4:]}"
    return value


def _check_and_mode(program, trace: Trace, config: MachineConfig) -> bool:
    """Validate the trace against (program, config); return True for
    recorded-prediction mode, False for live-predictor mode."""
    digest = content_digest(program)
    if trace.meta.get("program") != digest:
        raise TraceMismatch(
            f"trace was captured from a different program "
            f"(trace program {_describe(trace.meta.get('program'))}, "
            f"requested program {_describe(digest)})"
        )
    pid = predictor_id(config.predictor_factory)
    recorded = pid is not None and trace.meta.get("predictor") == pid
    if not recorded and trace.meta.get("has_decomposed"):
        raise TraceMismatch(
            "a decomposed program's trace is predictor-specific: "
            f"captured under {_describe(trace.meta.get('predictor'))}, "
            f"cannot replay under {_describe(pid)}"
        )
    return recorded


def _final_state(program, trace: Trace, stats: SimStats) -> SimulationResult:
    """Materialise the architectural outcome recorded in the trace:
    a fresh :class:`Memory` per replay, built from the memory-image
    columns (``tolist`` gives back the Python ints and floats the
    capturing run stored, so every word's ``repr`` is unchanged)."""
    memory = Memory.from_snapshot(
        chain(
            zip(trace.mem_int_addrs.tolist(), trace.mem_int_values.tolist()),
            zip(
                trace.mem_float_addrs.tolist(),
                trace.mem_float_values.tolist(),
            ),
        ),
        trace.meta["faults_suppressed"],
    )
    return SimulationResult(
        stats=stats,
        registers=list(trace.meta["registers"]),
        memory=memory,
        program=program,
    )


def replay_inorder(
    program,
    trace: Trace,
    config: Optional[MachineConfig] = None,
) -> SimulationResult:
    """Replay ``trace`` on the in-order timing model: one region walk,
    or the reference core at the trace's budget when the walk
    declines."""
    config = config or MachineConfig()
    recorded = _check_and_mode(program, trace, config)
    stats = replay_vec.replay_inorder_stats(program, trace, config, recorded)
    if stats is None:
        return InOrderCore(config).run(
            program, max_instructions=trace.meta["budget"]
        )
    return _final_state(program, trace, stats)


def replay_ooo(
    program,
    trace: Trace,
    config: Optional[MachineConfig] = None,
    window: int = 64,
) -> SimulationResult:
    """Replay ``trace`` on the out-of-order timing model.

    The committed stream is core-independent (both cores execute the
    same architectural semantics in fetch order), so a trace captured
    by the in-order core replays on the OOO model and vice versa.
    """
    if window < 1:
        raise ValueError(f"OOO window must be at least 1, got {window}")
    config = config or MachineConfig()
    recorded = _check_and_mode(program, trace, config)
    stats = replay_vec.replay_ooo_stats(
        program, trace, config, recorded, window
    )
    if stats is None:
        return OutOfOrderCore(config, window=window).run(
            program, max_instructions=trace.meta["budget"]
        )
    return _final_state(program, trace, stats)

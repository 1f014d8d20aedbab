"""Trace replay: re-time a committed stream, bit-exactly.

A trace (:mod:`repro.uarch.trace`) carries everything architectural
about one run of a program -- control flow, branch/divert outcomes,
load/store addresses, the final register file and memory image.  The
functions here re-time that stream under another machine
configuration without re-executing the program.

Bit-exactness contract: a replay's ``SimStats`` and final state equal
those of the execute-driven reference core -- :class:`InOrderCore` or
:class:`OutOfOrderCore` -- running the same program under the same
configuration for the trace's instruction budget.  The 330 golden
fingerprints in ``tests/golden`` pin that core, and the replay suites
in ``tests/uarch`` compare the kernels against it directly.

The fast path precomputes every clock-independent decision once
(:mod:`.replay_vec`) and leaves one serial kernel per core.  In-order
replay has one: the region walk of :mod:`.replay_multi`, which scores
a sweep axis of K configurations sharing one kernel table in one
fused pass, and a single point as K = 1.  The OOO kernel runs per
point.

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

from typing import Optional

from ..isa import Memory
from . import replay_multi, replay_vec
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
    """Materialise the architectural outcome recorded in the trace."""
    memory = Memory.from_snapshot(
        trace.meta["memory"], trace.meta["faults_suppressed"]
    )
    return SimulationResult(
        stats=stats,
        registers=list(trace.meta["registers"]),
        memory=memory,
        program=program,
    )


def _reference_inorder(
    program, trace: Trace, config: MachineConfig
) -> SimulationResult:
    """The execute-driven core at the trace's instruction budget."""
    return InOrderCore(config).run(
        program, max_instructions=trace.meta["budget"]
    )


def _replay_inorder(
    program, trace: Trace, config: MachineConfig, recorded: bool
) -> SimulationResult:
    """One in-order replay as a one-lane region walk, or on the
    reference core when the walk declines or its lane diverges."""
    stats = replay_vec.replay_inorder_stats(program, trace, config, recorded)
    if stats is None:
        return _reference_inorder(program, trace, config)
    return _final_state(program, trace, stats)


def replay_inorder(
    program,
    trace: Trace,
    config: Optional[MachineConfig] = None,
) -> SimulationResult:
    """Replay ``trace`` on the in-order timing model."""
    config = config or MachineConfig()
    recorded = _check_and_mode(program, trace, config)
    return _replay_inorder(program, trace, config, recorded)


def replay_inorder_sweep(
    program,
    trace: Trace,
    configs,
):
    """Replay ``trace`` under every configuration of a sweep axis.

    When K > 1 and every configuration shares one fused kernel table
    (they differ only in width, ports, front-end depth or bubble
    counts, under one prediction mode), one fused pass
    (:mod:`.replay_multi`) scores them all.  Otherwise each point is
    its own one-lane walk, as :func:`replay_inorder` runs it.  A lane
    that fails validation voids the pass, and every configuration
    then runs on the reference core.  Either way the results are
    bit-identical to K independent :func:`replay_inorder` calls.

    Returns ``(results, outcome)`` where ``outcome`` is ``"fused"``
    (one pass scored every lane), ``"fallback"`` (the lanes do not
    share a kernel, or the kernel declined the trace), ``"diverged"``
    (a fused lane failed validation and the reference core re-ran the
    sweep), or ``"per_point"`` (a single point).
    """
    configs = [config or MachineConfig() for config in configs]
    recorded = [_check_and_mode(program, trace, config) for config in configs]
    outcome = "per_point"
    if len(configs) > 1:
        try:
            stats_list = replay_multi.replay_inorder_multi_stats(
                program, trace, configs, recorded
            )
        except replay_multi.FusedLaneDivergence:
            return (
                [
                    _reference_inorder(program, trace, config)
                    for config in configs
                ],
                "diverged",
            )
        if stats_list is not None:
            return (
                [_final_state(program, trace, stats) for stats in stats_list],
                "fused",
            )
        outcome = "fallback"
    return (
        [
            _replay_inorder(program, trace, config, mode)
            for config, mode in zip(configs, recorded)
        ],
        outcome,
    )


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

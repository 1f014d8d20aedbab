"""Cycle-level in-order superscalar model plus a timing-free functional
executor for profiling, differential testing and trace capture."""

from .config import MachineConfig
from .core import InOrderCore, SimulationError, SimulationResult
from .ooo import OutOfOrderCore
from .functional import (
    FunctionalResult,
    always_not_taken,
    always_taken,
    capture_trace,
    collect_branch_trace,
    execute,
)
from .replay import replay_inorder, replay_ooo
from .stats import SimStats
from .trace import (
    Trace,
    TraceCapture,
    TraceError,
    TraceMismatch,
    content_digest,
    predictor_id,
)
from .visualize import TraceRow, collect_timeline, render_timeline

__all__ = [
    "FunctionalResult",
    "InOrderCore",
    "OutOfOrderCore",
    "MachineConfig",
    "SimStats",
    "Trace",
    "TraceCapture",
    "TraceError",
    "TraceMismatch",
    "TraceRow",
    "collect_timeline",
    "content_digest",
    "predictor_id",
    "render_timeline",
    "replay_inorder",
    "replay_ooo",
    "SimulationError",
    "SimulationResult",
    "always_not_taken",
    "always_taken",
    "capture_trace",
    "collect_branch_trace",
    "execute",
]

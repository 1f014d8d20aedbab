"""Committed-instruction traces: capture once, replay everywhere.

The paper's evaluation methodology (PTLSim sweeps over fixed binaries)
re-times the *same* committed instruction stream under many machine
configurations.  In this simulator the architectural side of a run --
which instructions commit, each branch outcome, every load/store
address, the final register file and memory image -- is invariant
across widths, port counts, cache geometry, BTB/RAS/DBB sizing and
front-end depth: timing never feeds back into architectural state.
The one exception is the direction predictor of a *decomposed*
program, whose PREDICT instructions architecturally steer the
committed path; a baseline program (no PREDICT/RESOLVE) commits a
predictor-independent stream (``DecodedProgram.has_decomposed``).

Because of that invariance the stream is recorded without any timing
at all: :func:`repro.uarch.functional.capture_trace` walks the program
in order, driving only the direction predictor and the DBB in the
execute-driven core's call order, and fills a :class:`TraceCapture`
with compact ``array``/``bytearray`` columns.  :class:`Trace` is the
immutable result, holding every column as a numpy array and
serialisable to the column container of :mod:`repro.uarch.columns`.
Replay (:mod:`repro.uarch.replay`) re-runs only the *timing* machinery
over a trace -- no register values, no memory contents, no evaluator
calls -- and is bit-identical to execute-driven simulation (see
``tests/golden`` and ``tests/uarch/test_trace_replay.py``).

Columns (event-indexed, in committed-stream order):

================  =======  =======================================
column            dtype    one entry per
================  =======  =======================================
pcs               int32    committed instruction (index into the
                           pre-decoded rows, PREDICT/HALT included)
branch_pred       uint8    conditional branch (predicted taken, 0/1)
branch_taken      uint8    conditional branch (actual outcome)
predict_taken     uint8    PREDICT (front-end direction)
resolve_diverted  uint8    RESOLVE (correction-path divert)
load_addrs        int64    load (word address)
load_suppressed   uint8    *speculative* load (fault suppressed)
store_addrs       int64    store (word address)
ret_targets       int32    RET (actual return target)
================  =======  =======================================

The final memory image is four more columns, the non-zero words as
(address, value) pairs split by Python type, because the golden
fingerprints hash ``repr(value)``: ``mem_int_addrs``/``mem_int_values``
(int64) for int words, ``mem_float_addrs``/``mem_float_values``
(int64/float64) for float words.  The trace's ``meta`` block carries
the rest of the final architectural state (registers, suppressed-fault
count, halted), so a replayed
:class:`~repro.uarch.core.SimulationResult` is complete -- the golden
fingerprints hash exactly this state.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..isa.decode import K_PREDICT, K_RESOLVE, predecode
from . import columns

#: Bump when the trace container layout or column semantics change.
TRACE_SCHEMA = 2

_MAGIC = b"RVTRACE2"

#: The committed stream: (name, in-memory dtype), canonical order.
_STREAM: Tuple[Tuple[str, type], ...] = (
    ("pcs", np.int32),
    ("branch_pred", np.uint8),
    ("branch_taken", np.uint8),
    ("predict_taken", np.uint8),
    ("resolve_diverted", np.uint8),
    ("load_addrs", np.int64),
    ("load_suppressed", np.uint8),
    ("store_addrs", np.int64),
    ("ret_targets", np.int32),
)

#: The final memory image's non-zero words, int and float words apart.
_MEMORY: Tuple[Tuple[str, type], ...] = (
    ("mem_int_addrs", np.int64),
    ("mem_int_values", np.int64),
    ("mem_float_addrs", np.int64),
    ("mem_float_values", np.float64),
)

_COLUMNS = _STREAM + _MEMORY
_COLUMN_NAMES = tuple(name for name, _ in _COLUMNS)


class TraceError(Exception):
    """A trace failed validation (corrupt, truncated, wrong schema)."""


class TraceMismatch(Exception):
    """A trace cannot legally replay under the requested configuration."""


# ------------------------------------------------------------------ digests


def content_digest(program) -> str:
    """Content hash of a program: every instruction field plus the data
    segment.  Cached on the program instance (like ``predecode``) and
    keyed on the identity of its instruction list."""
    cached = getattr(program, "_content_digest", None)
    if cached is not None and cached[0] == id(program.instructions):
        return cached[1]
    digest = hashlib.sha256()
    digest.update(
        repr(
            [
                (
                    inst.opcode.name,
                    inst.dest,
                    tuple(inst.srcs),
                    repr(inst.imm),
                    inst.target,
                    inst.branch_id,
                    inst.predicted_dir,
                    inst.speculative,
                    inst.hoisted,
                )
                for inst in program.instructions
            ]
        ).encode()
    )
    # The data segment can be large (100k+ words); pack int words
    # straight into an array instead of repr-ing every entry.
    data = program.data
    addresses = sorted(data)
    try:
        digest.update(array("q", addresses).tobytes())
        digest.update(array("q", map(data.__getitem__, addresses)).tobytes())
    except (OverflowError, TypeError):
        digest.update(
            repr([(a, repr(data[a])) for a in addresses]).encode()
        )
    value = digest.hexdigest()
    try:
        program._content_digest = (id(program.instructions), value)
    except AttributeError:
        pass
    return value


def predictor_id(factory) -> Optional[str]:
    """Stable identity of a predictor factory, or ``None`` when the
    factory has no stable cross-process name (lambdas/closures) -- a
    ``None`` id disables trace sharing rather than risking aliasing."""
    module = getattr(factory, "__module__", None)
    qualname = getattr(factory, "__qualname__", None)
    if not module or not qualname:
        return None
    if "<lambda>" in qualname or "<locals>" in qualname:
        return None
    return f"{module}.{qualname}"


# ------------------------------------------------------------------ capture


class TraceCapture:
    """Mutable column builder filled by
    :func:`repro.uarch.functional.capture_trace`.

    The capture loop appends raw events (ints; bit columns take 0/1),
    then calls :meth:`finish` with the run's final architectural state
    to build an immutable :class:`Trace`.
    """

    __slots__ = tuple(name for name, _ in _STREAM)

    def __init__(self) -> None:
        self.pcs = array("i")
        self.branch_pred = bytearray()
        self.branch_taken = bytearray()
        self.predict_taken = bytearray()
        self.resolve_diverted = bytearray()
        self.load_addrs = array("q")
        self.load_suppressed = bytearray()
        self.store_addrs = array("q")
        self.ret_targets = array("i")

    def finish(
        self,
        program,
        registers,
        memory,
        halted: bool,
        max_instructions: int,
        predictor: Optional[str],
    ) -> "Trace":
        """Freeze the capture into a :class:`Trace`.

        ``registers``, ``memory`` and ``halted`` are the capturing
        run's architectural outcome; they travel in the trace (with
        the memory's suppressed-fault count) so replay can return a
        complete result.  The stream columns become numpy views of
        the capture buffers, without a copy.
        """
        decoded = predecode(program)
        meta = {
            "schema": TRACE_SCHEMA,
            "program": content_digest(program),
            "name": program.name,
            "budget": max_instructions,
            "predictor": predictor,
            "has_decomposed": decoded.has_decomposed,
            "committed": len(self.pcs),
            "halted": bool(halted),
            "faults_suppressed": memory.faults_suppressed,
            "registers": list(registers),
        }
        arrays = {
            name: np.frombuffer(getattr(self, name), dtype)
            for name, dtype in _STREAM
        }
        image: Dict[type, Tuple[List, List]] = {
            int: ([], []),
            float: ([], []),
        }
        for address, value in memory.snapshot():
            try:
                addrs, values = image[type(value)]
            except KeyError:
                raise TraceError(
                    f"memory word {address} holds a "
                    f"{type(value).__name__}, not an int or a float"
                ) from None
            addrs.append(address)
            values.append(value)
        try:
            arrays.update(
                mem_int_addrs=np.array(image[int][0], np.int64),
                mem_int_values=np.array(image[int][1], np.int64),
                mem_float_addrs=np.array(image[float][0], np.int64),
                mem_float_values=np.array(image[float][1], np.float64),
            )
        except OverflowError as exc:
            raise TraceError(f"memory word outside int64: {exc}") from None
        return Trace(meta, **arrays)


class Trace:
    """Immutable captured instruction stream plus final state.

    Every column is a numpy array (:meth:`column`) that is never
    mutated after capture.  A trace also carries a
    replay-preparation cache (``repro.uarch.replay_vec`` stores its
    precomputed kind-index/redirect/cache-level arrays here so one
    trace replayed across a whole sweep pays for the vectorized
    precompute once).  That cache is derived state: it never changes
    the captured stream, and :meth:`nbytes` accounts for it.
    """

    __slots__ = ("meta", "_prep", "_digest") + _COLUMN_NAMES

    def __init__(self, meta: Dict, **arrays: np.ndarray) -> None:
        self.meta = meta
        for name in _COLUMN_NAMES:
            setattr(self, name, arrays[name])
        #: Replay precompute cache (owned by repro.uarch.replay_vec).
        self._prep = None
        #: Lazily computed :meth:`content_digest` (columns are
        #: immutable after capture, so one hash serves forever).
        self._digest: Optional[str] = None

    @property
    def committed(self) -> int:
        return len(self.pcs)

    def column(self, name: str) -> np.ndarray:
        """One column, by name (see the module docstring)."""
        if name not in _COLUMN_NAMES:
            raise KeyError(name)
        return getattr(self, name)

    def nbytes(self) -> int:
        """In-memory footprint: every column, the memory image
        included, plus any replay-preparation arrays cached on the
        trace.  The artifact store's LRU charges this once, when the
        trace is stored or loaded -- before any prep attaches -- so
        its budget sees the columns, not the prep layers."""
        total = sum(getattr(self, name).nbytes for name in _COLUMN_NAMES)
        prep = self._prep
        if prep is not None:
            total += prep.nbytes()
        return total

    def content_digest(self) -> str:
        """Content hash of the *captured stream itself*: the identity
        meta fields plus every stream column's raw bytes (the memory
        image feeds no derived artifact, so it is not hashed).

        The program digest in ``meta`` identifies what was run; this
        digest identifies what was recorded -- derived artifacts keyed
        on it (the persisted replay-prep slices of
        :mod:`repro.uarch.replay_vec`) invalidate automatically when a
        recapture produces different columns (new budget, new
        predictor steering a decomposed program, a semantics change
        reflected in ``meta['program']``).  Cached after the first
        call; columns never mutate after capture.
        """
        if self._digest is not None:
            return self._digest
        digest = hashlib.sha256()
        identity = {
            name: self.meta.get(name)
            for name in (
                "schema", "program", "budget", "predictor",
                "has_decomposed", "committed", "halted",
            )
        }
        digest.update(
            json.dumps(identity, sort_keys=True).encode()
        )
        for name, _ in _STREAM:
            digest.update(name.encode())
            digest.update(getattr(self, name))
        self._digest = digest.hexdigest()
        return self._digest

    def max_outstanding_predicts(self, program) -> int:
        """High-water mark of PREDICTs awaiting their RESOLVE.

        Mirrors ``DecomposedBranchBuffer`` exactly: +1 per insert
        (PREDICT), floor-at-zero decrement per resolve -- the DBB's
        occupancy statistic is independent of its size, so the
        ablation sweep reads it off the trace instead of the core.
        Computed array-at-a-time: the reflected-at-zero running sum
        ``o_i = c_i - min(0, min_{j<=i} c_j)`` of the +1/-1 event
        deltas, so the peak falls out of two accumulations.
        """
        rows = predecode(program).rows
        if not len(self.pcs):
            return 0
        kind_by_pc = np.fromiter(
            (row[0] for row in rows), dtype=np.int8, count=len(rows)
        )
        kinds = kind_by_pc[self.column("pcs")]
        delta = np.zeros(len(kinds), dtype=np.int64)
        delta[kinds == K_PREDICT] = 1
        delta[kinds == K_RESOLVE] = -1
        walk = np.cumsum(delta)
        floor = np.minimum(np.minimum.accumulate(walk), 0)
        peak = int(np.max(walk - floor, initial=0))
        return peak

    # -------------------------------------------------------- serialisation

    def to_bytes(self) -> bytes:
        """The :mod:`repro.uarch.columns` container: ``meta`` in the
        header, then every column, the memory image included."""
        return columns.encode(
            _MAGIC,
            {"schema": TRACE_SCHEMA, "meta": self.meta},
            {name: getattr(self, name) for name in _COLUMN_NAMES},
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Trace":
        """Parse and *validate* a container; raises :class:`TraceError`
        on any corruption (bad magic/schema, truncation, checksum or
        count mismatch) so callers can quarantine the file."""
        try:
            header, arrays = columns.decode(_MAGIC, blob)
        except columns.ColumnError as exc:
            raise TraceError(str(exc)) from None
        if header.get("schema") != TRACE_SCHEMA:
            raise TraceError(f"wrong schema: {header.get('schema')!r}")
        meta = header.get("meta")
        if not isinstance(meta, dict):
            raise TraceError("malformed header")
        if [(name, arr.dtype) for name, arr in arrays.items()] != [
            (name, np.dtype(dtype)) for name, dtype in _COLUMNS
        ]:
            raise TraceError("unexpected column set")
        if len(arrays["pcs"]) != meta.get("committed"):
            raise TraceError("committed count disagrees with pcs column")
        int_addrs, int_values, float_addrs, float_values = (
            len(arrays[name]) for name, _ in _MEMORY
        )
        if int_addrs != int_values or float_addrs != float_values:
            raise TraceError("memory image columns disagree in length")
        return cls(meta, **arrays)

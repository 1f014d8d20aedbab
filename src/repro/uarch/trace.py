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
with compact columnar arrays (``array``/packed-bit columns).
:class:`Trace` is the immutable result, serialisable to a
zlib-compressed, per-column-checksummed binary container.  Replay
(:mod:`repro.uarch.replay`) re-runs only the *timing* machinery over
a trace -- no register values, no memory contents, no evaluator calls
-- and is bit-identical to execute-driven simulation (see
``tests/golden`` and ``tests/uarch/test_trace_replay.py``).

Columns (event-indexed, in committed-stream order):

========  ==================  =======================================
column    type                one entry per
========  ==================  =======================================
pcs       ``array('i')``      committed instruction (index into the
                              pre-decoded rows, PREDICT/HALT included)
branch_pred   packed bits     conditional branch (predicted taken)
branch_taken  packed bits     conditional branch (actual outcome)
predict_taken packed bits     PREDICT (front-end direction)
resolve_diverted packed bits  RESOLVE (correction-path divert)
load_addrs    ``array('q')``  load (word address)
load_suppressed packed bits   *speculative* load (fault suppressed)
store_addrs   ``array('q')``  store (word address)
ret_targets   ``array('i')``  RET (actual return target)
========  ==================  =======================================

The trace's ``meta`` block carries the final architectural state
(registers, non-zero memory words, suppressed-fault count, halted) so
a replayed :class:`~repro.uarch.core.SimulationResult` is complete --
the golden fingerprints hash exactly this state.
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
import zlib
from array import array
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..isa.decode import K_PREDICT, K_RESOLVE, predecode

#: Bump when the trace container layout or column semantics change.
TRACE_SCHEMA = 1

_MAGIC = b"RVTRACE1"

#: Cache artifacts trade a little disk for a lot of CPU: level 1 is
#: ~3x faster to compress than the default with ~20% larger output,
#: and capture-side serialisation sits on the sweep critical path.
_ZLIB_LEVEL = 1

#: (name, array typecode or "bits") in canonical serialisation order.
_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("pcs", "i"),
    ("branch_pred", "bits"),
    ("branch_taken", "bits"),
    ("predict_taken", "bits"),
    ("resolve_diverted", "bits"),
    ("load_addrs", "q"),
    ("load_suppressed", "bits"),
    ("store_addrs", "q"),
    ("ret_targets", "i"),
)


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

    __slots__ = tuple(name for name, _ in _COLUMNS)

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
        complete result.
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
            "memory": [[a, v] for a, v in memory.snapshot()],
        }
        return Trace(
            meta,
            **{name: getattr(self, name) for name, _ in _COLUMNS},
        )


#: numpy dtype per column typecode (the bit columns are 0/1-per-byte
#: bytearrays, viewed as uint8).
_NP_DTYPES = {"i": np.int32, "q": np.int64, "bits": np.uint8}


class Trace:
    """Immutable captured instruction stream plus final state.

    Besides the raw ``array``/``bytearray`` columns, a trace lazily
    exposes zero-copy numpy *views* of each column (:meth:`column`) and
    carries a replay-preparation cache (``repro.uarch.replay_vec``
    stores its precomputed kind-index/redirect/cache-level arrays here
    so one trace replayed across a whole sweep pays for the
    vectorized precompute once).  Both are derived state: they never
    change the captured stream, and :meth:`nbytes` accounts for them
    so the artifact store's LRU budget sees the true footprint.
    """

    __slots__ = ("meta", "_views", "_prep", "_digest") + tuple(
        name for name, _ in _COLUMNS
    )

    def __init__(self, meta: Dict, **columns) -> None:
        self.meta = meta
        for name, _ in _COLUMNS:
            setattr(self, name, columns[name])
        #: name -> cached numpy view of the column buffer (zero-copy).
        self._views: Dict[str, np.ndarray] = {}
        #: Replay precompute cache (owned by repro.uarch.replay_vec).
        self._prep = None
        #: Lazily computed :meth:`content_digest` (columns are
        #: immutable after capture, so one hash serves forever).
        self._digest: Optional[str] = None

    @property
    def committed(self) -> int:
        return len(self.pcs)

    def column(self, name: str) -> np.ndarray:
        """Zero-copy numpy view of one column.

        ``array('i')``/``array('q')`` columns view as int32/int64; the
        0/1-per-byte bit columns view as uint8.  Views share the
        column's buffer -- they cost no extra memory and stay valid for
        the trace's lifetime (columns are never mutated after capture).
        """
        view = self._views.get(name)
        if view is None:
            for cname, typecode in _COLUMNS:
                if cname == name:
                    view = np.frombuffer(
                        getattr(self, name), dtype=_NP_DTYPES[typecode]
                    )
                    break
            else:
                raise KeyError(name)
            self._views[name] = view
        return view

    def nbytes(self) -> int:
        """In-memory footprint: raw columns plus any replay-preparation
        arrays cached on the trace.  Column views are zero-copy and
        cost nothing extra.  The artifact store's LRU charges this once,
        when the trace is stored or loaded -- before any prep attaches
        -- so its budget sees the columns, not the prep layers."""
        total = 0
        for name, typecode in _COLUMNS:
            column = getattr(self, name)
            if typecode == "bits":
                total += len(column)
            else:
                total += len(column) * column.itemsize
        prep = self._prep
        if prep is not None:
            total += prep.nbytes()
        return total

    def content_digest(self) -> str:
        """Content hash of the *captured stream itself*: the identity
        meta fields plus every column's raw bytes.

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
        for name, typecode in _COLUMNS:
            column = getattr(self, name)
            if typecode == "bits":
                raw = bytes(column)
            else:
                raw = column.tobytes()
            digest.update(name.encode())
            digest.update(raw)
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
        """Binary container: magic, compressed JSON header (meta plus
        per-column descriptors with checksums), then the compressed
        column payloads in canonical order."""
        payloads: List[bytes] = []
        descriptors: List[Dict] = []
        for name, typecode in _COLUMNS:
            column = getattr(self, name)
            if typecode == "bits":
                raw = _pack_bits(column)
                count = len(column)
            else:
                raw = column.tobytes()
                count = len(column)
            blob = zlib.compress(raw, _ZLIB_LEVEL)
            payloads.append(blob)
            descriptors.append(
                {
                    "name": name,
                    "type": typecode,
                    "count": count,
                    "zlen": len(blob),
                    "sha256": hashlib.sha256(blob).hexdigest(),
                }
            )
        header = zlib.compress(
            json.dumps(
                {
                    "schema": TRACE_SCHEMA,
                    "byteorder": sys.byteorder,
                    "meta": self.meta,
                    "columns": descriptors,
                },
                sort_keys=True,
            ).encode(),
            _ZLIB_LEVEL,
        )
        return b"".join(
            [_MAGIC, struct.pack("<I", len(header)), header] + payloads
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Trace":
        """Parse and *validate* a container; raises :class:`TraceError`
        on any corruption (bad magic/schema, truncation, checksum or
        count mismatch) so callers can quarantine the file."""
        if len(blob) < len(_MAGIC) + 4 or blob[: len(_MAGIC)] != _MAGIC:
            raise TraceError("bad magic")
        offset = len(_MAGIC)
        (header_len,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        if offset + header_len > len(blob):
            raise TraceError("truncated header")
        try:
            header = json.loads(
                zlib.decompress(blob[offset : offset + header_len])
            )
        except (ValueError, zlib.error) as exc:
            raise TraceError(f"unreadable header: {exc}") from None
        offset += header_len
        if not isinstance(header, dict) or header.get("schema") != TRACE_SCHEMA:
            raise TraceError(f"wrong schema: {header.get('schema')!r}")
        if header.get("byteorder") != sys.byteorder:
            raise TraceError("foreign byte order")
        meta = header.get("meta")
        descriptors = header.get("columns")
        if not isinstance(meta, dict) or not isinstance(descriptors, list):
            raise TraceError("malformed header")
        if [(d.get("name"), d.get("type")) for d in descriptors] != list(
            _COLUMNS
        ):
            raise TraceError("unexpected column set")
        columns = {}
        for descriptor in descriptors:
            name = descriptor["name"]
            typecode = descriptor["type"]
            zlen = descriptor["zlen"]
            chunk = blob[offset : offset + zlen]
            if len(chunk) != zlen:
                raise TraceError(f"truncated column {name!r}")
            if hashlib.sha256(chunk).hexdigest() != descriptor["sha256"]:
                raise TraceError(f"checksum mismatch in column {name!r}")
            offset += zlen
            try:
                raw = zlib.decompress(chunk)
            except zlib.error as exc:
                raise TraceError(
                    f"undecompressable column {name!r}: {exc}"
                ) from None
            if typecode == "bits":
                column = _unpack_bits(raw, descriptor["count"])
            else:
                column = array(typecode)
                column.frombytes(raw)
            if len(column) != descriptor["count"]:
                raise TraceError(f"count mismatch in column {name!r}")
            columns[name] = column
        if len(columns["pcs"]) != meta.get("committed"):
            raise TraceError("committed count disagrees with pcs column")
        return cls(meta, **columns)


def _pack_bits(bits) -> bytes:
    """Pack a 0/1-per-byte column into 8 bits per byte (LSB first)."""
    flags = np.asarray(bits, dtype=np.uint8)
    return np.packbits(flags, bitorder="little").tobytes()


def _unpack_bits(raw: bytes, count: int) -> bytearray:
    if len(raw) != (count + 7) >> 3:
        raise TraceError("bit column length mismatch")
    packed = np.frombuffer(raw, dtype=np.uint8)
    flags = np.unpackbits(packed, count=count, bitorder="little")
    return bytearray(flags.tobytes())

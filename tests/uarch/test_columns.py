"""The column container shared by traces and prep slices: exact
round trips at every dtype, per-column storage choice, corruption
detection, and a trace's int and float memory words."""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.isa import Instruction as I, Opcode, assemble
from repro.uarch import (
    InOrderCore,
    MachineConfig,
    Trace,
    capture_trace,
    columns,
    replay_inorder,
)

MAGIC = b"TESTCOLS"

_I64 = np.iinfo(np.int64)
_SHAPES = st.integers(0, 200)
_INT64_ELEMENTS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([_I64.min, _I64.max, _I64.min + 1, _I64.max - 1]),
    st.integers(_I64.min, _I64.max),
)
_ARRAYS = st.one_of(
    hnp.arrays(np.int64, _SHAPES, elements=_INT64_ELEMENTS),
    hnp.arrays(np.int64, _SHAPES, elements=st.integers(0, 1)),
    hnp.arrays(np.int64, _SHAPES, elements=st.just(0)),
    hnp.arrays(np.int64, _SHAPES, elements=st.integers(-300, 70000)),
    hnp.arrays(np.int32, _SHAPES),
    hnp.arrays(np.uint8, _SHAPES),
    hnp.arrays(np.bool_, _SHAPES),
    hnp.arrays(
        np.float64,
        _SHAPES,
        elements=st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from([-0.0, 0.0, float("nan"), float("-inf")]),
        ),
    ),
)


def _roundtrip(arrays):
    blob = columns.encode(MAGIC, {"note": "x"}, arrays)
    header, decoded = columns.decode(MAGIC, blob)
    assert header["note"] == "x"
    return header, decoded


@settings(max_examples=300, deadline=None)
@given(st.lists(_ARRAYS, min_size=1, max_size=4))
def test_roundtrip_is_exact(arrays):
    named = {f"c{i}": array for i, array in enumerate(arrays)}
    _, decoded = _roundtrip(named)
    assert list(decoded) == list(named)
    for name, array in named.items():
        assert decoded[name].dtype == array.dtype
        # Bit for bit: NaN payloads and -0.0 included.
        assert decoded[name].tobytes() == array.tobytes()


@pytest.mark.parametrize(
    "values, dtype, store",
    [
        ([0, 1, 1, 0], np.int64, "bits"),
        ([True, False], np.bool_, "bits"),
        ([], np.int64, "bits"),
        ([0, 140, 255], np.int64, "uint8"),
        ([4, 300], np.int64, "uint16"),
        ([-1, 100], np.int64, "int8"),
        ([-129, 5], np.int64, "int16"),
        ([0, 1 << 20], np.int64, "uint32"),
        ([_I64.min, 0], np.int64, "int64"),
        ([0, 15], np.uint8, "uint8"),
        ([0.5, -0.0], np.float64, "float64"),
    ],
)
def test_each_column_is_stored_at_its_narrowest(values, dtype, store):
    header, decoded = _roundtrip({"c": np.array(values, dtype)})
    (descriptor,) = header["columns"]
    assert descriptor["store"] == store
    assert descriptor["dtype"] == np.dtype(dtype).name
    assert decoded["c"].dtype == np.dtype(dtype)
    assert decoded["c"].tolist() == np.array(values, dtype).tolist()


def _blob():
    return columns.encode(
        MAGIC,
        {"note": "x"},
        {
            "wide": np.arange(1000, dtype=np.int64) * 7,
            "flags": (np.arange(1000) % 3 == 0),
        },
    )


def _rewrite_header(blob, edit):
    """``blob`` with its JSON header passed through ``edit``; payloads
    untouched, so every payload digest still holds."""
    (head_len,) = struct.unpack_from("<I", blob, len(MAGIC))
    start = len(MAGIC) + 4
    header = json.loads(zlib.decompress(blob[start : start + head_len]))
    edit(header)
    head = zlib.compress(json.dumps(header, sort_keys=True).encode())
    return (
        blob[: len(MAGIC)]
        + struct.pack("<I", len(head))
        + head
        + blob[start + head_len :]
    )


def test_truncation_is_detected():
    blob = _blob()
    for cut in (len(blob) - 1, len(blob) // 2, len(MAGIC) + 2, 0):
        with pytest.raises(columns.ColumnError):
            columns.decode(MAGIC, blob[:cut])


def test_flipped_payload_byte_is_detected():
    blob = bytearray(_blob())
    blob[-1] ^= 0xFF
    with pytest.raises(columns.ColumnError, match="checksum"):
        columns.decode(MAGIC, bytes(blob))


def test_bad_magic_is_detected():
    blob = _blob()
    with pytest.raises(columns.ColumnError, match="magic"):
        columns.decode(MAGIC, b"NOTMAGIC" + blob[8:])
    with pytest.raises(columns.ColumnError, match="magic"):
        columns.decode(b"OTHERKND", blob)


def test_trailing_bytes_are_detected():
    with pytest.raises(columns.ColumnError, match="trailing"):
        columns.decode(MAGIC, _blob() + b"\0")


@pytest.mark.parametrize("name", ["wide", "flags"])
@pytest.mark.parametrize("delta", [1, -1, 8])
def test_count_disagreeing_with_payload_is_detected(name, delta):
    def edit(header):
        for descriptor in header["columns"]:
            if descriptor["name"] == name:
                descriptor["count"] += delta

    with pytest.raises(columns.ColumnError, match="count mismatch"):
        columns.decode(MAGIC, _rewrite_header(_blob(), edit))


def _memory_program():
    """A program whose final memory holds int and float words whose
    ``repr`` a lossy encoding would change."""
    data = {
        0: 7,
        1: _I64.min,
        2: _I64.max,
        3: 0.1,
        4: float("nan"),
        5: float("-inf"),
        6: -1e-300,
        7: 2.0**70,
    }
    return assemble(
        [
            I(Opcode.LI, dest=1, imm=0),
            I(Opcode.LOAD, dest=2, srcs=(1,), imm=3),
            I(Opcode.FADD, dest=3, srcs=(2, 2)),
            I(Opcode.STORE, srcs=(3, 1), imm=100),
            I(Opcode.LI, dest=4, imm=-5),
            I(Opcode.STORE, srcs=(4, 1), imm=101),
            I(Opcode.HALT),
        ],
        {},
        data,
    )


def test_trace_memory_words_keep_their_repr():
    program = _memory_program()
    machine = MachineConfig.paper_default(width=4)
    captured = capture_trace(program, machine.predictor_factory, 1000)
    trace = Trace.from_bytes(captured.to_bytes())
    assert trace.mem_int_values.dtype == np.int64
    assert trace.mem_float_values.dtype == np.float64
    assert len(trace.mem_int_addrs) == 4
    assert len(trace.mem_float_addrs) == 6
    executed = InOrderCore(machine).run(program, max_instructions=1000)
    replayed = replay_inorder(program, trace, machine)
    expected = [(a, repr(v)) for a, v in executed.memory.snapshot()]
    assert [(a, repr(v)) for a, v in replayed.memory.snapshot()] == expected
    assert [type(v) for _, v in replayed.memory.snapshot()] == [
        type(v) for _, v in executed.memory.snapshot()
    ]
    image = ("mem_int_addrs", "mem_int_values", "mem_float_addrs",
             "mem_float_values")
    assert trace.nbytes() > sum(trace.column(name).nbytes for name in image)

"""One on-disk container for numpy columns: traces and prep slices.

Layout::

    magic (8 bytes) | u32 header length, little-endian
    | zlib(JSON header) | one zlib payload per column, in header order

The header is the caller's JSON fields plus ``"columns"``, one
descriptor per payload::

    {"name": ..., "dtype": ..., "store": ..., "count": ...,
     "zlen": ..., "sha256": ...}

* ``dtype`` is the column's in-memory dtype; decode restores it, so
  readers see the arrays the writer held.
* ``store`` says how the payload holds the values: ``"bits"`` for a
  column whose values are all 0 or 1 (eight per byte, LSB first);
  for any other integer column, the narrowest integer dtype that
  holds its observed min..max (chosen per column and per blob, never
  a fixed width); for a float column, its own dtype (stored raw).
  Payload bytes are little-endian on every host.
* every payload is zlib level 1 compressed, and ``sha256`` is the
  digest of the compressed payload.

Decode verifies the magic, the header (zlib's own checksum), each
payload's digest and that each count agrees with its payload, and
raises :class:`ColumnError` on any mismatch.  Widening happens once
per column: a column stored at its in-memory dtype comes back as a
read-only view of its decompressed bytes, a narrow one as one
``astype`` copy.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from typing import Dict, Mapping, Tuple

import numpy as np

#: Level 1 is ~3x faster to compress than the default at ~20 % larger
#: output, and encoding sits on a sweep's critical path.
ZLIB_LEVEL = 1

#: Storage dtypes for integer columns, narrowest first (an int64 or
#: uint64 column always fits one of the last two).
_NARROW = tuple(
    np.dtype(name)
    for name in (
        "uint8", "int8", "uint16", "int16",
        "uint32", "int32", "uint64", "int64",
    )
)


class ColumnError(Exception):
    """A column container failed validation (corrupt or truncated)."""


def _encode_column(name: str, column: np.ndarray) -> Tuple[Dict, bytes]:
    if column.dtype.kind == "f":
        store = column.dtype
    else:
        lo, hi = (
            (int(column.min()), int(column.max())) if column.size else (0, 0)
        )
        store = "bits" if 0 <= lo and hi <= 1 else next(
            dtype
            for dtype in _NARROW
            if np.iinfo(dtype).min <= lo and hi <= np.iinfo(dtype).max
        )
    if store == "bits":
        raw = np.packbits(column, bitorder="little")
    else:
        raw = np.ascontiguousarray(
            column, dtype=store.newbyteorder("<")
        )
        store = store.name
    payload = zlib.compress(raw, ZLIB_LEVEL)
    descriptor = {
        "name": name,
        "dtype": column.dtype.name,
        "store": store,
        "count": int(column.size),
        "zlen": len(payload),
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    return descriptor, payload


def _decode_column(descriptor: Dict, chunk: memoryview) -> np.ndarray:
    name = descriptor["name"]
    if hashlib.sha256(chunk).hexdigest() != descriptor["sha256"]:
        raise ColumnError(f"checksum mismatch in column {name!r}")
    try:
        raw = zlib.decompress(chunk)
    except zlib.error as exc:
        raise ColumnError(
            f"undecompressable column {name!r}: {exc}"
        ) from None
    dtype = np.dtype(descriptor["dtype"])
    count = descriptor["count"]
    store = descriptor["store"]
    if not isinstance(count, int) or count < 0:
        raise ColumnError(f"bad count in column {name!r}")
    if store == "bits":
        # Packing pads the last byte with zero bits: a set pad bit
        # means the count is short of the payload.
        if len(raw) != (count + 7) >> 3 or (
            count & 7 and raw[-1] >> (count & 7)
        ):
            raise ColumnError(f"count mismatch in column {name!r}")
        flags = np.unpackbits(
            np.frombuffer(raw, np.uint8), count=count, bitorder="little"
        )
        if dtype.itemsize == 1:
            return flags.view(dtype)
        return flags.astype(dtype)
    stored = np.dtype(store).newbyteorder("<")
    if len(raw) != count * stored.itemsize:
        raise ColumnError(f"count mismatch in column {name!r}")
    return np.frombuffer(raw, stored).astype(dtype, copy=False)


def encode(
    magic: bytes, header: Dict, columns: Mapping[str, np.ndarray]
) -> bytes:
    """Serialise ``header`` (JSON-able, without a ``"columns"`` key)
    and the 1-D ``columns``, in mapping order."""
    descriptors = []
    payloads = []
    for name, column in columns.items():
        descriptor, payload = _encode_column(name, column)
        descriptors.append(descriptor)
        payloads.append(payload)
    head = zlib.compress(
        json.dumps(
            dict(header, columns=descriptors), sort_keys=True
        ).encode(),
        ZLIB_LEVEL,
    )
    return b"".join(
        [magic, struct.pack("<I", len(head)), head] + payloads
    )


def decode(magic: bytes, blob) -> Tuple[Dict, Dict[str, np.ndarray]]:
    """(header, name -> column) of one container, columns in payload
    order; raises :class:`ColumnError` on any corruption."""
    view = memoryview(blob)
    start = len(magic) + 4
    if len(view) < start or bytes(view[: len(magic)]) != magic:
        raise ColumnError("bad magic")
    (head_len,) = struct.unpack_from("<I", view, len(magic))
    if start + head_len > len(view):
        raise ColumnError("truncated header")
    try:
        header = json.loads(zlib.decompress(view[start : start + head_len]))
    except (ValueError, zlib.error) as exc:
        raise ColumnError(f"unreadable header: {exc}") from None
    descriptors = header.get("columns") if isinstance(header, dict) else None
    if not isinstance(descriptors, list):
        raise ColumnError("malformed header")
    offset = start + head_len
    columns: Dict[str, np.ndarray] = {}
    for descriptor in descriptors:
        try:
            name = descriptor["name"]
            end = offset + descriptor["zlen"]
            if end > len(view):
                raise ColumnError(f"truncated column {name!r}")
            columns[name] = _decode_column(descriptor, view[offset:end])
        except (KeyError, TypeError, ValueError) as exc:
            raise ColumnError(f"bad column descriptor: {exc}") from None
        offset = end
    if offset != len(view):
        raise ColumnError("trailing bytes after the last column")
    return header, columns

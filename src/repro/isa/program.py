"""Program container: a linear instruction sequence with resolved labels.

The IR assembler (:mod:`repro.ir.lower`) produces these.  A :class:`Program`
also carries its initial data segment so that a run is fully reproducible
from the object alone.  The segment is a read-only :class:`DataSegment`,
so every program lowered from one function shares that function's copy.
"""

from __future__ import annotations

import hashlib
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .instructions import INSTRUCTION_BYTES, Instruction

Value = Union[int, float]


class AssemblyError(Exception):
    """Raised when labels cannot be resolved."""


def _words_digest(words: Dict[int, Value]) -> bytes:
    """SHA-256 of a data segment's (address, value) words."""
    digest = hashlib.sha256()
    addresses = sorted(words)
    # A segment can be large (100k+ words): pack int words straight
    # into an array instead of repr-ing every entry.
    try:
        digest.update(array("q", addresses).tobytes())
        digest.update(array("q", map(words.__getitem__, addresses)).tobytes())
    except (OverflowError, TypeError):
        digest.update(
            repr([(a, repr(words[a])) for a in addresses]).encode()
        )
    return digest.digest()


class DataSegment(Mapping):
    """A read-only data segment: word address -> initial value.

    A built workload's segment can hold 100k+ words (mcf's ~134k).  A
    read-only one can be shared instead of copied by every function
    cloned from it (:meth:`repro.ir.Function.clone`) and every program
    lowered from it (:func:`assemble`), and its words are hashed once
    (:meth:`digest`), however many programs carry it.  It compares
    equal to a dict with the same words.
    """

    __slots__ = ("_words", "_digest", "_bounds")

    def __init__(self, words: Mapping = ()) -> None:
        self._words: Dict[int, Value] = dict(words)
        self._digest: Optional[bytes] = None
        self._bounds: Optional[Tuple[int, int]] = None

    @classmethod
    def of(cls, data: Optional[Mapping]) -> "DataSegment":
        """``data`` itself when it is a segment already, else a
        read-only copy of it (``None``: an empty segment)."""
        if isinstance(data, cls):
            return data
        return cls(data or ())

    def __getitem__(self, address: int) -> Value:
        return self._words[address]

    def __iter__(self) -> Iterator[int]:
        return iter(self._words)

    def __len__(self) -> int:
        return len(self._words)

    def items(self):
        # The dict's own view: every simulation start copies the
        # segment into memory through it, and ``Mapping.items`` would
        # look each word up again.
        return self._words.items()

    def __repr__(self) -> str:
        return f"DataSegment({self._words!r})"

    def digest(self) -> bytes:
        """SHA-256 of the words, computed on the first call."""
        if self._digest is None:
            self._digest = _words_digest(self._words)
        return self._digest

    def bounds(self) -> Tuple[int, int]:
        """(lowest, highest) word address, computed on the first call;
        ``(0, 0)`` for an empty segment."""
        if self._bounds is None:
            words = self._words
            self._bounds = (min(words), max(words)) if words else (0, 0)
        return self._bounds


@dataclass
class Program:
    """An executable program for the simulator.

    ``instructions`` have integer ``target`` fields (PC indices).
    ``labels`` maps label name -> PC for diagnostics and disassembly.
    ``data`` is the read-only data segment: word address -> initial
    value.
    """

    instructions: List[Instruction]
    labels: Dict[str, int] = field(default_factory=dict)
    data: DataSegment = field(default_factory=DataSegment)
    name: str = "program"

    @property
    def static_size_bytes(self) -> int:
        """Static code size; feeds the PISCS column of Table 2."""
        return len(self.instructions) * INSTRUCTION_BYTES

    def __len__(self) -> int:
        return len(self.instructions)

    def label_at(self, pc: int) -> Optional[str]:
        for name, addr in self.labels.items():
            if addr == pc:
                return name
        return None

    def disassemble(self, start: int = 0, count: Optional[int] = None) -> str:
        """Human-readable listing, used by the examples."""
        end = len(self.instructions) if count is None else start + count
        lines = []
        addr_to_label = {addr: name for name, addr in self.labels.items()}
        for pc in range(start, min(end, len(self.instructions))):
            label = addr_to_label.get(pc)
            if label is not None:
                lines.append(f"{label}:")
            inst = self.instructions[pc]
            text = str(inst)
            if isinstance(inst.target, int) and inst.target in addr_to_label:
                text = text.replace(
                    f"-> {inst.target}", f"-> {addr_to_label[inst.target]}"
                )
            lines.append(f"  {pc:5d}  {text}")
        return "\n".join(lines)


def assemble(
    instructions: Sequence[Instruction],
    labels: Dict[str, int],
    data: Optional[Mapping] = None,
    name: str = "program",
) -> Program:
    """Resolve string targets against ``labels`` and build a Program.

    The program's data segment is read-only: a :class:`DataSegment`
    passed in is shared, any other mapping is copied into one."""
    resolved: List[Instruction] = []
    for pc, inst in enumerate(instructions):
        if isinstance(inst.target, str):
            if inst.target not in labels:
                raise AssemblyError(
                    f"undefined label {inst.target!r} at pc {pc}"
                )
            inst = inst.with_target(labels[inst.target])
        resolved.append(inst)
    return Program(
        instructions=resolved,
        labels=dict(labels),
        data=DataSegment.of(data),
        name=name,
    )

"""Functional data memory.

Word-addressed sparse memory.  The timing side (caches, latencies) lives in
:mod:`repro.memory`; this class only provides architectural load/store
semantics, including the non-faulting behaviour that speculative loads rely
on (Section 2.2: "non-faulting or deferred-faulting load instructions").
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple, Union

Value = Union[int, float]

#: Bytes per data word, used to convert word addresses into byte addresses
#: for the cache models.
WORD_BYTES = 8


class MemoryFault(Exception):
    """Raised by a *non-speculative* access to an invalid address."""


class Memory:
    """Sparse word-addressed memory with a configurable valid range.

    Addresses in ``[0, limit)`` are valid; anything else faults unless the
    access is speculative, in which case the load returns 0 with the fault
    suppressed (the behaviour the transformation depends on when hoisting
    loads above a resolution point).
    """

    __slots__ = ("_words", "limit", "faults_suppressed")

    def __init__(self, limit: int = 1 << 24) -> None:
        self._words: Dict[int, Value] = {}
        self.limit = limit
        #: Count of faults suppressed on speculative loads (observability).
        self.faults_suppressed = 0

    def _check(self, address: int) -> bool:
        return 0 <= address < self.limit

    def load(self, address: int, speculative: bool = False) -> Value:
        if speculative:
            return self.load_speculative(address)[0]
        if not self._check(address):
            raise MemoryFault(f"load from invalid address {address:#x}")
        return self._words.get(address, 0)

    def load_speculative(self, address: int) -> Tuple[Value, bool]:
        """Non-faulting load: ``(value, suppressed)``.

        This is the *single* home of the out-of-range suppression
        semantics (zero value, ``faults_suppressed`` bump) so that the
        simulators' hoisted-load paths and :meth:`load` cannot drift.
        The flag lets timing models charge a suppressed access the L1
        latency instead of consulting the cache hierarchy.
        """
        if 0 <= address < self.limit:
            return self._words.get(address, 0), False
        self.faults_suppressed += 1
        return 0, True

    def store(self, address: int, value: Value) -> None:
        if not self._check(address):
            raise MemoryFault(f"store to invalid address {address:#x}")
        self._words[address] = value

    def load_block(self, base: int, values: Iterable[Value]) -> None:
        """Initialise consecutive words starting at ``base``."""
        for offset, value in enumerate(values):
            self.store(base + offset, value)

    @classmethod
    def from_segment(cls, segment, limit: int = 1 << 24) -> "Memory":
        """A memory holding a program's initial words: its read-only
        :class:`~repro.isa.DataSegment`, bulk-loaded at C speed.  The
        segment's cached address bounds replace :meth:`store`'s
        per-word check, so a word outside ``[0, limit)`` raises
        :class:`MemoryFault` here, before any instruction runs."""
        lo, hi = segment.bounds()
        if lo < 0 or hi >= limit:
            bad = lo if lo < 0 else hi
            raise MemoryFault(
                f"data segment word at invalid address {bad:#x}"
            )
        memory = cls(limit)
        memory._words.update(segment.items())
        return memory

    @classmethod
    def from_snapshot(
        cls, pairs: Iterable[Tuple[int, Value]], faults_suppressed: int = 0
    ) -> "Memory":
        """Rebuild a memory from :meth:`snapshot`-shaped pairs; a later
        pair for an address overrides an earlier one.

        The pairs come from a previously validated run (a trace's final
        state), so this skips the per-word bounds check of
        :meth:`store` and bulk-loads at C speed -- snapshots can hold
        hundreds of thousands of words.
        """
        memory = cls()
        memory._words.update(pairs)
        memory.faults_suppressed = faults_suppressed
        return memory

    def snapshot(self) -> Tuple[Tuple[int, Value], ...]:
        """Sorted (address, value) pairs with zero entries dropped."""
        return tuple(
            sorted((a, v) for a, v in self._words.items() if v != 0)
        )

    def __len__(self) -> int:
        return len(self._words)

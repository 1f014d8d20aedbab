"""IR functions: an ordered collection of basic blocks plus a data segment.

Block *layout order* matters: fall-through edges go to the next block the
lowering emits, and the paper's notion of a "forward branch" (the only kind
the transformation targets) is defined against layout order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Union

from ..isa import DataSegment, Instruction
from .basic_block import BasicBlock, IRError

Value = Union[int, float]


@dataclass
class Function:
    """A function: named blocks in layout order, entry first.

    ``data`` is a dict while a :class:`~repro.ir.FunctionBuilder`
    fills it, and a read-only :class:`~repro.isa.DataSegment` once
    frozen (the artifact store freezes every build it memoises)."""

    name: str
    blocks: Dict[str, BasicBlock] = field(default_factory=dict)
    data: Union[Dict[int, Value], DataSegment] = field(default_factory=dict)

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise IRError(f"function {self.name} has no blocks")
        return next(iter(self.blocks.values()))

    def add_block(
        self, block: BasicBlock, after: Optional[str] = None
    ) -> BasicBlock:
        """Insert ``block``, optionally right after block ``after`` in layout."""
        if block.name in self.blocks:
            raise IRError(f"duplicate block {block.name}")
        if after is None:
            self.blocks[block.name] = block
            return block
        if after not in self.blocks:
            raise IRError(f"no block named {after}")
        items = []
        for name, existing in self.blocks.items():
            items.append((name, existing))
            if name == after:
                items.append((block.name, block))
        self.blocks = dict(items)
        return block

    def block(self, name: str) -> BasicBlock:
        try:
            return self.blocks[name]
        except KeyError:
            raise IRError(f"no block named {name}") from None

    def layout_index(self, name: str) -> int:
        for index, block_name in enumerate(self.blocks):
            if block_name == name:
                return index
        raise IRError(f"no block named {name}")

    def layout(self) -> List[str]:
        return list(self.blocks)

    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks.values():
            yield from block.instructions()

    def static_instruction_count(self) -> int:
        return sum(len(block) for block in self.blocks.values())

    def fresh_block_name(self, base: str) -> str:
        """A block name derived from ``base`` that is not yet used."""
        if base not in self.blocks:
            return base
        index = 1
        while f"{base}.{index}" in self.blocks:
            index += 1
        return f"{base}.{index}"

    def validate(self) -> None:
        """Check structural invariants; raises :class:`IRError` on failure."""
        for block in self.blocks.values():
            for succ in block.successors():
                if succ not in self.blocks:
                    raise IRError(
                        f"block {block.name} references missing block {succ}"
                    )
            term = block.terminator
            if term is None and block.fallthrough is None:
                raise IRError(f"block {block.name} has no successor and no halt")
            for inst in block.body:
                if inst.is_terminator:
                    raise IRError(
                        f"terminator {inst.opcode.name} inside body of "
                        f"{block.name}"
                    )

    def clone(self) -> "Function":
        """Deep-enough copy: instructions are immutable, blocks are not.

        A read-only :class:`~repro.isa.DataSegment` is shared with the
        clone; a mutable data dict is copied."""
        data = self.data
        copied = Function(
            name=self.name,
            data=data if isinstance(data, DataSegment) else dict(data),
        )
        for block in self.blocks.values():
            copied.blocks[block.name] = BasicBlock(
                name=block.name,
                body=list(block.body),
                terminator=block.terminator,
                fallthrough=block.fallthrough,
            )
        return copied

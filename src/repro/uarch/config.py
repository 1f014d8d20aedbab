"""Machine configuration (paper Table 1)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..branchpred import DirectionPredictor, HybridPredictor
from ..memory import HierarchyConfig


@dataclass
class MachineConfig:
    """Parameters of one in-order superscalar configuration.

    Defaults reproduce the paper's Table 1 with the experimentally varied
    width set to 4 (the configuration Table 2 reports).
    """

    #: Fetch/decode/dispatch and issue width (paper varies 2/4/8).
    width: int = 4
    #: Front-end depth in stages; a redirect costs this many cycles before
    #: the first correct-path instruction can issue.
    front_end_stages: int = 5
    fetch_buffer_entries: int = 32
    #: Functional-unit ports (Table 1: up to 2x LD/ST, 2x INT/SIMD-permute,
    #: 4x 64-bit SIMD/FP, 1-cycle bypass).
    mem_ports: int = 2
    int_ports: int = 2
    fp_ports: int = 4
    btb_entries: int = 4096
    ras_entries: int = 64
    dbb_entries: int = 16
    predictor_factory: Callable[[], DirectionPredictor] = HybridPredictor
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    #: Extra fetch bubble when a taken-predicted branch misses in the BTB.
    btb_miss_bubble: int = 1
    #: Fetch bubbles after any taken redirect of the fetch stream.
    taken_redirect_bubble: int = 1

    def __post_init__(self) -> None:
        if self.width not in (1, 2, 4, 8, 16):
            raise ValueError(f"unsupported width {self.width}")
        # Zero ports of a class would stall issue forever; an empty
        # fetch buffer has no entry to gate fetch on.
        for name in ("int_ports", "mem_ports", "fp_ports",
                     "fetch_buffer_entries"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be at least 1, got {getattr(self, name)}"
                )

    @classmethod
    def paper_default(cls, width: int = 4) -> "MachineConfig":
        """The Table 1 machine at the given issue width."""
        return cls(width=width)

    def with_predictor(
        self, factory: Callable[[], DirectionPredictor]
    ) -> "MachineConfig":
        from dataclasses import replace

        return replace(self, predictor_factory=factory)

    def with_icache_bytes(self, size_bytes: int) -> "MachineConfig":
        """Variant with a different L1-I capacity (Section 6.1 sweep)."""
        from dataclasses import replace

        hierarchy = HierarchyConfig(**vars(self.hierarchy))
        hierarchy.l1i_bytes = size_bytes
        return replace(self, hierarchy=hierarchy)

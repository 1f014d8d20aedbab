"""Machine configuration defaults must reproduce the paper's Table 1."""

import pytest

from repro.branchpred import HybridPredictor, TagePredictor
from repro.uarch import MachineConfig


class TestTable1:
    def test_default_width_options(self):
        for width in (2, 4, 8):
            assert MachineConfig.paper_default(width).width == width

    def test_front_end(self):
        config = MachineConfig.paper_default()
        assert config.front_end_stages == 5
        assert config.fetch_buffer_entries == 32

    def test_functional_units(self):
        config = MachineConfig.paper_default()
        assert config.mem_ports == 2  # 2x LD/ST
        assert config.int_ports == 2  # 2x INT/SIMD-permute
        assert config.fp_ports == 4  # 4x 64-bit SIMD/FP

    def test_predictor_structures(self):
        config = MachineConfig.paper_default()
        assert config.btb_entries == 4096
        assert config.ras_entries == 64
        predictor = config.predictor_factory()
        assert isinstance(predictor, HybridPredictor)
        assert predictor.storage_bits == 24 * 1024 * 8

    def test_dbb_entries(self):
        assert MachineConfig.paper_default().dbb_entries == 16

    def test_cache_hierarchy(self):
        h = MachineConfig.paper_default().hierarchy
        assert h.l1d_bytes == 32 * 1024 and h.l1d_assoc == 8
        assert h.l1i_bytes == 32 * 1024 and h.l1i_assoc == 4
        assert h.l2_bytes == 256 * 1024 and h.l2_assoc == 16
        assert h.l3_bytes == 4 * 1024 * 1024 and h.l3_assoc == 32
        assert h.line_bytes == 64
        assert h.l1_latency == 4
        assert h.l2_latency == 12
        assert h.l3_latency == 25
        assert h.dram_latency == 140
        assert h.miss_buffer_entries == 64

    @pytest.mark.parametrize(
        "field, value",
        [
            ("width", 3),
            ("int_ports", 0),
            ("mem_ports", 0),
            ("fp_ports", 0),
            ("fetch_buffer_entries", 0),
            ("mem_ports", -1),
        ],
    )
    def test_unsupported_width_rejected(self, field, value):
        """Unsupported widths and degenerate machines (a port class or
        the fetch buffer below one) fail at construction, not mid-run."""
        with pytest.raises(ValueError, match=field):
            MachineConfig(**{field: value})


class TestVariants:
    def test_with_predictor(self):
        config = MachineConfig.paper_default().with_predictor(TagePredictor)
        assert isinstance(config.predictor_factory(), TagePredictor)
        # Original untouched.
        assert isinstance(
            MachineConfig.paper_default().predictor_factory(), HybridPredictor
        )

    def test_with_icache_bytes(self):
        small = MachineConfig.paper_default().with_icache_bytes(24 * 1024)
        assert small.hierarchy.l1i_bytes == 24 * 1024
        assert small.hierarchy.l1d_bytes == 32 * 1024  # unchanged

"""Unit tests for the occupancy calculator and context cost model."""

import pytest

from repro.errors import ConfigError
from repro.gpu.config import GpuConfig
from repro.gpu.context import ContextCostModel
from repro.gpu.occupancy import KernelResources, OccupancyCalculator


class TestKernelResources:
    def test_defaults(self):
        res = KernelResources()
        assert res.warps_per_block == 8
        assert res.registers_per_block == 256 * 24

    def test_rejects_nonwarp_block(self):
        with pytest.raises(ConfigError):
            KernelResources(threads_per_block=100)

    def test_context_bytes_matches_paper_footnote5(self):
        # Footnote 5: a 2048-thread block with 10 registers/thread needs
        # 80 KB of registers + 5 KB of state = 85 KB.
        res = KernelResources(threads_per_block=2048, registers_per_thread=10)
        assert res.context_bytes() == 85 * 1024


class TestOccupancy:
    def test_thread_limit_binds_for_graph_kernels(self):
        # 1024 threads/SM with 256-thread blocks -> 4 blocks.
        calc = OccupancyCalculator(GpuConfig())
        res = KernelResources(threads_per_block=256, registers_per_thread=24)
        assert calc.blocks_per_sm(res) == 4

    def test_register_limit_binds_for_fat_kernels(self):
        calc = OccupancyCalculator(GpuConfig())
        res = KernelResources(threads_per_block=256, registers_per_thread=128)
        # 65536 regs / (256*128) = 2 blocks.
        assert calc.blocks_per_sm(res) == 2

    def test_shared_memory_limit(self):
        calc = OccupancyCalculator(GpuConfig())
        res = KernelResources(
            threads_per_block=64,
            registers_per_thread=16,
            shared_memory_per_block=32 * 1024,
        )
        assert calc.blocks_per_sm(res) == 2

    def test_rejects_kernel_exceeding_sm(self):
        calc = OccupancyCalculator(GpuConfig())
        with pytest.raises(ConfigError):
            calc.blocks_per_sm(
                KernelResources(threads_per_block=1024, registers_per_thread=255)
            )

    def test_vt_extra_blocks_zero_when_registers_exhausted(self):
        # The paper's key point: register-hungry graph kernels leave no
        # room for baseline Virtual Thread at the thread limit (the graph
        # workload builders use 56 registers/thread for this reason).
        calc = OccupancyCalculator(GpuConfig())
        res = KernelResources(threads_per_block=256, registers_per_thread=56)
        assert calc.vt_extra_blocks(res) == 0

    def test_vt_extra_blocks_positive_for_lean_kernels(self):
        calc = OccupancyCalculator(GpuConfig())
        res = KernelResources(threads_per_block=256, registers_per_thread=8)
        assert calc.vt_extra_blocks(res) > 0


class TestContextCost:
    def test_switch_is_save_plus_restore(self):
        model = ContextCostModel(GpuConfig())
        res = KernelResources()
        assert model.switch_cycles(res) == (
            model.save_cycles(res) + model.restore_cycles(res)
        )

    def test_bigger_context_costs_more(self):
        model = ContextCostModel(GpuConfig())
        small = KernelResources(threads_per_block=64, registers_per_thread=16)
        big = KernelResources(threads_per_block=1024, registers_per_thread=32)
        assert model.switch_cycles(big) > model.switch_cycles(small)

    def test_ideal_cost_matches_section_6_5_example(self):
        # 85 KB context over 1024 bits/cycle -> 680 cycles per direction
        # is the paper's example; our ideal cost covers save + restore.
        model = ContextCostModel(GpuConfig())
        res = KernelResources(threads_per_block=2048, registers_per_thread=10)
        assert model.ideal_switch_cycles(res) == 2 * 680

    def test_ideal_much_cheaper_than_global_memory(self):
        model = ContextCostModel(GpuConfig())
        res = KernelResources()
        assert model.ideal_switch_cycles(res) < model.switch_cycles(res)

    def test_multiplier_scales_cost(self):
        res = KernelResources()
        base = ContextCostModel(GpuConfig()).switch_cycles(res)
        doubled = ContextCostModel(GpuConfig(), cost_multiplier=2.0).switch_cycles(res)
        assert doubled == pytest.approx(2 * base, rel=0.01)

    def test_rejects_negative_multiplier(self):
        with pytest.raises(ValueError):
            ContextCostModel(GpuConfig(), cost_multiplier=-1)

"""Occupancy calculation.

When a kernel launches, the GPU runtime decides how many thread blocks to
dispatch to each SM based on the SM's hardware resources (Section 2.1):
thread slots, block slots, register file, and shared memory.  The paper's
key observation is that for most graph workloads the *thread* limit binds,
and once the maximum number of threads is resident the register file is
nearly exhausted, so baseline Virtual Thread cannot host even one extra
block without full context switching.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.gpu.config import WARP_SIZE, GpuConfig


@dataclass(frozen=True)
class KernelResources:
    """Per-kernel resource requirements."""

    threads_per_block: int = 256
    registers_per_thread: int = 24
    shared_memory_per_block: int = 0

    def __post_init__(self) -> None:
        if self.threads_per_block <= 0 or self.threads_per_block % WARP_SIZE:
            raise ConfigError("threads_per_block must be a positive multiple of 32")
        if self.registers_per_thread <= 0:
            raise ConfigError("registers_per_thread must be positive")
        if self.shared_memory_per_block < 0:
            raise ConfigError("shared_memory_per_block must be non-negative")

    @property
    def warps_per_block(self) -> int:
        return self.threads_per_block // WARP_SIZE

    @property
    def registers_per_block(self) -> int:
        return self.threads_per_block * self.registers_per_thread

    def context_bytes(self) -> int:
        """Bytes that must be saved/restored to context-switch one block.

        Register state plus per-thread-block scheduling state (warp ids,
        block ids, SIMT stack with program counters), estimated per the
        Virtual Thread paper at ~2.5 bytes/thread (footnote 5: 5 KB for a
        2048-thread block).
        """
        register_bytes = self.registers_per_block * 4
        state_bytes = (self.threads_per_block * 5 * 1024) // 2048
        return register_bytes + state_bytes


class OccupancyCalculator:
    """Compute how many blocks of a kernel fit on one SM."""

    def __init__(self, gpu: GpuConfig) -> None:
        self._gpu = gpu

    def blocks_per_sm(self, res: KernelResources) -> int:
        """Blocks per SM under the *scheduling* limit (baseline dispatch)."""
        gpu = self._gpu
        by_threads = gpu.threads_per_sm // res.threads_per_block
        by_blocks = gpu.max_blocks_per_sm
        by_registers = gpu.registers_per_sm // res.registers_per_block
        limits = [by_threads, by_blocks, by_registers]
        if res.shared_memory_per_block:
            limits.append(
                gpu.shared_memory_bytes_per_sm // res.shared_memory_per_block
            )
        blocks = min(limits)
        if blocks < 1:
            raise ConfigError(
                "kernel resources exceed SM capacity: "
                f"threads={by_threads}, regs={by_registers}"
            )
        return blocks

    def vt_extra_blocks(self, res: KernelResources) -> int:
        """Extra blocks baseline Virtual Thread could host *without* full
        context switching, i.e. within spare register-file capacity.

        For the paper's graph workloads (>16 registers/thread at the thread
        limit) this is zero, which is why TO needs register save/restore to
        global memory.
        """
        gpu = self._gpu
        scheduled = self.blocks_per_sm(res)
        # VT ignores the *scheduling* limits (thread/block-slot counters,
        # SIMT stacks) but must fit within the *capacity* limits: register
        # file and shared memory.
        spare_regs = gpu.registers_per_sm - scheduled * res.registers_per_block
        extra = spare_regs // res.registers_per_block
        if res.shared_memory_per_block:
            spare_smem = (
                gpu.shared_memory_bytes_per_sm
                - scheduled * res.shared_memory_per_block
            )
            extra = min(extra, spare_smem // res.shared_memory_per_block)
        return max(0, extra)

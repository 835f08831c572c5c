"""GPU hardware substrate: configuration, warps, blocks, SMs, dispatch."""

from repro.gpu.config import GpuConfig, SimConfig, UvmConfig
from repro.gpu.context import ContextCostModel
from repro.gpu.occupancy import KernelResources, OccupancyCalculator
from repro.gpu.thread_block import BlockState, ThreadBlock
from repro.gpu.warp import WarpOp, WarpState
from repro.gpu.warp_soa import SoAWarp, WarpStore

__all__ = [
    "GpuConfig",
    "SimConfig",
    "UvmConfig",
    "ContextCostModel",
    "KernelResources",
    "OccupancyCalculator",
    "BlockState",
    "ThreadBlock",
    "SoAWarp",
    "WarpOp",
    "WarpState",
    "WarpStore",
]

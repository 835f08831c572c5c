"""Reproduction of "Batch-Aware Unified Memory Management in GPUs for
Irregular Workloads" (Kim et al., ASPLOS 2020).

Public API
----------

* :class:`~repro.simulator.GpuUvmSimulator` / :func:`~repro.simulator.simulate`
  — run one workload under one system configuration.
* :class:`~repro.gpu.config.SimConfig` and friends — Table 1 configuration.
* :mod:`repro.systems` — named system presets (BASELINE, TO, UE, TO+UE, ETC...).
* :func:`~repro.workloads.registry.build_workload` — the 11 irregular and
  6 regular workloads at four scales.
* :mod:`repro.experiments` — one module per paper figure/table.
* :mod:`repro.obs` — span tracing, metric registry, and Perfetto/Chrome
  trace export (see ``docs/observability.md``).
"""

from repro import obs, systems
from repro.obs import Observability
from repro.gpu.config import EtcConfig, GpuConfig, SimConfig, ToConfig, UvmConfig
from repro.simulator import GpuUvmSimulator, SimulationResult, simulate
from repro.workloads.registry import SCALES, build_workload, workload_names

__version__ = "1.0.0"

__all__ = [
    "obs",
    "Observability",
    "systems",
    "EtcConfig",
    "GpuConfig",
    "SimConfig",
    "ToConfig",
    "UvmConfig",
    "GpuUvmSimulator",
    "SimulationResult",
    "simulate",
    "SCALES",
    "build_workload",
    "workload_names",
    "__version__",
]

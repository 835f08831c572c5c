"""Workloads: GraphBIG-style irregular kernels + regular analogues."""

from repro.workloads.graph import CsrGraph, generate_rmat, generate_uniform
from repro.workloads.registry import (
    IRREGULAR_WORKLOADS,
    REGULAR_WORKLOADS,
    build_workload,
    workload_names,
)
from repro.workloads.trace import KernelBuilder, KernelTrace, Workload

__all__ = [
    "CsrGraph",
    "generate_rmat",
    "generate_uniform",
    "IRREGULAR_WORKLOADS",
    "REGULAR_WORKLOADS",
    "build_workload",
    "workload_names",
    "KernelBuilder",
    "KernelTrace",
    "Workload",
]

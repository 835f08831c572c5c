"""Tests for runahead fault probing (the Section 4.1 alternative)."""

import pytest

from repro import GpuUvmSimulator, build_workload, systems
from repro.workloads.registry import SCALES
from tests.warp_factory import make_store
from tests.warp_ops import WarpOp

RATIO = SCALES["tiny"].half_memory_ratio


def independent(op):
    store = make_store([[op]])
    return store.op_independent(0)[0], store.op_pages[0][0]


class TestWarpOpDependence:
    def test_default_everything_independent(self):
        probeable, pages = independent(WarpOp(8, (0x1000, 0x2000)))
        assert probeable == pages == (1, 2)

    def test_dependent_addresses_excluded(self):
        probeable, pages = independent(
            WarpOp(8, (0x1000, 0x2000), dependent_addresses=(0x2000,))
        )
        assert probeable == (1,)
        assert pages == (1, 2)

    def test_fully_dependent_op(self):
        probeable, _ = independent(WarpOp(8, (0x1000,), dependent_addresses=(0x1000,)))
        assert probeable == ()


class TestTracesTagDependence:
    def test_expansion_dst_addresses_are_dependent(self):
        workload = build_workload("BFS-TTC", scale="tiny")
        vas = workload.address_space
        vprop_pages = set(vas["vprop"].page_range(vas.page_shift))
        tagged = 0
        for kernel in workload.kernels:
            pages = kernel.addresses[kernel.dependent] >> vas.page_shift
            assert set(pages.tolist()) <= vprop_pages
            tagged += pages.size
        assert tagged > 0


class TestRunaheadExecution:
    def test_probes_generate_extra_faults(self):
        workload = build_workload("BFS-TTC", scale="tiny")
        config = systems.RUNAHEAD.configure(workload, ratio=RATIO)
        result = GpuUvmSimulator(workload, config).run()
        assert result.extras["runahead_probes"] > 0
        assert result.extras["runahead_faults"] > 0

    def test_disabled_by_default(self):
        workload = build_workload("BFS-TTC", scale="tiny")
        config = systems.BASELINE.configure(workload, ratio=RATIO)
        result = GpuUvmSimulator(workload, config).run()
        assert result.extras["runahead_probes"] == 0

    def test_completes_and_stays_consistent(self):
        workload = build_workload("KCORE", scale="tiny")
        config = systems.RUNAHEAD.configure(workload, ratio=RATIO)
        sim = GpuUvmSimulator(workload, config)
        result = sim.run()
        assert result.exec_cycles > 0
        assert not sim.runtime.waiting_pages()
        assert sim.memory.resident_pages <= config.uvm.frames

    def test_runahead_grows_batches_for_bfs(self):
        workload = build_workload("BFS-TTC", scale="tiny")
        base = GpuUvmSimulator(
            workload, systems.BASELINE.configure(workload, ratio=RATIO)
        ).run()
        runahead = GpuUvmSimulator(
            workload, systems.RUNAHEAD.configure(workload, ratio=RATIO)
        ).run()
        assert (
            runahead.batch_stats.mean_batch_pages
            > base.batch_stats.mean_batch_pages
        )

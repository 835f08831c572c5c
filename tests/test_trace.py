"""Unit tests for trace containers and builders."""

import pickle

import pytest

from repro.errors import WorkloadError
from repro.vm.address_space import AddressSpace
from repro.workloads.trace import (
    BlockTrace,
    KernelTrace,
    WarpOpsBuilder,
    Workload,
    group_warps_into_blocks,
)
from tests.warp_ops import WarpOp, ops_of, warp_trace


class TestWarpOpsBuilder:
    def test_access_emits_op(self):
        builder = WarpOpsBuilder()
        builder.access([100, 200])
        trace = builder.build()
        assert trace.num_ops == 1
        assert trace.addresses.tolist() == [100, 200]
        assert trace.op_end.tolist() == [2]

    def test_empty_access_skipped(self):
        builder = WarpOpsBuilder()
        builder.access([])
        assert builder.build().num_ops == 0

    def test_compute_stretch(self):
        builder = WarpOpsBuilder()
        builder.compute(50)
        trace = builder.build()
        assert trace.compute.tolist() == [50]
        assert trace.op_end.tolist() == [0]
        assert trace.addresses.size == 0

    def test_nonpositive_compute_skipped(self):
        builder = WarpOpsBuilder()
        builder.compute(0)
        assert builder.build().num_ops == 0

    def test_store_flag_propagates(self):
        builder = WarpOpsBuilder()
        builder.access([1], is_store=True)
        assert builder.build().store.tolist() == [True]

    def test_jitter_bounded(self):
        builder = WarpOpsBuilder(compute_cycles=10)
        for _ in range(10):
            builder.access([4])
        cycles = builder.build().compute.tolist()
        assert all(10 <= c < 15 for c in cycles)

    def test_masks_mark_addresses_by_value(self):
        builder = WarpOpsBuilder()
        builder.access(
            [8, 16, 8, 24], store_addresses=[8], dependent_addresses=[16, 24]
        )
        trace = builder.build()
        assert trace.store.tolist() == [True, False, True, False]
        assert trace.dependent.tolist() == [False, True, False, True]

    def test_store_outside_access_rejected(self):
        with pytest.raises(WorkloadError):
            WarpOpsBuilder().access([8], store_addresses=[16])

    def test_access_many_matches_access(self):
        one_by_one = WarpOpsBuilder()
        one_by_one.access([0])
        one_by_one.access([8, 16], store_addresses=[16], dependent_addresses=[16])
        one_by_one.access([24])
        at_once = WarpOpsBuilder()
        at_once.access([0])
        at_once.access_many(
            [8, 16, 24], [2, 3], [False, True, False], [False, True, False]
        )
        for a, b in zip(columns(one_by_one.build()), columns(at_once.build())):
            assert a.tolist() == b.tolist()


def columns(trace):
    return (trace.addresses, trace.op_end, trace.compute, trace.store, trace.dependent)


class TestContainers:
    def make_kernel(self):
        blocks = [
            BlockTrace(
                [warp_trace([WarpOp(8, (0x1000,))]), warp_trace([WarpOp(8, (0x2000,))])]
            ),
            BlockTrace([warp_trace([WarpOp(8, (0x1000, 0x3000))])]),
        ]
        return KernelTrace("k", blocks)

    def test_counts(self):
        kernel = self.make_kernel()
        assert kernel.num_blocks == 2
        assert kernel.num_ops == 3
        assert kernel.blocks[0].num_warps == 2

    def test_block_pages(self):
        kernel = self.make_kernel()
        assert kernel.blocks[0].pages(12) == {1, 2}
        assert kernel.blocks[1].pages(12) == {1, 3}

    def test_kernel_pages_union(self):
        assert self.make_kernel().pages(12) == {1, 2, 3}

    def test_workload_requires_kernels(self):
        vas = AddressSpace(4096)
        vas.allocate("a", 10, 4)
        with pytest.raises(WorkloadError):
            Workload("w", vas, [])

    def test_workload_footprint(self):
        vas = AddressSpace(4096)
        vas.allocate("a", 4096, 4)  # 4 pages
        workload = Workload("w", vas, [self.make_kernel()])
        assert workload.footprint_pages == 4
        assert workload.num_ops == 3

    def test_kernel_concatenates_warps_in_block_order(self):
        kernel = self.make_kernel()
        assert kernel.addresses.tolist() == [0x1000, 0x2000, 0x1000, 0x3000]
        assert kernel.op_end.tolist() == [1, 2, 4]
        assert kernel.warp_start.tolist() == [0, 1, 2, 3]
        assert kernel.block_start.tolist() == [0, 2, 3]
        assert kernel.warp(2).addresses.tolist() == [0x1000, 0x3000]
        assert kernel.warp(2).op_end.tolist() == [2]

    def test_ops_read_back_from_columns(self):
        ops = [WarpOp(8, (0x1000, 0x2000), store_addresses=(0x2000,)), WarpOp(5)]
        (block,) = ops_of(KernelTrace("k", [BlockTrace([warp_trace(ops)])]))
        ((back, compute_only),) = block
        assert back.addresses == (0x1000, 0x2000)
        assert back.store_addresses == (0x2000,)
        assert (compute_only.compute_cycles, compute_only.addresses) == (5, ())

    def test_pickle_round_trip_keeps_columns_and_blocks(self):
        kernel = pickle.loads(pickle.dumps(self.make_kernel()))
        assert kernel.num_blocks == 2
        assert kernel.blocks[1].pages(12) == {1, 3}
        assert kernel.addresses.tolist() == [0x1000, 0x2000, 0x1000, 0x3000]


class TestHelpers:
    def test_group_warps_into_blocks(self):
        warp_ops = [warp_trace([WarpOp(1, (i,))]) for i in range(10)]
        blocks = group_warps_into_blocks(warp_ops, warps_per_block=4)
        assert [b.num_warps for b in blocks] == [4, 4, 2]

    def test_group_rejects_bad_size(self):
        with pytest.raises(WorkloadError):
            group_warps_into_blocks([], 0)

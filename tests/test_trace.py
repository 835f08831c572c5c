"""Unit tests for trace containers and builders."""

import pickle

import numpy as np
import pytest

from repro.errors import ConfigError, WorkloadError
from repro.gpu.occupancy import KernelResources
from repro.vm.address_space import AddressSpace
from repro.workloads.trace import KernelBuilder, Workload
from tests.trace_oracle import WarpOpsBuilder
from tests.warp_ops import WarpOp, kernel_of, ops_of


class TestWarpOpsBuilder:
    """The per-warp reference builder of the trace oracle."""

    def test_access_emits_op(self):
        builder = WarpOpsBuilder()
        builder.access([100, 200])
        trace = builder.build()
        assert len(trace.compute) == 1
        assert trace.addresses.tolist() == [100, 200]
        assert trace.op_end.tolist() == [2]

    def test_empty_access_skipped(self):
        builder = WarpOpsBuilder()
        builder.access([])
        assert len(builder.build().compute) == 0

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
        assert len(builder.build().compute) == 0

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
        for a, b in zip(one_by_one.build(), at_once.build()):
            assert a.tolist() == b.tolist()


def columns(kernel):
    return [
        column.tolist()
        for column in (
            kernel.addresses,
            kernel.op_end,
            kernel.compute,
            kernel.store,
            kernel.dependent,
            kernel.warp_start,
            kernel.block_start,
        )
    ]


class TestKernelBuilder:
    def test_streams_interleave_by_warp(self):
        # Two streams over two warps: each warp runs its ops of the first
        # stream, then those of the second, in stream order.
        builder = KernelBuilder("k", 2)
        builder.access([0, 1, 0], [1, 2, 1], [10, 20, 21, 11])
        builder.access([1, 0], [1, 1], [30, 31], store=[True, False])
        kernel = builder.build()
        assert kernel.addresses.tolist() == [10, 11, 31, 20, 21, 30]
        assert kernel.op_end.tolist() == [1, 2, 3, 5, 6]
        assert kernel.store.tolist() == [False, False, False, False, False, True]
        assert kernel.warp_start.tolist() == [0, 3, 5]
        assert kernel.block_start.tolist() == [0, 2]

    def test_jitter_counts_every_op_of_the_warp(self):
        builder = KernelBuilder("k", 2, compute_cycles=10)
        builder.access([0, 1], [1, 1], [1, 2])
        builder.access(0, [0], [], compute=50)
        builder.access([0, 0, 1], [1, 1, 1], [3, 4, 5], compute=16)
        # Warp 0 runs ops k = 0..3 (the stretch is op 1 and takes no
        # jitter); warp 1 runs ops k = 0..1.
        assert builder.build().compute.tolist() == [10, 50, 18, 19, 10, 17]

    def test_op_without_addresses_is_a_compute_stretch(self):
        builder = KernelBuilder("k", 1)
        builder.access(0, [0, 2, 0], [1, 2], compute=50)
        kernel = builder.build()
        assert kernel.op_end.tolist() == [0, 2, 2]
        assert kernel.compute.tolist() == [50, 51, 50]

    def test_warp_ops_group_addresses_by_warp(self):
        builder = KernelBuilder("k", 3)
        builder.warp_ops([2, 0, 2, 0], [1, 2, 3, 4], store=True)
        kernel = builder.build()
        assert kernel.addresses.tolist() == [2, 4, 1, 3]
        assert kernel.warp_start.tolist() == [0, 1, 1, 2]
        assert kernel.store.all()

    def test_lengths_must_cover_addresses(self):
        with pytest.raises(WorkloadError):
            KernelBuilder("k", 1).access(0, [3], [1, 2])

    def test_warp_out_of_range_rejected(self):
        builder = KernelBuilder("k", 2)
        builder.access([2], [1], [8])
        with pytest.raises(WorkloadError):
            builder.build()

    def test_empty_kernel(self):
        kernel = KernelBuilder("k", 0).build()
        assert (kernel.num_ops, kernel.num_warps, kernel.num_blocks) == (0, 0, 0)
        assert [column.dtype for column in (kernel.addresses, kernel.store)] == [
            np.int64,
            bool,
        ]

    def test_matches_the_per_warp_builder(self):
        op_lists = [
            [WarpOp(8, (0x1000, 0x2000), store_addresses=(0x2000,)), WarpOp(5)],
            [],
            [WarpOp(9, (0x3000,), dependent_addresses=(0x3000,))] * 7,
        ]
        kernel = kernel_of(op_lists)
        assert ops_of(kernel)[0][2][6].compute_cycles == 9
        reference = []
        for ops in op_lists:
            builder = WarpOpsBuilder()
            for k, op in enumerate(ops):
                if op.addresses:
                    builder.access(
                        op.addresses,
                        compute=op.compute_cycles - k % 5,
                        store_addresses=op.store_addresses,
                        dependent_addresses=op.dependent_addresses,
                    )
                else:
                    builder.compute(op.compute_cycles)
            reference.append(builder.build())
        assert kernel.compute.tolist() == np.concatenate(
            [w.compute for w in reference]
        ).tolist()
        assert kernel.store.tolist() == np.concatenate(
            [w.store for w in reference]
        ).tolist()


class TestContainers:
    def make_kernel(self):
        return kernel_of(
            [
                [WarpOp(8, (0x1000,))],
                [WarpOp(8, (0x2000,))],
                [WarpOp(8, (0x1000, 0x3000))],
            ],
            KernelResources(threads_per_block=64),
        )

    def test_counts(self):
        kernel = self.make_kernel()
        assert kernel.num_blocks == 2
        assert kernel.num_ops == 3
        assert np.diff(kernel.block_start).tolist() == [2, 1]

    def test_block_pages(self):
        kernel = self.make_kernel()
        assert kernel.block_pages(12) == [{1, 2}, {1, 3}]

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

    def test_ops_read_back_from_columns(self):
        ops = [WarpOp(8, (0x1000, 0x2000), store_addresses=(0x2000,)), WarpOp(5)]
        (block,) = ops_of(kernel_of([ops]))
        ((back, compute_only),) = block
        assert back.addresses == (0x1000, 0x2000)
        assert back.store_addresses == (0x2000,)
        assert (compute_only.compute_cycles, compute_only.addresses) == (5, ())

    def test_pickle_round_trip_keeps_columns_and_blocks(self):
        kernel = self.make_kernel()
        back = pickle.loads(pickle.dumps(kernel))
        assert back.num_blocks == 2
        assert back.block_pages(12)[1] == {1, 3}
        assert columns(back) == columns(kernel)


class TestHelpers:
    def test_group_warps_into_blocks(self):
        builder = KernelBuilder("k", 10, KernelResources(threads_per_block=128))
        builder.access(np.arange(10), np.ones(10, dtype=np.int64), np.arange(10))
        assert np.diff(builder.build().block_start).tolist() == [4, 4, 2]

    def test_group_rejects_bad_size(self):
        # The block size comes from the kernel's resources, which reject
        # a size that is not a positive multiple of the warp size.
        with pytest.raises(ConfigError):
            KernelBuilder("k", 4, KernelResources(threads_per_block=0))

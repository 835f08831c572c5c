"""Kernel trace containers and trace-building helpers.

A :class:`Workload` is an ordered list of :class:`KernelTrace` launches
over one :class:`~repro.vm.address_space.AddressSpace`.  Each kernel is a
grid of blocks of warps; a warp runs ops, each the compute cycles before
one coalesced memory instruction plus the byte addresses it touches.
Traces carry real byte addresses into the laid-out arrays — produced by
running the actual algorithm on the host — so the page-level fault
behaviour is the algorithm's own.

There is no Python object per op, nor per warp.  A
:class:`KernelBuilder` takes a launch's ops as NumPy streams covering
all its warps at once and builds one :class:`KernelTrace` of columns,
warp after warp: int64 ``addresses`` in issue order, per op its
``op_end`` offset into them and raw ``compute`` cycles, per address
``store`` and ``dependent`` (computable only from loaded values) masks,
and the offsets ``warp_start`` (ops) and ``block_start`` (warps).  The
simulator reads per-op tuples derived from them once per kernel
(:func:`~repro.gpu.warp_soa.kernel_derived`).
"""

from __future__ import annotations

import copyreg
from dataclasses import dataclass, field
from functools import cached_property
import numpy as np

from repro.errors import WorkloadError
from repro.gpu.occupancy import KernelResources
from repro.vm.address_space import AddressSpace

#: Default compute cycles preceding each memory op.
DEFAULT_COMPUTE_CYCLES = 8


def cumulative_offsets(counts) -> np.ndarray:
    """``[0, c0, c0 + c1, ...]``: each run's start offset, then the total."""
    return np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))


def run_ranks(counts) -> np.ndarray:
    """Each item's place in its run, runs of ``counts`` items laid end to
    end: ``[0, 1, ..., c0 - 1, 0, 1, ..., c1 - 1, ...]``."""
    counts = np.asarray(counts, dtype=np.int64)
    starts = cumulative_offsets(counts)
    return np.arange(starts[-1]) - np.repeat(starts[:-1], counts)


@dataclass(eq=False)
class KernelTrace:
    """One kernel launch: its columns (see the module docstring) and
    resource needs.  Warps form blocks of ``resources.warps_per_block``
    in order; ``block_start`` holds each block's first warp."""

    name: str
    addresses: np.ndarray
    op_end: np.ndarray
    compute: np.ndarray
    store: np.ndarray
    dependent: np.ndarray
    warp_start: np.ndarray
    block_start: np.ndarray
    resources: KernelResources = field(default_factory=KernelResources)

    @property
    def num_blocks(self) -> int:
        return len(self.block_start) - 1

    @property
    def num_ops(self) -> int:
        return len(self.compute)

    @property
    def num_warps(self) -> int:
        return len(self.warp_start) - 1

    def pages(self, page_shift: int) -> set[int]:
        return set((self.addresses >> page_shift).tolist())

    def block_pages(self, page_shift: int) -> list[set[int]]:
        """Every virtual page each block touches, block by block."""
        op_start = np.concatenate(([0], self.op_end))
        bounds = op_start[self.warp_start[self.block_start]].tolist()
        pages = (self.addresses >> page_shift).tolist()
        return [set(pages[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]

    def __getstate__(self) -> dict:
        """Pickle the columns, not the process-local per-op derived cache
        (:func:`~repro.gpu.warp_soa.kernel_derived`): the bytes must not
        depend on which time scales this process has simulated."""
        state = self.__dict__.copy()
        state.pop("_derived_cache", None)
        return state


@dataclass
class Workload:
    """A named workload: address space + kernel launch sequence.

    ``num_sms_hint`` lets scaled-down workloads suggest a proportionally
    scaled-down GPU (few blocks on a 16-SM GPU would leave most SMs idle
    and give Thread Oversubscription nothing to dispatch); system presets
    honour it when building a :class:`~repro.gpu.config.SimConfig`.

    A workload the registry built carries its canonical
    ``registry_key`` and pickles *by reference*: unpickling fetches it
    back from the registry memo (rebuilding it deterministically in a
    fresh process), so checkpoints carry simulation state, not the
    trace.  Hand-built workloads pickle by value.
    """

    name: str
    address_space: AddressSpace
    kernels: list[KernelTrace]
    irregular: bool = True
    num_sms_hint: int | None = None
    #: ``(NAME, scale, seed)`` when built by
    #: :func:`~repro.workloads.registry.build_workload`.
    registry_key: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.kernels:
            raise WorkloadError(f"workload {self.name!r} has no kernels")

    @property
    def footprint_bytes(self) -> int:
        return self.address_space.footprint_bytes

    @property
    def footprint_pages(self) -> int:
        return self.address_space.total_pages

    @property
    def num_ops(self) -> int:
        return sum(kernel.num_ops for kernel in self.kernels)

    @cached_property
    def shape(self) -> tuple[tuple[int, int], ...]:
        """Cheap structural signature: ``(warps, ops)`` per kernel.
        Checkpoints record it to guard the rebuilt trace."""
        return tuple((kernel.num_warps, kernel.num_ops) for kernel in self.kernels)

    def __reduce__(self):
        if self.registry_key is not None:
            from repro.workloads.registry import build_workload

            return (build_workload, self.registry_key)
        state = self.__dict__.copy()
        state.pop("shape", None)
        return (copyreg.__newobj__, (type(self),), state)

    def touched_pages(self) -> set[int]:
        shift = self.address_space.page_shift
        pages: set[int] = set()
        for kernel in self.kernels:
            pages.update(kernel.pages(shift))
        return pages


class KernelBuilder:
    """Builds one kernel launch's columns from op streams that cover all
    its warps at once.

    Each :meth:`access` call appends a stream of ops, each tagged with
    its warp; :meth:`build` orders every op by warp, then by stream, then
    by its place in the stream, with one stable sort and one gather.  So
    a stream must list each warp's ops in that warp's issue order, and a
    warp's ops in an earlier stream run before its ops in a later one.
    Op ``k`` of a warp (counting every op of that warp) gets ``k % 5``
    cycles of jitter on its compute, so warps do not march in lockstep;
    an op with no address is a pure-compute stretch and takes none.
    """

    def __init__(
        self,
        name: str,
        num_warps: int,
        resources: KernelResources | None = None,
        compute_cycles: int = DEFAULT_COMPUTE_CYCLES,
    ) -> None:
        self.name = name
        self.num_warps = num_warps
        self.resources = resources if resources is not None else KernelResources()
        self.compute_cycles = compute_cycles
        #: Per stream: per-op warp, length and compute, then per-address
        #: addresses, store and dependent flags (first, an empty stream).
        self._columns: list[tuple[np.ndarray, ...]] = [
            (*[np.zeros(0, dtype=np.int64)] * 4, *[np.zeros(0, dtype=bool)] * 2)
        ]

    def access(
        self,
        warp,
        lengths,
        addresses,
        store=False,
        dependent=False,
        compute: int | None = None,
    ) -> None:
        """Append a stream of coalesced accesses: op ``i`` belongs to warp
        ``warp[i]`` and reads the next ``lengths[i]`` of ``addresses``
        after ``compute`` cycles.  ``store`` marks the written addresses
        and ``dependent`` those computable only from loaded values
        (opaque to runahead probing), by position, as a scalar or one
        flag per address."""
        lengths = np.asarray(lengths, dtype=np.int64)
        addresses = np.asarray(addresses, dtype=np.int64).ravel()
        if addresses.size != lengths.sum():
            raise WorkloadError("op lengths must cover the addresses exactly")
        compute = self.compute_cycles if compute is None else compute
        self._columns.append(
            (
                np.broadcast_to(np.asarray(warp, dtype=np.int64), lengths.shape),
                lengths,
                np.broadcast_to(np.asarray(compute, dtype=np.int64), lengths.shape),
                addresses,
                np.broadcast_to(np.asarray(store, dtype=bool), addresses.shape),
                np.broadcast_to(np.asarray(dependent, dtype=bool), addresses.shape),
            )
        )

    def warp_ops(self, warp, addresses, store=False, compute: int | None = None):
        """One access per warp named in ``warp``, reading the addresses
        tagged with it: ``addresses[i]`` belongs to warp ``warp[i]`` and
        keeps its order among that warp's addresses."""
        warp = np.asarray(warp, dtype=np.int64)
        order = np.argsort(warp, kind="stable")
        op_warp, lengths = np.unique(warp, return_counts=True)
        addresses = np.asarray(addresses, dtype=np.int64)[order]
        self.access(op_warp, lengths, addresses, store, compute=compute)

    def build(self) -> KernelTrace:
        """The launch's :class:`KernelTrace`."""
        warp, lengths, compute, addresses, store, dependent = map(
            np.concatenate, zip(*self._columns)
        )
        if warp.size and (warp.min() < 0 or warp.max() >= self.num_warps):
            raise WorkloadError(f"kernel {self.name!r}: warp index out of range")
        order = np.argsort(warp, kind="stable")
        first = cumulative_offsets(lengths)[order]
        lengths = lengths[order]
        op_end = np.cumsum(lengths)
        # One gather moves every op's addresses to its place in warp order.
        source = np.repeat(first - (op_end - lengths), lengths)
        source += np.arange(source.size)
        warp_start = cumulative_offsets(np.bincount(warp, minlength=self.num_warps))
        # Jitter by op k of each warp, counting every op of that warp.
        rank = run_ranks(np.diff(warp_start))
        per_block = self.resources.warps_per_block
        return KernelTrace(
            self.name,
            addresses[source],
            op_end,
            compute[order] + np.where(lengths > 0, rank % 5, 0),
            store[source],
            dependent[source],
            warp_start,
            np.append(np.arange(0, self.num_warps, per_block), self.num_warps),
            self.resources,
        )

"""Kernel trace containers and trace-building helpers.

A :class:`Workload` is an ordered list of :class:`KernelTrace` launches
over one :class:`~repro.vm.address_space.AddressSpace`.  Each kernel is a
grid of blocks of warps; a warp runs ops, each the compute cycles before
one coalesced memory instruction plus the byte addresses it touches.
Traces carry real byte addresses into the laid-out arrays — produced by
running the actual algorithm on the host — so the page-level fault
behaviour is the algorithm's own.

There is no Python object per op.  :class:`WarpOpsBuilder` appends a
warp's ops to flat lists and builds a :class:`WarpTrace` of NumPy
columns; a :class:`KernelTrace` joins its warps, in block order, into
one set for the launch: int64 ``addresses`` in issue order, per op its
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
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.gpu.occupancy import KernelResources
from repro.vm.address_space import AddressSpace

#: Default compute cycles preceding each memory op.
DEFAULT_COMPUTE_CYCLES = 8


def cumulative_offsets(counts) -> np.ndarray:
    """``[0, c0, c0 + c1, ...]``: each run's start offset, then the total."""
    return np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))


class WarpTrace(NamedTuple):
    """One warp's ops as columns (see the module docstring); ``op_end``
    offsets index this warp's own ``addresses``."""

    addresses: np.ndarray
    op_end: np.ndarray
    compute: np.ndarray
    store: np.ndarray
    dependent: np.ndarray

    @property
    def num_ops(self) -> int:
        return len(self.compute)

    @classmethod
    def concat(cls, warps: Sequence["WarpTrace"]) -> "WarpTrace":
        """The ops of ``warps`` in order, as one trace."""
        if not warps:
            return WarpOpsBuilder().build()
        addresses, op_end, compute, store, dependent = map(np.concatenate, zip(*warps))
        # Rebase each warp's op ends onto its first address.
        op_end += np.repeat(
            cumulative_offsets([len(w.addresses) for w in warps])[:-1],
            [w.num_ops for w in warps],
        )
        return cls(addresses, op_end, compute, store, dependent)


class BlockTrace:
    """One thread block: its warps' traces."""

    def __init__(self, warp_ops: Sequence[WarpTrace]) -> None:
        self._warp_ops = list(warp_ops)

    @property
    def warp_ops(self) -> list[WarpTrace]:
        return self._warp_ops

    @property
    def num_warps(self) -> int:
        return len(self.warp_ops)

    def pages(self, page_shift: int) -> set[int]:
        """Every virtual page this block touches."""
        addresses = WarpTrace.concat(self.warp_ops).addresses
        return set((addresses >> page_shift).tolist())


class _KernelBlock(BlockTrace):
    """Block ``index`` of ``kernel``, read from the kernel's columns."""

    def __init__(self, kernel: "KernelTrace", index: int) -> None:
        self._kernel, self._index = kernel, index

    @property
    def warp_ops(self) -> list[WarpTrace]:
        lo, hi = self._kernel.block_start[self._index : self._index + 2].tolist()
        return [self._kernel.warp(i) for i in range(lo, hi)]


@dataclass
class KernelTrace:
    """One kernel launch: a grid of block traces plus resource needs.
    The blocks' warps become the kernel's columns (see the module
    docstring); the blocks it keeps are views of them."""

    name: str
    blocks: list[BlockTrace]
    resources: KernelResources = field(default_factory=KernelResources)

    def __post_init__(self) -> None:
        warps = [warp for block in self.blocks for warp in block.warp_ops]
        self.addresses, self.op_end, self.compute, self.store, self.dependent = (
            WarpTrace.concat(warps)
        )
        self.warp_start = cumulative_offsets([warp.num_ops for warp in warps])
        self.block_start = cumulative_offsets(
            [block.num_warps for block in self.blocks]
        )
        self._view_blocks()

    def _view_blocks(self) -> None:
        self.blocks = [_KernelBlock(self, b) for b in range(len(self.block_start) - 1)]

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def num_ops(self) -> int:
        return len(self.compute)

    @property
    def num_warps(self) -> int:
        return len(self.warp_start) - 1

    def warp(self, index: int) -> WarpTrace:
        """Warp ``index`` (in block order), as views of the columns."""
        lo, hi = self.warp_start[index : index + 2].tolist()
        start, end = (int(self.op_end[op - 1]) if op else 0 for op in (lo, hi))
        return WarpTrace(
            self.addresses[start:end],
            self.op_end[lo:hi] - start,
            self.compute[lo:hi],
            self.store[start:end],
            self.dependent[start:end],
        )

    def pages(self, page_shift: int) -> set[int]:
        return set((self.addresses >> page_shift).tolist())

    def __getstate__(self) -> dict:
        """Pickle the columns, not the block views, nor the process-local
        per-op derived cache (:func:`~repro.gpu.warp_soa.kernel_derived`):
        the bytes must not depend on which time scales this process has
        simulated."""
        state = self.__dict__.copy()
        state.pop("_derived_cache", None)
        del state["blocks"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._view_blocks()


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


class WarpOpsBuilder:
    """Incremental builder for one warp's ops: groups addresses into
    SIMT steps (one coalesced memory instruction per :meth:`access`) and
    attaches compute cycles, on flat lists that :meth:`build` turns into
    columns."""

    def __init__(self, compute_cycles: int = DEFAULT_COMPUTE_CYCLES) -> None:
        self.compute_cycles = compute_cycles
        self._addresses: list[int] = []
        self._op_end: list[int] = []
        self._compute: list[int] = []
        self._store: list[bool] = []
        self._dependent: list[bool] = []

    def access(
        self,
        addresses: Iterable[int],
        compute: int | None = None,
        is_store: bool = False,
        store_addresses: Iterable[int] | None = None,
        dependent_addresses: Iterable[int] | None = None,
    ) -> None:
        """Emit one coalesced access; empty address sets are skipped.

        ``store_addresses`` names the written subset of ``addresses``
        (dirty-page tracking; naming an address outside ``addresses`` is
        a :class:`~repro.errors.WorkloadError`); ``is_store`` alone marks
        the whole access as a store.  ``dependent_addresses`` names
        addresses only computable from loaded values (opaque to runahead
        probing).  Both mark addresses by value.
        """
        is_array = isinstance(addresses, np.ndarray)
        addrs = addresses.tolist() if is_array else list(addresses)
        if not addrs:
            return
        if store_addresses is None:
            store = [is_store] * len(addrs)
        else:
            stores = set(store_addresses)
            if not stores.issubset(addrs):
                raise WorkloadError("store addresses must be a subset of the access")
            store = [a in stores for a in addrs]
        found = set(dependent_addresses or ())
        dependent = [a in found for a in addrs] if found else [False] * len(addrs)
        self.access_many(addrs, [len(addrs)], store, dependent, compute)

    def access_many(
        self,
        addresses: list[int],
        op_end: list[int],
        store: list[bool],
        dependent: list[bool],
        compute: int | None = None,
    ) -> None:
        """Emit a run of accesses at once, as :meth:`access` would one by
        one: op ``k`` reads ``addresses[op_end[k - 1]:op_end[k]]`` (op 0
        from 0), and no op may be empty.  ``store`` and ``dependent``
        mark addresses by position; the caller's marks must be the ones
        :meth:`access` would set by value."""
        compute = self.compute_cycles if compute is None else compute
        first = len(self._compute)
        # Mild deterministic jitter keeps warps from marching in lockstep.
        self._compute += [compute + k % 5 for k in range(first, first + len(op_end))]
        base = len(self._addresses)
        self._op_end += [base + end for end in op_end]
        self._addresses += addresses
        self._store += store
        self._dependent += dependent

    def compute(self, cycles: int) -> None:
        """Emit a pure-compute stretch (no memory access)."""
        if cycles > 0:
            self._compute.append(cycles)
            self._op_end.append(len(self._addresses))

    def build(self) -> WarpTrace:
        return WarpTrace(
            np.array(self._addresses, dtype=np.int64),
            np.array(self._op_end, dtype=np.int64),
            np.array(self._compute, dtype=np.int64),
            np.array(self._store, dtype=bool),
            np.array(self._dependent, dtype=bool),
        )


def group_warps_into_blocks(
    warp_ops: Sequence[WarpTrace], warps_per_block: int
) -> list[BlockTrace]:
    """Chunk a flat warp list into block traces."""
    if warps_per_block <= 0:
        raise WorkloadError("warps_per_block must be positive")
    return [
        BlockTrace(warp_ops[start : start + warps_per_block])
        for start in range(0, len(warp_ops), warps_per_block)
    ]

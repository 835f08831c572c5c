"""Unified virtual address space layout.

Workloads allocate named arrays (``cudaMallocManaged`` analogues); each
allocation becomes a page-aligned :class:`Segment`.  The layout determines
which arrays share pages (they never do — allocations are page-aligned, as
in the real UVM allocator where managed allocations are rounded to 2 MB
root chunks) and therefore the fault/prefetch behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import LayoutError


@dataclass(frozen=True)
class Segment:
    """A named, page-aligned region of the unified address space.

    ``size`` is the page-aligned byte size; ``num_elements`` is the
    logical length requested at allocation (bounds checks use it).
    """

    name: str
    base: int
    size: int
    element_size: int = 4
    num_elements: int = 0

    @property
    def end(self) -> int:
        return self.base + self.size

    def addr(self, index: int) -> int:
        """Byte address of element ``index`` (bounds-checked)."""
        if not 0 <= index < self.num_elements:
            raise LayoutError(
                f"index {index} out of bounds for segment {self.name!r} "
                f"({self.num_elements} elements)"
            )
        return self.base + index * self.element_size

    def addr_unchecked(self, index: int) -> int:
        """Byte address of element ``index`` without bounds checking.

        Trace generators that have already validated indices use this on
        hot paths.
        """
        return self.base + index * self.element_size

    def addrs(self, indices) -> np.ndarray:
        """Byte addresses of elements ``indices`` as an int64 array, unchecked."""
        return self.base + self.element_size * np.asarray(indices, dtype=np.int64)

    def page_range(self, page_shift: int) -> range:
        """Virtual page numbers spanned by this segment."""
        first = self.base >> page_shift
        last = (self.end - 1) >> page_shift
        return range(first, last + 1)


class AddressSpace:
    """Allocator for page-aligned segments in a single virtual address space."""

    def __init__(self, page_size: int, base: int = 0x10_0000_0000) -> None:
        if page_size <= 0 or page_size & (page_size - 1):
            raise LayoutError("page_size must be a positive power of two")
        self.page_size = page_size
        self.page_shift = page_size.bit_length() - 1
        self._next = base
        self._segments: dict[str, Segment] = {}

    def allocate(self, name: str, num_elements: int, element_size: int = 4) -> Segment:
        """Allocate a page-aligned segment for ``num_elements`` elements."""
        if name in self._segments:
            raise LayoutError(f"segment {name!r} already allocated")
        if num_elements <= 0 or element_size <= 0:
            raise LayoutError("segment must have positive size")
        size = num_elements * element_size
        aligned = (size + self.page_size - 1) // self.page_size * self.page_size
        segment = Segment(name, self._next, aligned, element_size, num_elements)
        self._segments[name] = segment
        self._next += aligned
        return segment

    def __getitem__(self, name: str) -> Segment:
        return self._segments[name]

    def __contains__(self, name: str) -> bool:
        return name in self._segments

    @property
    def segments(self) -> tuple[Segment, ...]:
        return tuple(self._segments.values())

    @property
    def footprint_bytes(self) -> int:
        """Total allocated bytes (page-aligned)."""
        return sum(seg.size for seg in self._segments.values())

    @property
    def total_pages(self) -> int:
        return self.footprint_bytes // self.page_size

    def all_pages(self) -> set[int]:
        """Every virtual page number backing any segment."""
        pages: set[int] = set()
        for seg in self._segments.values():
            pages.update(seg.page_range(self.page_shift))
        return pages

    def segment_of_page(self, page: int) -> Segment | None:
        """Segment containing virtual page ``page``, if any."""
        addr = page << self.page_shift
        for seg in self._segments.values():
            if seg.base <= addr < seg.end:
                return seg
        return None

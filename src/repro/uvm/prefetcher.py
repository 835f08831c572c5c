"""Page prefetching.

The baseline system employs the state-of-the-art page prefetching of
Zheng et al. (HPCA'16), realized in shipping drivers as a density-based
binary-tree ("buddy") scheme over 2 MB regions: the region's 64 KB pages
form the leaves of a full binary tree; when, after adding the faulted
pages, the fraction of resident-or-scheduled pages under an internal node
exceeds a threshold (50 %), the whole subtree is migrated.  Prefetch
requests are inserted during batch preprocessing (Section 2.2), so they
ride along with the batch's demand migrations.

Prefetched pages never cross allocation boundaries (the driver prefetches
within a VA block only), which :meth:`TreePrefetcher.expand` enforces via
the ``valid`` page set.

``expand`` takes *set-like* containers (``set``/``frozenset``/dict key
views) for residency and validity rather than per-page predicates: leaf
masks are built by three C-level set intersections against the region's
page range instead of ``2 × pages_per_region`` Python calls per region,
which is where batch preprocessing used to spend most of its time.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Optional

import numpy as np

from repro.errors import ConfigError
from repro.gpu.config import UvmConfig


class NoPrefetcher:
    """Prefetching disabled: a batch migrates exactly its faulted pages."""

    name = "none"
    #: Regions examined by the most recent :meth:`expand` call (analytics).
    last_regions = 0

    def expand(
        self,
        faulted: Iterable[int],
        resident: AbstractSet[int],
        valid: Optional[AbstractSet[int]],
        limit: Optional[int] = None,
    ) -> list[int]:
        return []


class TreePrefetcher:
    """Density-based binary-tree prefetcher over fixed-size regions."""

    name = "tree"

    def __init__(self, pages_per_region: int, threshold: float) -> None:
        if pages_per_region <= 0 or pages_per_region & (pages_per_region - 1):
            raise ConfigError("pages_per_region must be a positive power of two")
        if not 0.0 < threshold <= 1.0:
            raise ConfigError("prefetch threshold must be in (0, 1]")
        self.pages_per_region = pages_per_region
        self.threshold = threshold
        #: Regions examined by the most recent expand call (analytics).
        self.last_regions = 0

    def expand(
        self,
        faulted: Iterable[int],
        resident: AbstractSet[int],
        valid: Optional[AbstractSet[int]],
        limit: Optional[int] = None,
    ) -> list[int]:
        """Return extra pages to migrate alongside the faulted ones.

        ``resident`` is a live set-like view of the resident pages (the
        runtime passes the page table's frame-key view); ``valid`` is the
        allocation-backed page set, or ``None`` when every page within a
        faulted region is prefetchable.  ``limit`` keeps the lowest
        ``limit`` pages (``None``: all); at 0 no tree is walked, which is
        every batch that finds device memory full.
        """
        faulted_set = set(faulted)
        regions = {p - p % self.pages_per_region for p in faulted_set}
        self.last_regions = len(regions)
        if limit == 0:
            return []
        extra: set[int] = set()
        for region_base in regions:
            extra.update(
                self._expand_region(region_base, faulted_set, resident, valid)
            )
        return sorted(extra)[:limit]

    def _expand_region(
        self,
        region_base: int,
        faulted: set[int],
        resident: AbstractSet[int],
        valid: Optional[AbstractSet[int]],
    ) -> set[int]:
        n = self.pages_per_region
        region_set = set(range(region_base, region_base + n))
        # Leaf state: page will be resident after this batch's demand
        # migrations (already resident or about to be migrated).
        covered_pages = (faulted & region_set) | (resident & region_set)
        valid_in = region_set if valid is None else valid & region_set
        if valid_in <= covered_pages:
            return set()  # every prefetchable page already covered
        covered = np.zeros(n, dtype=np.bool_)
        if covered_pages:
            idx = np.fromiter(covered_pages, np.intp, len(covered_pages))
            idx -= region_base
            covered[idx] = True
        if len(valid_in) == n:
            valid_mask = np.ones(n, dtype=np.bool_)
        else:
            valid_mask = np.zeros(n, dtype=np.bool_)
            if valid_in:
                idx = np.fromiter(valid_in, np.intp, len(valid_in))
                idx -= region_base
                valid_mask[idx] = True
        scheduled: set[int] = set()

        # Walk internal nodes bottom-up; spans double each level.  Nodes
        # within a level cover disjoint index ranges, so the whole level
        # evaluates as one vector op over the reshaped leaf arrays; the
        # density test divides per-node covered by valid counts exactly
        # as the scalar loop did (covered implies valid, so an all-invalid
        # node has count 0/…, never a division surprise).
        threshold = self.threshold
        span = 2
        while span <= n:
            valid_counts = valid_mask.reshape(-1, span).sum(axis=1)
            covered_counts = covered.reshape(-1, span).sum(axis=1)
            # Same IEEE division the scalar loop performed (covered==0
            # wherever valid==0, so the clamp never changes a live ratio).
            fire = (
                covered_counts / np.maximum(valid_counts, 1) > threshold
            ) & (valid_counts > 0)
            if fire.any():
                new = np.repeat(fire, span) & valid_mask & ~covered
                if new.any():
                    covered |= new
                    base = region_base
                    scheduled.update(
                        base + i for i in np.nonzero(new)[0].tolist()
                    )
            else:
                # No node fired at this level, so no higher level can: a
                # parent's density (c1+c2)/(v1+v2) never exceeds the max
                # of its children's densities, and every node at this
                # level just tested <= threshold.  Identical output to
                # walking the remaining levels; most calls stop here.
                break
            span *= 2
        return scheduled


def make_prefetcher(uvm: UvmConfig):
    """Build the configured prefetcher."""
    if uvm.prefetcher == "none":
        return NoPrefetcher()
    pages_per_region = max(1, uvm.prefetch_region_bytes // uvm.page_size)
    return TreePrefetcher(pages_per_region, uvm.prefetch_threshold)

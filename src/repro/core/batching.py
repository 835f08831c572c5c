"""Batch records and aggregate batch metrics.

Terminology (Section 2.2, Figure 2):

* **GPU runtime fault handling time** — from the beginning of a batch's
  processing to the beginning of the first page transfer.
* **Batch processing time** — from the beginning of a batch's processing
  to the migration of the last page.
* **Migration time** — the rest of the batch: from the first page
  transfer to the migration of the last page.
* **Batch size** — the number of page faults handled together; Figures 13
  and 16 report it in bytes (sum of all pages in the batch).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class BatchRecord:
    """Measurements for one processed batch."""

    index: int
    begin_time: int
    fault_entries: int = 0
    demand_pages: int = 0
    prefetched_pages: int = 0
    evicted_pages: int = 0
    page_size: int = 65536
    first_migration_time: int | None = None
    end_time: int | None = None

    @property
    def migrated_pages(self) -> int:
        return self.demand_pages + self.prefetched_pages

    @property
    def batch_bytes(self) -> int:
        return self.migrated_pages * self.page_size

    @property
    def fault_handling_time(self) -> int:
        """GPU runtime fault handling time (cycles)."""
        if self.first_migration_time is None:
            return 0
        return self.first_migration_time - self.begin_time

    @property
    def processing_time(self) -> int:
        """Batch processing time (cycles)."""
        if self.end_time is None:
            return 0
        return self.end_time - self.begin_time

    @property
    def migration_time(self) -> int:
        """Migration phase (cycles): first migration to the last page."""
        return self.processing_time - self.fault_handling_time

    @property
    def per_page_time(self) -> float:
        """Fault handling time per page: processing time / pages."""
        pages = self.migrated_pages
        return self.processing_time / pages if pages else 0.0

    @property
    def complete(self) -> bool:
        return self.end_time is not None


@dataclass
class BatchStats:
    """Aggregates over a simulation's completed batches."""

    records: list[BatchRecord] = field(default_factory=list)

    def add(self, record: BatchRecord) -> None:
        self.records.append(record)

    @property
    def num_batches(self) -> int:
        return len(self.records)

    @property
    def total_migrated_pages(self) -> int:
        return sum(r.migrated_pages for r in self.records)

    @property
    def total_prefetched_pages(self) -> int:
        return sum(r.prefetched_pages for r in self.records)

    @property
    def mean_batch_pages(self) -> float:
        if not self.records:
            return 0.0
        return self.total_migrated_pages / len(self.records)

    @property
    def mean_processing_time(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.processing_time for r in self.records) / len(self.records)

    @property
    def mean_fault_handling_time(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.fault_handling_time for r in self.records) / len(self.records)

    @property
    def mean_per_page_time(self) -> float:
        pages = self.total_migrated_pages
        if not pages:
            return 0.0
        return sum(r.processing_time for r in self.records) / pages

    def size_distribution(self, bucket_bytes: int) -> dict[int, float]:
        """Fraction of batches per size bucket (Figure 16's bar series)."""
        if not self.records:
            return {}
        counts: dict[int, int] = {}
        for record in self.records:
            bucket = record.batch_bytes // bucket_bytes
            counts[bucket] = counts.get(bucket, 0) + 1
        total = len(self.records)
        return {bucket: n / total for bucket, n in sorted(counts.items())}

    def efficiency_by_size(self, bucket_bytes: int) -> dict[int, float]:
        """Mean efficiency (1 / per-page time) per size bucket (Figure 16)."""
        sums: dict[int, list[float]] = {}
        for record in self.records:
            if not record.migrated_pages or not record.processing_time:
                continue
            bucket = record.batch_bytes // bucket_bytes
            sums.setdefault(bucket, []).append(1.0 / record.per_page_time)
        return {
            bucket: sum(vals) / len(vals) for bucket, vals in sorted(sums.items())
        }

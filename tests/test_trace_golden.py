"""Trace-identity golden: every registry workload's trace, hashed.

``tests/golden/traces.json`` holds one SHA-256 per workload: every
registry workload at ``tiny``, plus eight at ``small``.  A digest covers
the workload's :attr:`~repro.workloads.trace.Workload.shape`, every
kernel's derived per-op columns
(:func:`~repro.gpu.warp_soa.kernel_derived` at time scale 1.0: pages,
lines, store pages, compute cycles) and every op's runahead-probeable
pages (:func:`~repro.gpu.warp_soa.kernel_independent`).  So any change
to how traces are built or stored must leave every address the
simulator reads where it was; the simulation goldens pin only what a
few cells happen to exercise.

Regenerate (only when a change *deliberately* alters the emitted
traces)::

    PYTHONPATH=src python -m tests.test_trace_golden --regenerate
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
from array import array
from itertools import chain

import pytest

from repro import build_workload
from repro.gpu.warp_soa import kernel_derived, kernel_independent
from repro.workloads.registry import REGULAR_WORKLOADS, workload_names

GOLDEN = pathlib.Path(__file__).parent / "golden" / "traces.json"

CASES = [(name, "tiny") for name in workload_names() + list(REGULAR_WORKLOADS)] + [
    ("BFS-TTC", "small"),
    ("BFS-TWC", "small"),
    ("KCORE", "small"),
    ("SSSP-TWC", "small"),
    ("BFS-DWC", "small"),
    ("GC-DTC", "small"),
    ("BC", "small"),
    ("PR", "small"),
]


def _case_id(name: str, scale: str) -> str:
    return f"{name}/{scale}"


def _hash_ragged(h, rows) -> None:
    """Hash a sequence of int tuples: row lengths, then the values."""
    h.update(array("q", map(len, rows)).tobytes())
    h.update(array("q", chain.from_iterable(rows)).tobytes())


def trace_digest(workload) -> str:
    h = hashlib.sha256(repr(workload.shape).encode())
    shift = workload.address_space.page_shift
    for kernel in workload.kernels:
        for pages, lines, store_pages, compute in kernel_derived(kernel, shift, 1.0):
            _hash_ragged(h, pages)
            _hash_ragged(h, lines)
            _hash_ragged(h, store_pages)
            h.update(array("q", compute).tobytes())
        for independent in kernel_independent(kernel, shift):
            _hash_ragged(h, independent)
    return h.hexdigest()


def _digest(name: str, scale: str) -> str:
    return trace_digest(build_workload(name, scale=scale, seed=0))


@pytest.mark.parametrize(
    "name,scale", CASES, ids=[_case_id(*case) for case in CASES]
)
def test_trace_matches_golden(name, scale):
    golden = json.loads(GOLDEN.read_text())
    assert _digest(name, scale) == golden[_case_id(name, scale)]


def test_golden_covers_every_case():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(_case_id(*case) for case in CASES)


def regenerate() -> None:
    digests = {_case_id(*case): _digest(*case) for case in CASES}
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if "--regenerate" not in sys.argv:
        sys.exit("usage: python -m tests.test_trace_golden --regenerate")
    regenerate()

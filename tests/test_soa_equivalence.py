"""Cross-model equivalence under chaos and invariant checking.

The golden corpus (``tests/test_equivalence_golden.py``) locks the
simulator against recorded runs, chaos cells included.  This suite locks
the struct-of-arrays simulator against the object warp model oracle
(:mod:`tests.object_model`) live, on the same chaos cells: fault
injection (dropped/duplicated faults, inflated latencies, DMA stalls,
eviction contention) with batch-boundary invariant checking armed — the
``--invariants`` robustness mode.  Every observable must match:
SimulationResult fields, chaos/overflow counters, per-batch records, and
the obs metric snapshot.
"""

from __future__ import annotations

import pytest

from tests.test_equivalence_golden import CHAOS_CELLS, run_cell


@pytest.mark.parametrize(("system", "workload"), CHAOS_CELLS)
def test_backends_agree_under_chaos_with_invariants(
    system: str, workload: str
) -> None:
    reference = run_cell(system, workload, "object", chaos=True)
    soa = run_cell(system, workload, "soa", chaos=True)

    for field, expected in reference["result"].items():
        assert soa["result"][field] == expected, (
            f"{system}/{workload}: SimulationResult.{field} diverged "
            f"under chaos: object {expected!r} vs soa "
            f"{soa['result'][field]!r}"
        )
    assert soa["batches"] == reference["batches"], (
        f"{system}/{workload}: batch records diverged under chaos"
    )
    assert soa["metrics"] == reference["metrics"], (
        f"{system}/{workload}: obs metric snapshot diverged under chaos"
    )


def test_chaos_counters_present_and_nonzero() -> None:
    """The chosen spec must actually exercise the chaos fault paths —
    otherwise the chaos assertions above and in the golden corpus prove
    nothing."""
    cell = run_cell("BASELINE", "BFS-TTC", "soa", chaos=True)
    extras = cell["result"]["extras"]
    assert extras["chaos.total_injections"] > 0
    assert extras["invariant_checks"] > 0
    assert (
        extras["chaos.faults_duplicated"] > 0
        or extras["chaos.faults_dropped"] > 0
    )

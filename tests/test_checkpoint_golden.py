"""Golden-corpus checkpoint lock: restore-then-run equals the golden run.

Every cell of the equivalence corpus (``tests/golden/equivalence/``) is
run once with in-memory checkpointing, interrupted at a mid-run batch
boundary, restored, and resumed — and the resumed result must reproduce
the golden file field-for-field (scalars, batch records, obs metrics),
on both warp models.  Combined with ``test_equivalence_golden`` (the
uninterrupted lock) this proves restore-then-run ≡ uninterrupted-run
across the whole corpus.

Memory discipline: snapshots are pickled whole-simulation states, so the
hook keeps only one — re-captured at every power-of-two batch count —
instead of accumulating hundreds.  The kept snapshot always lands in the
run's second half, a genuinely mid-flight restore point.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import build_workload, obs, systems

from tests.test_equivalence_golden import CELLS, MODELS, cell_path


def _run_with_mid_checkpoint(system: str, workload: str, model: str):
    """Run one golden cell, keeping one mid-run checkpoint (power-of-two
    retention), then restore it and resume to completion."""
    wl = build_workload(workload, scale="tiny", seed=0)
    config = systems.by_name(system).configure(wl, ratio=0.5)
    session = obs.Observability("light")
    sim = MODELS[model](wl, config, obs=session)

    kept = {"count": 0, "snapshot": None, "batches": None}

    def capture():
        kept["count"] += 1
        # Keep the checkpoint at batch 1, 2, 4, 8, ... — the survivor is
        # from the largest power of two <= total, i.e. the second half.
        if kept["count"] & (kept["count"] - 1) == 0:
            kept["snapshot"] = sim.snapshot()
            kept["batches"] = kept["count"]

    sim.engine.checkpoint_hook = capture
    uninterrupted = sim.run()

    assert kept["snapshot"] is not None, "run completed without batches"
    restored = kept["snapshot"].restore()
    resumed = restored.resume()
    return uninterrupted, resumed, restored, kept["batches"]


@pytest.mark.parametrize("model", list(MODELS))
@pytest.mark.parametrize(("system", "workload"), CELLS)
def test_restore_then_run_matches_golden(
    system: str, workload: str, model: str
) -> None:
    golden = json.loads(cell_path(system, workload).read_text())
    uninterrupted, resumed, restored, at_batch = _run_with_mid_checkpoint(
        system, workload, model
    )
    assert resumed == uninterrupted, (
        f"{system}/{workload}/{model}: resume from batch {at_batch} "
        "diverged from the uninterrupted run"
    )

    encoded = dataclasses.asdict(resumed)
    batches = encoded.pop("batch_stats")["records"]
    for field, expected in golden["result"].items():
        assert encoded[field] == expected, (
            f"{system}/{workload}/{model}: resumed "
            f"SimulationResult.{field} diverged from golden: "
            f"{expected!r} vs {encoded[field]!r}"
        )
    assert batches == golden["batches"], (
        f"{system}/{workload}/{model}: resumed batch records diverged "
        "from golden"
    )
    # The restored simulator carries its own (unpickled) obs session; its
    # final metric registry must match the golden snapshot too — counters
    # accumulated before the checkpoint survive the round trip, counters
    # after it are produced by the resumed run.
    assert restored.obs.metrics.snapshot() == golden["metrics"], (
        f"{system}/{workload}/{model}: resumed obs metrics diverged "
        "from golden"
    )

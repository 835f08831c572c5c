"""Golden-equivalence lock for the simulator.

Every golden file under ``tests/golden/equivalence/`` was recorded with
the object warp model (:mod:`tests.object_model`), and every system
preset x workload cell must keep reproducing it field-for-field on both
the production simulator and that oracle — same batches, same per-batch
page counts and boundary times, same final cycle counts, same hit rates,
same obs metric snapshot.  The ``chaos__*`` files add the robustness
mode: every fault-path injector at once with batch-boundary invariant
checking armed.

Regenerating the corpus (only when a PR *deliberately* changes simulated
behaviour — never to paper over an equivalence break)::

    PYTHONPATH=src python -m tests.test_equivalence_golden --regenerate

The workflow for future core changes is documented in
``docs/performance.md``.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import sys

import pytest

from repro import GpuUvmSimulator, build_workload, obs, systems
from repro.chaos.config import parse_chaos_spec
from tests.object_model import ObjectModelSimulator

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden" / "equivalence"

#: Every system preset in the evaluation...
SYSTEMS = tuple(preset.name for preset in systems.ALL_SYSTEMS)

#: ... crossed with two fast, structurally different traversals (BFS-TTC
#: exercises batching + eviction churn, KCORE the degenerate small-batch
#: path), plus two heavier SSSP-TWC cells covering the baseline and the
#: paper's full proposal at ~3x the event volume.  Workloads whose tiny
#: preset runs for minutes (PR, GC-*) are left to the experiment sweeps.
WORKLOADS = ("BFS-TTC", "KCORE")

CELLS = [
    (system, workload) for system in SYSTEMS for workload in WORKLOADS
] + [
    ("BASELINE", "SSSP-TWC"),
    ("UE", "SSSP-TWC"),
    ("TO+UE", "BFS-TWC"),
]

#: Chaos + invariants cells: batching + eviction churn (BFS-TTC), the
#: degenerate small-batch path (KCORE), with and without the paper's
#: mechanisms, plus the forced-oversubscription switch storm.
CHAOS_CELLS = [
    ("BASELINE", "BFS-TTC"),
    ("TO+UE", "BFS-TTC"),
    ("UE", "KCORE"),
    ("ETC", "BFS-TTC"),
    ("FORCED-OVERSUB", "KCORE"),
]

#: Every fault-path injector at once, deterministic seed.  dup-fault
#: exercises the chaos-dup occupancy accounting; drop-fault the replay
#: re-raise path; the rest perturb latencies cycle-for-cycle.
CHAOS_SPEC = (
    "dup-fault:prob=0.2;drop-fault:prob=0.05;"
    "fault-latency:prob=0.3,mult=2,add=100;"
    "dma-stall:prob=0.1;evict-contend:prob=0.2"
)
CHAOS_SEED = 7

#: Warp models under test: the production simulator and the oracle.
MODELS = {"object": ObjectModelSimulator, "soa": GpuUvmSimulator}


def _slug(name: str) -> str:
    return name.lower().replace("+", "_").replace("-", "_")


def cell_path(system: str, workload: str, chaos: bool = False) -> pathlib.Path:
    prefix = "chaos__" if chaos else ""
    return GOLDEN_DIR / f"{prefix}{_slug(system)}__{_slug(workload)}.json"


def run_cell(
    system: str, workload: str, model: str = "object", chaos: bool = False
) -> dict:
    """One deterministic tiny-scale run, encoded for golden comparison."""
    wl = build_workload(workload, scale="tiny", seed=0)
    extra = {}
    if chaos:
        extra = {
            "chaos": parse_chaos_spec(CHAOS_SPEC, seed=CHAOS_SEED),
            "check_invariants": True,
        }
    config = systems.by_name(system).configure(wl, ratio=0.5, **extra)
    session = obs.Observability("light")
    sim = MODELS[model](wl, config, obs=session)
    result = sim.run()

    encoded = dataclasses.asdict(result)
    batch_stats = encoded.pop("batch_stats")
    cell = {"system": system, "workload": workload}
    if chaos:
        cell.update(chaos=CHAOS_SPEC, chaos_seed=CHAOS_SEED)
    cell.update(
        result=encoded,
        batches=batch_stats["records"],
        metrics=session.metrics.snapshot(),
    )
    return cell


@pytest.mark.parametrize("model", list(MODELS))
@pytest.mark.parametrize(("system", "workload"), CELLS)
def test_optimized_core_matches_golden(
    system: str, workload: str, model: str
) -> None:
    """Both warp models must reproduce the golden corpus bit-for-bit."""
    assert_matches_golden(system, workload, run_cell(system, workload, model))


@pytest.mark.parametrize(("system", "workload"), CHAOS_CELLS)
def test_chaos_cells_match_golden(system: str, workload: str) -> None:
    """Under every fault-path injector with invariants armed, the
    simulator reproduces the recorded object-model run bit-for-bit."""
    current = run_cell(system, workload, "soa", chaos=True)
    assert_matches_golden(system, workload, current, chaos=True)


def assert_matches_golden(
    system: str, workload: str, current: dict, chaos: bool = False
) -> None:
    path = cell_path(system, workload, chaos)
    assert path.exists(), (
        f"missing golden file {path.name}; regenerate with "
        "`PYTHONPATH=src python -m tests.test_equivalence_golden --regenerate`"
    )
    golden = json.loads(path.read_text())
    if chaos:
        assert (golden["chaos"], golden["chaos_seed"]) == (CHAOS_SPEC, CHAOS_SEED)

    # Field-for-field scalar comparison first, so a mismatch names the
    # exact diverging field instead of dumping two full documents.
    for field, expected in golden["result"].items():
        assert current["result"][field] == expected, (
            f"{system}/{workload}: SimulationResult.{field} diverged: "
            f"golden {expected!r} vs current {current['result'][field]!r}"
        )
    assert len(current["batches"]) == len(golden["batches"]), (
        f"{system}/{workload}: batch count diverged"
    )
    for i, (got, expected) in enumerate(
        zip(current["batches"], golden["batches"])
    ):
        assert got == expected, (
            f"{system}/{workload}: batch {i} diverged: "
            f"golden {expected!r} vs current {got!r}"
        )
    assert current["metrics"] == golden["metrics"], (
        f"{system}/{workload}: obs metric snapshot diverged"
    )


def regenerate() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    cells = [(cell, False) for cell in CELLS] + [(cell, True) for cell in CHAOS_CELLS]
    for (system, workload), chaos in cells:
        path = cell_path(system, workload, chaos)
        cell = run_cell(system, workload, chaos=chaos)
        path.write_text(json.dumps(cell, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(GOLDEN_DIR.parent.parent)}")


if __name__ == "__main__":
    if "--regenerate" not in sys.argv:
        sys.exit("usage: python -m tests.test_equivalence_golden --regenerate")
    regenerate()

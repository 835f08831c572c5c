"""The benchmark's inputs: cell lists, request pools and their references.

A cell is ``(preset, workload, scale, ratio, seed)`` where ``seed`` is
the graph seed handed to the workload builder.  The sweeps always run
graph seed 0 (the benchmark seed orders their cells and picks their
interruption points), so runs on different benchmark seeds do the same
simulated work; the serve stream spreads its first-time cells over
several graph seeds.  ``record.py`` stores every cell's result in
``reference.json``.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

HERE = pathlib.Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

#: Graph seed of every sweep cell.
SWEEP_SEED = 0
#: Graph seeds the serve stream draws first-time tiny / small cells from.
SERVE_SEEDS = 8
SERVE_SMALL_SEEDS = 1

#: Cells that fall off a thrash cliff (minutes instead of a second) on
#: at least one graph seed.  They must never enter a sweep list: a hung
#: cell would eat the whole run.
THRASH_CLIFFS = frozenset(
    {
        ("TO+UE", "SSSP-TWC", "tiny", 0.5),
        ("UE", "SSSP-TWC", "tiny", 0.5),
        ("TO+UE", "BFS-TWC", "tiny", 0.5),
        ("UE", "BFS-TWC", "tiny", 0.5),
        ("TO+UE", "BFS-TWC", "small", 0.5),
    }
)

PAPER_POLICIES = ("BASELINE", "UE", "TO+UE")


def _grid(presets, workloads, scale, ratio):
    return [
        (preset, workload, scale, ratio)
        for workload in workloads
        for preset in presets
        if (preset, workload, scale, ratio) not in THRASH_CLIFFS
    ]


#: 50% oversubscription (ratio 0.5): the driver batch pipeline's workload.
OVERSUB = _grid(
    PAPER_POLICIES, ("BFS-TTC", "BFS-TWC", "KCORE", "SSSP-TWC"), "tiny", 0.5
) + _grid(PAPER_POLICIES, ("KCORE",), "small", 0.5) + [
    ("BASELINE", "BFS-TWC", "small", 0.5),
    ("UE", "BFS-TWC", "small", 0.5),
]

#: Memory-adequate (ratio 1.5, no evictions): the warp model's workload.
ADEQUATE = _grid(
    ("UNLIMITED", "NO-PREFETCH"), ("BFS-TTC", "BFS-TWC", "KCORE"), "small", 1.5
)

#: Oversub cells that run interrupted and resumed from a checkpoint.
CHECKPOINTED = _grid(PAPER_POLICIES, ("BFS-TTC", "BFS-TWC", "KCORE"), "tiny", 0.5)

#: First-time tiny cells the serve stream draws from (fast misses).
SERVE_TINY = [
    cell
    for ratio in (0.5, 0.8, 1.5)
    for cell in _grid(
        ("BASELINE", "UE", "TO+UE", "UNLIMITED", "NO-PREFETCH"),
        ("BFS-TTC", "BFS-TWC", "KCORE"),
        "tiny",
        ratio,
    )
]

#: First-time small cells the serve stream draws from (slow misses).
#: All on one graph seed: each new small graph costs every pool worker
#: tens of MB, which would make peak RSS depend on the draw.
SERVE_SMALL = [
    cell
    for ratio in (1.0, 1.5)
    for cell in _grid(
        ("BASELINE", "UE", "UNLIMITED", "NO-PREFETCH"),
        ("BFS-TTC", "BFS-TWC", "KCORE"),
        "small",
        ratio,
    )
]


@dataclasses.dataclass(frozen=True)
class Cell:
    preset: str
    workload: str
    scale: str
    ratio: float
    seed: int

    @property
    def key(self) -> str:
        return f"{self.preset}|{self.workload}|{self.scale}|{self.ratio}|{self.seed}"

    def spec(self, **overrides):
        from repro import systems
        from repro.experiments.common import RunSpec

        return RunSpec(
            workload=self.workload,
            preset=systems.by_name(self.preset),
            scale=self.scale,
            ratio=self.ratio,
            seed=self.seed,
            **overrides,
        )

    def request(self) -> dict:
        """The ``POST /v1/run`` body for this cell."""
        return {
            "workload": self.workload,
            "preset": self.preset,
            "scale": self.scale,
            "ratio": self.ratio,
            "seed": self.seed,
        }


def cells(grid, seed: int) -> list[Cell]:
    return [Cell(*entry, seed) for entry in grid]


def load_reference() -> dict:
    """``{cell key: {"digest", "events", "batches", "host_s"}}``."""
    return json.loads(REFERENCE_FILE.read_text())["cells"]

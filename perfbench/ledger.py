"""Measurement and output-check helpers shared by every workload."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import pathlib
import resource
import statistics
import time

GOLDEN_DIR = pathlib.Path("tests") / "golden" / "equivalence"

#: Iterations of the calibration loop, and roughly its time on an idle
#: core of the host the references were recorded on.
CALIBRATION_LOOP = 50_000
CALIBRATION_REF_S = 0.0025
#: Loops per host-speed sample; their median is used.
CALIBRATION_REPEATS = 5


def percentile(samples, q: float):
    """Nearest-rank ``q``-th percentile of ``samples``, or ``None``.

    A percentile is reported only when at least ten samples lie beyond
    it; below that it is an anecdote, not a measurement.
    """
    n = len(samples)
    rank = math.ceil(q / 100 * n)
    if n == 0 or n - rank < 10:
        return None
    return sorted(samples)[max(0, rank - 1)]


def payload_digest(payload: dict) -> str:
    """Digest of a result payload serialised like ``dump_result_json``."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def result_digest(result) -> str:
    """Digest of a :class:`SimulationResult` (every field, every batch)."""
    from repro.serve.protocol import dump_result_json

    return hashlib.sha256(dump_result_json(result).encode()).hexdigest()


def _slug(name: str) -> str:
    return name.lower().replace("+", "_").replace("-", "_")


def golden_matches(result, cell) -> bool | None:
    """Compare ``result`` with the equivalence golden corpus.

    ``None`` when the corpus holds no file for the cell (it covers tiny
    scale, ratio 0.5, graph seed 0 only).
    """
    if (cell.scale, cell.ratio, cell.seed) != ("tiny", 0.5, 0):
        return None
    path = GOLDEN_DIR / f"{_slug(cell.preset)}__{_slug(cell.workload)}.json"
    if not path.exists():
        return None
    golden = json.loads(path.read_text())
    encoded = dataclasses.asdict(result)
    batches = encoded.pop("batch_stats")["records"]
    return encoded == golden["result"] and batches == golden["batches"]


class HostClock:
    """Converts host seconds into reference seconds.

    A shared host's speed drifts by tens of percent within minutes as
    other tenants come and go.  Timing a fixed pure-Python loop right
    before a measurement and scaling the measurement by
    ``CALIBRATION_REF_S / loop time`` cancels most of that drift: for
    one tiny cell timed 240 times over two minutes on a shared 2-CPU
    host, the spread (IQR/median) of 10-sample medians fell from 0.34
    raw to 0.07 scaled.  A change to
    the program moves the measurement but not the loop, so it still
    shows in full.
    """

    def __init__(self) -> None:
        self.loop_s: list[float] = []

    def speed(self) -> float:
        """Reference seconds per host second, measured now."""
        loops = []
        for _ in range(CALIBRATION_REPEATS):
            start = time.perf_counter()
            total = 0
            for i in range(CALIBRATION_LOOP):
                total += i
            loops.append(time.perf_counter() - start)
        self.loop_s.extend(loops)
        return CALIBRATION_REF_S / statistics.median(loops)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


class Checker:
    """Counts attempted operations and every failed or mismatched one."""

    def __init__(self, reference: dict) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def check_digest(self, cell, digest: str, path: str) -> None:
        ref = self.reference.get(cell.key)
        if ref is None:
            self.fail(f"{cell.key}: no reference digest ({path})")
        elif ref["digest"] != digest:
            self.fail(f"{cell.key}: {path} result differs from reference")

    def check_result(self, cell, result, path: str) -> None:
        """Full check of one simulated result: reference digest, and the
        golden corpus where it covers the cell."""
        from repro.simulator import SimulationResult

        if not isinstance(result, SimulationResult):
            self.fail(f"{cell.key}: {path} failed: {result}")
            return
        self.check_digest(cell, result_digest(result), path)
        if golden_matches(result, cell) is False:
            self.fail(f"{cell.key}: {path} result differs from golden corpus")

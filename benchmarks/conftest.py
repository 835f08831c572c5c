"""Shared benchmark fixtures.

Each ``bench_*`` module regenerates one paper table/figure.  Experiment
results are cached per session (simulations are deterministic), the
rendered tables are written to ``benchmarks/results/`` so the regenerated
figures are inspectable after a ``pytest benchmarks/ --benchmark-only``
run, and shape assertions check the paper's qualitative claims.

Set ``REPRO_BENCH_SCALE=small`` (or ``medium``) for higher-fidelity, much
slower runs; the default ``tiny`` keeps the whole suite in minutes.

Simulation cells additionally hit the *persistent* run cache in
``.repro-cache/`` (shared with the ``repro-experiments`` CLI), so a
benchmark session after a CLI sweep — or a second benchmark session —
reuses every completed run.  ``REPRO_JOBS=N`` fans cache-missing cells
out across N worker processes; ``REPRO_CACHE=0`` / ``REPRO_CACHE_DIR``
disable or relocate the cache.
"""

from __future__ import annotations

import os
import pathlib
from contextlib import nullcontext

import pytest

from repro.experiments.policy import run_policy

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

_RESULT_CACHE: dict[tuple, object] = {}


@pytest.fixture(scope="session", autouse=True)
def _experiment_layer_config():
    """``REPRO_BENCH_JOBS`` overrides the default policy's worker count
    (itself ``REPRO_JOBS``) for the session."""
    jobs = os.environ.get("REPRO_BENCH_JOBS")
    with run_policy(jobs=int(jobs)) if jobs else nullcontext():
        yield


@pytest.fixture(scope="session")
def bench_scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "tiny")


@pytest.fixture(scope="session")
def experiment_cache():
    """Memoise experiment runs across benchmark tests."""

    def run_cached(module, scale: str, **kwargs):
        key = (module.__name__, scale, tuple(sorted(kwargs.items())))
        if key not in _RESULT_CACHE:
            _RESULT_CACHE[key] = module.run(scale=scale, **kwargs)
        return _RESULT_CACHE[key]

    return run_cached


@pytest.fixture(scope="session")
def save_table():
    """Write a rendered experiment table under benchmarks/results/."""

    RESULTS_DIR.mkdir(exist_ok=True)

    def save(result) -> str:
        text = result.format_table()
        path = RESULTS_DIR / f"{result.experiment}.txt"
        path.write_text(text + "\n")
        return text

    return save

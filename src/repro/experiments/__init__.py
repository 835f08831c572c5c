"""Experiment harness: one module per paper figure/table.

Every experiment module exposes

* ``run(scale="tiny", **kwargs) -> ExperimentResult`` — compute the data;
* ``EXPECTATION`` — a one-line statement of the paper's qualitative claim.

``repro.experiments.runner`` is the CLI (``python -m repro.experiments``).
The paper-vs-measured record lives in EXPERIMENTS.md.
"""

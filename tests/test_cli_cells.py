"""The single-run CLIs run the same cell as the sweep and serving paths.

``repro-run`` (``python -m repro``) and ``repro-analyze`` are fronts over
the common cell executor (``open_cell``/``drive_cell``): with no
``--ratio`` they run the scale's calibrated ratio like ``run_cells``,
their checkpoints are named by the whole cell, and a resume that cannot
produce the requested outputs is refused instead of dropping them.
"""

import json
from dataclasses import replace

import pytest

from repro import systems
from repro.cli import main as cli_main
from repro.chaos import parse_chaos_spec
from repro.experiments import common
from repro.experiments.cells import RunSpec, checkpoint_file, open_cell
from repro.experiments.policy import RunPolicy
from repro.serve.protocol import dump_result_json

TO_UE = systems.by_name("TO_UE")


def test_default_ratio_matches_run_cells(tmp_path):
    """With defaults, ``--result-out`` is exactly the ``run_cells`` result
    that ``repro-serve`` sends for the same cell."""
    out = tmp_path / "result.json"
    argv = ["KCORE", "--scale", "tiny", "--obs", "off", "--result-out", str(out)]
    assert cli_main(argv) == 0
    [want] = common.run_cells(
        [RunSpec("KCORE", preset=TO_UE)],
        policy=RunPolicy(cache_enabled=False),
    )
    assert out.read_text() == dump_result_json(want)


class TestCheckpointNames:
    def spec(self, **changes):
        base = RunSpec(
            "KCORE", preset=TO_UE, checkpoint_dir="ck"
        ).resolved()
        return replace(base, **changes)

    def test_event_cap_shares_the_file(self):
        assert checkpoint_file(
            self.spec(max_events=400)
        ) == checkpoint_file(self.spec())

    @pytest.mark.parametrize(
        "changes",
        [
            {"ratio": 1.5},
            {"chaos": parse_chaos_spec("dma-stall:prob=0.2", seed=7)},
            {"check_invariants": True},
            {"fault_handling_cycles": 20_000},
        ],
    )
    def test_cell_fields_split_the_file(self, changes):
        assert checkpoint_file(
            self.spec(**changes)
        ) != checkpoint_file(self.spec())

    def test_resume_ignores_another_ratios_checkpoint(self, tmp_path, capsys):
        """A ratio-1.5 leftover is not resumed as the ratio-0.5 run."""
        ckpt = tmp_path / "ck"
        base = ["KCORE", "--scale", "tiny", "--obs", "off"]
        first = base + ["--ratio", "1.5", "--max-events", "400"]
        assert cli_main(first + ["--checkpoint-dir", str(ckpt)]) == 1
        leftover = sorted(ckpt.glob("*.ckpt"))
        assert leftover

        resumed = tmp_path / "resumed.json"
        fresh = tmp_path / "fresh.json"
        capsys.readouterr()
        assert cli_main(
            base
            + ["--ratio", "0.5", "--checkpoint-dir", str(ckpt), "--resume"]
            + ["--result-out", str(resumed)]
        ) == 0
        assert "resuming" not in capsys.readouterr().out
        assert cli_main(
            base + ["--ratio", "0.5", "--result-out", str(fresh)]
        ) == 0
        assert resumed.read_text() == fresh.read_text()
        assert json.loads(fresh.read_text())["evicted_pages"] > 0
        # The other cell's checkpoint is left for its own resume.
        assert sorted(ckpt.glob("*.ckpt")) == leftover


@pytest.mark.parametrize(
    "first, outputs, cause",
    [
        (
            ["--obs", "off"],
            ["--trace-out", "t.json", "--metrics-out", "m.json", "--report"],
            "--obs off",
        ),
        (
            ["--obs", "light"],
            ["--obs", "light", "--analytics-out", "a.json"],
            "without --analytics",
        ),
    ],
    ids=["obs-off", "no-analytics"],
)
def test_resume_refuses_outputs_the_checkpoint_cannot_produce(
    tmp_path, monkeypatch, capsys, first, outputs, cause
):
    """A restored simulator reports from the session it was checkpointed
    with: asking its resume for outputs that session cannot produce is a
    usage error naming the cause, not a silent exit 0 without them."""
    monkeypatch.chdir(tmp_path)
    ckpt = tmp_path / "ck"
    base = ["KCORE", "--scale", "tiny", "--checkpoint-dir", str(ckpt)]
    assert cli_main(base + first + ["--max-events", "400"]) == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli_main(base + ["--resume", *outputs])
    assert exc.value.code == 2
    assert cause in capsys.readouterr().err
    assert not [p for p in tmp_path.iterdir() if p.suffix == ".json"]
    # The checkpoint survives for a resume that asks for no outputs.
    assert list(ckpt.glob("*.ckpt"))
    assert cli_main(base + ["--obs", "off", "--resume"]) == 0
    assert not list(ckpt.glob("*.ckpt"))

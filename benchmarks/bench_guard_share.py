"""Off-mode guard gates: each disabled hook family costs < 2%.

Observability, analytics, robustness (chaos, invariants, the warp
validator and the watchdog's same-cycle streak) and checkpoints hang off
the simulator's hot path as guards: a test of a ``None`` hook or a flag,
and the local that hook is loaded into.  With every hook off, those
guard lines are all a family costs.  ``scripts/opcount.py`` counts the
bytecodes each source line executes on a real cell, and its
``GUARD_FAMILIES`` table says which lines are whose guards.  Each gate
asserts that one family's guard opcodes stay under
:data:`MAX_GUARD_SHARE` of all opcodes the run executes.

Counts are deterministic for one interpreter version (CI gates them on
Python 3.11; ``docs/performance.md`` records the figures), so two runs
print identical numbers and a new guard shows by exactly its opcodes.
A guard is a load and a jump, cheaper than the average opcode, so the
share overstates the time share; ``bench_obs_overhead.py`` times one
planted-guard cross-check.
"""

from __future__ import annotations

import importlib.util
import linecache
import pathlib

import pytest

from repro import obs
from repro.sim.engine import Engine

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The cell every gate counts, with every hook off.
CELL = "TO+UE|KCORE|tiny|0.5"

#: Most of all executed opcodes one family's disabled guards may take.
MAX_GUARD_SHARE = 0.02


def _load_opcount():
    spec = importlib.util.spec_from_file_location(
        "opcount", ROOT / "scripts" / "opcount.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


opcount = _load_opcount()


def guard_share(counter, family: str) -> float:
    """One family's guard opcodes as a share of all counted opcodes."""
    return counter.guard_opcodes()[family] / counter.total


def check_guard_share(counter, family: str) -> None:
    """The gate: fails when ``family``'s share reaches the budget."""
    share = guard_share(counter, family)
    assert share < MAX_GUARD_SHARE, (
        f"{family}-off guards take {share:.3%} of executed opcodes, "
        f"over the {MAX_GUARD_SHARE:.0%} budget"
    )


def describe(counter, events: int, family: str, top: int = 4) -> str:
    """The family's opcodes per event and share, and its busiest lines."""
    guards = counter.guard_opcodes()[family]
    rows = sorted(
        (
            (count, code.co_filename, line)
            for code, counts in counter.by_line.items()
            for line, count in counts.items()
            if family in opcount.guard_lines(code.co_filename).get(line, ())
        ),
        reverse=True,
    )
    text = [
        f"{family} off: {guards / events:.2f} guard opcodes per event of "
        f"{counter.total / events:.1f} ({guard_share(counter, family):.3%}; "
        f"{guards:,} opcodes over {events:,} events)"
    ]
    for count, filename, line in rows[:top]:
        source = linecache.getline(filename, line).strip()
        text.append(
            f"  {count / events:6.2f}  {opcount.short(filename)}:{line}  {source}"
        )
    return "\n".join(text)


@pytest.fixture(scope="module")
def off_cell():
    """``(counter, events)`` for :data:`CELL` with every hook off."""
    assert obs.current() is None, "a leaked obs session would turn hooks on"
    return opcount.count_cell(CELL)


def test_obs_off_guard_share_below_two_percent(off_cell):
    """The engine's ``count_event`` test per event, plus the fault
    buffer's, DMA engines', driver's and wake path's ``obs`` loads and
    tests."""
    counter, events = off_cell
    print(f"\n{describe(counter, events, 'obs')}")
    check_guard_share(counter, "obs")


def test_analytics_off_guard_share_below_two_percent(off_cell):
    """The issue loop's, wake path's, SM's and driver's ``an`` loads and
    tests."""
    counter, events = off_cell
    print(f"\n{describe(counter, events, 'analytics')}")
    check_guard_share(counter, "analytics")


def test_robustness_off_guard_share_below_two_percent(off_cell):
    """The engine's same-cycle streak (kept for the watchdog) per event,
    plus the chaos, invariant and warp-validator loads and tests on the
    fault, DMA, batch and warp-state paths."""
    counter, events = off_cell
    print(f"\n{describe(counter, events, 'robustness')}")
    check_guard_share(counter, "robustness")


def test_checkpoint_off_guard_share_below_two_percent(off_cell):
    """With no checkpoint hook installed, ``Engine.run`` still tests
    ``self.checkpoint_due`` after every event: that line is the
    family's per-event cost."""
    counter, events = off_cell
    print(f"\n{describe(counter, events, 'checkpoint')}")
    check_guard_share(counter, "checkpoint")


def test_two_counts_of_the_cell_are_identical(off_cell):
    counter, events = off_cell
    again, events_again = opcount.count_cell(CELL)
    first = (events, counter.total, counter.guard_opcodes())
    second = (events_again, again.total, again.guard_opcodes())
    print(f"\nfirst count:  {first}\nsecond count: {second}")
    assert first == second


# ----------------------------------------------------------------------
# The gate sees a guard: a toy event handler with planted guard lines.
# ----------------------------------------------------------------------

#: A self-rescheduling event of ~600 opcodes of arithmetic (about the
#: real cell's per-event work); ``{planted}`` becomes the guard lines.
TOY_HANDLER = '''
class Handler:
    obs = None
    _an = None
    chaos = None
    checkpoint_due = False

    def __init__(self, engine, events):
        self.engine = engine
        self.left = events
        self.acc = 0

    def __call__(self):
        acc = self.acc
        for i in range(60):
            acc = (acc * 31 + i) % 1009
        self.acc = acc
{planted}
        self.left -= 1
        if self.left:
            self.engine.schedule(1, self)
'''

#: One planted hook-style guard per family, as the simulator writes them.
PLANTED_GUARD = {
    "obs": "if self.obs is not None:\n    self.obs.count()",
    "analytics": "if self._an is not None:\n    self._an.charge()",
    "robustness": "if self.chaos is not None:\n    self.chaos.inject()",
    "checkpoint": "if self.checkpoint_due:\n    self.engine.stop()",
}

TOY_EVENTS = 100


def run_toy(tmp_path, family: str, planted: int):
    """Count a toy run whose handler carries ``planted`` guards of
    ``family``; returns the counter and the events fired."""
    guard = "\n".join(
        "        " + line for line in PLANTED_GUARD[family].splitlines()
    )
    path = tmp_path / f"toy_{family}_{planted}.py"
    path.write_text(TOY_HANDLER.format(planted="\n".join([guard] * planted)))
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    engine = Engine()
    engine.schedule(0, module.Handler(engine, TOY_EVENTS))
    with opcount.OpcodeCounter() as counter:
        engine.run()
    return counter, engine.events_processed


@pytest.mark.parametrize("family", list(opcount.GUARD_FAMILIES))
def test_counter_charges_exactly_the_planted_guards(tmp_path, family):
    """Every opcode the planted guards add is charged to their family,
    and to no other."""
    base, events = run_toy(tmp_path, family, 0)
    planted, planted_events = run_toy(tmp_path, family, 3)
    assert planted_events == events == TOY_EVENTS
    added = planted.total - base.total
    assert added > 0
    before, after = base.guard_opcodes(), planted.guard_opcodes()
    assert after[family] - before[family] == added
    for other in opcount.GUARD_FAMILIES:
        if other != family:
            assert after[other] == before[other]


@pytest.mark.parametrize("family", list(opcount.GUARD_FAMILIES))
def test_gate_fails_once_a_family_share_passes_two_percent(tmp_path, family):
    passing = None
    for planted in range(40):
        counter, _ = run_toy(tmp_path, family, planted)
        if guard_share(counter, family) >= MAX_GUARD_SHARE:
            break
        check_guard_share(counter, family)
        passing = planted
    else:
        pytest.fail(f"40 planted {family} guards stayed under the budget")
    assert passing is not None, "the toy's own engine guards already fail"
    with pytest.raises(AssertionError, match="over the 2% budget"):
        check_guard_share(counter, family)
    print(
        f"\n{family}: passes with {passing} planted guards, fails with "
        f"{planted} ({guard_share(counter, family):.2%})"
    )

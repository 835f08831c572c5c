"""Self-tests for the benchmark's own helpers.

Run from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import dataclasses
import os
import sys
import unittest

sys.path[:0] = [os.path.dirname(os.path.abspath(__file__)), os.path.join(os.getcwd(), "src")]

import cells as C  # noqa: E402
import serveload  # noqa: E402
from ledger import Checker, percentile  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(percentile(list(range(19)), 50))
        self.assertEqual(percentile(list(range(20)), 50), 9)  # 10 lie beyond
        self.assertIsNone(percentile(list(range(999)), 99))
        self.assertEqual(percentile(list(range(1000)), 99), 989)
        self.assertIsNone(percentile([], 50))

    def test_order_does_not_matter(self):
        self.assertEqual(percentile(list(range(99, -1, -1)), 90), 89)


class OutputCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        from repro.experiments.common import run_cells

        cls.cell = C.Cell("UE", "KCORE", "tiny", 0.5, 0)
        [cls.result] = run_cells([cls.cell.spec()], use_cache=False)

    def check(self, result) -> Checker:
        checker = Checker(C.load_reference())
        checker.check_result(self.cell, result, "selftest")
        return checker

    def test_true_result_passes(self):
        self.assertEqual(self.check(self.result).failed, 0)

    def test_perturbed_field_is_flagged(self):
        bad = dataclasses.replace(self.result, exec_cycles=self.result.exec_cycles + 1)
        self.assertGreater(self.check(bad).failed, 0)

    def test_perturbed_batch_record_is_flagged(self):
        bad = copy.deepcopy(self.result)
        bad.batch_stats.records[-1].end_time += 1
        checker = self.check(bad)
        self.assertEqual(checker.failed, 2)  # reference digest and golden corpus

    def test_failure_is_flagged(self):
        self.assertEqual(self.check(RuntimeError("boom")).failed, 1)


class RequestStreamTest(unittest.TestCase):
    def test_deterministic_per_seed(self):
        reference = C.load_reference()
        first = serveload.request_stream(3, reference)
        self.assertEqual(first, serveload.request_stream(3, reference))
        self.assertNotEqual(first, serveload.request_stream(4, reference))

    def test_block_mix(self):
        warm, stream = serveload.request_stream(0, C.load_reference())
        self.assertEqual(len(warm), serveload.WARM_CELLS)
        block = [kind for kind, _ in stream[: serveload.BLOCK]]
        self.assertEqual(block.count("new"), 4)
        self.assertEqual(block.count("dup"), 4)
        self.assertEqual(block.count("small"), 1)
        self.assertEqual(len(stream) % serveload.BLOCK, 0)
        new = [cell for kind, cell in stream if kind in ("new", "small")]
        self.assertEqual(len(new), len(set(new)), "a first-time cell repeats")


if __name__ == "__main__":
    unittest.main()

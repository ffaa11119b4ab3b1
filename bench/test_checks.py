"""Self-tests of the benchmark's checkers.

    python3 -m unittest discover -s bench -p 'test_*.py'

They import ppric only to build the disjoint codes the paper proves valid;
everything they test lives in checks.py.
"""

from __future__ import annotations

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402


class ScanTest(unittest.TestCase):
    def test_accepts_build_disjoint(self):
        from ppric import build_disjoint

        for L, s, r in [(6, 2, 0), (9, 3, 0), (12, 3, 1), (17, 3, 2),
                        (17, 4, 1), (20, 4, 2), (22, 2, 5)]:
            masks = build_disjoint(L, s, r).masks()
            self.assertTrue(checks.scan_holds(L, s, r, masks), (L, s, r))
            self.assertEqual(masks, checks.disjoint_code(s, r))

    def test_rejects_one_word_short(self):
        # N(L, s, r) >= r+3, so r+2 disjoint words always fail
        for L, s, r in [(9, 3, 0), (17, 3, 2), (20, 4, 2)]:
            masks = checks.disjoint_code(s, r)[:-1]
            viol = checks.scan_violators(L, s, r, masks)
            self.assertNotEqual(viol, 0)
            y = (viol & -viol).bit_length() - 1
            self.assertTrue(checks.is_violator(y, masks, s, r))

    def test_no_six_word_code_at_9_3_1(self):
        self.assertFalse(checks.code_of_size_exists(9, 3, 1, 6))
        # not vacuous: the search does find the 7-word codes
        self.assertTrue(checks.code_of_size_exists(9, 3, 1, 7))

    def test_exhaustive_search_meets_known_minima(self):
        # N(8, 2, 1) = 4 (L/s >= r+3) and N(7, 3, 0) = 5
        self.assertTrue(checks.code_of_size_exists(8, 2, 1, 4))
        self.assertFalse(checks.code_of_size_exists(8, 2, 1, 3))
        self.assertTrue(checks.code_of_size_exists(7, 3, 0, 5))
        self.assertFalse(checks.code_of_size_exists(7, 3, 0, 4))

    def test_catalog_codes_pass_and_match_formulas(self):
        for s, r in [(4, 1), (6, 2), (6, 3), (7, 2), (7, 3), (8, 2)]:
            masks = checks.extremal_code(s, r)
            self.assertEqual(len(masks), checks.extremal_size(s, r))
            self.assertTrue(checks.scan_holds(2 * s + r + 1, s, r, masks))
        masks = checks.superset_code(3, 5, 5, 3, False)
        self.assertEqual(len(masks), checks.construction2_size(3, 5, 0))
        self.assertTrue(checks.scan_holds(20, 5, 3, masks))
        masks = checks.superset_code(2, 6, 6, 2, True)
        self.assertEqual(len(masks), checks.construction3_size(2, 6, 0))
        self.assertTrue(checks.scan_holds(20, 6, 2, masks))


class NeighbourhoodTest(unittest.TestCase):
    def test_hand_worked_database(self):
        # records 1..5 and their distances from x = 10110 (coordinates 1..5):
        #   10110 -> 0, 10111 -> 1, 00110 -> 1, 01001 -> 5, 11100 -> 2
        records = [checks.from_string(t)
                   for t in ["10110", "10111", "00110", "01001", "11100"]]
        x = checks.from_string("10110")
        self.assertEqual(checks.neighbourhood(records, x, 0), {1})
        self.assertEqual(checks.neighbourhood(records, x, 1), {1, 2, 3})
        self.assertEqual(checks.neighbourhood(records, x, 2), {1, 2, 3, 5})
        self.assertEqual(checks.neighbourhood(records, x, 5), {1, 2, 3, 4, 5})


class BoundsTest(unittest.TestCase):
    def test_lower_bounds_at_the_search_points(self):
        # the benchmark's search points where a paper bound is the minimum
        for (L, s, r), n in {(11, 5, 0): 6, (11, 3, 2): 9, (11, 3, 1): 5,
                             (13, 3, 2): 7, (12, 4, 0): 3}.items():
            self.assertEqual(max(checks.lower_bounds(L, s, r).values()), n)
        self.assertEqual(max(checks.lower_bounds(9, 3, 1).values()), 6)

    def test_privacy_level(self):
        self.assertAlmostEqual(checks.privacy_level(8, 2), 0.6009, places=4)


if __name__ == "__main__":
    unittest.main()

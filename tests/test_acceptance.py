"""Acceptance gate: ten end-to-end checks, one test per criterion.

Each test prints a single ``criterion N: PASS`` line (visible with -s;
the -v listing carries the same information per test).  Tolerances and
grids are pinned in the bodies, not configurable.
"""

import math
import random

import pytest

from ppric.bounds import compute_report, exact_n
from ppric.codes import (
    full_sphere_identity_holds,
    make_code,
    verify_enumeration,
    verify_exact,
)
from ppric.construct import (
    build_disjoint,
    build_eps8,
    build_extremal,
    construction2,
    doubling,
    doubling_params,
)
from ppric.covering import (
    all_pairs_design,
    design_9_5_2,
    exact_covering_number,
    schoenheim_bound,
    verify_covering,
)
from ppric.errors import CapacityError
from ppric.protocol import Database, privacy_level, run_simulation
from ppric.schemes import johnson_construction, johnson_exact_check, \
    johnson_verify, qary_verify
from ppric.search import exact_n_search
from ppric.words import BinaryWord, binom, distance


def _ok(n, detail=""):
    print(f"criterion {n}: PASS" + (f" ({detail})" if detail else ""))


def test_criterion_01_identity_boundary():
    # every L <= 12, 0 <= s <= L, 0 <= r < L: identity iff r + 2s + 1 <= L
    checked = 0
    for L in range(1, 13):
        for r in range(L):
            for s in range(L + 1):
                want = r + 2 * s + 1 <= L
                assert full_sphere_identity_holds(L, s, r) == want, (L, s, r)
                checked += 1
    assert checked == 728
    _ok(1, f"{checked} triples")


def test_criterion_02_disjoint_is_optimal():
    for L, s, r in [(6, 2, 0), (7, 2, 0), (8, 2, 1), (5, 1, 2)]:
        code = build_disjoint(L, s, r)
        assert verify_exact(code).is_ppric
        assert code.size == r + 3
        assert exact_n_search(L, s, r).n_exact == r + 3, (L, s, r)
    _ok(2)


def test_criterion_03_six_word_17_8_code():
    code = build_eps8(8)
    assert (code.params.L, code.params.s, code.params.r) == (17, 8, 0)
    assert code.size == 6
    assert verify_exact(code).is_ppric
    assert verify_enumeration(code).is_ppric  # full 2^17 scan
    want = math.log2(binom(17, 8)) / 17
    assert binom(17, 8) == 24310
    assert abs(privacy_level(17, 8) - want) < 1e-9
    _ok(3)


def test_criterion_04_closed_forms_match_search():
    # grid: admissible, s >= 1, L <= 12, candidate pool at most 500 words
    agreed, capacity_skips, mismatches = [], [], []
    for L in range(1, 13):
        for s in range(1, L + 1):
            if binom(L, s) > 500:
                continue
            for r in range(0, L - 2 * s):
                value = exact_n(L, s, r)
                if value is None:
                    continue
                try:
                    found = exact_n_search(L, s, r,
                                           node_budget=5_000_000).n_exact
                except CapacityError:
                    capacity_skips.append((L, s, r))
                    continue
                if found == value:
                    agreed.append((L, s, r))
                else:
                    mismatches.append((L, s, r, value, found))
    assert mismatches == []
    assert capacity_skips == []
    assert len(agreed) == 100
    spot = {(5, 2, 0): 4, (7, 3, 0): 5, (7, 2, 1): 5, (6, 2, 0): 3}
    for (L, s, r), want in spot.items():
        assert exact_n(L, s, r) == want
    _ok(4, f"{len(agreed)} agreed, no capacity skip")


def test_criterion_05_bounds_bracket_search():
    fired = set()
    searched = 0
    capacity_skips = []
    for L in range(1, 15):
        for s in range(1, 5):
            for r in range(0, 4):
                if L < 2 * s + r + 1:
                    continue
                report = compute_report(L, s, r)
                lo, up = report.best_lower, report.best_upper
                for name, _ in report.lower_bounds:
                    fired.add(name)
                if up is not None:
                    assert lo <= up, (L, s, r)
                if binom(L, s) > 500:
                    continue
                try:
                    found = exact_n_search(L, s, r, size_cap=up,
                                           node_budget=2_000_000).n_exact
                except CapacityError:
                    capacity_skips.append((L, s, r))
                    continue
                searched += 1
                assert lo <= found, (L, s, r)
                if up is not None:
                    assert found <= up, (L, s, r)
    # a slower search shows up here as a longer list
    assert capacity_skips == [
        (10, 3, 3), (10, 4, 1), (11, 3, 3), (11, 4, 1), (11, 4, 2),
        (12, 4, 2), (12, 4, 3), (13, 3, 3), (14, 3, 3),
    ]
    assert searched == 103
    assert "lb.mills" in fired
    # the other two rules need s far above this grid; fixed firing points
    todorov = compute_report(34, 16, 0)
    assert ("lb.todorov.3", 6) in todorov.lower_bounds
    special = compute_report(33, 16, 0)
    assert ("lb.r0.special", 7) in special.lower_bounds
    assert special.best_lower == 7
    _ok(5, f"{searched} points searched, {len(capacity_skips)} capacity skips")


def test_criterion_06_doubling():
    d = design_9_5_2()
    code = doubling(d, d)
    assert (code.params.L, code.params.s, code.params.r) == (18, 4, 3)
    assert code.size == 10
    assert verify_exact(code).is_ppric
    plan = doubling_params(28, 20, 6, 25, 28, 20, 6, 25)
    assert plan == {"L": 56, "s": 8, "r": 11, "size": 50}
    _ok(6)


def _protocol_codes():
    return [
        build_disjoint(6, 2, 0),
        build_extremal(2, 1, 6),
        exact_n_search(7, 2, 1).witness,
        construction2(12, 4, 1, 2, 0),
        build_eps8(8),
    ]


def test_criterion_07_simulation_fidelity():
    rnd = random.Random(20240817)
    for code in _protocol_codes():
        L, r = code.params.L, code.params.r
        records = tuple(
            BinaryWord(L, rnd.getrandbits(L)) for _ in range(16)
        )
        db = Database(records)
        for trial in range(1000):
            x = BinaryWord(L, rnd.getrandbits(L))
            tr = run_simulation(db, x, r, code, seed=trial)
            assert tr.reconstructed == db.neighborhood(x, r), (
                f"L={L} trial={trial}"
            )

    # stored non-member codes must show a concrete false positive
    bad_codes = [
        make_code(5, 2, 0, [{1, 2}, {1, 3}, {1, 4}, {1, 5}]),
        make_code(6, 2, 1, [{1, 2}, {3, 4}, {5, 6}, {1, 3}, {2, 4}]),
    ]
    for bad in bad_codes:
        verdict = verify_exact(bad)
        assert not verdict.is_ppric
        L, r = bad.params.L, bad.params.r
        vm = verdict.violator.mask
        x = BinaryWord(L, rnd.getrandbits(L))
        probe = run_simulation(Database((x,)), x, r, bad, seed=99,
                               allow_unverified=True)
        ym = 0
        for dst in range(L):
            ym |= ((vm >> (probe.permutation[dst] - 1)) & 1) << dst
        y = BinaryWord(L, x.mask ^ ym)
        db = Database((x, y))
        tr = run_simulation(db, x, r, bad, seed=99, allow_unverified=True)
        truth = db.neighborhood(x, r)
        assert 2 in tr.reconstructed and 2 not in truth
        assert tr.reconstructed > truth
    _ok(7, "5 codes x 1000 runs, 2 false-positive demos")


def test_criterion_08_johnson_minimum():
    code = johnson_construction(8, 4, 1, 0)
    assert code.size == 3
    assert johnson_verify(code).is_ppric
    assert johnson_exact_check(8, 4, 1, 0)  # refutes every 2-word family
    _ok(8)


def test_criterion_09_ternary_lift():
    lifted = 0
    for code in _protocol_codes():
        if 3 ** code.params.L > 2 ** 24:
            continue
        assert qary_verify(code, 3).is_ppric, code.params
        lifted += 1
    assert lifted == 4  # only the 17-bit code sits over the cap
    _ok(9, f"{lifted} codes")


def test_criterion_10_covering_numbers():
    cases = {(4, 2, 2): 6, (3, 2, 1): 2, (7, 3, 2): 7}
    for (n, k, t), want in cases.items():
        got = exact_covering_number(n, k, t)
        assert got == want, (n, k, t)
        if n > k > t:
            assert got >= schoenheim_bound(n, k, t)
    assert verify_covering(design_9_5_2())
    assert verify_covering(all_pairs_design(4))
    _ok(10)

import itertools
import json
import random
import time

import pytest

from ppric import bounds, codes
from ppric.codes import Verdict, make_code, verify_enumeration, verify_exact
from ppric.construct import available_recipes, build_eps8
from ppric.cover import Budget, check_build
from ppric.errors import CapacityError, ConstructionError, ParameterError
from ppric.search import (
    SearchResult,
    _Space,
    _minimal_intersection_weights,
    conjecture_probe,
    exact_n_search,
    minimal_codes_enumerate,
)
from ppric.words import BinaryWord


def brute_force_min(L, s, r):
    """Reference minimum over every subset of the weight class, smallest
    first.  Only viable for tiny weight classes."""
    supports = list(itertools.combinations(range(1, L + 1), s))
    for m in range(1, len(supports) + 1):
        hits = []
        for combo in itertools.combinations(supports, m):
            code = make_code(L, s, r, [set(c) for c in combo])
            if verify_exact(code).is_ppric:
                hits.append(code)
        if hits:
            return m, hits
    raise AssertionError("weight class itself is not a code?")


def brute_minimal_weights(code):
    """Per-word reference for the conjecture probe's weight multisets: the
    words meeting every support, kept when no one-bit drop still does."""
    L = code.params.L
    masks = code.masks()
    hits = [all(v & m for m in masks) for v in range(1 << L)]
    weights = {}
    for v in range(1, 1 << L):
        if hits[v] and not any(hits[v ^ 1 << c]
                               for c in range(L) if v >> c & 1):
            weights[v.bit_count()] = weights.get(v.bit_count(), 0) + 1
    return weights


def test_small_pinned_values():
    assert exact_n_search(5, 2, 0).n_exact == 4
    assert exact_n_search(6, 2, 0).n_exact == 3
    assert exact_n_search(7, 3, 0).n_exact == 5
    assert exact_n_search(7, 2, 1).n_exact == 5
    assert exact_n_search(6, 1, 3).n_exact == 6


def test_witness_verifies_and_serializes():
    res = exact_n_search(7, 3, 0)
    assert verify_exact(res.witness).is_ppric
    assert res.witness.size == res.n_exact
    doc = json.loads(res.dumps())
    assert doc["n_exact"] == 5
    assert doc["witness"]["codewords"][0] == "1110000"  # pinned first word


def test_matches_brute_force_6_2_1():
    m, _ = brute_force_min(6, 2, 1)
    assert exact_n_search(6, 2, 1).n_exact == m == 6


def test_enumerate_matches_brute_force_6_2_1():
    # every minimal code whose first word is {1,2}, in both engines
    m, hits = brute_force_min(6, 2, 1)
    first = frozenset({1, 2})
    expect = {
        tuple(sorted(w.support() for w in code.codewords))
        for code in hits
        if first in {w.support() for w in code.codewords}
    }
    got = {
        tuple(sorted(w.support() for w in code.codewords))
        for code in minimal_codes_enumerate(6, 2, 1, m)
    }
    assert got == expect and got


def test_regression_9_3_1_minimum_is_seven():
    # the divisibility gap: no 6-codeword code exists here
    res = exact_n_search(9, 3, 1)
    assert res.n_exact == 7
    assert verify_exact(res.witness).is_ppric


@pytest.mark.slow
def test_regression_9_3_1_exhausts_size_six():
    assert minimal_codes_enumerate(9, 3, 1, 6) == []


def test_replay_12_3_2_has_no_seven_word_code():
    # the table value 7 is refuted in the suite, under the 2M-node budget
    # of criterion 05, before a size-8 code is found
    assert bounds.best_lower(12, 3, 2) == 7
    assert bounds.exact_n(12, 3, 2) is None
    res = exact_n_search(12, 3, 2, node_budget=2_000_000)
    assert res.n_exact == 8
    assert verify_enumeration(res.witness).is_ppric


# every admissible point with L <= 9 but (9, 3, 2), whose minimum neither
# search settles within the budget
SOUNDNESS_GRID = [(L, s, r) for L in range(3, 10) for s in range(1, L)
                  for r in range(L - 2 * s) if (L, s, r) != (9, 3, 2)]


@pytest.mark.parametrize("L,s,r", SOUNDNESS_GRID)
def test_orbital_minimum_matches_full_enumeration(L, s, r):
    # the deepening prunes symmetric subtrees and starts at size 1, with
    # no greedy cover to stop it early; collect prunes none, so it must
    # find no code one size below the deepening's and list its witness
    # among the codes of its size
    space = _Space(L, s, r)
    hit = space._deepen(1, len(space.sets), Budget(2_000_000))
    m = len(hit)
    if m > 1:
        assert space.collect(m - 1, Budget(2_000_000)) == []
    if (L, s, r) != (9, 3, 1):  # listing every 7-word code is out of budget
        assert hit in space.collect(m, Budget(2_000_000))
    code = space.make_code(hit)
    assert verify_exact(code).is_ppric
    assert verify_enumeration(code).is_ppric


@pytest.mark.parametrize("L,s,r", SOUNDNESS_GRID)
def test_solve_agrees_with_deepening(L, s, r):
    # the greedy cover only closes the bracket: same minimum either way
    space = _Space(L, s, r)
    hit = space.solve(1, len(space.sets), Budget(2_000_000))
    assert len(hit) == len(space._deepen(1, len(space.sets),
                                         Budget(2_000_000)))
    assert verify_exact(space.make_code(hit)).is_ppric


@pytest.mark.parametrize("L,s,r", [(7, 3, 0), (9, 4, 0), (12, 4, 0),
                                   (11, 3, 2), (12, 3, 3)])
def test_catalog_witness_closes_the_bracket(L, s, r):
    # the smallest catalog code meets the lower bound: no tree is searched
    lower = bounds.best_lower(L, s, r)
    assert available_recipes(L, s, r)[0].size == lower
    res = exact_n_search(L, s, r)
    assert (res.n_exact, res.nodes_explored) == (lower, 0)
    assert res.witness.codewords[0].support() == frozenset(range(1, s + 1))
    assert verify_exact(res.witness).is_ppric


def test_catalog_self_check_raises(monkeypatch):
    # an explicit raise, so it holds under python -O too
    failing = Verdict(False, BinaryWord(7, 0b1110000))
    monkeypatch.setattr(codes, "verify_exact", lambda code: failing)
    with pytest.raises(ConstructionError, match="violator 0000111"):
        exact_n_search(7, 3, 0)
    assert issubclass(ConstructionError, AssertionError)


def test_greedy_closes_the_bracket():
    # (9,3,2): the greedy cover has best_lower = 12 words, where the
    # catalog offers 14 and the tree spent 2M nodes without finding one
    assert bounds.best_lower(9, 3, 2) == 12
    assert available_recipes(9, 3, 2)[0].size == 14
    res = exact_n_search(9, 3, 2)
    assert (res.n_exact, res.nodes_explored) == (12, 0)
    assert verify_enumeration(res.witness).is_ppric


def test_deterministic_witness():
    a = exact_n_search(8, 3, 0)
    b = exact_n_search(8, 3, 0)
    assert a.dumps() == b.dumps()
    assert a.n_exact == 4


def test_size_cap():
    res = exact_n_search(6, 2, 0, size_cap=3)
    assert res.n_exact == 3
    with pytest.raises(ParameterError):
        exact_n_search(6, 2, 0, size_cap=1)  # below the lower bound
    with pytest.raises(CapacityError):
        exact_n_search(9, 3, 1, size_cap=6)  # cap sits between lb 6 and N 7


def test_node_budget():
    with pytest.raises(CapacityError):
        exact_n_search(9, 3, 1, node_budget=100)


def test_negative_node_budget_is_refused_first():
    # (9,3,1) runs a tree, (11,3,1) and (5,0,2) close without one: the
    # budget is checked before either
    for point in [(9, 3, 1), (11, 3, 1), (5, 0, 2)]:
        with pytest.raises(ParameterError, match="node budget"):
            exact_n_search(*point, node_budget=-5)
    with pytest.raises(ParameterError, match="node budget"):
        minimal_codes_enumerate(9, 3, 1, 7, node_budget=-1)
    assert exact_n_search(11, 3, 1, node_budget=0).nodes_explored == 0


def test_pool_cap():
    # C(40,12) candidates are far past BUILD_CAP, but the catalog code
    # meets the lower bound, so nothing is built and nothing refused
    res = exact_n_search(40, 12, 0)
    assert (res.n_exact, res.nodes_explored) == (3, 0)
    # enumerating the minimum codes needs the instance: refused unbuilt
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="BUILD_CAP"):
        minimal_codes_enumerate(40, 12, 0, 3)
    assert time.perf_counter() - start < 1


def test_universe_and_work_caps():
    # 8568 candidates by C(18,7)+C(18,9)+C(18,11)+C(18,13) = 127,704
    # elements, and the catalog's 13 is above the lower bound 9: refused
    # before the pool is built
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="BUILD_CAP"):
        exact_n_search(18, 5, 2)
    assert time.perf_counter() - start < 1
    # 2380 candidates by 62,322 elements, cost 181,453,784: admitted
    check_build(2380, 62_322)
    # 3003 candidates by 15,913 elements: admitted, and settled
    res = exact_n_search(15, 5, 0)
    assert res.n_exact == 3
    assert verify_exact(res.witness).is_ppric


@pytest.mark.parametrize("L,s,r", [(7, 3, 0), (9, 3, 1), (8, 2, 3)])
def test_space_masks_match_definition(L, s, r):
    # word c covers (gamma, P) iff |P n supp c| < gamma, gamma-major order
    space = _Space(L, s, r)
    supports = [set(c) for c in itertools.combinations(range(L), s)]
    elements = [(g, set(P)) for g in range(1, min(s, (L - r + 1) // 2) + 1)
                for P in itertools.combinations(range(L), min(r + 2 * g, L))]
    assert len(space.cover) == len(supports)
    assert len(space.elements) == len(elements)
    assert max(space.cover) >> len(elements) == 0
    assert max(map(space.handlers, range(len(elements)))) >> len(supports) == 0
    for c, supp in enumerate(supports):
        for j, (g, P) in enumerate(elements):
            hit = len(P & supp) < g
            assert (space.cover[c] >> j & 1) == hit == (space.handlers(j) >> c & 1)


def test_s_zero_trivial():
    res = exact_n_search(5, 0, 2)
    assert (res.n_exact, res.nodes_explored) == (1, 0)
    assert res.witness.codewords[0].mask == 0


def test_enumerate_oversized_raises():
    # m strictly above the true minimum is detectable: some branch runs out
    # of uncovered elements with slots left
    with pytest.raises(ParameterError):
        minimal_codes_enumerate(6, 2, 0, 5)


def test_minimal_intersection_weights_match_brute_force():
    rng = random.Random(15)
    codes = [build_eps8(8)]  # L = 17
    for L in [rng.randint(5, 12) for _ in range(30)] + [17]:
        s = rng.randint(1, (L - 1) // 3)
        pool = list(itertools.combinations(range(1, L + 1), s))
        codes.append(make_code(L, s, 0, rng.sample(
            pool, min(rng.randint(1, 8), len(pool)))))
    for code in codes:
        assert _minimal_intersection_weights(code) == \
            brute_minimal_weights(code), code


def test_conjecture_probe():
    rep = conjecture_probe(6, 2, 1)
    codes = minimal_codes_enumerate(6, 2, 1, rep.n_exact)
    assert rep.weight_multisets == [brute_minimal_weights(c) for c in codes]
    assert rep.n_exact == 6
    assert rep.expected == 4  # r + 3
    assert rep.min_weights and all(w >= 1 for w in rep.min_weights)
    doc = rep.to_json_dict()
    assert doc["L"] == 6
    assert doc["expected_weight"] == 4
    assert doc["min_weight_always_expected"] == rep.min_weight_always_expected

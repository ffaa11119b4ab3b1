import pytest

from ppric import codes
from ppric.codes import Verdict, verify_enumeration, verify_exact
from ppric.construct import (
    Recipe,
    available_recipes,
    build_disjoint,
    build_eps8,
    build_extremal,
    build_full,
    build_recipe,
    construction2,
    construction3,
    design422_code,
    design952_code,
    doubling,
    doubling_params,
    extremal_size,
)
from ppric.covering import all_pairs_design, design_9_5_2
from ppric.errors import CapacityError, ConstructionError, ParameterError
from ppric.words import BinaryWord, SchemeParams, binom


def test_disjoint():
    for L, s, r in [(6, 2, 0), (7, 2, 0), (8, 2, 1), (5, 1, 2), (12, 3, 1)]:
        code = build_disjoint(L, s, r)
        assert code.size == r + 3
        assert verify_exact(code).is_ppric
    with pytest.raises(ParameterError):
        build_disjoint(5, 2, 0)  # needs L >= (r+3)s


def test_construction_self_check_raises(monkeypatch):
    # an explicit raise, so it holds under python -O too
    failing = Verdict(False, BinaryWord(6, 0b111))
    monkeypatch.setattr(codes, "verify_exact", lambda code: failing)
    with pytest.raises(ConstructionError, match="violator 111000"):
        build_disjoint(6, 2, 0)


def test_full():
    code = build_full(5, 2, 0)
    assert code.size == binom(5, 2)
    assert verify_exact(code).is_ppric
    # the full code is the search's candidate pool, held to the same
    # build rule: C(22, 9) = 497,420 words are refused unbuilt
    with pytest.raises(CapacityError, match="BUILD_CAP"):
        build_full(22, 9, 0)


def test_extremal():
    code = build_extremal(2, 1)
    assert code.params == SchemeParams(6, 2, 1)
    assert code.size == extremal_size(2, 1) == 6
    assert verify_exact(code).is_ppric
    # padding to a longer L keeps the property
    padded = build_extremal(2, 1, 8)
    assert padded.params == SchemeParams(8, 2, 1)
    assert verify_exact(padded).is_ppric
    with pytest.raises(ParameterError):
        build_extremal(1, 3)  # needs s > r


def test_eps8():
    code = build_eps8(8)
    assert code.params == SchemeParams(17, 8, 0)
    assert code.size == 6
    assert verify_exact(code).is_ppric
    with pytest.raises(ParameterError):
        build_eps8(12)  # needs 8 | s
    big = build_eps8(16)
    assert big.params == SchemeParams(34, 16, 0)
    assert big.size == 6
    assert verify_exact(big).is_ppric


def test_construction2_and_3():
    c2 = construction2(12, 4, 1, 2, 0)
    assert c2.size == 6
    assert verify_exact(c2).is_ppric
    c3 = construction3(12, 3, 2, 3, 0)
    assert c3.size == 9
    assert verify_exact(c3).is_ppric


def test_doubling_pinned():
    d = design_9_5_2()
    code = doubling(d, d)
    assert code.params == SchemeParams(18, 4, 3)
    assert code.size == 10
    assert verify_exact(code).is_ppric


def test_doubling_params_symbolic():
    got = doubling_params(28, 20, 6, 25, 28, 20, 6, 25)
    assert got == {"L": 56, "s": 8, "r": 11, "size": 50}
    with pytest.raises(ParameterError):
        doubling_params(28, 20, 6, 25, 28, 21, 6, 25)  # weights differ


def test_design_seeded_codes():
    code = design952_code(4, 2)
    assert code.size == 5 + 3
    assert verify_exact(code).is_ppric
    code = design422_code(2, 2)
    assert code.size == 6 + 3
    assert verify_exact(code).is_ppric
    # small enough for the enumeration oracle too (2s + 3s/2 = 7 coords)
    assert verify_enumeration(code).is_ppric
    with pytest.raises(ParameterError):
        design952_code(4, 3)  # odd r has no superset chain


def test_pairs_doubling():
    d = all_pairs_design(4)
    code = doubling(d, d)
    assert verify_exact(code).is_ppric


def test_catalog_all_feasible_build_and_verify():
    # every catalog entry at a spread of parameter points builds a verified
    # code of exactly the advertised size
    for L, s, r in [(5, 2, 0), (6, 2, 1), (9, 3, 1), (12, 4, 1), (11, 3, 2),
                    (17, 8, 0), (7, 3, 0), (13, 2, 2)]:
        for rec in available_recipes(L, s, r):
            if rec.size > 600:
                continue  # skip the full weight class at larger L
            code = build_recipe(rec, L, s, r)
            assert code.size == rec.size, (L, s, r, rec.rule_label())
            assert code.params == SchemeParams(L, s, r)
            assert verify_exact(code).is_ppric, (L, s, r, rec.rule_label())


def test_catalog_sorted_and_labels():
    recs = available_recipes(12, 4, 1)
    sizes = [rec.size for rec in recs]
    assert sizes == sorted(sizes)
    assert any(rec.rule_label().startswith("ub.") for rec in recs)
    assert all(isinstance(rec.to_json_dict(), dict) for rec in recs)


def test_catalog_rejects_inadmissible():
    with pytest.raises(ParameterError):
        available_recipes(5, 2, 1)
    with pytest.raises(ParameterError):
        build_recipe(Recipe("nonsense", 3), 6, 2, 0)


def _candidate_plans(s, r):
    """Every plan the catalog may list at (s, r), and more that it must not:
    k up to s+1 and t up to (r+3)//2 for the superset constructions."""
    for rule in ("full", "disjoint", "extremal", "eps8"):
        yield rule, {}
    for rule in ("construction2", "construction3"):
        for k in range(1, s + 2):
            for t in range((r + 3) // 2 + 1):
                yield rule, {"k": k, "t": t}
    for rule in ("design952", "design422"):
        yield rule, {"u": r // 2}
    for seed in ("9-5-2", "4-2-2"):
        yield "doubling", {"seed": seed}


AGREEMENT_GRID = [
    (L, s, r) for s in range(1, 5) for r in range(0, 4)
    for L in range(2 * s + r + 1, 19)
] + [(17, 8, 0), (18, 8, 1), (19, 8, 2)]


def test_catalog_lists_exactly_the_plans_that_build():
    # the catalog and the builders read one spec per family: a listed plan
    # builds to its advertised size, an omitted one is refused
    seen = set()
    for L, s, r in AGREEMENT_GRID:
        listed = {(rec.rule, tuple(sorted(rec.params.items()))): rec.size
                  for rec in available_recipes(L, s, r)}
        tried = set()
        for rule, plan in _candidate_plans(s, r):
            key = (rule, tuple(sorted(plan.items())))
            tried.add(key)
            recipe = Recipe(rule, listed.get(key, 0), plan)
            if key not in listed:
                with pytest.raises(ParameterError):
                    build_recipe(recipe, L, s, r)
            elif rule != "full" or recipe.size <= 300:
                # full is listed everywhere, but built only up to a cap
                code = build_recipe(recipe, L, s, r)
                assert code.size == recipe.size, (L, s, r, key)
                assert code.params == SchemeParams(L, s, r), (L, s, r, key)
        assert set(listed) <= tried, (L, s, r)
        seen.update(rule for rule, _ in listed)
    assert len(seen) == 9  # every family is listed somewhere on the grid

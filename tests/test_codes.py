import ast
import itertools
import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ppric import codes
from ppric.codes import (
    PpricCode,
    _components,
    _gamma_range,
    _greedy_multihit,
    _min_multihit_set,
    full_sphere_identity_holds,
    make_code,
    min_multihit_weight,
    mippr_min_weight,
    pad_coordinate,
    scale_code,
    verify_enumeration,
    verify_exact,
)
from ppric.construct import build_extremal
from ppric.cover import Budget
from ppric.errors import CapacityError, FormatError, ParameterError
from ppric.words import (BinaryWord, SchemeParams, _points, _subsets,
                         _transpose, enumerate_ball)


def brute_enumeration(code):
    """The per-word reference for verify_enumeration, a loop over all 2^L
    words: (verdict, the lightest violator's mask with ties to the
    smallest or None, gamma -> h(gamma) as the lightest word meeting
    every support at least gamma times)."""
    L, s, r = code.params.L, code.params.s, code.params.r
    masks = code.masks()
    grange = _gamma_range(L, s, r)
    violator, best = None, {}
    for y in range(1 << L):
        w = y.bit_count()
        if (r < w and (violator is None or w < violator.bit_count())
                and all((y ^ m).bit_count() <= r + s for m in masks)):
            violator = y
        g = min((y & m).bit_count() for m in masks)
        for gamma in grange:
            if gamma <= g and w < best.get(gamma, L + 1):
                best[gamma] = w
    return violator is None, violator, {g: best[g] for g in grange if g in best}


def brute_full_sphere(L, s, r):
    """Per-word reference for full_sphere_identity_holds: is every word
    within r+s of all weight-s words exactly a word of weight <= r?"""
    sphere = [sum(1 << c for c in supp)
              for supp in itertools.combinations(range(L), s)]
    return all((y.bit_count() <= r)
               == all((y ^ z).bit_count() <= r + s for z in sphere)
               for y in range(1 << L))


def test_code_construction_checks():
    make_code(5, 2, 0, [{1, 2}, {3, 4}, {1, 5}, {2, 5}])
    with pytest.raises(ParameterError):
        make_code(5, 2, 0, [{1, 2}, {1, 2, 3}])  # wrong weight
    with pytest.raises(ParameterError):
        make_code(5, 2, 0, [])
    with pytest.raises(ParameterError):
        make_code(5, 2, 0, [{1, 2}, {1, 2}])  # duplicate codeword


def test_json_roundtrip():
    code = make_code(6, 2, 1, [{1, 2}, {3, 4}, {5, 6}, {1, 3}, {2, 4}, {1, 4}])
    text = code.dumps()
    again = PpricCode.loads(text)
    assert again == code
    assert json.loads(text)["codewords"] == [w.to_string() for w in code.codewords]
    with pytest.raises(FormatError):
        PpricCode.loads("{not json")
    with pytest.raises(FormatError):
        PpricCode.loads('{"L": 5, "s": 2}')


def test_verify_known_positive():
    # four pair-supports covering every 2-subset of a 5-set complement-wise
    code = make_code(5, 2, 0, [{1, 2}, {1, 5}, {2, 5}, {3, 4}])
    v = verify_exact(code)
    assert v.is_ppric
    assert v.violator is None
    # gamma profile reports h(gamma) for each checked gamma
    assert set(v.gamma_profile) == {1, 2}
    assert v.gamma_profile[1] >= 3
    w = verify_enumeration(code)
    assert w.is_ppric


def test_verify_known_negative():
    # all codewords through coordinate 1: P = {1} multihits at gamma = 1
    code = make_code(5, 2, 0, [{1, 2}, {1, 3}, {1, 4}, {1, 5}])
    v = verify_exact(code)
    assert not v.is_ppric
    w = verify_enumeration(code)
    assert not w.is_ppric
    # the enumeration violator is a real certificate: inside every
    # B(c, r+s) but outside B(0, r)
    bad = w.violator
    assert bad.weight > code.params.r
    for c in code.codewords:
        assert (bad.mask ^ c.mask).bit_count() <= code.params.r + code.params.s


def test_verdict_json():
    code = make_code(5, 2, 0, [{1, 2}, {1, 3}, {1, 4}, {1, 5}])
    doc = verify_enumeration(code).to_json_dict()
    assert doc["is_ppric"] is False
    assert isinstance(doc["violator"], str)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_exact_matches_enumeration(data):
    L = data.draw(st.integers(5, 9))
    s = data.draw(st.integers(1, (L - 1) // 2))
    r = data.draw(st.integers(0, L - 2 * s - 1))
    supports = list(itertools.combinations(range(1, L + 1), s))
    m = data.draw(st.integers(1, min(6, len(supports))))
    chosen = data.draw(
        st.lists(st.sampled_from(supports), min_size=m, max_size=m, unique=True)
    )
    code = make_code(L, s, r, [set(c) for c in chosen])
    assert verify_exact(code).is_ppric == verify_enumeration(code).is_ppric


def test_enumeration_cap():
    code = make_code(51, 25, 0, [set(range(1, 26)), set(range(26, 51))])
    with pytest.raises(CapacityError):
        verify_enumeration(code)


def test_full_sphere_identity_boundary():
    # the identity holds exactly on admissible triples, and the scan
    # agrees with the per-word reference
    for L in range(2, 9):
        for s in range(0, L + 1):
            for r in range(0, L):
                got = full_sphere_identity_holds(L, s, r)
                assert got == (r + 2 * s + 1 <= L), (L, s, r)
                assert got == brute_full_sphere(L, s, r), (L, s, r)


def test_full_sphere_identity_work_cap():
    # C(24, 5) = 42,504 centres of 2^24 lanes: refused before any scan
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="SCAN_WORK_CAP"):
        full_sphere_identity_holds(24, 5, 14)
    assert time.perf_counter() - start < 1
    # the largest test triples stay admitted: 2^12 lanes x 925 x 12
    assert full_sphere_identity_holds(12, 6, 0) is False
    assert full_sphere_identity_holds(12, 5, 1) is True


def test_enumeration_matches_brute_force():
    # random codes, most of them failing, and a few at L >= 17, where the
    # scan lanes are wider than a machine word many times over
    rng = random.Random(15)
    shapes = [(rng.randint(5, 12), rng.randint(1, 8)) for _ in range(40)]
    shapes += [(17, 3), (18, 2)]
    failed = 0
    for L, size in shapes:
        s = rng.randint(1, (L - 1) // 3)
        r = rng.randint(0, L - 2 * s - 1)
        pool = list(itertools.combinations(range(1, L + 1), s))
        code = make_code(L, s, r, rng.sample(pool, min(size, len(pool))))
        ok, violator, profile = brute_enumeration(code)
        got = verify_enumeration(code)
        assert got.is_ppric == ok, code
        assert got.violator == (None if ok else BinaryWord(L, violator)), code
        assert got.gamma_profile == profile, code
        failed += not ok
    assert failed >= 20


def test_min_multihit_weight():
    code = make_code(5, 2, 0, [{1, 2}, {1, 5}, {2, 5}, {3, 4}])
    # any single coordinate hits at most two supports here, so h(1) >= 3
    assert min_multihit_weight(code, 1) == 3
    # gamma = 2 needs both coordinates of some support... and more
    assert min_multihit_weight(code, 2) >= 4


def test_mippr_weight_bound():
    # a verified code's minimal intersecting words have weight >= r+2
    from ppric.construct import build_extremal

    code = build_extremal(2, 1, 6)
    assert verify_exact(code).is_ppric
    w = mippr_min_weight(code)
    assert w is not None and w >= code.params.r + 2


def test_pad_and_scale():
    code = make_code(5, 2, 0, [{1, 2}, {1, 5}, {2, 5}, {3, 4}])
    padded = pad_coordinate(code, 2)
    assert padded.params == SchemeParams(7, 2, 0)
    assert verify_exact(padded).is_ppric
    doubled = scale_code(code, 2)
    assert doubled.params == SchemeParams(10, 4, 0)
    assert verify_exact(doubled).is_ppric
    with pytest.raises(ParameterError):
        scale_code(code, 0)


def test_random_upward_closure():
    # adding codewords never destroys the property
    from ppric.search import exact_n_search

    rng = random.Random(7)
    base = exact_n_search(7, 2, 1).witness
    assert verify_exact(base).is_ppric
    pool = [set(c) for c in itertools.combinations(range(1, 8), 2)]
    for _ in range(10):
        extra = rng.sample([p for p in pool if frozenset(p) not in
                            {w.support() for w in base.codewords}], 3)
        bigger = make_code(7, 2, 1, [w.support() for w in base.codewords] + extra)
        assert verify_exact(bigger).is_ppric


def test_enumeration_violator_is_minimum_weight():
    code = make_code(5, 2, 0, [{1, 2}, {1, 3}, {1, 4}, {1, 5}])
    bad = verify_enumeration(code).violator
    # no lighter violator exists
    r, s = code.params.r, code.params.s
    for cand in enumerate_ball(BinaryWord(5, 0), bad.weight - 1):
        if cand.weight <= r:
            continue
        if all((cand.mask ^ c.mask).bit_count() <= r + s for c in code.codewords):
            pytest.fail(f"lighter violator {cand.to_string()}")


def _random_union(rng: random.Random, L: int):
    """A disjoint union of random blocks on shuffled coordinates: each block
    is 1..4 distinct s-subsets of its own s..s+3 coordinates, and the
    coordinates left over stay unused."""
    s = rng.randint(1, (L - 1) // 4)
    r = rng.randint(0, L - 2 * s - 1)
    coords = rng.sample(range(1, L + 1), L)
    supports = []
    while True:
        width = rng.randint(s, s + 3)
        if width > len(coords):
            break
        block, coords = coords[:width], coords[width:]
        for _ in range(rng.randint(1, 4)):
            supp = set(rng.sample(block, s))
            if supp not in supports:
                supports.append(supp)
    return make_code(L, s, r, supports)


@pytest.mark.parametrize("seed", range(4))
def test_split_matches_enumeration_on_random_unions(seed):
    rng = random.Random(seed)
    lengths = [rng.randint(6, 14) for _ in range(20)] + [16 + seed]
    for L in lengths:
        code = _random_union(rng, L)
        L, s, r = code.params.L, code.params.s, code.params.r
        exact, enum = verify_exact(code), verify_enumeration(code)
        assert exact.is_ppric == enum.is_ppric
        # the enumeration verdict carries the rescanned profile
        assert exact.gamma_profile == enum.gamma_profile
        if exact.violator is None:
            continue
        bad = exact.violator
        # a true violator: outside B(0, r), inside every B(c, r+s) ...
        assert bad.weight > r
        assert all((bad.mask ^ m).bit_count() <= r + s for m in code.masks())
        # ... and of minimum weight
        assert bad.weight == enum.violator.weight


def test_components_single():
    # a chain of supports is one component over all its coordinates
    assert _components([0b0011, 0b0110, 0b1100]) == [
        ([0, 1, 2, 3], (0b0011, 0b0110, 0b1100)),
    ]


def test_components_skip_unused_coordinates():
    # coordinates 0, 2 and 5 lie in no support; the two components
    # interleave and keep the order of their first codewords
    parts = _components([0b0010010, 0b1001000, 0b0010000])
    assert parts == [
        ([1, 4], (0b11, 0b10)),
        ([3, 6], (0b11,)),
    ]


def test_identical_blocks_share_one_memo_entry(monkeypatch):
    code = make_code(8, 2, 1, [{1, 2}, {2, 3}, {5, 6}, {6, 7}])
    assert [local for _, local in _components(code.masks())] == [
        (0b011, 0b110), (0b011, 0b110),
    ]
    calls = []

    def counted(masks, L, gammas, budget):
        calls.append(list(gammas))
        return _min_multihit_set(masks, L, gammas, budget)

    monkeypatch.setattr(codes, "_min_multihit_set", counted)
    verdict = verify_exact(code)
    # one solve for both blocks, with every gamma in it
    assert calls == [[1, 2]]
    assert verdict.gamma_profile == brute_enumeration(code)[2]


def test_multihit_node_budget():
    code = build_extremal(3, 1)
    with pytest.raises(CapacityError, match="node budget"):
        verify_exact(code, node_budget=1)
    assert verify_exact(code).is_ppric


def test_split_keeps_extremal_verification_small():
    # the two halves of build_extremal(10, 2) are its components; split,
    # they need 190 nodes, while one search over all 77 codewords needs
    # 728,967
    code = build_extremal(10, 2)
    assert verify_exact(code, node_budget=1_000).is_ppric
    L = code.params.L
    budget = Budget(1_000)
    with pytest.raises(CapacityError):
        _min_multihit_set(code.masks(), L, range(1, 11), budget)


def _multihit_oracle(masks, L, gammas, budget):
    """The multihit tree as it was before it read its hit counts off
    ``words._count``: a hit count per codeword, kept by hand through the
    codewords each class lies in, and every codeword rescanned per node."""
    columns = _transpose(masks, L)
    groups = {}
    for c, key in enumerate(columns):
        if key:
            groups.setdefault(key, []).append(c)
    keys = sorted(groups)
    coords = [groups[k] for k in keys]
    caps = [len(cs) for cs in coords]
    held = [_points(k) for k in keys]
    nregions = len(keys)
    take = [0] * nregions
    hits = [0] * len(masks)

    def rec(size, frozen):
        nonlocal best_size, best_take
        budget.nodes += 1
        if budget.nodes > budget.limit:
            raise CapacityError(
                f"multihit node budget {budget.limit} exceeded")
        worst_def = total_def = defmask = 0
        worst_i = -1
        for i in range(len(masks)):
            d = gamma - hits[i]
            if d > 0:
                total_def += d
                defmask |= 1 << i
                if d > worst_def:
                    worst_def, worst_i = d, i
        if worst_def == 0:
            if size < best_size:
                best_size = size
                best_take = take[:]
            return
        if size + worst_def >= best_size:
            return
        best_yield = 0
        for j in range(nregions):
            if take[j] < caps[j] and not frozen >> j & 1:
                y = (keys[j] & defmask).bit_count()
                if y > best_yield:
                    best_yield = y
        if best_yield == 0:
            return
        if size - (-total_def // best_yield) >= best_size:
            return
        f = frozen
        room = 0
        for j in range(nregions):
            if keys[j] >> worst_i & 1 and not f >> j & 1:
                room += caps[j] - take[j]
        if room < worst_def:
            return
        for j in range(nregions):
            if not keys[j] >> worst_i & 1 or f >> j & 1 or take[j] >= caps[j]:
                continue
            take[j] += 1
            for i in held[j]:
                hits[i] += 1
            rec(size + 1, f)
            for i in held[j]:
                hits[i] -= 1
            take[j] -= 1
            f |= 1 << j
            room -= caps[j] - take[j]
            if room < worst_def:
                return

    out = {}
    for gamma in gammas:
        if any(m.bit_count() < gamma for m in masks):
            out[gamma] = None
        else:
            greedy = _greedy_multihit(columns, gamma, (1 << len(masks)) - 1)
            best_size, best_take = greedy.bit_count(), None
            rec(0, 0)
            out[gamma] = (best_size, greedy if best_take is None else
                          sum(1 << c for cs, tk in zip(coords, best_take)
                              for c in cs[:tk]))
    return out


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_multihit_matches_the_per_codeword_oracle(data):
    # same h, witness and node count as the hand-kept hit counts, for
    # constant and mixed weights; with one node fewer both run out
    L = data.draw(st.integers(1, 12))
    weight = st.integers(1, L)
    if data.draw(st.booleans()):
        weight = st.just(data.draw(weight))
    masks = data.draw(st.lists(
        weight.flatmap(lambda w: st.sampled_from(
            list(_subsets((1 << L) - 1, w)))), min_size=1, max_size=8))
    top = data.draw(st.integers(0, 6))
    gammas = range(data.draw(st.integers(0, 1)), top + 1)
    want = Budget(50_000)
    expected = _multihit_oracle(masks, L, gammas, want)
    got = Budget(want.nodes)
    assert _min_multihit_set(masks, L, gammas, got) == expected
    assert got.nodes == want.nodes
    if want.nodes:
        with pytest.raises(CapacityError):
            _min_multihit_set(masks, L, gammas, Budget(want.nodes - 1))


def test_multihit_runs_out_at_the_oracles_node():
    # build_extremal(10, 2) in one piece, every gamma: both searches pass
    # node 1,000 and raise there
    code = build_extremal(10, 2)
    L = code.params.L
    for solve in (_multihit_oracle, _min_multihit_set):
        budget = Budget(1_000)
        with pytest.raises(CapacityError, match="node budget 1000"):
            solve(code.masks(), L, range(1, 11), budget)
        assert budget.nodes == 1_001


def _verifier_calls(node, scope=()):
    """The enclosing class/function path of each call, under ``node``, to
    ``verify_exact`` or ``johnson_verify`` (by name or attribute)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            yield from _verifier_calls(child, scope + (child.name,))
            continue
        if isinstance(child, ast.Call):
            func = child.func
            if getattr(func, "id", getattr(func, "attr", None)) in (
                    "verify_exact", "johnson_verify"):
                yield ".".join(scope)
        yield from _verifier_calls(child, scope)


def test_only_the_verdict_properties_call_the_verifiers():
    # every other caller reads code.verdict, so a code object's verdict is
    # reached once however many constructions, searches and runs touch it
    package = Path(codes.__file__).parent
    found = sorted(f"{path.stem}:{where}"
                   for path in package.glob("*.py")
                   for where in _verifier_calls(ast.parse(path.read_text())))
    assert found == ["codes:PpricCode.verdict",
                     "schemes:JohnsonPpricCode.verdict"]

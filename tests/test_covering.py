import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ppric import covering
from ppric.cover import Budget
from ppric.covering import (
    CoveringDesign,
    _covering_cover,
    all_pairs_design,
    complement_design,
    design_9_5_2,
    exact_covering_number,
    fano_plane,
    load_design,
    parse_design,
    schoenheim_bound,
    serialize_design,
    singleton_design,
    verify_covering,
)
from ppric.errors import CapacityError, FormatError, ParameterError


def covers(design):
    """Reference covering check, straight from the definition."""
    for sub in itertools.combinations(range(1, design.n + 1), design.t):
        if not any(set(sub) <= b for b in design.blocks):
            return False
    return True


def test_fano():
    d = fano_plane()
    assert (d.n, d.k, d.t, d.size) == (7, 3, 2, 7)
    assert verify_covering(d)
    assert covers(d)
    # Steiner: every pair in exactly one block
    for pair in itertools.combinations(range(1, 8), 2):
        assert sum(set(pair) <= b for b in d.blocks) == 1


def test_design_9_5_2():
    d = design_9_5_2()
    assert (d.n, d.k, d.t, d.size) == (9, 5, 2, 5)
    assert verify_covering(d)


def test_all_pairs_and_singletons():
    d = all_pairs_design(4)
    assert (d.n, d.k, d.t, d.size) == (4, 2, 2, 6)
    assert verify_covering(d)
    e = singleton_design(5)
    assert (e.k, e.t) == (1, 1)
    assert verify_covering(e)


def test_complement():
    d = fano_plane()
    c = complement_design(d)
    assert c.n == 7 and c.k == 4 and c.size == d.size
    assert all(b1 | b2 == set(range(1, 8)) for b1, b2 in zip(c.blocks, d.blocks))


def test_verify_rejects_noncover():
    d = CoveringDesign(5, 2, 2, (frozenset({1, 2}), frozenset({3, 4})))
    assert not verify_covering(d)
    assert not covers(d)


def test_schoenheim():
    assert schoenheim_bound(7, 3, 2) == 7
    assert schoenheim_bound(9, 5, 2) == 4
    assert schoenheim_bound(13, 4, 2) == 13
    with pytest.raises(ParameterError):
        schoenheim_bound(4, 2, 2)  # needs k > t strictly


def test_exact_covering_numbers():
    assert exact_covering_number(4, 2, 2) == 6
    assert exact_covering_number(3, 2, 1) == 2
    assert exact_covering_number(7, 3, 2) == 7
    assert exact_covering_number(5, 3, 2) == 4
    value, witness = exact_covering_number(6, 3, 2, return_witness=True)
    assert value == 6
    assert verify_covering(CoveringDesign(6, 3, 2, witness))
    with pytest.raises(CapacityError):
        exact_covering_number(11, 3, 2)
    # the greedy cover meets the Schonheim bound of 4 here, so only a
    # budget checked first refuses -1
    with pytest.raises(ParameterError, match="node budget"):
        exact_covering_number(5, 3, 2, node_budget=-1)


def test_verify_covering_refuses_before_listing(monkeypatch):
    def refuse(mask, t):
        raise AssertionError("listed a block past the cap")

    monkeypatch.setattr(covering, "_subsets", refuse)
    # 100 distinct blocks x C(20, 10) = 18.5M subsets, though C(24, 10) is
    # under the cap
    blocks = itertools.islice(itertools.combinations(range(1, 25), 20), 100)
    design = CoveringDesign(24, 20, 10, tuple(map(frozenset, blocks)))
    with pytest.raises(CapacityError):
        verify_covering(design)


def test_verify_covering_lists_a_repeated_block_once(monkeypatch):
    listed = []

    def once(mask, t):
        assert not listed, "listed a repeated block twice"
        listed.append(mask)
        return subsets(mask, t)

    subsets = covering._subsets
    monkeypatch.setattr(covering, "_subsets", once)
    design = CoveringDesign(24, 20, 10, (frozenset(range(1, 21)),) * 1000)
    assert verify_covering(design) is False


@pytest.mark.parametrize("n,k,t", [(6, 3, 2), (7, 4, 3), (5, 3, 3)])
def test_instance_masks_match_definition(n, k, t):
    # block B covers the t-subset T iff T is inside B
    inst = _covering_cover(n, k, t)
    blocks = [set(b) for b in itertools.combinations(range(1, n + 1), k)]
    subsets = [set(T) for T in itertools.combinations(range(1, n + 1), t)]
    assert len(inst.cover) == len(blocks)
    assert len(inst.handler) == len(subsets)
    assert max(inst.cover) >> len(subsets) == 0
    assert max(inst.handler) >> len(blocks) == 0
    for c, B in enumerate(blocks):
        for j, T in enumerate(subsets):
            hit = T <= B
            assert (inst.cover[c] >> j & 1) == hit == (inst.handler[j] >> c & 1)


# every (n, k, t) with n <= 7 that exact_covering_number accepts
COVERING_GRID = [(n, k, t) for n in range(2, 8) for k in range(1, n + 1)
                 for t in range(1, k + 1)]


@pytest.mark.parametrize("n,k,t", COVERING_GRID)
def test_orbital_minimum_matches_full_enumeration(n, k, t):
    # collect prunes no symmetric subtree: no cover one block smaller,
    # and the witness of the deepening from size 1 among the covers of
    # its size
    inst = _covering_cover(n, k, t)
    c, blocks = exact_covering_number(n, k, t, return_witness=True)
    hit = inst._deepen(1, len(inst.sets), Budget(2_000_000))
    assert len(hit) == c
    if c > 1:
        assert inst.collect(c - 1, Budget(2_000_000)) == []
    assert hit in inst.collect(c, Budget(2_000_000))
    design = CoveringDesign(n, k, t, blocks)
    assert verify_covering(design) and covers(design)


@pytest.mark.parametrize("n,k,t", COVERING_GRID)
def test_solve_agrees_with_deepening(n, k, t):
    inst = _covering_cover(n, k, t)
    hit = inst.solve(1, len(inst.sets), Budget(2_000_000))
    assert len(hit) == len(inst._deepen(1, len(inst.sets),
                                        Budget(2_000_000)))
    full = inst.full
    for i in hit:
        full &= ~inst.cover[i]
    assert full == 0


def test_exact_at_least_schoenheim():
    for n, k, t in [(5, 3, 2), (6, 3, 2), (7, 3, 2), (6, 4, 2), (7, 4, 3)]:
        assert exact_covering_number(n, k, t) >= schoenheim_bound(n, k, t)


def test_design_text_roundtrip(tmp_path):
    d = fano_plane()
    text = serialize_design(d)
    again = parse_design(text)
    assert again == d
    path = tmp_path / "fano.txt"
    path.write_text(text)
    assert load_design(str(path)) == d


def test_parse_design_errors():
    with pytest.raises(FormatError):
        parse_design("")
    with pytest.raises(FormatError):
        parse_design("7 3 2 1\n1 2\n")  # block of wrong size
    with pytest.raises(FormatError):
        parse_design("7 3 2 2\n1 2 3\n")  # fewer blocks than the header says
    with pytest.raises(FormatError):
        parse_design("7 3 2 1\n1 2 9\n")  # element out of range


@settings(deadline=None, max_examples=40)
@given(st.integers(3, 7), st.data())
def test_exact_witness_is_optimal_cover(n, data):
    k = data.draw(st.integers(2, n - 1))
    t = data.draw(st.integers(1, min(3, k)))
    value, witness = exact_covering_number(n, k, t, return_witness=True)
    d = CoveringDesign(n, k, t, witness)
    assert len(witness) == value
    assert verify_covering(d)
    assert covers(d)
    assert value >= 1

from math import comb

import pytest

from ppric.codes import _gamma_range
from ppric.cover import BUILD_CAP, Budget, Cover, check_build
from ppric.covering import _covering_cover
from ppric.errors import CapacityError, ParameterError
from ppric.schemes import _johnson_cover
from ppric.search import _Space
from ppric.words import MAX_LENGTH, SCAN_CAP, johnson_sphere_size


def test_lane_holds_counts_up_to_255():
    big = (1 << 255) - 1
    # overlaps 255 and 254 against bound 255: only the second is covered
    inst = Cover([big], [([big, big >> 1], 255)], [])
    assert inst.cover == [0b10]
    assert inst.handler == [0, 1]


def test_lane_guard():
    heavy = (1 << 256) - 1
    with pytest.raises(ParameterError, match="byte lane"):
        Cover([heavy], [([heavy], 1)], [])
    # light elements bound every overlap, however heavy the candidates
    far = 0b11 << 300
    inst = Cover([heavy, far | 1 << 302], [([0b11, far], 2)], [])
    assert inst.cover == [0b10, 0b01]
    assert inst.handler == [0b10, 0b01]


def test_cells_must_be_disjoint():
    with pytest.raises(ParameterError, match="disjoint"):
        Cover([0b011], [([0b001], 1)], [0b011, 0b110])


def _closed(masks, cells):
    """masks is closed under swapping any two neighbouring points of a
    cell; those swaps generate the cell's symmetric group."""
    pool = set(masks)
    for cell in cells:
        points = [g for g in range(cell.bit_length()) if cell >> g & 1]
        for a, b in zip(points, points[1:]):
            swap = 1 << a | 1 << b
            for m in pool:
                if (m >> a ^ m >> b) & 1 and m ^ swap not in pool:
                    return False
    return True


INSTANCES = {
    "search 7,3,0": lambda: _Space(7, 3, 0),
    "search 9,3,1": lambda: _Space(9, 3, 1),
    "search 8,2,3": lambda: _Space(8, 2, 3),
    "covering 6,3,2": lambda: _covering_cover(6, 3, 2),
    "covering 7,4,3": lambda: _covering_cover(7, 4, 3),
    "johnson 8,4,1,0": lambda: _johnson_cover(8, 4, 1, 0),
    "johnson 10,5,1,1": lambda: _johnson_cover(10, 5, 1, 1),
}


@pytest.mark.parametrize("name", INSTANCES)
def test_instance_closed_under_declared_cells(name):
    # orbital branching is sound only if the declared symmetry is real:
    # the candidates are closed under the declared cells, and each
    # segment's elements under those cells split by the pinned candidate 0
    inst = INSTANCES[name]()
    assert inst.cells
    assert _closed(inst.sets, inst.cells)
    root = [piece for cell in inst.cells
            for piece in (cell & inst.sets[0], cell & ~inst.sets[0])]
    for off, seg, _ in inst.segments:
        assert _closed(inst.elements[off:off + seg.bit_count()], root)


def test_greedy_pins_candidate_0_and_breaks_ties_low():
    # singleton elements 0..3, each covered by the candidates missing it
    inst = Cover([0b1110, 0b1001, 0b0011, 0b0111],
                 [([0b0001, 0b0010, 0b0100, 0b1000], 1)], [])
    assert inst.cover == [0b0001, 0b0110, 0b1100, 0b1000]
    # after the pinned 0, candidates 1 and 2 tie on two elements and 1
    # wins; then 2 and 3 tie on the last one and 2 wins
    assert inst.greedy() == (0, 1, 2)


def test_greedy_on_an_uncoverable_instance():
    # element 0b11 meets both candidates in 1 place, never below 1
    inst = Cover([0b01, 0b10], [([0b11], 1)], [])
    assert inst.greedy() is None
    assert inst.solve(1, 2, Budget()) is None


@pytest.mark.parametrize("name", INSTANCES)
def test_lower_bound_above_greedy_raises(name):
    inst = INSTANCES[name]()
    size = len(inst.greedy())
    with pytest.raises(ParameterError, match="lower bound"):
        inst.solve(size + 1, len(inst.sets), Budget())


@pytest.mark.parametrize("name", INSTANCES)
def test_greedy_at_the_lower_bound_spends_no_node(name):
    inst = INSTANCES[name]()
    greedy = inst.greedy()
    budget = Budget()
    assert inst.solve(len(greedy), len(inst.sets), budget) == greedy
    assert budget.nodes == 0
    # and with an upper bound below it there is no cover to return
    assert inst.solve(len(greedy), len(greedy) - 1, budget) is None
    assert budget.nodes == 0


def _admitted(candidates, elements):
    try:
        check_build(candidates, elements)
    except CapacityError:
        return False
    return True


def test_build_cap_is_the_cost_of_72_2_67():
    # the largest binary instance the two former caps (5000 candidates,
    # 60,000 elements) admitted, and the rule sits exactly on it
    assert comb(72, 2) * 59_712 + 512 * (comb(72, 2) + 59_712) == BUILD_CAP
    assert _admitted(comb(72, 2), 59_712)
    assert not _admitted(comb(72, 2), 59_713)
    # rows cost too: (24, 1, 10), 24 candidates by C(24, 12) elements,
    # has a product of 6.5e7 but is refused
    assert 24 * comb(24, 12) < BUILD_CAP
    assert not _admitted(24, comb(24, 12))


def test_build_rule_against_the_former_caps():
    # binary instances: C(L, s) candidates by C(L, min(r+2g, L)) elements
    # per gamma; past BUILD_CAP // 512 candidates both rules refuse on
    # the pool alone, so only the smaller pools are counted
    kept = gained = 0
    for L in range(3, MAX_LENGTH + 1):
        for s in range(1, (L - 1) // 2 + 1):
            candidates = comb(L, s)
            if candidates > BUILD_CAP // 512:
                break
            for r in range(L - 2 * s):
                elements = sum(comb(L, min(r + 2 * g, L))
                               for g in _gamma_range(L, s, r))
                old = candidates <= 5000 and elements <= 60_000
                new = _admitted(candidates, elements)
                assert new or not old, (L, s, r)
                kept += old
                gained += new and not old
    assert (kept, gained) == (1374, 271)
    # Johnson regime instances, L >= s(2r+3) and n >= 2L within SCAN_CAP:
    # the s-sphere by the words at distance r+1..r+s from v0; the former
    # rule bounded the elements only
    lost, gained = [], 0
    for L in range(3, 14):
        n = 2 * L
        while comb(n, L) <= SCAN_CAP:
            for s in range(1, L // 3 + 1):
                for r in range((L // s - 3) // 2 + 1):
                    elements = sum(johnson_sphere_size(n, L, d)
                                   for d in range(r + 1, r + s + 1))
                    old = elements <= 60_000
                    new = _admitted(johnson_sphere_size(n, L, s), elements)
                    if old and not new:
                        lost.append((n, L, s, r))
                    gained += new and not old
            n += 1
    assert sorted(lost) == [
        (20, 9, 3, 0), (20, 10, 3, 0), (21, 9, 3, 0), (21, 10, 3, 0),
        (22, 9, 3, 0), (22, 10, 3, 0), (22, 11, 3, 0), (23, 9, 3, 0),
        (23, 10, 3, 0), (23, 11, 3, 0), (24, 9, 3, 0), (24, 10, 2, 1),
        (24, 10, 3, 0), (24, 11, 2, 1), (24, 11, 3, 0), (24, 12, 2, 1),
        (24, 12, 3, 0), (25, 9, 3, 0), (25, 10, 2, 1), (25, 10, 3, 0),
        (49, 6, 2, 0), (50, 6, 2, 0),
    ]
    assert gained == 43

import pytest

from ppric.cover import Budget, Cover
from ppric.covering import _covering_cover
from ppric.errors import ParameterError
from ppric.schemes import _johnson_cover
from ppric.search import _Space


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

from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from ppric.codes import _gamma_range
from ppric.cover import BUILD_CAP, Budget, Cover, _refine, check_build
from ppric.covering import _covering_cover, schoenheim_bound
from ppric.errors import CapacityError, ParameterError
from ppric.schemes import _johnson_cover
from ppric.search import _Space
from ppric.words import MAX_LENGTH, SCAN_CAP, _subsets, johnson_sphere_size


def _below(rows, cols, bound, lane=1):
    """Per row, the mask of the cols it overlaps in fewer than bound
    places: the byte-lane counter the cover build once used, as an oracle.

    A lane per ground coordinate has a count of ``lane`` bytes per col,
    set to 1 where cols[j] holds it, so a row's lane sum has every overlap
    count in one count; ``lane`` bytes hold counts below 256 ** lane."""
    lanes = [int.from_bytes(b"".join((m >> g & 1).to_bytes(lane, "little")
                                     for m in cols), "little")
             for g in range(max(rows).bit_length())]
    out = []
    for row in rows:
        counts = sum(v for g, v in enumerate(lanes) if row >> g & 1
                     ).to_bytes(len(cols) * lane, "little")
        out.append(sum(1 << j for j in range(len(cols)) if int.from_bytes(
            counts[j * lane:(j + 1) * lane], "little") < bound))
    return out


WIDE = 400
# about half the points, or about 7/8 of them, so that two dense masks
# overlap in more than 255 points
SPARSE = st.integers(0, (1 << WIDE) - 1)
DENSE = st.tuples(SPARSE, SPARSE, SPARSE).map(lambda t: t[0] | t[1] | t[2])
MASKS = st.lists(st.one_of(SPARSE, DENSE), min_size=1, max_size=12)


@settings(deadline=None, max_examples=60)
@given(MASKS, st.lists(st.tuples(MASKS, st.integers(0, WIDE + 1)),
                       min_size=1, max_size=3))
# every candidate empty: no point at all, and still a valid instance
@example([0], [([0, 1], 1), ([1], 0)])
def test_tables_match_the_byte_lane_oracle(candidates, segments):
    inst = Cover(candidates, segments, [])
    rows = [0] * len(candidates)
    handlers = []
    offset = 0
    for masks, bound in segments:
        # two-byte lanes: the overlaps here reach WIDE
        got = _below(candidates, masks, bound, lane=2)
        rows = [m | row << offset for m, row in zip(rows, got)]
        handlers += _below(masks, candidates, bound, lane=2)
        offset += len(masks)
    assert inst.cover == rows
    assert [inst.handlers(j) for j in range(offset)] == handlers


@st.composite
def _instances(draw):
    """Candidates over a few points, in combinations order or not, then
    shuffled (the identity shuffle included); 0 to 3 segments of mixed
    bounds, their elements reaching two points past the candidates'."""
    width = draw(st.integers(1, 9))
    if draw(st.booleans()):
        candidates = list(_subsets((1 << width) - 1,
                                   draw(st.integers(0, width))))
    else:
        candidates = draw(st.lists(st.integers(0, (1 << width) - 1),
                                   min_size=1, max_size=30))
    candidates = draw(st.permutations(candidates))
    elements = st.lists(st.integers(0, (1 << width + 2) - 1), min_size=1,
                        max_size=20)
    segments = draw(st.lists(st.tuples(elements, st.integers(0, width + 1)),
                             max_size=3))
    return candidates, segments


@settings(deadline=None, max_examples=200)
@given(_instances())
@example(([0b0111, 0b1011, 0b1101, 0b1110], []))
@example(([0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100],
          [([0b0001, 0b0110, 0b1111], 1), ([0b0011, 0b11100], 3)]))
def test_tables_match_the_direct_oracle(case):
    # row c bit offset + j: popcount(c & e_j) < bound; per segment its
    # (offset, width mask, largest row count) and (offset, bound)
    candidates, segments = case
    inst = Cover(candidates, segments, [])
    rows = [0] * len(candidates)
    widths, bounds, offset = [], [], 0
    for masks, bound in segments:
        got = [sum(1 << j for j, e in enumerate(masks)
                   if (c & e).bit_count() < bound) for c in candidates]
        rows = [m | row << offset for m, row in zip(rows, got)]
        widths.append((offset, (1 << len(masks)) - 1,
                       max(map(int.bit_count, got))))
        bounds.append((offset, bound))
        offset += len(masks)
    assert inst.cover == rows
    assert inst.segments == widths
    assert inst.bounds == bounds
    assert inst.full == (1 << offset) - 1


def test_counts_up_to_255():
    big = (1 << 255) - 1
    # overlaps 255 and 254 against bound 255: only the second is covered
    inst = Cover([big], [([big, big >> 1], 255)], [])
    assert inst.cover == [0b10]
    assert [inst.handlers(j) for j in range(2)] == [0, 1]
    assert _below([big], [big, big >> 1], 255) == [0b10]


def test_heavy_overlaps_build():
    # overlaps of 256 and more, past what one byte lane holds, are counted
    heavy = (1 << 256) - 1
    candidates, elements = [heavy, heavy >> 1], [heavy, heavy << 1]
    inst = Cover(candidates, [(elements, 256)], [])
    assert inst.cover == [0b10, 0b11]
    assert [inst.handlers(j) for j in range(2)] == [0b10, 0b11]
    for c, cand in enumerate(candidates):
        for j, e in enumerate(elements):
            hit = (cand & e).bit_count() < 256
            assert (inst.cover[c] >> j & 1) == hit == (inst.handlers(j) >> c & 1)
    # light elements bound every overlap, however heavy the candidates
    far = 0b11 << 300
    inst = Cover([heavy, far | 1 << 302], [([0b11, far], 2)], [])
    assert inst.cover == [0b10, 0b01]
    assert [inst.handlers(j) for j in range(2)] == [0b10, 0b01]


def test_build_counts_no_handler_row():
    # the build fills only the cover table; the tree counts a handler row
    # when it first reads it
    inst = _johnson_cover(20, 10, 1, 3)
    assert inst.handler == [None] * 44_100
    assert inst.handlers(0) == inst.handler[0] is not None
    assert inst.handler.count(None) == 44_099


def test_cells_must_be_disjoint():
    with pytest.raises(ParameterError, match="disjoint"):
        Cover([0b011], [([0b001], 1)], [0b011, 0b110])


def _orbits_oracle(candidates, handlers, cells):
    """Lowest member -> orbit, for the orbits of two or more handlers: the
    handlers grouped by their points off the cells and their popcount in
    each cell (with distinct candidates, a handler meeting every cell in
    none or all of its points is alone in its group)."""
    moving = sum(cells)
    groups = {}
    for i, mask in enumerate(candidates):
        if handlers >> i & 1:
            key = (mask & ~moving,
                   tuple((mask & c).bit_count() for c in cells))
            groups[key] = groups.get(key, 0) | 1 << i
    return {g & -g: g for g in groups.values() if g & (g - 1)}


@st.composite
def _orbit_cases(draw):
    width = draw(st.integers(2, 12))
    candidates = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1,
                               max_size=40, unique=True))
    # each point off the cells (label 0) or in one of up to four cells
    labels = draw(st.lists(st.integers(0, 4), min_size=width,
                           max_size=width))
    declared = [sum(1 << g for g, label in enumerate(labels) if label == k)
                for k in range(1, 5)]
    cells = _refine([c for c in declared if c], 0)
    for part in draw(st.lists(st.integers(0, (1 << width) - 1), max_size=2)):
        cells = _refine(cells, part)
    handlers = draw(st.integers(0, (1 << len(candidates)) - 1))
    return candidates, declared, cells, handlers


@settings(deadline=None, max_examples=300)
@given(_orbit_cases())
# every candidate meets each of two cells in one point, and the off-cell
# point 4 splits them into two orbits of three
@example(([0b00101, 0b01010, 0b10110, 0b00110, 0b11001, 0b10101],
          [0b0011, 0b1100], [0b0011, 0b1100], 0b111111))
def test_orbits_match_the_grouping_oracle(case):
    candidates, declared, cells, handlers = case
    inst = Cover(candidates, [], [c for c in declared if c])
    assert inst._orbits(handlers, cells) == _orbits_oracle(
        candidates, handlers, cells)


# budget units (candidates tried plus handler rows intersected at the last
# pick) and witnesses of trees where orbital branching prunes; without the
# orbits the units are 165,727, 117,486, 474,326, 413,090, 64,299 and
# 427,415.  c(10,5,2) at 6 reaches its cover through many slot-2 levels of
# a one-segment instance.
PRUNED_TREES = {
    "search 9,3,1 at 6": (lambda: _Space(9, 3, 1),
                          lambda inst, b: inst._deepen(6, 6, b), 3_243, None),
    "search 10,3,1 at 5": (lambda: _Space(10, 3, 1),
                           lambda inst, b: inst._deepen(5, 5, b), 601, None),
    "covering 9,4,2": (lambda: _covering_cover(9, 4, 2),
                       lambda inst, b: inst.solve(schoenheim_bound(9, 4, 2),
                                                  126, b), 13_956,
                       (0, 17, 18, 21, 46, 86, 96, 99)),
    "johnson 16,8,1,2": (lambda: _johnson_cover(16, 8, 1, 2),
                         lambda inst, b: inst.solve(1, 6, b), 1_193, None),
    "johnson 14,7,1,2": (lambda: _johnson_cover(14, 7, 1, 2),
                         lambda inst, b: inst.solve(1, 6, b), 978, None),
    "covering 10,5,2 at 6": (lambda: _covering_cover(10, 5, 2),
                             lambda inst, b: inst._deepen(6, 7, b), 32_150,
                             (0, 11, 110, 160, 231, 248)),
}


@pytest.mark.parametrize("name", PRUNED_TREES)
def test_pruned_tree_node_counts(name):
    build, run, nodes, witness = PRUNED_TREES[name]
    budget = Budget()
    assert run(build(), budget) == witness
    assert budget.nodes == nodes


def _branch_oracle(inst, chosen, unhandled, alive, handlers, cells, slots,
                   budget, found):
    """The tree as it was before it ran on a stack of levels: one recursive
    call per pick, so its depth was capped by the interpreter.

    Try one candidate per orbit of ``handlers`` as the next of ``slots``
    picks.  Each candidate tried is one node.  Once it is picked the node
    is a leaf when no slot is left, dead when a segment cannot be finished,
    and otherwise branches on its own element.  ``alive`` is the candidate
    mask still allowed on this path, and ``cells`` the non-singleton cells
    of the partition fixing it (empty: every handler is its own orbit).
    Returns the first cover found as a sorted index tuple, or None; with
    ``found`` a list, every cover is appended to it instead and None is
    returned.
    """
    cover = inst.cover
    orbits = cells and inst._orbits(handlers, cells)
    slots -= 1
    while handlers:
        low = handlers & -handlers
        orbit = orbits.get(low, low) if orbits else low
        handlers &= ~orbit
        # inside the child only i itself is banned
        alive &= ~low
        i = low.bit_length() - 1
        rest = unhandled & ~cover[i]
        budget.nodes += 1
        if budget.nodes > budget.limit:
            raise CapacityError(f"search node budget {budget.limit} exceeded")
        if slots == 0:
            if not rest:
                ix = tuple(sorted(chosen + [i]))
                if found is None:
                    return ix
                found.append(ix)
            continue
        if not rest:
            # a strictly smaller cover exists, so the deepening loop
            # would have stopped at an earlier size; only an oversize m
            # (collect beyond the minimum) can land here
            raise ParameterError(
                "requested size exceeds the minimum cover size")
        for off, seg, cap in inst.segments:
            if (rest >> off & seg).bit_count() > slots * cap:
                break
        else:
            j = inst.pick_element(rest, alive)
            if j >= 0:
                sub = cells and _refine(_refine(cells, inst.sets[i]),
                                        inst.elements[j])
                chosen.append(i)
                hit = _branch_oracle(inst, chosen, rest, alive,
                                     inst.handler[j] & alive, sub, slots,
                                     budget, found)
                chosen.pop()
                if hit is not None:
                    return hit
        # sibling ban: every cover through this orbit maps onto one
        # through i, and those were all tried above
        alive &= ~orbit
    return None


def _deepen_oracle(inst, lower, upper, budget):
    """The first cover in branch order of the smallest size in
    lower..upper that has one, by iterative deepening."""
    for m in range(lower, min(upper, len(inst.cover)) + 1):
        # the root node is the pinned pick of candidate 0
        hit = _branch_oracle(inst, [], inst.full, inst.full_pool, 1,
                             inst.cells, m, budget, None)
        if hit is not None:
            return hit
    return None


def _collect_oracle(inst, m, budget):
    """Every size-m cover containing candidate 0, in branch order."""
    found = []
    if m <= len(inst.cover):
        _branch_oracle(inst, [], inst.full, inst.full_pool, 1, [], m, budget,
                       found)
    return found


def _outcome(run, limit=None):
    """What ``run`` returns, or the type of the error it raises, and the
    units it spent out of a budget of ``limit`` (None: a budget no tree
    here can spend)."""
    budget = Budget(10 ** 12 if limit is None else limit)
    try:
        out = run(budget)
    except (CapacityError, ParameterError) as error:
        out = type(error)
    return out, budget.nodes


def _agrees(run, oracle, limit):
    """``run`` under a budget of ``limit`` either runs out, having spent
    more than the limit, or finishes with the witness, list of covers or
    ParameterError of the recursive ``oracle`` run to the end; the two
    trees spend their units differently, so only outcomes are compared."""
    out, spent = _outcome(run, limit)
    if out is CapacityError:
        assert spent > limit
    else:
        assert out == _outcome(oracle)[0]


def _swaps(cells):
    """The swaps of neighbouring points of each cell, which generate the
    cells' Young subgroup."""
    out = []
    for cell in cells:
        points = [g for g in range(cell.bit_length()) if cell >> g & 1]
        out += [1 << a | 1 << b for a, b in zip(points, points[1:])]
    return out


def _closure(masks, cells):
    """masks, then each further image of theirs under the permutations
    within the cells, in the order a breadth-first walk meets them."""
    out, seen, swaps = list(masks), set(masks), _swaps(cells)
    for m in out:
        for swap in swaps:
            if m & swap not in (0, swap) and m ^ swap not in seen:
                seen.add(m ^ swap)
                out.append(m ^ swap)
    return out


def _root_pieces(cells, first):
    """The cells split by candidate 0, whose permutations fix it."""
    return [piece for cell in cells for piece in (cell & first, cell & ~first)]


# the most masks a closed candidate list or segment may hold
CLOSURE_CAP = 40


@st.composite
def _tree_cases(draw):
    """An instance drawn by ``_instances``, disjoint cells drawn as in
    ``_orbit_cases`` over every point it holds, a node budget, a range of
    sizes to deepen over and a size to collect.  The instance is closed
    under the cells as ``Cover`` requires: the candidates under the cells,
    each segment under the cells split by candidate 0, less the elements
    no candidate covers (so that trees go deep).  While a closure holds
    more than CLOSURE_CAP masks, the largest cell is dropped."""
    drawn, segments = draw(_instances())
    masks = drawn + [e for elements, _ in segments for e in elements]
    width = max(m.bit_length() for m in masks)
    # fewer labels make larger cells, and so more orbits
    labels = draw(st.lists(st.integers(0, draw(st.integers(1, 4))),
                           min_size=width, max_size=width))
    cells = [sum(1 << g for g, label in enumerate(labels) if label == k)
             for k in range(1, 5)]
    cells = [c for c in cells if c]
    while True:
        candidates = _closure(drawn, cells)
        root = _root_pieces(cells, candidates[0])
        closed = [([e for e in _closure(elements, root)
                    if any((c & e).bit_count() < bound for c in candidates)],
                   bound) for elements, bound in segments]
        if max(len(m) for m in [candidates] + [e for e, _ in closed]) \
                <= CLOSURE_CAP or not cells:
            break
        cells.remove(max(cells, key=int.bit_count))
    # a lower bound above the minimum raises at once
    top = len(candidates) + 1
    lower = draw(st.integers(0, 2))
    return (candidates, closed, cells, draw(st.integers(0, 5_000)), lower,
            draw(st.integers(lower, top)), draw(st.integers(0, top)))


@settings(deadline=None, max_examples=300)
@given(_tree_cases())
# orbits below the root: the pairs of six points in one cell, each pair
# covered by the pairs it misses
@example((list(_subsets(0b111111, 2)), [(list(_subsets(0b111111, 2)), 1)],
          [0b111111], 10_000, 1, 6, 3))
def test_tree_matches_the_recursive_oracle(case):
    # the recursive tree's witness, list of covers or error, with budgets
    # that run out and sizes past the minimum; the last pick's finishers
    # match the oracle's one try per orbit only where the declared
    # symmetry is real, so every case holds it
    candidates, segments, cells, limit, lower, upper, m = case
    assert _closed(candidates, cells)
    for elements, _ in segments:
        assert _closed(elements, _root_pieces(cells, candidates[0]))
    inst = Cover(candidates, segments, cells)
    _agrees(lambda b: inst._deepen(lower, upper, b),
            lambda b: _deepen_oracle(inst, lower, upper, b), limit)
    _agrees(lambda b: inst.collect(m, b),
            lambda b: _collect_oracle(inst, m, b), limit)


def test_budget_charges_candidates_and_rows():
    # points 0..4; segment A is element 0, the point {0}; segment B is
    # elements 1 and 2, the points {1} and {2}; a candidate covers an
    # element it misses.  Candidate 0 covers none, 1 covers A, 2 covers B.
    inst = Cover([0b00111, 0b00110, 0b00001],
                 [([0b001], 1), ([0b010, 0b100], 1)], [])
    # size 2: candidate 0, then rows 0 and 1 leave no finisher (row 2 is
    # never read); size 3: candidate 0, candidate 1 for element 0, then
    # rows 1 and 2 leave candidate 2.  Three candidates and four rows.
    budget = Budget()
    assert inst._deepen(2, 3, budget) == (0, 1, 2)
    assert budget.nodes == 7
    # the rows are charged before the cover is reported, and the unit past
    # the limit is counted
    budget = Budget(6)
    with pytest.raises(CapacityError):
        inst._deepen(2, 3, budget)
    assert budget.nodes == 7
    budget = Budget()
    assert inst.collect(3, budget) == [(0, 1, 2)]
    assert budget.nodes == 4
    # a budget shared by two runs counts on from where the first left it
    budget = Budget()
    inst._deepen(2, 3, budget)
    assert inst.collect(3, budget) == [(0, 1, 2)]
    assert budget.nodes == 11


def test_oversize_collect_keeps_its_count():
    # c(7,4,2) = 5: a 6-cover meets a 5-cover mid-branch and raises, its
    # units counted up to the node that found the smaller cover
    budget = Budget()
    with pytest.raises(ParameterError):
        _covering_cover(7, 4, 2).collect(6, budget)
    assert budget.nodes == 47


def test_tree_deeper_than_the_interpreter_stack():
    # 1,500 elements, each covered by its own candidate alone: the only
    # cover takes all 1,500, one level each, past the recursion limit; the
    # budget spends 1,499 candidates and the last element's row
    n = 1_500
    full = (1 << n) - 1
    inst = Cover([1 << i for i in range(n)],
                 [([full ^ 1 << j for j in range(n)], 1)], [])
    budget = Budget()
    assert inst._deepen(n, n, budget) == tuple(range(n))
    assert budget.nodes == n
    budget = Budget()
    assert inst.collect(n, budget) == [tuple(range(n))]
    assert budget.nodes == n


def _closed(masks, cells):
    """masks is closed under swapping any two neighbouring points of a
    cell; those swaps generate the cell's symmetric group."""
    pool = set(masks)
    return all(m ^ swap in pool for swap in _swaps(cells) for m in pool
               if m & swap not in (0, swap))


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
    root = _root_pieces(inst.cells, inst.sets[0])
    for off, seg, _ in inst.segments:
        assert _closed(inst.elements[off:off + seg.bit_count()], root)


@pytest.mark.parametrize("name", INSTANCES)
def test_tree_matches_the_recursive_oracle_with_orbits(name):
    # the declared cells make orbits on every level of these trees; around
    # the minimum, collect finishes, runs out or meets a smaller cover
    inst = INSTANCES[name]()
    top = len(inst.sets)
    hit, _ = _outcome(lambda b: inst._deepen(1, top, b), 1_000_000)
    assert hit == _outcome(lambda b: _deepen_oracle(inst, 1, top, b))[0]
    for m in range(len(hit) - 1, len(hit) + 2):
        _agrees(lambda b: inst.collect(m, b),
                lambda b: _collect_oracle(inst, m, b), 30_000)


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


def test_budget_limit_is_nonnegative():
    assert Budget(0).limit == 0
    for limit in (-1, -5):
        with pytest.raises(ParameterError, match="node budget"):
            Budget(limit)


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

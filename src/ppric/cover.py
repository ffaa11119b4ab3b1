"""Minimum set cover by exhaustive search.

Every exhaustive question in the package is a minimum set cover: the
minimum code size N(L, s, r) (``search``), the covering numbers
c(n, k, t) (``covering``) and the Johnson-scheme 2r+3 check
(``schemes``).  Each caller states only its instance, a ``Cover`` of
ground-set masks in which a candidate covers an element when their
overlap is below a bound; this module builds its bitsets and searches it.
``words._count`` counts every overlap over transposed masks: the build
counts each row on from the row before's count of their shared points,
and a handler row when the tree first reads it (it reads few).
``check_build`` is the one size rule: the search and the Johnson check
pass it their instance, counted in closed form, before building it (the
covering numbers, n <= EXACT_N_CAP, stay far below it).

Candidate 0 is pinned: every cover searched contains it, which each
caller justifies by symmetry.  ``solve`` brackets the minimum first: a
greedy cover (Chvatal 1979) bounds it from above, and only the sizes from
the caller's lower bound up to one below the greedy size are tried, by
iterative deepening.  The witness is the first cover the tree finds, or
the greedy cover when every smaller size is refuted (with nothing spent
when its size meets the lower bound); the budget counts tree work only,
a unit per candidate tried and per handler row intersected.  Within one
size the tree branches on an uncovered element: every completion must
contain one of its handlers (the candidates covering it), so the children
commit one handler each and ban the handlers tried by earlier siblings.
The branch element is the one with the fewest usable handlers among the
lowest-index ELEMENT_WINDOW uncovered elements.  A segment is dead when
its uncovered count exceeds the open slots times the largest number of
its elements any one candidate covers.  The last pick is no branch: its
finishers are the usable candidates in every uncovered element's row, and
the lowest is the lowest of its orbit (see below), as the position's
group fixes the uncovered set.
The tree is one loop over a stack of levels, as Knuth keeps Algorithm X's
("Dancing Links", 2000), so its depth, the cover size, is bounded by the
node budget and not by the interpreter's recursion limit.

Orbital branching (Ostrowski, Linderoth, Rossi and Smriglio, Math.
Programming 2011; Margot 2003) keeps the tree from visiting symmetric
copies of one subtree.  Each caller declares ``cells``, disjoint parts of
the ground set whose points its instance lets be permuted freely: the
candidates and every segment's elements are closed under those
permutations once candidate 0 is fixed.  Each node refines the cells by
the set of every candidate chosen (candidate 0 included), of every branch
element on its path and of its own branch element; the Young subgroup of
that partition fixes the whole position, bans included.  Two usable
handlers lie in one orbit of it when they hold the same points off the
cells and as many in each cell, so ``_refine`` splits them into orbits by
the candidate planes of those points and the ``_count`` digits of each
cell's planes.  Only the lowest-index member of each orbit is tried, in
index order; once its subtree is done, the whole orbit is banned for later
siblings, since any cover through another member maps onto one through
the member tried.  Inside the child only the tried member is banned, so
every ban stays invariant under the smaller group below it.  The
deepening thus visits each completion up to symmetry at least once and
stops at the first cover in branch order; ``collect`` treats every
handler as its own orbit, so it visits every completion exactly once.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, or_

from .errors import CapacityError, ParameterError
from .words import _at_most, _count, _points, _transpose, _within

DEFAULT_NODE_BUDGET = 5_000_000
# a build's cost: its (candidate, element) pairs plus 512 per row, as
# calibrated when a build filled a handler table too (12 ns and 0.4 B a
# pair, 6 us and 100 B a row) and kept; the cap is the cost of the binary
# (72, 2, 67) instance, 2556 by 59,712
BUILD_CAP = 184_505_088
# how many uncovered elements to inspect when choosing the branch element
ELEMENT_WINDOW = 64


def check_build(candidates: int, elements: int) -> None:
    """Refuse an instance whose build costs more than BUILD_CAP."""
    if candidates * elements + 512 * (candidates + elements) > BUILD_CAP:
        raise CapacityError(f"cover build of {candidates} candidates by "
                            f"{elements} elements exceeds BUILD_CAP")


class Budget:
    """Counts tree work in ``nodes``, a unit per candidate tried and per
    handler row intersected at the last pick; the unit that takes it past
    ``limit`` raises CapacityError before any cover is reported."""
    __slots__ = ("nodes", "limit")

    def __init__(self, limit: int = DEFAULT_NODE_BUDGET):
        if limit < 0:
            raise ParameterError(f"node budget must be nonnegative, got {limit}")
        self.nodes = 0
        self.limit = limit


def _refine(cells: list[int], part: int) -> list[int]:
    """The cells, or orbits, split by ``part``, keeping only pieces of two or
    more (a lone point is fixed by its cell, a lone handler its own orbit)."""
    out = []
    for cell in cells:
        inside = cell & part
        if inside & (inside - 1):
            out.append(inside)
        inside ^= cell
        if inside & (inside - 1):
            out.append(inside)
    return out


class Cover:
    """Bitset instance: a cover mask per candidate, built at once, and a
    handler mask per element, ``handlers(j)``, counted on first read over
    ``members`` (a plane of candidates per point), which split orbits too.
    A cover mask is one ``_within`` of a count over every segment's
    elements: the previous candidate's count of the lowest points the two
    share, plus a plane per point past them.

    ``candidates`` are ground-set masks.  Each segment is a pair
    ``(element_masks, bound)``; elements are indexed in segment order, and
    candidate c covers element e iff ``popcount(c & e) < bound``.
    ``cells`` are disjoint ground-set masks whose points may be permuted
    within each cell: the candidates, and once candidate 0 is fixed every
    segment's elements, must be closed under those permutations.
    """

    def __init__(self, candidates: list[int],
                 segments: list[tuple[list[int], int]], cells: list[int]):
        if sum(map(int.bit_count, cells)) != reduce(or_, cells, 0).bit_count():
            raise ParameterError("symmetry cells must be disjoint")
        self.sets = candidates
        self.elements = [e for masks, _ in segments for e in masks]
        # the declared cells of two points or more
        self.cells = _refine(cells, 0)
        self.ground = reduce(or_, candidates)
        self.width = reduce(or_, cells, self.ground).bit_length()
        self.members = _transpose(candidates, self.width)
        self.bounds, spans, offset = [], [], 0
        for masks, bound in segments:
            self.bounds.append((offset, bound))
            spans.append((offset, (1 << len(masks)) - 1))
            offset += len(masks)
        self.full = full = (1 << offset) - 1
        # one lane per element, each starting at top - (bound - 1): a
        # candidate covers the lanes its points' planes take to at most top
        top = max((bound for _, bound in segments), default=0) - 1
        lift = [top + 1 - bound for _, bound in segments]
        path = [[sum(seg << off for (off, seg), up in zip(spans, lift)
                     if up >> b & 1)
                 for b in range(max(lift, default=0).bit_length())]]
        planes = _transpose(self.elements or [0], self.width)
        # path[k]: the count of the k lowest points of the last candidate
        self.cover, last = [], 0
        for c in candidates:
            if fork := c ^ last:
                fork &= -fork
                del path[(c & fork - 1).bit_count() + 1:]
                for g in range(fork.bit_length() - 1, c.bit_length()):
                    if c >> g & 1:
                        path.append(_count([planes[g]], path[-1]))
            self.cover.append(_within(path[-1], top, full))
            last = c
        # (offset, width mask, largest per-candidate count) per segment
        self.segments = [(off, seg, max((row >> off & seg).bit_count()
                                        for row in self.cover))
                         for off, seg in spans]
        self.full_pool = (1 << len(candidates)) - 1
        # the handler rows, counted by ``handlers`` when first read
        self.handler = [None] * offset

    def handlers(self, j: int) -> int:
        """Mask of the candidates covering element j, counted over the
        candidate planes (``members``) of j's points on the first read and
        kept; no candidate holds a point off ``ground``."""
        row = self.handler[j]
        if row is None:
            bound = max(b for b in self.bounds if b[0] <= j)[1]
            points = _points(self.elements[j] & self.ground)
            row = self.handler[j] = _at_most(
                [self.members[g] for g in points], bound - 1, self.full_pool)
        return row

    def pick_element(self, unhandled: int, alive: int) -> int:
        """Index of the branch element, or -1 for a dead position.

        Scans the lowest-index uncovered elements (at most ELEMENT_WINDOW
        of them) and keeps the one with the fewest usable handlers.  Any
        inspected element with none at all kills the position outright.
        """
        handler = self.handler
        best = 0
        pick = -1
        u = unhandled
        seen = 0
        while u and seen < ELEMENT_WINDOW:
            low = u & -u
            u ^= low
            seen += 1
            j = low.bit_length() - 1
            # an unread row is None; a read row of 0 is kept by handlers
            c = ((handler[j] or self.handlers(j)) & alive).bit_count()
            if c == 0:
                return -1
            if best == 0 or c < best:
                best, pick = c, j
                if c == 1:
                    break
        return pick

    def _orbits(self, handlers: int, cells: list[int]) -> dict[int, int]:
        """Lowest member -> orbit mask, for each orbit of two or more
        ``handlers`` under the Young subgroup of ``cells``: the loose ones
        (meeting a cell in some but not all its points) split by their points
        off the cells and their ``_count`` in each; the rest are alone."""
        members = self.members
        moving = loose = 0
        planes = []
        for cell in cells:
            moving |= cell
            column = []
            while cell:
                low = cell & -cell
                cell ^= low
                column.append(members[low.bit_length() - 1])
            loose |= reduce(or_, column) & ~reduce(and_, column)
            planes += _count(column)
        loose &= handlers
        if not loose & (loose - 1):
            return {}
        planes += [p for g, p in enumerate(members) if not moving >> g & 1]
        parts = [loose]
        for plane in planes:
            # a plane holding all or none of loose splits nothing
            plane &= loose
            if plane and plane != loose:
                parts = _refine(parts, plane)
        return {part & -part: part for part in parts}

    def _tree(self, m: int, budget: Budget,
              found: list | None = None) -> tuple[int, ...] | None:
        """Search the size-m covers: one loop over a stack of levels.

        A level keeps its pick, the handlers left to try, their orbits,
        ``alive`` (the candidates its path allows), the uncovered mask and
        ``cells`` (the cells of two or more points fixing the path); the
        root's holds candidate 0.  Each candidate tried is a node: dead when a
        segment cannot be finished, else with at most one slot left the last
        pick in closed form, its finishers covers in index order, else the
        level is pushed and its branch element's usable handlers make the
        next; a spent level is popped with its pick.  Returns the first cover
        as a sorted tuple, or None; with ``found`` a list, every handler is
        its own orbit and every cover is appended.
        """
        cells = self.cells if found is None else []
        handlers, orbits, alive, unhandled = 1, {}, self.full_pool, self.full
        cover, handler, stack = self.cover, self.handler, []
        while handlers or stack:
            if not handlers:
                _, handlers, orbits, alive, unhandled, cells = stack.pop()
                continue
            low = handlers & -handlers
            orbit = orbits.get(low, low) if orbits else low
            handlers &= ~orbit
            i = low.bit_length() - 1
            rest = unhandled & ~cover[i]
            budget.nodes += 1
            if budget.nodes > budget.limit:
                raise CapacityError(f"search node budget {budget.limit} exceeded")
            slots = m - 1 - len(stack)
            if slots and not rest:
                # a strictly smaller cover exists, so the deepening loop
                # would have stopped at an earlier size; only an oversize m
                # (collect beyond the minimum) can land here
                raise ParameterError(
                    "requested size exceeds the minimum cover size")
            # sibling ban: every cover through this orbit maps onto one
            # through i, tried below; inside the child only i is banned
            sub, alive = alive & ~low, alive & ~orbit
            for off, seg, cap in self.segments:
                if (rest >> off & seg).bit_count() > slots * cap:
                    break
            else:
                if slots < 2:
                    # the last pick in closed form, a unit a row of rest; with
                    # no slot left (the root at size 1) candidate 0 finishes
                    last, u = sub if slots else low, rest
                    while u and last:
                        j = (u & -u).bit_length() - 1
                        u &= u - 1
                        last &= handler[j] or self.handlers(j)
                    budget.nodes += (rest ^ u).bit_count()
                    if budget.nodes > budget.limit:
                        raise CapacityError(
                            f"search node budget {budget.limit} exceeded")
                    picks = [p for p, *_ in stack] + [i] if slots else []
                    while last:
                        h = last & -last
                        ix = tuple(sorted(picks + [h.bit_length() - 1]))
                        if found is None:
                            return ix
                        found.append(ix)
                        last ^= h
                    continue
                j = self.pick_element(rest, sub)
                if j >= 0:
                    stack.append((i, handlers, orbits, alive, unhandled, cells))
                    cells = cells and _refine(_refine(cells, self.sets[i]),
                                              self.elements[j])
                    handlers = handler[j] & sub
                    alive, unhandled = sub, rest
                    orbits = cells and self._orbits(handlers, cells)
        return None

    def greedy(self) -> tuple[int, ...] | None:
        """Chvatal's greedy cover with candidate 0 pinned, or None when the
        candidates cannot cover every element.

        Each step takes the candidate covering the most uncovered elements,
        the lowest index on a tie, so the cover is deterministic.
        """
        cover = self.cover
        left = self.full & ~cover[0]
        picked = [0]
        while left:
            gains = [(c & left).bit_count() for c in cover]
            best = max(gains)
            if not best:
                return None
            i = gains.index(best)
            picked.append(i)
            left &= ~cover[i]
        return tuple(sorted(picked))

    def solve(self, lower: int, upper: int,
              budget: Budget) -> tuple[int, ...] | None:
        """Smallest cover containing candidate 0 with size in lower..upper.

        ``lower`` must be a true lower bound on the minimum; a greedy cover
        smaller than it raises ParameterError.  Only the sizes below the
        greedy cover's are searched: the witness is the first tree cover
        found there, else the greedy cover.  ``budget`` counts tree work
        only, so it stays 0 when the greedy size is ``lower``.
        """
        greedy = self.greedy()
        if greedy is None:
            return None
        if len(greedy) < lower:
            raise ParameterError(f"a greedy cover of {len(greedy)} is below "
                                 f"the stated lower bound {lower}")
        hit = self._deepen(lower, min(upper, len(greedy) - 1), budget)
        if hit is None and len(greedy) <= upper:
            return greedy
        return hit

    def _deepen(self, lower: int, upper: int,
                budget: Budget) -> tuple[int, ...] | None:
        """The first cover in branch order of the smallest size in
        lower..upper that has one, by iterative deepening."""
        for m in range(lower, min(upper, len(self.cover)) + 1):
            if (hit := self._tree(m, budget)) is not None:
                return hit
        return None

    def collect(self, m: int, budget: Budget) -> list[tuple[int, ...]]:
        """Every size-m cover containing candidate 0, in branch order.

        Every handler is its own orbit here, so no cover is dropped as a
        symmetric copy of another.  Raises ParameterError when m exceeds
        the minimum size, as soon as a smaller cover shows up mid-branch.
        """
        found: list[tuple[int, ...]] = []
        if m <= len(self.cover):
            self._tree(m, budget, found)
        return found

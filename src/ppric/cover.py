"""Minimum set cover by exhaustive search.

Every exhaustive question in the package is a minimum set cover: the
minimum code size N(L, s, r) (``search``), the covering numbers
c(n, k, t) (``covering``) and the Johnson-scheme 2r+3 check
(``schemes``).  Each caller states only its instance, a ``Cover`` of
ground-set masks in which a candidate covers an element when their
overlap is below a bound; this module builds its bitsets and searches it.
``words._at_most`` counts every overlap over transposed masks: the build
fills the cover rows, and a handler row is counted when the tree first
reads it (it reads few).  ``check_build`` is the one size rule: the
search and the Johnson check pass it their instance, counted in closed
form, before building it (the covering numbers, n <= EXACT_N_CAP, stay
far below it).

Candidate 0 is pinned: every cover searched contains it, which each
caller justifies by symmetry.  ``solve`` brackets the minimum first: a
greedy cover (Chvatal 1979) bounds it from above, and only the sizes from
the caller's lower bound up to one below the greedy size are tried, by
iterative deepening.  The witness is the first cover the tree finds, or
the greedy cover when every smaller size is refuted (with no node spent
when its size meets the lower bound); the node budget counts tree nodes
only.  Within one size the tree branches on an uncovered element: every
completion must contain one of its handlers (the candidates covering
it), so the children commit one handler each and ban the handlers tried
by earlier siblings.  The branch element is the one with the fewest
usable handlers among the lowest-index ELEMENT_WINDOW uncovered
elements.  A segment is dead when its uncovered count exceeds the open
slots times the largest number of its elements any one candidate covers.

Orbital branching (Ostrowski, Linderoth, Rossi and Smriglio, Math.
Programming 2011; Margot 2003) keeps the tree from visiting symmetric
copies of one subtree.  Each caller declares ``cells``, disjoint parts of
the ground set whose points its instance lets be permuted freely: the
candidates and every segment's elements are closed under those
permutations once candidate 0 is fixed.  Each node refines the cells by
the set of every candidate chosen (candidate 0 included), of every
branch element on its path and of its own branch element; the Young
subgroup of that partition fixes the whole position, bans included.  Two
usable handlers lie in one orbit of it when they meet every cell in as
many points.  Only the lowest-index member of each orbit is tried, in
index order; once its child returns, the whole orbit is banned for later
siblings, since any cover through another member maps onto one through
the member tried.  Inside the child only the tried member is banned, so
every ban stays invariant under the smaller group below it.  The
deepening thus visits each completion up to symmetry at least once and
stops at the first cover in branch order; ``collect`` treats every
handler as its own orbit, so it still visits every completion exactly
once.
"""

from __future__ import annotations

import functools
import operator

from .errors import CapacityError, ParameterError
from .words import _at_most, _points, _transpose

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
    __slots__ = ("nodes", "limit")

    def __init__(self, limit: int = DEFAULT_NODE_BUDGET):
        if limit < 0:
            raise ParameterError(f"node budget must be nonnegative, got {limit}")
        self.nodes = 0
        self.limit = limit


def _refine(cells: list[int], part: int) -> list[int]:
    """The cells split by ``part``, keeping only pieces of two points or more
    (a single point is fixed by every permutation of its cell)."""
    out = []
    for cell in cells:
        for piece in (cell & part, cell & ~part):
            if piece & (piece - 1):
                out.append(piece)
    return out


class Cover:
    """Bitset instance: a cover mask per candidate, built at once, and a
    handler mask per element, ``handlers(j)``, counted on first read.

    ``candidates`` are ground-set masks.  Each segment is a pair
    ``(element_masks, bound)``; elements are indexed in segment order, and
    candidate c covers element e iff ``popcount(c & e) < bound``.
    ``cells`` are disjoint ground-set masks whose points may be permuted
    within each cell: the candidates, and once candidate 0 is fixed every
    segment's elements, must be closed under those permutations.
    """

    def __init__(self, candidates: list[int],
                 segments: list[tuple[list[int], int]], cells: list[int]):
        if sum(map(int.bit_count, cells)) != functools.reduce(
                operator.or_, cells, 0).bit_count():
            raise ParameterError("symmetry cells must be disjoint")
        self.sets = candidates
        self.elements = [e for masks, _ in segments for e in masks]
        # the declared cells of two points or more
        self.cells = _refine(cells, 0)
        # orbit keys, a field per candidate: its points off the moving
        # cells in the low ``width`` bits, then one count per moving cell
        # (at most half the points); lanes[g] adds 1 to that count for each
        # candidate holding point g, and members[g] is the mask of those
        # candidates
        self.ground = functools.reduce(operator.or_, candidates)
        points = self.ground | functools.reduce(operator.or_, cells, 0)
        self.width = points.bit_length()
        self.digit = max(map(int.bit_count, candidates)).bit_length()
        self.field = (self.width + self.digit * (points.bit_count() // 2)
                      + 7) // 8 or 1
        self.spread = int.from_bytes(
            (b"\x01" + bytes(self.field - 1)) * len(candidates), "little")
        self.keyed = int.from_bytes(b"".join(
            m.to_bytes(self.field, "little") for m in candidates), "little")
        self.lanes = [self.keyed >> g & self.spread
                      for g in range(self.width if self.cells else 0)]
        self.members = _transpose(candidates, self.width)
        self.cover = [0] * len(candidates)
        # (offset, width mask, largest per-candidate count) per segment,
        # and (offset, bound) per segment for the handler rows
        self.segments, self.bounds = [], []
        offset = 0
        for masks, bound in segments:
            # a row: the elements that its points' planes add up below bound
            planes = _transpose(masks, self.width)
            seg = (1 << len(masks)) - 1
            rows = [_at_most([planes[g] for g in _points(c)], bound - 1, seg)
                    for c in candidates]
            self.cover = [m | row << offset for m, row in zip(self.cover, rows)]
            self.segments.append((offset, seg, max(map(int.bit_count, rows))))
            self.bounds.append((offset, bound))
            offset += len(masks)
        self.full = (1 << offset) - 1
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
        ``handlers`` under the Young subgroup of ``cells``: the same points
        off the cells and equal popcount in each.  A handler that meets
        every cell in none or all of its points is alone in its orbit."""
        lanes, members = self.lanes, self.members
        moving = loose = counts = 0
        shift = self.width
        for cell in cells:
            moving |= cell
            some, every, count = 0, -1, 0
            c = cell
            while c:
                low = c & -c
                c ^= low
                g = low.bit_length() - 1
                some |= members[g]
                every &= members[g]
                count += lanes[g]
            loose |= some & ~every
            counts += count << shift
            shift += self.digit
        loose &= handlers
        if not loose & (loose - 1):
            return {}
        field = self.field
        key = ((self.keyed & (self.ground & ~moving) * self.spread) + counts
               ).to_bytes(field * len(self.sets), "little")
        orbits: dict[bytes, int] = {}
        while loose:
            low = loose & -loose
            loose ^= low
            at = (low.bit_length() - 1) * field
            k = key[at:at + field]
            orbits[k] = orbits.get(k, 0) | low
        return {orbit & -orbit: orbit for orbit in orbits.values()
                if orbit & (orbit - 1)}

    def _branch(self, chosen: list[int], unhandled: int, alive: int,
                handlers: int, cells: list[int], slots: int, budget: Budget,
                found: list | None) -> tuple[int, ...] | None:
        """Try one candidate per orbit of ``handlers`` as the next of
        ``slots`` picks.

        Each candidate tried is one node.  Once it is picked the node is a
        leaf when no slot is left, dead when a segment cannot be finished,
        and otherwise branches on its own element.  ``alive`` is the
        candidate mask still allowed on this path, and ``cells`` the
        non-singleton cells of the partition fixing it (empty: every
        handler is its own orbit).  Returns the first cover found as a
        sorted index tuple, or None; with ``found`` a list, every cover is
        appended to it instead and None is returned.
        """
        cover = self.cover
        orbits = (self._orbits(handlers, cells)
                  if cells and handlers & (handlers - 1) else None)
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
            for off, seg, cap in self.segments:
                if (rest >> off & seg).bit_count() > slots * cap:
                    break
            else:
                j = self.pick_element(rest, alive)
                if j >= 0:
                    sub = cells and _refine(_refine(cells, self.sets[i]),
                                            self.elements[j])
                    chosen.append(i)
                    hit = self._branch(chosen, rest, alive,
                                       self.handler[j] & alive, sub, slots,
                                       budget, found)
                    chosen.pop()
                    if hit is not None:
                        return hit
            # sibling ban: every cover through this orbit maps onto one
            # through i, and those were all tried above
            alive &= ~orbit
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
        found there, else the greedy cover.  ``budget`` counts tree nodes
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
            # the root node is the pinned pick of candidate 0
            hit = self._branch([], self.full, self.full_pool, 1, self.cells,
                               m, budget, None)
            if hit is not None:
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
            self._branch([], self.full, self.full_pool, 1, [], m, budget,
                         found)
        return found

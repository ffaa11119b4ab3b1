"""Minimum set cover by exhaustive search.

Every exhaustive question in the package is a minimum set cover: the
minimum code size N(L, s, r) (``search``), the covering numbers
c(n, k, t) (``covering``) and the Johnson-scheme 2r+3 check
(``schemes``).  Each caller states only its instance, a ``Cover`` of
ground-set masks in which a candidate covers an element when their
overlap is below a bound; this module builds its bitsets and searches it.

Candidate 0 is pinned: every cover searched contains it, which each
caller justifies by symmetry.  Sizes are tried by iterative deepening.
Within one size the tree branches on an uncovered element: every
completion must contain one of its handlers (the candidates covering
it), so the children commit one handler each and ban the handlers tried
by earlier siblings.  That partitions the completions, so each is
visited exactly once and the first one found is deterministic.  The
branch element is the one with the fewest usable handlers among the
lowest-index ELEMENT_WINDOW uncovered elements.  A segment is dead when
its uncovered count exceeds the open slots times the largest number of
its elements any one candidate covers.
"""

from __future__ import annotations

from .errors import CapacityError, ParameterError

DEFAULT_NODE_BUDGET = 5_000_000
# how many uncovered elements to inspect when choosing the branch element
ELEMENT_WINDOW = 64


def _below(rows: list[int], cols: list[int], bound: int) -> list[int]:
    """Per row, the mask of the cols it overlaps in fewer than bound places.

    A lane per ground coordinate has byte j set to 1 where cols[j] holds
    it, so a row's lane sum has every overlap count in a byte; its
    big-endian bytes, translated to '1'/'0', read in base 2 give bit j.
    """
    lanes = [int.from_bytes(bytes(m >> g & 1 for m in cols), "little")
             for g in range(max(rows).bit_length())]
    table = bytes(b"01"[v < bound] for v in range(256))
    return [int(sum(lane for g, lane in enumerate(lanes) if row >> g & 1)
                .to_bytes(len(cols), "big").translate(table), 2)
            for row in rows]


class Budget:
    __slots__ = ("nodes", "limit")

    def __init__(self, limit: int = DEFAULT_NODE_BUDGET):
        self.nodes = 0
        self.limit = limit


class Cover:
    """Bitset instance: a cover mask per candidate, a handler mask per element.

    ``candidates`` are ground-set masks.  Each segment is a pair
    ``(element_masks, bound)``; elements are indexed in segment order, and
    candidate c covers element e iff ``popcount(c & e) < bound``.
    """

    def __init__(self, candidates: list[int],
                 segments: list[tuple[list[int], int]]):
        heaviest = max(e.bit_count() for masks, _ in segments for e in masks)
        # a byte lane holds overlap counts up to 255
        if min(heaviest, max(map(int.bit_count, candidates))) > 255:
            raise ParameterError("overlap counts over 255 overflow a byte lane")
        self.cover = [0] * len(candidates)
        self.handler = []
        # (offset, width mask, largest per-candidate count) per segment
        self.segments = []
        for masks, bound in segments:
            offset = len(self.handler)
            rows = _below(candidates, masks, bound)
            self.cover = [m | row << offset for m, row in zip(self.cover, rows)]
            self.handler += _below(masks, candidates, bound)
            self.segments.append((offset, (1 << len(masks)) - 1,
                                  max(map(int.bit_count, rows))))
        self.full = (1 << len(self.handler)) - 1
        self.full_pool = (1 << len(candidates)) - 1

    def pick_handlers(self, unhandled: int, alive: int) -> int:
        """Handler mask of the branch element, or 0 for a dead position.

        Scans the lowest-index uncovered elements (at most ELEMENT_WINDOW
        of them) and keeps the one with the fewest usable handlers.  Any
        inspected element with none at all kills the position outright.
        """
        handler = self.handler
        best = 0
        best_mask = 0
        u = unhandled
        seen = 0
        while u and seen < ELEMENT_WINDOW:
            low = u & -u
            u ^= low
            seen += 1
            h = handler[low.bit_length() - 1] & alive
            c = h.bit_count()
            if c == 0:
                return 0
            if best == 0 or c < best:
                best, best_mask = c, h
                if c == 1:
                    break
        return best_mask

    def _branch(self, chosen: list[int], unhandled: int, alive: int,
                handlers: int, slots: int, budget: Budget,
                found: list | None) -> tuple[int, ...] | None:
        """Try each candidate in ``handlers`` as the next of ``slots`` picks.

        Each candidate tried is one node.  Once it is picked the node is a
        leaf when no slot is left, dead when a segment cannot be finished,
        and otherwise branches on its own element.  ``alive`` is the
        candidate mask still allowed on this path.  Returns the first
        cover found as a sorted index tuple, or None; with ``found`` a
        list, every cover is appended to it instead and None is returned.
        """
        cover = self.cover
        slots -= 1
        while handlers:
            low = handlers & -handlers
            handlers ^= low
            # sibling ban: the covers using i are all enumerated below
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
                chosen.append(i)
                hit = self._branch(chosen, rest, alive,
                                   self.pick_handlers(rest, alive), slots,
                                   budget, found)
                chosen.pop()
                if hit is not None:
                    return hit
        return None

    def solve(self, lower: int, upper: int,
              budget: Budget) -> tuple[int, ...] | None:
        """Smallest cover containing candidate 0 with size in lower..upper.

        ``lower`` must be a true lower bound on the minimum.  The cover
        found is the first one of its size in branch order.
        """
        for m in range(lower, min(upper, len(self.cover)) + 1):
            # the root node is the pinned pick of candidate 0
            hit = self._branch([], self.full, self.full_pool, 1, m, budget,
                               None)
            if hit is not None:
                return hit
        return None

    def collect(self, m: int, budget: Budget) -> list[tuple[int, ...]]:
        """Every size-m cover containing candidate 0, in branch order.

        Raises ParameterError when m exceeds the minimum size, as soon as
        a smaller cover shows up mid-branch.
        """
        found: list[tuple[int, ...]] = []
        if m <= len(self.cover):
            self._branch([], self.full, self.full_pool, 1, m, budget, found)
        return found

"""Minimum set cover by exhaustive search.

Every exhaustive question in the package is a minimum set cover: the
minimum code size N(L, s, r) (``search``), the covering numbers
c(n, k, t) (``covering``) and the Johnson-scheme 2r+3 check
(``schemes``).  Each caller builds only its instance, a ``Cover``: a
universe of elements split into segments, and a list of candidates, each
covering a fixed element set.  This module searches it.

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


class Budget:
    __slots__ = ("nodes", "limit")

    def __init__(self, limit: int = DEFAULT_NODE_BUDGET):
        self.nodes = 0
        self.limit = limit


class Cover:
    """Bitset instance: a cover mask per candidate, a handler mask per element.

    ``members`` yields, per candidate, the indices of the elements it
    covers; ``segments`` lists the segment sizes in element-index order.
    """

    def __init__(self, members, segments: list[int]):
        total = sum(segments)
        self.full = (1 << total) - 1
        self.cover = []
        self.handler = [0] * total
        for ci, elements in enumerate(members):
            cbit = 1 << ci
            mask = 0
            for j in elements:
                mask |= 1 << j
                self.handler[j] |= cbit
            self.cover.append(mask)
        self.full_pool = (1 << len(self.cover)) - 1
        # (offset, width mask, largest per-candidate count) per segment
        self.segments = []
        offset = 0
        for size in segments:
            seg = (1 << size) - 1
            cap = max((m >> offset & seg).bit_count() for m in self.cover)
            self.segments.append((offset, seg, cap))
            offset += size

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

    def at_size(self, m: int, budget: Budget, branch: int | None = None,
                banned: int = 0) -> tuple[int, ...] | None:
        """First size-m cover containing candidate 0, in branch order.

        ``branch``/``banned`` preseed one root-level branch: the second
        chosen candidate and the sibling handlers already excluded.
        """
        if branch is None:
            # the root node is the pinned pick of candidate 0
            return self._branch([], self.full, self.full_pool, 1, m,
                                budget, None)
        return self._branch([0], self.full & ~self.cover[0],
                            self.full_pool & ~1 & ~banned, 1 << branch,
                            m - 1, budget, None)

    def solve(self, lower: int, upper: int, budget: Budget,
              jobs: int = 1) -> tuple[int, ...] | None:
        """Smallest cover containing candidate 0 with size in lower..upper.

        ``lower`` must be a true lower bound on the minimum.  With
        ``jobs`` > 1 each size from 3 up fans its root branches out over
        that many processes, and the node budget applies to each root
        branch separately; the cover found is the serial one.
        """
        for m in range(lower, min(upper, len(self.cover)) + 1):
            if jobs > 1 and m >= 3:
                hit = self._parallel_size(m, budget, jobs)
            else:
                hit = self.at_size(m, budget)
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

    def _parallel_size(self, m: int, budget: Budget,
                       jobs: int) -> tuple[int, ...] | None:
        """Fan out over the root element's handler branches.

        The winner is the earliest branch in serial order that succeeds,
        so the result matches a single-process run.  So does the node
        count: the pinned root plus the branches up to the winner, never
        a later branch that happened to finish first.  A branch that blows
        its node budget only matters if every earlier branch failed; then
        the serial run would have blown up too and the same CapacityError
        is raised.
        """
        # imported here: the process pool drags in multiprocessing, pickle,
        # socket and subprocess, which no serial run needs
        from concurrent.futures import (FIRST_COMPLETED, ProcessPoolExecutor,
                                        wait)

        root = self.full & ~self.cover[0]
        budget.nodes += 1  # the pinned root
        if any((root >> off & seg).bit_count() > (m - 1) * cap
               for off, seg, cap in self.segments):
            return None  # the segment prune of _branch kills the root
        handlers = self.pick_handlers(root, self.full_pool & ~1)
        order = []
        while handlers:
            low = handlers & -handlers
            handlers ^= low
            order.append(low.bit_length() - 1)
        results: dict[int, tuple] = {}
        settled = 0
        with ProcessPoolExecutor(max_workers=jobs, initializer=_init_worker,
                                 initargs=(self,)) as pool:
            futures = {}
            banned = 0
            for k, h in enumerate(order):
                futures[pool.submit(_branch_worker,
                                    (m, h, banned, budget.limit))] = k
                banned |= 1 << h
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for fut in done:
                    results[futures[fut]] = fut.result()
                # settle the finished branches in serial order
                while settled in results:
                    hit, nodes, over = results.pop(settled)
                    settled += 1
                    budget.nodes += nodes
                    if over:
                        raise CapacityError(
                            f"search node budget {budget.limit} exceeded")
                    if hit is not None:
                        for fut in pending:
                            fut.cancel()
                        return hit
        return None


_WORKER_COVER: Cover | None = None


def _init_worker(instance: Cover):
    # one instance per worker process, shared across its branch tasks
    global _WORKER_COVER
    _WORKER_COVER = instance


def _branch_worker(args) -> tuple[tuple[int, ...] | None, int, bool]:
    m, branch, banned, budget_limit = args
    budget = Budget(budget_limit)
    try:
        hit = _WORKER_COVER.at_size(m, budget, branch=branch, banned=banned)
    except CapacityError:
        return None, budget.nodes, True
    return hit, budget.nodes, False

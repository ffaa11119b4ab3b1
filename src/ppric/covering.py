"""Covering designs: verification, Schonheim-style bounds, small exact values.

An (n, k, t) covering design is a family of k-subsets (blocks) of {1..n}
such that every t-subset lies inside at least one block.  c(n, k, t) is
the minimum number of blocks.  These objects drive both the lower-bound
machinery (complements of code supports form covering designs) and several
constructions (complements of covering designs seed typed block families).

Text format, one design per file::

    # optional comments
    n k t b
    p1 p2 ... pk     (b lines, 1-based points)
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .cover import Budget, Cover
from .errors import CapacityError, FormatError, ParameterError, read_text
from .words import _points, _subsets, ceil_div

EXACT_N_CAP = 10
VERIFY_CAP = 1 << 24


@dataclass(frozen=True)
class CoveringDesign:
    n: int
    k: int
    t: int
    blocks: tuple[frozenset[int], ...]

    def __post_init__(self):
        if not (self.n >= self.k >= self.t > 0):
            raise ParameterError(
                f"need n >= k >= t > 0, got ({self.n},{self.k},{self.t})"
            )
        if not self.blocks:
            raise ParameterError("a design needs at least one block")
        for b in self.blocks:
            if len(b) != self.k:
                raise ParameterError(f"block size {len(b)} != k={self.k}")
            if any(not 1 <= p <= self.n for p in b):
                raise ParameterError("block point outside 1..n")

    @property
    def size(self) -> int:
        return len(self.blocks)


def verify_covering(design: CoveringDesign) -> bool:
    """True iff every t-subset of {1..n} is inside some block."""
    n, k, t = design.n, design.k, design.t
    if math.comb(n, t) > VERIFY_CAP:
        raise CapacityError("covering verification capped at C(n,t) <= 2**24")
    covered = set()
    for block in design.blocks:
        covered.update(_subsets(sum(1 << p for p in block), t))
    return len(covered) == math.comb(n, t)


def complement_design(design: CoveringDesign, t: int | None = None) -> CoveringDesign:
    """Blockwise complement on the same point set (involutive).

    The t parameter of the result defaults to the input's; pass one
    explicitly when the complementary family is meant as a different-
    strength covering.
    """
    new_t = design.t if t is None else t
    full = frozenset(range(1, design.n + 1))
    blocks = tuple(full - b for b in design.blocks)
    return CoveringDesign(design.n, design.n - design.k, new_t, blocks)


def schoenheim_bound(n: int, k: int, t: int) -> int:
    """Nested-ceiling lower bound on c(n, k, t), exact integer arithmetic."""
    if not n > k > t > 0:
        raise ParameterError(f"schoenheim_bound needs n > k > t > 0, got ({n},{k},{t})")
    value = ceil_div(n - t + 1, k - t + 1)
    for i in range(t - 2, -1, -1):
        value = ceil_div((n - i) * value, k - i)
    return value


def _covering_cover(n: int, k: int, t: int) -> Cover:
    """The k-subsets of {1..n} against its t-subsets, in combinations order:
    T lies inside B iff T meets the complement of B in fewer than 1 point,
    so candidate i is the complement of block i (bit p is point p).
    Every permutation of the points maps the instance onto itself."""
    full = (1 << n + 1) - 2
    return Cover([full ^ B for B in _subsets(full, k)],
                 [(list(_subsets(full, t)), 1)], [full])


def exact_covering_number(
    n: int, k: int, t: int, return_witness: bool = False,
    node_budget: int = 2_000_000,
) -> int | tuple[int, tuple[frozenset[int], ...]]:
    """c(n, k, t) by exhaustive search (n <= 10).

    A minimum cover of the t-subsets by the k-subsets, searched by the
    engine in ``cover`` with the first block pinned to {1..k}: a greedy
    cover bounds it from above, and iterative deepening from the Schonheim
    value (or 1 when k = t or k = n makes that bound inapplicable) refutes
    the sizes below it.  The witness is the first tree cover found there,
    else the greedy cover, so it is deterministic.  Raises CapacityError
    after ``node_budget`` tree nodes (the greedy step spends none); some
    small-n instances still have deep cover numbers and blow up well
    before the size caps bite.
    """
    budget = Budget(node_budget)
    if not n >= k >= t > 0:
        raise ParameterError(f"need n >= k >= t > 0, got ({n},{k},{t})")
    if n > EXACT_N_CAP:
        raise CapacityError(f"exact covering search capped at n <= {EXACT_N_CAP}")

    cover = _covering_cover(n, k, t)
    lower = schoenheim_bound(n, k, t) if n > k > t else 1
    got = cover.solve(lower, len(cover.sets), budget)
    if not return_witness:
        return len(got)
    full = (1 << n + 1) - 2
    return len(got), tuple(_points(full ^ cover.sets[i]) for i in got)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def parse_design(text: str) -> CoveringDesign:
    header = None
    blocks = []
    expect = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 4:
                raise FormatError("header must be 'n k t b'", lineno)
            try:
                header = tuple(int(p) for p in parts)
            except ValueError:
                raise FormatError("header must be four integers", lineno)
            expect = header[3]
            continue
        try:
            pts = frozenset(int(p) for p in parts)
        except ValueError:
            raise FormatError("block line must be integers", lineno)
        if len(pts) != len(parts):
            raise FormatError("repeated point inside a block", lineno)
        blocks.append(pts)
    if header is None:
        raise FormatError("empty design file")
    n, k, t, b = header
    if len(blocks) != b:
        raise FormatError(f"header promised {b} blocks, found {len(blocks)}")
    try:
        return CoveringDesign(n, k, t, tuple(blocks))
    except ParameterError as exc:
        raise FormatError(str(exc)) from exc


def serialize_design(design: CoveringDesign) -> str:
    lines = [f"{design.n} {design.k} {design.t} {design.size}"]
    for b in design.blocks:
        lines.append(" ".join(str(p) for p in sorted(b)))
    return "\n".join(lines) + "\n"


def load_design(path: str) -> CoveringDesign:
    return parse_design(read_text(path))


# ---------------------------------------------------------------------------
# stock designs used as construction seeds
# ---------------------------------------------------------------------------

def design_9_5_2() -> CoveringDesign:
    """A five-block (9, 5, 2) covering design; its complement family is the
    workhorse type-2 block family behind several constructions."""
    blocks = (
        frozenset({1, 2, 3, 4, 5}),
        frozenset({1, 2, 3, 4, 6}),
        frozenset({1, 2, 7, 8, 9}),
        frozenset({3, 4, 7, 8, 9}),
        frozenset({5, 6, 7, 8, 9}),
    )
    return CoveringDesign(9, 5, 2, blocks)


def all_pairs_design(n: int) -> CoveringDesign:
    """The (n, 2, 2) covering design consisting of every pair."""
    if n < 2:
        raise ParameterError("all_pairs_design needs n >= 2")
    blocks = tuple(frozenset(p) for p in itertools.combinations(range(1, n + 1), 2))
    return CoveringDesign(n, 2, 2, blocks)


def singleton_design(n: int) -> CoveringDesign:
    """The (n, 1, 1) covering design: every singleton."""
    if n < 1:
        raise ParameterError("singleton_design needs n >= 1")
    return CoveringDesign(n, 1, 1, tuple(frozenset({i}) for i in range(1, n + 1)))


def fano_plane() -> CoveringDesign:
    """The (7, 3, 2) projective-plane design: every pair exactly once."""
    blocks = (
        frozenset({1, 2, 4}),
        frozenset({2, 3, 5}),
        frozenset({3, 4, 6}),
        frozenset({4, 5, 7}),
        frozenset({5, 6, 1}),
        frozenset({6, 7, 2}),
        frozenset({7, 1, 3}),
    )
    return CoveringDesign(7, 3, 2, blocks)

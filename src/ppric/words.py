"""Words, distances, and ball/sphere enumeration for the three metric spaces.

Binary words live in F_2^L under the Hamming metric and are stored as int
bitsets: bit i (0-based) of ``mask`` is coordinate i+1.  Coordinates are
1-based everywhere a human sees them (supports, violators, design blocks)
and 0-based in the masks.

Q-ary words are symbol tuples over {0..q-1}, same metric.  Johnson words
are L-subsets of {1..n} with d(x, y) = |x \\ y| (half the Hamming distance
of the characteristic vectors); we keep the canonical-position convention
2L <= n so that a word and its complement never collide.

Every subset the package lists as a mask comes from one enumerator,
``_subsets`` (``itertools.combinations`` order of a mask's bits): the
binary and Johnson spheres (c ^ m and x ^ drop ^ add), balls, weight
classes and the cover instances of ``search``, ``covering`` and
``schemes``.  A q-ary sphere lists symbol tuples instead.

This module is also the one whole-space scan engine.  A space is a big
int with one bit lane per word, in enumeration order: F_2^L with lane
index = mask, [q]^L in product order, J(n, L) in combination order.  A
word is a set of features, each with a plane of the lanes carrying it;
a lane's distance to the word is how many of those planes miss it.  One
counter, ``_count``, adds planes into binary digits for every lane at
once, from zero or on from a given count; ``_within`` compares the
digits with a radius, and ``_at_most`` does both.  ``_scan_identity``
checks the sphere identity this way in all three spaces, and the binary
verdicts, profiles and weight counts of ``codes`` and ``search`` read
F_2^L the same way, the weights counted once per call.  The cover build
(each row's count on from the row before's), the cover's orbit split
(each cell's count), the multihit search (each node's hits on from its
parent's) and the protocol's record planes count over masks turned into
planes by ``_transpose``.

Enumerations and scans share one rule, ``check_scan``: at most SCAN_CAP =
2**24 words, one lane each (binary L <= 24, q-ary q**L <= 2**24, Johnson
C(n, L) <= 2**24).  An identity scan also keeps within SCAN_WORK_CAP
lane-plane additions (``check_scan_work``).  Past either a CapacityError
is raised rather than an open-ended scan.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from .errors import CapacityError, FormatError, ParameterError

# Hard ceiling on binary word length.  Everything in this package does exact
# arithmetic, so the cap exists only to keep enumeration and search honest.
MAX_LENGTH = 256

# lanes of one scan: the words of the space enumerated or bit-sliced
SCAN_CAP = 1 << 24
# lane-plane additions of one identity scan: lanes * (sphere words + 1) * L
SCAN_WORK_CAP = 1 << 32


@dataclass(frozen=True)
class SchemeParams:
    """(L, s, r) triple with the admissibility check L >= 2s + r + 1."""

    L: int
    s: int
    r: int

    def __post_init__(self):
        if self.L < 1 or self.L > MAX_LENGTH:
            raise ParameterError(f"L must be in 1..{MAX_LENGTH}, got {self.L}")
        if self.s < 0 or self.r < 0:
            raise ParameterError("s and r must be nonnegative")
        if self.L < 2 * self.s + self.r + 1:
            raise ParameterError(
                f"inadmissible parameters: L={self.L} < 2*{self.s}+{self.r}+1"
            )


@dataclass(frozen=True, slots=True)
class BinaryWord:
    """A length-L binary word held as an int bitset."""

    length: int
    mask: int

    def __post_init__(self):
        if self.length < 0 or self.length > MAX_LENGTH:
            raise ParameterError(f"length must be in 0..{MAX_LENGTH}")
        if self.mask < 0 or self.mask >> self.length:
            raise ParameterError("mask has bits outside the word length")

    @classmethod
    def from_string(cls, text: str) -> "BinaryWord":
        # checked first: int() would also take "_", signs and whitespace
        if not text or not set(text) <= {"0", "1"}:
            raise FormatError(f"not a binary word literal: {text!r}")
        # leftmost character = coordinate 1 = bit 0
        return cls(len(text), int(text[::-1], 2))

    @classmethod
    def from_support(cls, length: int, support) -> "BinaryWord":
        mask = 0
        for c in support:
            if not 1 <= c <= length:
                raise ParameterError(f"coordinate {c} outside 1..{length}")
            mask |= 1 << (c - 1)
        return cls(length, mask)

    def to_string(self) -> str:
        return format(self.mask, f"0{self.length}b")[::-1] if self.length else ""

    @property
    def weight(self) -> int:
        return self.mask.bit_count()

    def support(self) -> frozenset[int]:
        """1-based coordinates carrying a one."""
        return frozenset(i + 1 for i in range(self.length) if self.mask >> i & 1)

    def __str__(self) -> str:
        return self.to_string()


@dataclass(frozen=True, slots=True)
class QaryWord:
    q: int
    symbols: tuple[int, ...]

    def __post_init__(self):
        if self.q < 2:
            raise ParameterError("alphabet size q must be >= 2")
        if any(not 0 <= x < self.q for x in self.symbols):
            raise ParameterError("symbol outside 0..q-1")

    @classmethod
    def from_string(cls, q: int, text: str) -> "QaryWord":
        try:
            symbols = tuple(int(part) for part in text.split(","))
        except ValueError as exc:
            raise FormatError(f"not a q-ary word literal: {text!r}") from exc
        return cls(q, symbols)

    def to_string(self) -> str:
        return ",".join(str(x) for x in self.symbols)

    @property
    def length(self) -> int:
        return len(self.symbols)

    @property
    def weight(self) -> int:
        return sum(1 for x in self.symbols if x)


@dataclass(frozen=True, slots=True)
class JohnsonWord:
    """An L-subset of {1..n}; requires the canonical range 2L <= n."""

    n: int
    elements: frozenset[int]

    def __post_init__(self):
        if any(not 1 <= e <= self.n for e in self.elements):
            raise ParameterError("element outside 1..n")
        if 2 * len(self.elements) > self.n:
            raise ParameterError(
                f"Johnson word needs 2L <= n, got L={len(self.elements)}, n={self.n}"
            )

    @classmethod
    def from_elements(cls, n: int, elements) -> "JohnsonWord":
        """The word on a listed sequence of elements; one listed twice is a
        FormatError, not a shorter word."""
        elements = list(elements)
        if len(set(elements)) < len(elements):
            raise FormatError(f"repeated element in {elements}")
        return cls(n, frozenset(elements))

    @classmethod
    def from_string(cls, n: int, text: str) -> "JohnsonWord":
        body = text.strip()
        if not (body.startswith("{") and body.endswith("}")):
            raise FormatError(f"not a Johnson word literal: {text!r}")
        inner = body[1:-1].strip()
        try:
            elems = [int(p) for p in inner.split(",")] if inner else []
        except ValueError as exc:
            raise FormatError(f"not a Johnson word literal: {text!r}") from exc
        return cls.from_elements(n, elems)

    def to_string(self) -> str:
        return "{" + ",".join(str(e) for e in sorted(self.elements)) + "}"

    @property
    def length(self) -> int:
        return len(self.elements)


Word = BinaryWord | QaryWord | JohnsonWord


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def hamming_distance(a, b) -> int:
    if isinstance(a, BinaryWord) and isinstance(b, BinaryWord):
        if a.length != b.length:
            raise ParameterError("length mismatch")
        return (a.mask ^ b.mask).bit_count()
    if isinstance(a, QaryWord) and isinstance(b, QaryWord):
        if a.q != b.q or a.length != b.length:
            raise ParameterError("alphabet or length mismatch")
        return sum(1 for x, y in zip(a.symbols, b.symbols) if x != y)
    raise ParameterError("hamming_distance wants two binary or two q-ary words")


def johnson_distance(a: JohnsonWord, b: JohnsonWord) -> int:
    if not (isinstance(a, JohnsonWord) and isinstance(b, JohnsonWord)):
        raise ParameterError("johnson_distance wants two Johnson words")
    if a.n != b.n or a.length != b.length:
        raise ParameterError("ambient set or weight mismatch")
    return len(a.elements - b.elements)


def distance(a, b) -> int:
    """Metric dispatch on word kind."""
    if isinstance(a, JohnsonWord):
        return johnson_distance(a, b)
    return hamming_distance(a, b)


def diameter(kind: str, L: int, n: int = 0) -> int:
    """Largest distance realized in the scheme (needed by identity checks)."""
    if kind in ("binary", "qary"):
        return L
    if kind == "johnson":
        return min(L, n - L)
    raise ParameterError(f"unknown scheme kind {kind!r}")


# ---------------------------------------------------------------------------
# exact counting
# ---------------------------------------------------------------------------

def binom(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def ball_size(L: int, radius: int) -> int:
    """|B(x, radius)| in F_2^L, independent of the center."""
    if radius < 0:
        return 0
    return sum(math.comb(L, i) for i in range(0, min(radius, L) + 1))


def sphere_size(L: int, w: int) -> int:
    return binom(L, w)


def johnson_sphere_size(n: int, L: int, d: int) -> int:
    return binom(L, d) * binom(n - L, d)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def check_scan(size: int) -> None:
    """Refuse to enumerate or scan a space of more than SCAN_CAP words."""
    if size > SCAN_CAP:
        raise CapacityError(f"space of {size} words exceeds SCAN_CAP = 2**24")


def check_scan_work(lanes: int, sphere: int, L: int) -> None:
    """Refuse an identity scan of more than SCAN_WORK_CAP lane-plane
    additions: the centre and each sphere word add L planes of ``lanes``."""
    if lanes * (sphere + 1) * L > SCAN_WORK_CAP:
        raise CapacityError("identity scan work exceeds SCAN_WORK_CAP = 2**32")


def _subsets(points: int, k: int) -> Iterator[int]:
    """Masks of the k-subsets of the set bits of ``points``, in
    ``itertools.combinations`` order of those bits, lowest bit first:
    binom(popcount, k) of them for every k, so none when k < 0."""
    if k < 0:
        return iter(())
    bits = [1 << i for i in range(points.bit_length()) if points >> i & 1]
    return map(sum, itertools.combinations(bits, k))


def _swaps(x: int, outside: int, d: int) -> Iterator[int]:
    """x ^ drop ^ add over the d-subsets drop of x and add of ``outside``,
    drop-major: the Johnson sphere of radius d around x."""
    adds = list(_subsets(outside, d))
    return (x ^ drop ^ add for drop in _subsets(x, d) for add in adds)


def _points(mask: int) -> frozenset[int]:
    """The set bits of a mask, as indices."""
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def enumerate_sphere(center, radius: int) -> Iterator:
    """All words at distance exactly ``radius`` from the center (none when
    the radius is negative)."""
    if isinstance(center, BinaryWord):
        L = center.length
        check_scan(1 << L)
        for m in _subsets((1 << L) - 1, radius):
            yield BinaryWord(L, center.mask ^ m)
        return
    if isinstance(center, QaryWord):
        L, q = center.length, center.q
        check_scan(q ** L)
        if radius < 0:
            return
        for pos in itertools.combinations(range(L), radius):
            for alts in itertools.product(range(q - 1), repeat=radius):
                sym = list(center.symbols)
                for p, a in zip(pos, alts):
                    # pick any of the q-1 symbols differing from the center's
                    sym[p] = (center.symbols[p] + 1 + a) % q
                yield QaryWord(q, tuple(sym))
        return
    if isinstance(center, JohnsonWord):
        n = center.n
        check_scan(binom(n, center.length))
        # bit p is point p
        x = sum(1 << p for p in center.elements)
        for m in _swaps(x, ((1 << n + 1) - 2) ^ x, radius):
            yield JohnsonWord(n, _points(m))
        return
    raise ParameterError("unsupported word type")


def enumerate_ball(center, radius: int) -> Iterator:
    upper = radius
    if isinstance(center, JohnsonWord):
        upper = min(radius, center.length, center.n - center.length)
    elif isinstance(center, (BinaryWord, QaryWord)):
        upper = min(radius, center.length)
    for d in range(0, upper + 1):
        yield from enumerate_sphere(center, d)


def enumerate_weight_class(L: int, s: int) -> Iterator[BinaryWord]:
    """All binary length-L words of weight s, in support-lex order."""
    yield from enumerate_sphere(BinaryWord(L, 0), s)


# ---------------------------------------------------------------------------
# the scan engine: bit i of a big int stands for word i of a space (or
# record i+1), and a word's distance to a lane is counted over its planes
# ---------------------------------------------------------------------------

def _count(planes, digits=()) -> list[int]:
    """A vertical counter (bit-slicing, Biham, FSE 1997): a new list whose
    digits[b] holds bit b of each lane's count, ``digits`` plus ``planes``."""
    digits = list(digits)
    for carry in planes:
        for b, digit in enumerate(digits):
            digits[b] = digit ^ carry
            carry &= digit
            if not carry:
                break
        else:
            if carry:
                digits.append(carry)
    return digits


def _within(digits: list[int], radius: int, full: int) -> int:
    """Lanes of ``full`` whose ``_count`` digits are at most ``radius``."""
    if radius < 0:
        return 0
    if radius >> len(digits):
        return full
    below, equal = 0, full
    for b in reversed(range(len(digits))):
        if radius >> b & 1:
            below |= equal & ~digits[b]
            equal &= digits[b]
        else:
            equal &= ~digits[b]
    return below | equal


def _at_most(planes, radius: int, full: int) -> int:
    """Lanes of ``full`` set in at most ``radius`` planes (none if < 0)."""
    return _within(_count(planes), radius, full)


# per bit b, a byte to the digit '0' or '1' of its bit b
_DIGITS = [bytes(48 + (v >> b & 1) for v in range(256)) for b in range(8)]


def _transpose(masks: list[int], width: int) -> list[int]:
    """Entry g < width: the mask of the (nonempty) ``masks`` holding point
    g, bit i for masks[i].  With a field of bytes per mask, last mask
    first, the byte holding g in every field gives g's digits in base 2."""
    size = (max(width, max(masks).bit_length()) + 7 >> 3) or 1
    data = bytearray(len(masks) * size)
    for at, m in zip(range(len(data) - size, -1, -size), masks):
        data[at:at + size] = m.to_bytes(size, "little")
    return [int(data[g >> 3::size].translate(_DIGITS[g & 7]), 2)
            for g in range(width)]


def _qary_plane(q: int, L: int, j: int, a: int) -> int:
    """Lanes of [q]^L, in product order, whose word has symbol a at j."""
    width, size = q ** (L - 1 - j), q ** L
    plane, period = ((1 << width) - 1) << a * width, q * width
    while period < size:
        plane |= plane << period
        period *= 2
    return plane & ((1 << size) - 1)


def _johnson_plane(n: int, L: int, p: int) -> int:
    """Lanes of J(n, L), in combination order, whose word holds point p.

    J(a..n, k) lists the words holding a, then J(a+1..n, k): row k keeps,
    for each a up to p, row k-1's plane with row k's shifted past it.  The
    top row, for a = 1 only, is joined in halves: log2(p) shifts a block."""
    row = {}  # a -> the plane over J(a..n, k - 1); J(a..n, 0) is one word
    for k in range(1, L):
        nxt = {p: (1 << binom(n - p, k - 1)) - 1}
        for a in range(p - 1, L - k, -1):
            nxt[a] = row.get(a + 1, 0) | nxt[a + 1] << binom(n - a, k - 1)
        row = nxt

    def join(lo, hi):  # words starting in lo..hi-1, and past p when hi > p
        if hi - lo > 1:  # C(n-lo+1, L) - C(n-mid+1, L) start before mid
            mid = (lo + hi) // 2
            shift = binom(n - lo + 1, L) - binom(n - mid + 1, L)
            return join(lo, mid) | join(mid, hi) << shift
        return row.get(lo + 1, 0) if lo < p else (1 << binom(n - p, L - 1)) - 1
    return join(1, p + 1)


def _bit_planes(L: int) -> list[int]:
    """F_2^L as lanes, lane index = mask: entry c holds the lanes whose
    word has bit c set, symbol L-1-c of [2]^L in product order."""
    check_scan(1 << L)
    return [_qary_plane(2, L, L - 1 - c, 1) for c in range(L)]


def _lightest(lanes: int, weights: list[int],
              w: int = 0) -> tuple[int, int] | None:
    """(weight, lane) of the lightest of ``lanes`` in F_2^L, ties to the
    lowest lane, or None (``weights = _count(_bit_planes(L))``).  The
    search starts at weight w, which no lane may undercut."""
    if not lanes:
        return None
    while not (light := _within(weights, w, lanes)):
        w += 1
    return w, (light & -light).bit_length() - 1


def _scan_identity(size: int, center, sphere, r: int, s: int) -> int:
    """Lanes on which B(center, r) and the intersection of the B(z, r+s)
    over the sphere disagree.  Lane i is word i of the space; a word comes
    as the planes of its features, each the lanes carrying that feature,
    and a lane's distance to the word is how many of them miss it.  The
    planes are read only after the space has passed ``check_scan``.

    Every sphere word lies within s of the centre, so each B(z, r+s)
    holds B(center, r): once the running intersection is down to it, the
    rest of the sphere is skipped."""
    check_scan(size)
    full = (1 << size) - 1
    ball = _at_most((full ^ p for p in center), r, full)
    cap = full
    for z in sphere:
        cap = _at_most((full ^ p for p in z), r + s, cap)
        if cap == ball:
            return 0
    return cap ^ ball


def _binary_identity(one: list[int], center: int, sphere, r: int,
                     s: int) -> int:
    """``_scan_identity`` on F_2^L (``one = _bit_planes(L)``), the words
    given as masks: a word's features are its L bits."""
    full = (1 << (1 << len(one))) - 1

    def planes(m):  # per bit c, the lanes agreeing with m there
        return (p if m >> c & 1 else full ^ p for c, p in enumerate(one))
    return _scan_identity(1 << len(one), planes(center), map(planes, sphere),
                          r, s)


# ---------------------------------------------------------------------------
# misc exact helpers
# ---------------------------------------------------------------------------

def ceil_div(num: int, den: int) -> int:
    if den <= 0:
        raise ParameterError("ceil_div wants a positive denominator")
    return -(-num // den)

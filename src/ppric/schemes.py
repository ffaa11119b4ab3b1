"""Beyond binary Hamming: q-ary lifts, the Johnson scheme, covering codes.

The ball-intersection identity B(x,r) = intersection of B(z,r+s) over the
distance-s sphere holds in any symmetric scheme whose diameter is at least
r+2s+1, so proximity codes carry over with the metric swapped.  Everything
here runs at enumeration scale: spaces are scanned outright and verdicts
are definitional.  An identity scan runs on ``words._scan_identity``, the
one whole-space scan engine: each word of the space, in ``itertools``
order, gets one bit lane, counted on the protocol's bit-lane counter, and
the scan's mask of disagreeing lanes is decoded here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .codes import PpricCode, Verdict
from .construct import ConstructionError
from .cover import Budget, Cover, check_build
from .covering import CoveringDesign, verify_covering
from .errors import CapacityError, FormatError, ParameterError
from .jsondoc import JsonDoc
from .words import (
    BinaryWord,
    JohnsonWord,
    QaryWord,
    _binary_identity,
    _bit_planes,
    _johnson_plane,
    _qary_plane,
    _scan_identity,
    _swaps,
    binom,
    check_scan_work,
    diameter,
    enumerate_sphere,
    johnson_distance,
    johnson_sphere_size,
)

# (target, codeword) pairs one covering-code verification may compare
COVERING_PAIR_CAP = 1 << 26


# ---------------------------------------------------------------------------
# the sphere identity, checked over the whole space at once
# ---------------------------------------------------------------------------

def _qary_identity(q: int, L: int, center: tuple, sphere, r: int, s: int):
    """First word of [q]^L, in product order, on which the identity fails."""
    def planes(word):
        return (_qary_plane(q, L, j, a) for j, a in enumerate(word))
    diff = _scan_identity(q ** L, planes(center), map(planes, sphere), r, s)
    if not diff:
        return None
    i = (diff & -diff).bit_length() - 1
    return tuple(i // q ** (L - 1 - j) % q for j in range(L))


def _johnson_identity(n: int, L: int, center, sphere, r: int, s: int):
    """First L-subset of 1..n, in combination order, on which it fails."""
    def planes(word):
        return (_johnson_plane(n, L, p) for p in word)
    diff = _scan_identity(binom(n, L), planes(center), map(planes, sphere),
                          r, s)
    if not diff:
        return None
    i = (diff & -diff).bit_length() - 1
    word, a = [], 1
    for k in range(L, 0, -1):
        while i >= binom(n - a, k - 1):
            i -= binom(n - a, k - 1)
            a += 1
        word.append(a)
        a += 1
    return frozenset(word)


def verify_symmetric_sphere_identity(x, r: int, s: int) -> bool:
    """Scan the whole scheme for B(x,r) = intersection over the s-sphere.

    The scheme is implied by the word type of ``x``: binary Hamming,
    q-ary Hamming, or Johnson.  Requires diameter >= r + 2s + 1, the
    regime where the identity is a theorem; the scan should come back
    true and a false return means the regime reasoning is broken.
    """
    if r < 0 or s < 0:
        raise ParameterError("radii must be nonnegative")
    if isinstance(x, BinaryWord):
        diam = diameter("binary", x.length)
        size = 1 << x.length
        sphere_size = binom(x.length, s)
    elif isinstance(x, QaryWord):
        diam = diameter("qary", x.length)
        size = x.q ** x.length
        sphere_size = binom(x.length, s) * (x.q - 1) ** s
    elif isinstance(x, JohnsonWord):
        diam = diameter("johnson", x.length, x.n)
        size = binom(x.n, x.length)
        sphere_size = binom(x.length, s) * binom(x.n - x.length, s)
    else:
        raise ParameterError(f"not a scheme word: {x!r}")
    if diam < r + 2 * s + 1:
        raise ParameterError(
            f"identity regime needs diameter >= r+2s+1 = {r + 2 * s + 1}, "
            f"scheme has {diam}"
        )
    if s == 0:
        return True
    check_scan_work(size, sphere_size, x.length)
    sphere = enumerate_sphere(x, s)
    if isinstance(x, BinaryWord):
        return not _binary_identity(_bit_planes(x.length), x.mask,
                                    (z.mask for z in sphere), r, s)
    if isinstance(x, QaryWord):
        return _qary_identity(x.q, x.length, x.symbols,
                              (z.symbols for z in sphere), r, s) is None
    return _johnson_identity(x.n, x.length, x.elements,
                             (z.elements for z in sphere), r, s) is None


# ---------------------------------------------------------------------------
# q-ary Hamming lift
# ---------------------------------------------------------------------------

def qary_verify(code: PpricCode, q: int) -> Verdict:
    """Definitional verdict for a binary code read over a q-letter alphabet.

    Scans all q^L words: the intersection of the balls B(c, r+s) must be
    exactly the radius-r ball around zero.  Any code passing the binary
    verifier passes here for every q; the converse can fail, which is why
    the violator (first mismatch in symbol-tuple order) is reported.
    """
    if q < 2:
        raise ParameterError("alphabet size q must be >= 2")
    L, s, r = code.params.L, code.params.s, code.params.r
    bits = (tuple(m >> i & 1 for i in range(L)) for m in code.masks())
    y = _qary_identity(q, L, (0,) * L, bits, r, s)
    return Verdict(True) if y is None else Verdict(False, QaryWord(q, y))


# ---------------------------------------------------------------------------
# Johnson-scheme proximity codes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JohnsonPpricCode(JsonDoc):
    """Code in J(n, L): L-subsets at Johnson distance s from a center x."""

    n: int
    L: int
    s: int
    r: int
    x: JohnsonWord
    codewords: tuple[JohnsonWord, ...]

    def __post_init__(self):
        if self.n < 2 * self.L:
            raise ParameterError("Johnson scheme needs n >= 2L")
        if self.x.n != self.n or self.x.length != self.L:
            raise ParameterError("center does not live in J(n, L)")
        if not self.codewords:
            raise ParameterError("a code needs at least one codeword")
        for v in self.codewords:
            if v.n != self.n or v.length != self.L:
                raise ParameterError("codeword does not live in J(n, L)")
            if johnson_distance(self.x, v) != self.s:
                raise ParameterError(
                    f"codeword {v.to_string()} is not at distance s={self.s} "
                    "from the center"
                )

    @property
    def size(self) -> int:
        return len(self.codewords)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "L": self.L,
            "s": self.s,
            "r": self.r,
            "x": sorted(self.x.elements),
            "codewords": [sorted(v.elements) for v in self.codewords],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "JohnsonPpricCode":
        try:
            n, L, s, r = data["n"], data["L"], data["s"], data["r"]
            x = JohnsonWord(n, frozenset(data["x"]))
            words = tuple(
                JohnsonWord(n, frozenset(v)) for v in data["codewords"]
            )
        except (KeyError, TypeError) as exc:
            raise FormatError(f"bad Johnson code object: {exc}") from exc
        if L != x.length:
            raise FormatError("declared L disagrees with the center")
        return cls(n, L, s, r, x, words)

    @classmethod
    def loads(cls, text: str) -> "JohnsonPpricCode":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"not JSON: {exc}") from exc
        return cls.from_json_dict(data)


def johnson_verify(code: JohnsonPpricCode) -> Verdict:
    """Scan J(n, L) for B(x,r) = intersection of the B(v, r+s).

    The violator, when present, is the first word in combination order on
    whose membership the two sides disagree.
    """
    n, L, r, s = code.n, code.L, code.r, code.s
    y = _johnson_identity(n, L, code.x.elements,
                          (v.elements for v in code.codewords), r, s)
    return Verdict(True) if y is None else Verdict(False, JohnsonWord(n, y))


def johnson_construction(n: int, L: int, s: int, r: int,
                         x: JohnsonWord | None = None) -> JohnsonPpricCode:
    """The 2r+3 codeword family: disjoint s-element swaps on the center.

    Codeword i trades the i-th run of s elements of x for the i-th run of
    s elements outside x, so distinct codewords differ from x in disjoint
    places and sit at pairwise distance exactly 2s.  Needs L >= s(2r+3);
    the off-center side n-L >= s(2r+3) then comes free from n >= 2L.
    """
    if s < 1:
        raise ParameterError("swap construction needs s >= 1")
    if r < 0:
        raise ParameterError("r must be nonnegative")
    if L < s * (2 * r + 3):
        raise ParameterError(
            f"need L >= s(2r+3) = {s * (2 * r + 3)}, got L={L}"
        )
    if n < 2 * L:
        raise ParameterError("Johnson scheme needs n >= 2L")
    if x is None:
        x = JohnsonWord(n, frozenset(range(1, L + 1)))
    elif x.n != n or x.length != L:
        raise ParameterError("center does not live in J(n, L)")
    inside = sorted(x.elements)
    outside = sorted(set(range(1, n + 1)) - x.elements)
    words = []
    for i in range(2 * r + 3):
        drop = inside[i * s:(i + 1) * s]
        add = outside[i * s:(i + 1) * s]
        words.append(JohnsonWord(n, (x.elements - set(drop)) | set(add)))
    code = JohnsonPpricCode(n, L, s, r, x, tuple(words))
    verdict = johnson_verify(code)
    if not verdict.is_ppric:
        raise ConstructionError(
            f"swap family failed enumeration at ({n},{L},{s},{r}): "
            f"violator {verdict.violator.to_string()}"
        )
    return code


def _johnson_cover(n: int, L: int, s: int, r: int) -> Cover:
    """Codes on the s-sphere around x = {1..L} as a cover instance.

    The candidates are the sphere words, and the first one, v0, is pinned:
    the stabiliser of x acts transitively on the sphere, so some image of
    any code contains v0.  A family containing v0 is a code iff every word
    outside B(x, r) lies outside some B(v, r+s); v0 alone already expels
    everything beyond B(v0, r+s), so the elements are the words of
    B(v0, r+s) outside B(x, r), each covered by the sphere words it lies
    far from.  The permutations of the points fixing x map the sphere onto
    itself, and those fixing v0 as well map the elements onto themselves,
    so the symmetry cells are x and its complement.
    """
    # B(x, r) lies inside B(v0, r+s), so there are as many elements as
    # words at distance r+1..r+s from v0
    count = sum(johnson_sphere_size(n, L, d) for d in range(r + 1, r + s + 1))
    check_build(johnson_sphere_size(n, L, s), count)
    # bit p is point p; x = {1..L}
    full, x = (1 << n + 1) - 2, (1 << L + 1) - 2
    sphere = list(_swaps(x, full ^ x, s))
    v0 = sphere[0]
    universe = [y for d in range(r + s + 1) for y in _swaps(v0, full ^ v0, d)
                if (x & ~y).bit_count() > r]
    # |v - y| > r+s iff |v n y| < L-r-s, as both have L elements
    return Cover(sphere, [(universe, L - r - s)], [x, full ^ x])


def johnson_exact_check(n: int, L: int, s: int, r: int) -> bool:
    """Confirm the minimum code size in J(n, L) is exactly 2r+3.

    Searches for a code of at most 2r+2 words on the distance-s sphere
    around the canonical center; when none exists, builds and verifies
    the 2r+3 construction.  Only defined in the L >= s(2r+3) regime;
    outside it nothing is claimed and a parameter error is raised.
    """
    if s < 1:
        raise ParameterError("exact check needs s >= 1")
    if L < s * (2 * r + 3):
        raise ParameterError(
            f"the 2r+3 value is only claimed for L >= s(2r+3) = "
            f"{s * (2 * r + 3)}, got L={L}"
        )
    if n < 2 * L:
        raise ParameterError("Johnson scheme needs n >= 2L")
    if _johnson_cover(n, L, s, r).solve(1, 2 * r + 2, Budget()) is not None:
        # a 2r+2 code would contradict the lower bound
        return False
    johnson_construction(n, L, s, r)
    return True


# ---------------------------------------------------------------------------
# covering codes in the Johnson scheme
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JohnsonCoveringCode(JsonDoc):
    """Weight-L words with L-k ones among the first L coordinates."""

    n: int
    L: int
    k: int
    t: int
    codewords: tuple[JohnsonWord, ...]

    def __post_init__(self):
        if not (self.L >= self.k >= self.t > 0):
            raise ParameterError("need L >= k >= t > 0")
        if self.n < 2 * self.L:
            raise ParameterError("Johnson scheme needs n >= 2L")
        if not self.codewords:
            raise ParameterError("a covering code needs at least one codeword")
        head = frozenset(range(1, self.L + 1))
        for c in self.codewords:
            if c.n != self.n or c.length != self.L:
                raise ParameterError("codeword does not live in J(n, L)")
            if len(c.elements & head) != self.L - self.k:
                raise ParameterError(
                    f"codeword {c.to_string()} has "
                    f"{len(c.elements & head)} ones in the first {self.L} "
                    f"coordinates, wanted {self.L - self.k}"
                )

    @property
    def size(self) -> int:
        return len(self.codewords)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "L": self.L,
            "k": self.k,
            "t": self.t,
            "codewords": [sorted(c.elements) for c in self.codewords],
        }


@dataclass(frozen=True)
class CoveringCodeVerdict:
    at_least_one: bool
    exactly_one: bool

    def to_json_dict(self) -> dict:
        return {
            "at_least_one": self.at_least_one,
            "exactly_one": self.exactly_one,
        }


def verify_johnson_covering(code: JohnsonCoveringCode) -> CoveringCodeVerdict:
    """Check both readings of the covering predicate.

    Targets are the weight-L words with L-t ones among the first L
    coordinates; each must have a codeword at Johnson distance exactly
    k-t.  Whether "a codeword" means at least one or exactly one is left
    open by the defining text, so both counts are reported.
    """
    n, L, k, t = code.n, code.L, code.k, code.t
    pairs = binom(L, t) * binom(n - L, t) * code.size
    if pairs > COVERING_PAIR_CAP:
        raise CapacityError(
            f"{pairs} target-codeword pairs exceed COVERING_PAIR_CAP = 2**26")
    # bit p is point p; the head is 1..L
    head = (1 << L + 1) - 2
    words = [sum(1 << p for p in c.elements) for c in code.codewords]
    exactly = True
    for target in _swaps(head, ((1 << n + 1) - 2) ^ head, t):
        count = sum((c & ~target).bit_count() == k - t for c in words)
        if count == 0:
            return CoveringCodeVerdict(False, False)
        exactly &= count == 1
    return CoveringCodeVerdict(True, exactly)


def product_covering_code(first: CoveringDesign,
                          second: CoveringDesign) -> JohnsonCoveringCode:
    """Block-complements of one design crossed with blocks of another.

    An (L,k,t) design and an (n-L,k,t) design give an (n,L,k,t) covering
    code: each codeword takes the complement of a first-design block on
    the head coordinates and a second-design block shifted to the tail.
    """
    if first.k != second.k or first.t != second.t:
        raise ParameterError(
            f"mismatched design strength: ({first.k},{first.t}) vs "
            f"({second.k},{second.t})"
        )
    if not verify_covering(first):
        raise ParameterError("first input is not a covering design")
    if not verify_covering(second):
        raise ParameterError("second input is not a covering design")
    L = first.n
    n = first.n + second.n
    head = frozenset(range(1, L + 1))
    words = []
    for b1 in first.blocks:
        base = head - b1
        for b2 in second.blocks:
            shifted = frozenset(L + p for p in b2)
            words.append(JohnsonWord(n, base | shifted))
    return JohnsonCoveringCode(n, L, first.k, first.t, tuple(words))

"""Constant-weight codes with the intersection-covering ball identity.

A code C of weight-s words in F_2^L with radius parameter r is "PPRIC"
(private proximity retrieval intersection covering) when

    B(0, r)  =  intersection over c in C of B(c, r + s).

The containment left-to-right always holds, so the whole question is
whether some word of weight > r sneaks into every ball B(c, r+s).  A word
y of weight w is in B(c, r+s) iff |supp(y) & supp(c)| >= ceil((w-r)/2),
which turns verification into a family of hitting problems: with

    h(gamma) = min { |P| : |P & supp(c)| >= gamma for every codeword c }

a violator of weight w in {r+1..L} exists iff h(ceil((w-r)/2)) <= w.
verify_exact solves h by branch and bound, one connected component of
the code at a time and within a node budget; verify_enumeration re-derives
the verdict from scratch over all 2^L words, one bit lane each, on the scan
engine in ``words``, so the two routes stay independent checks of one
another.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .cover import Budget
from .errors import (CapacityError, ConstructionError, FormatError,
                     ParameterError)
from .jsondoc import JsonDoc, integer
from .words import (
    BinaryWord,
    SchemeParams,
    _at_most,
    _binary_identity,
    _bit_planes,
    _lightest,
    _points,
    _subsets,
    _transpose,
    binom,
    check_scan_work,
)


@dataclass(frozen=True)
class PpricCode(JsonDoc):
    params: SchemeParams
    codewords: tuple[BinaryWord, ...]

    def __post_init__(self):
        L, s = self.params.L, self.params.s
        if not self.codewords:
            raise ParameterError("a code needs at least one codeword")
        seen = set()
        for w in self.codewords:
            if w.length != L:
                raise ParameterError(f"codeword length {w.length} != L={L}")
            if w.weight != s:
                raise ParameterError(f"codeword weight {w.weight} != s={s}")
            if w.mask in seen:
                raise ParameterError("duplicate codeword")
            seen.add(w.mask)

    @property
    def size(self) -> int:
        return len(self.codewords)

    def masks(self) -> list[int]:
        return [w.mask for w in self.codewords]

    @functools.cached_property
    def verdict(self) -> Verdict:
        """``verify_exact``'s verdict, reached once per code object; a
        CapacityError is not kept, so the next read raises it again."""
        return verify_exact(self)

    # -- JSON interchange ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "L": self.params.L,
            "s": self.params.s,
            "r": self.params.r,
            "codewords": [w.to_string() for w in self.codewords],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "PpricCode":
        try:
            L, s, r = (integer(doc[key], key) for key in "Lsr")
            words = tuple(BinaryWord.from_string(t) for t in doc["codewords"])
        except (KeyError, TypeError) as exc:
            raise FormatError(f"bad code document: {exc}") from exc
        return cls(SchemeParams(L, s, r), words)


def make_code(L: int, s: int, r: int, supports) -> PpricCode:
    """Convenience constructor from 1-based coordinate supports."""
    words = tuple(BinaryWord.from_support(L, supp) for supp in supports)
    return PpricCode(SchemeParams(L, s, r), words)


@dataclass(frozen=True)
class Verdict:
    is_ppric: bool
    violator: object | None = None
    gamma_profile: dict[int, int] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "is_ppric": self.is_ppric,
            "violator": (None if self.violator is None
                         else self.violator.to_string()),
            "gamma_profile": {str(g): h for g, h in sorted(self.gamma_profile.items())},
        }


def verified(code):
    """``code`` once its cached ``verdict`` holds (either code type); else
    ConstructionError naming the violator, an explicit raise, so the
    check holds under python -O."""
    verdict = code.verdict
    if not verdict.is_ppric:
        raise ConstructionError(
            f"{type(code).__name__} of {code.size} words failed "
            f"verification; violator {verdict.violator.to_string()}")
    return code


# ---------------------------------------------------------------------------
# h(gamma): exact minimum multihit weight by branch and bound
# ---------------------------------------------------------------------------

# branch-and-bound nodes one multihit question may use, over all its
# components and gammas.  Every non-full catalog recipe at L in {24, 32,
# 40, 64}, s <= 16, r <= 5 verifies in at most 4,958 (eps8 at s = 16), a
# 90-word code left in one piece (build_extremal(8, 2) unsplit) in about
# 50,000, at some 40,000 nodes/s
MULTIHIT_NODE_BUDGET = 100_000


def _greedy_multihit(columns: list[int], gamma: int, full: int) -> int:
    """Feasible multihit set found greedily; used as the initial upper bound.

    ``columns[c]`` masks the codewords holding coordinate c, and ``full``
    all of them.  Each step adds the coordinate in the most still-deficient
    supports, ties to the lowest index.  A chosen column reads 0 in
    ``left``; another gains while a support is deficient, as each support
    holds gamma points.
    """
    chosen, picked, left = 0, [], list(columns)
    while deficient := _at_most(picked, gamma - 1, full):
        gains = [(col & deficient).bit_count() for col in left]
        c = gains.index(max(gains))
        chosen |= 1 << c
        picked.append(left[c])
        left[c] = 0
    return chosen


def _min_multihit_set(masks: list[int], L: int, gamma: int,
                      budget: Budget) -> tuple[int, int] | None:
    """(h(gamma), witness mask), or None when gamma exceeds the weight s.

    Branch and bound over coordinate classes: coordinates with the same
    codeword-membership pattern are interchangeable, so the search only
    decides how many to take from each class.  Branching: the codeword
    with the largest remaining deficit, over the classes meeting it (a
    class passed over is frozen for the whole subtree).  Lower bounds:
    the largest single deficit, and the total deficit divided by the best
    per-coordinate yield among usable classes.  Every node of the search
    counts against ``budget``.
    """
    if gamma <= 0:
        return (0, 0)
    if any(m.bit_count() < gamma for m in masks):
        return None

    columns = _transpose(masks, L)
    greedy = _greedy_multihit(columns, gamma, (1 << len(masks)) - 1)
    best_size = greedy.bit_count()
    best_set = greedy

    groups: dict[int, list[int]] = {}
    for c, key in enumerate(columns):
        if key:
            groups.setdefault(key, []).append(c)
    keys = sorted(groups)
    coords = [groups[k] for k in keys]
    caps = [len(cs) for cs in coords]
    # the codewords each class's coordinates lie in
    held = [_points(k) for k in keys]
    nregions = len(keys)
    take = [0] * nregions
    hits = [0] * len(masks)
    best_take: list[int] | None = None

    def rec(size: int, frozen: int):
        nonlocal best_size, best_take
        budget.nodes += 1
        if budget.nodes > budget.limit:
            raise CapacityError(
                f"multihit node budget {budget.limit} exceeded")
        worst_def = total_def = defmask = 0
        worst_i = -1
        for i in range(len(masks)):
            d = gamma - hits[i]
            if d > 0:
                total_def += d
                defmask |= 1 << i
                if d > worst_def:
                    worst_def, worst_i = d, i
        if worst_def == 0:
            if size < best_size:
                best_size = size
                best_take = take[:]
            return
        if size + worst_def >= best_size:
            return
        best_yield = 0
        for j in range(nregions):
            if take[j] < caps[j] and not frozen >> j & 1:
                y = (keys[j] & defmask).bit_count()
                if y > best_yield:
                    best_yield = y
        if best_yield == 0:
            return
        if size - (-total_def // best_yield) >= best_size:
            return
        f = frozen
        room = 0  # capacity left for the branched codeword
        for j in range(nregions):
            if keys[j] >> worst_i & 1 and not f >> j & 1:
                room += caps[j] - take[j]
        if room < worst_def:
            return
        for j in range(nregions):
            if not keys[j] >> worst_i & 1 or f >> j & 1 or take[j] >= caps[j]:
                continue
            take[j] += 1
            for i in held[j]:
                hits[i] += 1
            rec(size + 1, f)
            for i in held[j]:
                hits[i] -= 1
            take[j] -= 1
            f |= 1 << j
            room -= caps[j] - take[j]
            if room < worst_def:
                return

    rec(0, 0)
    if best_take is not None:
        best_set = sum(1 << c for cs, tk in zip(coords, best_take)
                       for c in cs[:tk])
    return (best_size, best_set)


def _components(masks: list[int]) -> list[tuple[list[int], tuple[int, ...]]]:
    """Connected components of the graph linking each codeword to the
    coordinates of its support, in the order of their first codewords.

    Each is (its coordinates ascending, its codewords' masks in code order
    compacted onto those coordinates).  A coordinate in no support is in
    no component.
    """
    parts: list[tuple[int, list[int]]] = []  # (coordinate mask, codewords)
    for i, m in enumerate(masks):
        # the parts are pairwise disjoint, so m joins exactly those it meets
        span, members, apart = m, [i], []
        for part in parts:
            if part[0] & m:
                span |= part[0]
                members += part[1]
            else:
                apart.append(part)
        parts = apart + [(span, sorted(members))]
    out = []
    for span, members in sorted(parts, key=lambda part: part[1][0]):
        coords = [c for c in range(span.bit_length()) if span >> c & 1]
        local = tuple(sum(1 << j for j, c in enumerate(coords)
                          if masks[i] >> c & 1) for i in members)
        out.append((coords, local))
    return out


def min_multihit_sets(masks: list[int], gammas,
                      node_budget: int | None = None
                      ) -> dict[int, tuple[int, int] | None]:
    """gamma -> (h(gamma), witness mask) of the support family ``masks``,
    or None where some support is lighter than gamma.

    The problem splits over the connected components of the family
    (``_components``): h(gamma) is the sum of the components' values and
    the witness the union of their witnesses.  Components with equal
    compacted masks, such as the repeated blocks of a disjoint union, are
    solved once.  All of it shares one budget of ``node_budget`` nodes
    (default MULTIHIT_NODE_BUDGET); beyond it CapacityError is raised.
    """
    budget = Budget(MULTIHIT_NODE_BUDGET if node_budget is None
                    else node_budget)
    parts = _components(masks)
    solved: dict[tuple[tuple[int, ...], int], tuple[int, int] | None] = {}
    out: dict[int, tuple[int, int] | None] = {}
    for gamma in gammas:
        h = witness = 0
        for coords, local in parts:
            if (local, gamma) not in solved:
                solved[local, gamma] = _min_multihit_set(
                    list(local), len(coords), gamma, budget)
            res = solved[local, gamma]
            if res is None:
                out[gamma] = None
                break
            h += res[0]
            witness |= sum(1 << c for j, c in enumerate(coords)
                           if res[1] >> j & 1)
        else:
            out[gamma] = (h, witness)
    return out


def min_multihit_weight(code: PpricCode, gamma: int) -> int | None:
    """h(gamma) for the code's support family; None means infeasible
    (gamma > s, no set can meet a weight-s support that often)."""
    if gamma < 1:
        raise ParameterError("gamma must be >= 1")
    if gamma > code.params.s:
        return None
    res = min_multihit_sets(code.masks(), [gamma])[gamma]
    return None if res is None else res[0]


# ---------------------------------------------------------------------------
# exact verification via the gamma criterion
# ---------------------------------------------------------------------------

def _gamma_range(L: int, s: int, r: int) -> range:
    # weights r+2g-1 must not exceed L, hence g <= ceil((L-r)/2)
    return range(1, min(s, (L - r + 1) // 2) + 1)


def verify_exact(code: PpricCode, node_budget: int | None = None) -> Verdict:
    """Verdict from the hitting-problem criterion (no 2^L scan).

    A violator of weight w exists iff h(ceil((w-r)/2)) <= w, so it is
    enough to check, for each gamma, whether h(gamma) <= min(r+2*gamma, L).
    The reported violator has minimum violating weight: the minimum
    multihit set padded with the lowest-index unused coordinates.  The
    h values come from ``min_multihit_sets``, within ``node_budget``.
    """
    L, s, r = code.params.L, code.params.s, code.params.r
    hits = min_multihit_sets(code.masks(), _gamma_range(L, s, r), node_budget)
    profile: dict[int, int] = {}
    violator = None
    for gamma, (h, hit_set) in hits.items():  # gamma <= s, so never None
        profile[gamma] = h
        if violator is None and h <= min(r + 2 * gamma, L):
            pad = next(_subsets(((1 << L) - 1) ^ hit_set, max(
                h, r + 2 * gamma - 1) - hit_set.bit_count()))
            violator = BinaryWord(L, hit_set | pad)
    return Verdict(violator is None, violator, profile)


def verify_enumeration(code: PpricCode) -> Verdict:
    """Independent verdict from a full scan of F_2^L (L <= 24).

    Bit lanes, lane index = mask: intersect the balls B(c, r+s) and
    compare against B(0, r).  The reported violator is the lowest-weight
    word in the difference, ties to the smallest mask value.  Up to
    L = 20 the gamma profile is rescanned too: h(gamma) is the lightest
    lane meeting every support at least gamma times.
    """
    L, s, r = code.params.L, code.params.s, code.params.r
    one = _bit_planes(L)
    # B(0, r) lies in every ball, so the difference has no word that light
    bad = _lightest(_binary_identity(one, 0, code.masks(), r, s), one, r + 1)
    supports = [[p for c, p in enumerate(one) if m >> c & 1]
                for m in code.masks()]
    profile: dict[int, int] = {}
    # hits shrinks as gamma grows, so h(gamma) never undercuts h(gamma - 1)
    hits, h = (1 << (1 << L)) - 1, 0
    for gamma in _gamma_range(L, s, r) if L <= 20 else ():
        for planes in supports:
            hits ^= _at_most(planes, gamma - 1, hits)
        found = _lightest(hits, one, h)
        if found is None:
            break
        h = profile[gamma] = found[0]
    if bad is None:
        return Verdict(True, None, profile)
    return Verdict(False, BinaryWord(L, bad[1]), profile)


def full_sphere_identity_holds(L: int, s: int, r: int) -> bool:
    """Does B(0,r) equal the intersection of B(z, r+s) over ALL weight-s z?

    Pure enumeration oracle (the triple may be inadmissible; that is the
    point).  True exactly when r + 2s + 1 <= L.  The scan is held to
    SCAN_WORK_CAP like any other sphere-identity scan; none runs where
    r + s >= L, since every B(z, r+s) is then F_2^L.
    """
    if not 0 <= r < L:
        raise ParameterError("need 0 <= r < L")
    if s < 0 or s > L:
        raise ParameterError("need 0 <= s <= L")
    check_scan_work(1 << L, binom(L, s), L)
    if r + s >= L:
        return False
    return not _binary_identity(_bit_planes(L), 0,
                                _subsets((1 << L) - 1, s), r, s)


def mippr_min_weight(code: PpricCode) -> int | None:
    """Minimum weight of a word meeting every codeword's support (= h(1))."""
    return min_multihit_weight(code, 1)


# ---------------------------------------------------------------------------
# code surgery
# ---------------------------------------------------------------------------

def pad_coordinate(code: PpricCode, extra: int = 1) -> PpricCode:
    """Append ``extra`` always-zero coordinates; verdict is preserved."""
    if extra < 0:
        raise ParameterError("extra must be >= 0")
    L, s, r = code.params.L, code.params.s, code.params.r
    params = SchemeParams(L + extra, s, r)
    words = tuple(BinaryWord(L + extra, w.mask) for w in code.codewords)
    return PpricCode(params, words)


def scale_code(code: PpricCode, alpha: int) -> PpricCode:
    """Blow every coordinate up into a run of alpha copies: (aL, as, r)."""
    if alpha < 1:
        raise ParameterError("alpha must be >= 1")
    L, s, r = code.params.L, code.params.s, code.params.r
    run = (1 << alpha) - 1
    words = []
    for w in code.codewords:
        m = 0
        for i in range(L):
            if w.mask >> i & 1:
                m |= run << (alpha * i)
        words.append(BinaryWord(alpha * L, m))
    return PpricCode(SchemeParams(alpha * L, alpha * s, r), tuple(words))

"""Code constructions and the upper-bound recipe catalog.

The combinatorial engine is the typed block family: a family of weight-s
supports on a ground interval has *type* ell when every coordinate set
hitting each support at least t times has size >= ell + t, for every
t >= 1.  Disjoint unions of typed families (construction1) give PPRIC
codes with r = sum(ell_i) + p - 3 for p families.

build_superset turns a covering design into a typed family: take the
blockwise complements, blow each point up into a grain of s/alpha
consecutive coordinates (alpha = point count per complement block); the
covering strength of the input becomes the type of the output.

Every construction function verifies its output with verify_exact before
returning it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .codes import PpricCode, pad_coordinate, verify_exact, _min_multihit_set
from .covering import (
    CoveringDesign,
    all_pairs_design,
    design_9_5_2,
    singleton_design,
    verify_covering,
)
from .errors import CapacityError, ParameterError
from .words import BinaryWord, SchemeParams, binom


class ConstructionError(AssertionError):
    """A construction produced a code that failed its own verification."""


def _verified(code: PpricCode) -> PpricCode:
    verdict = verify_exact(code)
    if not verdict.is_ppric:
        raise ConstructionError(
            f"construction output failed verification at "
            f"(L={code.params.L}, s={code.params.s}, r={code.params.r}); "
            f"violator {verdict.violator}"
        )
    return code


# ---------------------------------------------------------------------------
# typed block families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TypedDesign:
    """Weight-s supports on the coordinate interval offset+1 .. offset+ground."""

    offset: int
    ground: int
    type_level: int
    blocks: tuple[frozenset[int], ...]

    def __post_init__(self):
        lo, hi = self.offset + 1, self.offset + self.ground
        for b in self.blocks:
            if any(not lo <= p <= hi for p in b):
                raise ParameterError("typed-design block outside its ground interval")
        if self.type_level < 0:
            raise ParameterError("type level must be >= 0")
        sizes = {len(b) for b in self.blocks}
        if len(sizes) != 1:
            raise ParameterError("typed-design blocks must share one size")

    @property
    def block_size(self) -> int:
        return len(self.blocks[0])

    def validate_type(self) -> bool:
        """Exact check of the type property for every t in 1..s."""
        s = self.block_size
        lo = self.offset
        masks = [sum(1 << (p - 1 - lo) for p in b) for b in self.blocks]
        for t in range(1, s + 1):
            res = _min_multihit_set(masks, self.ground, t)
            if res is None or res[0] < self.type_level + t:
                return False
        return True


def single_block_design(s: int, offset: int = 0) -> TypedDesign:
    """One weight-s block: the trivial family of type 0."""
    if s < 1:
        raise ParameterError("block weight must be >= 1")
    block = frozenset(range(offset + 1, offset + s + 1))
    return TypedDesign(offset, s, 0, (block,))


def build_superset(base, s: int, offset: int = 0) -> TypedDesign:
    """Typed family from a covering design (or the integer k shorthand).

    ``base`` is either an (n, n-alpha, ell) covering design -- its
    complements, grain-expanded to weight s, form a family of type ell --
    or an int k, shorthand for the (k+1, 1, 1) design of all singletons
    (the "(k,1)-superset": k+1 blocks of weight s on (k+1)s/k coordinates,
    type 1).
    """
    if isinstance(base, int):
        if base < 1:
            raise ParameterError("superset parameter k must be >= 1")
        base = singleton_design(base + 1)
    if not isinstance(base, CoveringDesign):
        raise ParameterError("base must be a CoveringDesign or an int")
    if not verify_covering(base):
        raise ParameterError("base design does not cover its t-subsets")
    alpha = base.n - base.k
    if alpha < 1:
        raise ParameterError("base design must have k < n")
    if s % alpha:
        raise ParameterError(f"grain mismatch: {alpha} does not divide s={s}")
    grain = s // alpha
    ground = base.n * grain

    def grain_coords(point: int) -> range:
        start = offset + (point - 1) * grain + 1
        return range(start, start + grain)

    full = frozenset(range(1, base.n + 1))
    blocks = []
    for blk in base.blocks:
        support = set()
        for point in full - blk:
            support.update(grain_coords(point))
        blocks.append(frozenset(support))
    td = TypedDesign(offset, ground, base.t, tuple(blocks))
    if ground <= 20 and not td.validate_type():
        raise ConstructionError("superset family failed its type check")
    return td


def construction1(designs, L: int) -> PpricCode:
    """Union of p >= 2 typed families on disjoint grounds.

    Result parameters: s = common block size, r = sum of types + p - 3.
    """
    designs = list(designs)
    if len(designs) < 2:
        raise ParameterError("construction1 needs at least two families")
    spans = sorted((d.offset, d.offset + d.ground) for d in designs)
    for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
        if b0 < a1:
            raise ParameterError("typed-design grounds overlap")
    if spans[-1][1] > L:
        raise ParameterError("families do not fit inside L coordinates")
    sizes = {d.block_size for d in designs}
    if len(sizes) != 1:
        raise ParameterError("families must share the block size s")
    s = sizes.pop()
    r = sum(d.type_level for d in designs) + len(designs) - 3
    if r < 0:
        raise ParameterError(f"resulting r = {r} is negative")
    params = SchemeParams(L, s, r)
    words = tuple(
        BinaryWord.from_support(L, b) for d in designs for b in d.blocks
    )
    return _verified(PpricCode(params, words))


# ---------------------------------------------------------------------------
# named constructions
# ---------------------------------------------------------------------------

def build_disjoint(L: int, s: int, r: int) -> PpricCode:
    """r+3 pairwise-disjoint supports laid left to right."""
    if s < 1:
        raise ParameterError("build_disjoint needs s >= 1")
    need = max(2 * s + r + 1, (r + 3) * s)
    if L < need:
        raise ParameterError(f"build_disjoint needs L >= {need}, got {L}")
    words = []
    for i in range(r + 3):
        words.append(BinaryWord.from_support(L, range(i * s + 1, (i + 1) * s + 1)))
    return _verified(PpricCode(SchemeParams(L, s, r), tuple(words)))


def build_full(L: int, s: int, r: int) -> PpricCode:
    """Every weight-s word; the universal fallback scheme."""
    params = SchemeParams(L, s, r)
    if binom(L, s) > 5000:
        raise CapacityError("full code capped at C(L, s) <= 5000 codewords")
    words = tuple(
        BinaryWord.from_support(L, [c + 1 for c in supp])
        for supp in itertools.combinations(range(L), s)
    )
    return PpricCode(params, words)  # admissibility alone guarantees this one


def build_extremal(s: int, r: int, L: int | None = None) -> PpricCode:
    """All s-subsets of each half of a near-even split of 2s+r+1 coordinates.

    Needs s > r.  The minimum length is 2s+r+1; a larger L pads with
    always-zero coordinates.
    """
    if not s > r >= 0:
        raise ParameterError("build_extremal needs s > r >= 0")
    base_len = 2 * s + r + 1
    if L is None:
        L = base_len
    if L < base_len:
        raise ParameterError(f"need L >= {base_len}")
    half1 = base_len // 2
    words = []
    for supp in itertools.combinations(range(1, half1 + 1), s):
        words.append(BinaryWord.from_support(base_len, supp))
    for supp in itertools.combinations(range(half1 + 1, base_len + 1), s):
        words.append(BinaryWord.from_support(base_len, supp))
    code = PpricCode(SchemeParams(base_len, s, r), tuple(words))
    if L > base_len:
        code = pad_coordinate(code, L - base_len)
    return _verified(code)


def extremal_size(s: int, r: int) -> int:
    """Codeword count of build_extremal without building it."""
    if not s > r >= 0:
        raise ParameterError("need s > r >= 0")
    if r % 2:
        return 2 * binom(s + (r + 1) // 2, s)
    return binom(s + r // 2, s) + binom(s + (r + 2) // 2, s)


def build_eps8(s: int, L: int | None = None) -> PpricCode:
    """Six codewords on 17s/8 coordinates for r = 0 (requires 8 | s).

    Six consecutive regions of sizes s/8, 5s/8, 3s/8, s/4, s/4, s/2; each
    codeword is a fixed union of regions totalling weight s.
    """
    if s < 8 or s % 8:
        raise ParameterError("build_eps8 needs a positive multiple of 8")
    u = s // 8
    base_len = 17 * u
    if L is None:
        L = base_len
    if L < base_len:
        raise ParameterError(f"need L >= {base_len}")
    bounds = [0, 1, 6, 9, 11, 13, 17]
    regions = [
        range(bounds[i] * u + 1, bounds[i + 1] * u + 1) for i in range(6)
    ]
    membership = [
        (0, 1, 3),      # regions 1, 2, 4
        (0, 1, 4),      # regions 1, 2, 5
        (0, 2, 3, 4),   # regions 1, 3, 4, 5
        (0, 2, 5),      # regions 1, 3, 6
        (1, 2),         # regions 2, 3
        (3, 4, 5),      # regions 4, 5, 6
    ]
    words = []
    for picks in membership:
        supp = [c for i in picks for c in regions[i]]
        words.append(BinaryWord.from_support(base_len, supp))
    code = PpricCode(SchemeParams(base_len, s, 0), tuple(words))
    if L > base_len:
        code = pad_coordinate(code, L - base_len)
    return _verified(code)


def construction2(L: int, s: int, r: int, k: int, t: int) -> PpricCode:
    """Odd r: t (k+1,1)-supersets plus (r+3)/2 - t (k,1)-supersets,
    disjoint, left to right.  Size (r+3)(k+1)/2 + t."""
    if r < 1 or r % 2 == 0:
        raise ParameterError("construction2 needs odd r >= 1")
    if k < 1 or t < 0 or t > (r + 1) // 2:
        raise ParameterError("need k >= 1 and 0 <= t <= (r+1)/2")
    plain = (r + 3) // 2 - t
    if plain > 0 and s % k:
        raise ParameterError(f"k={k} must divide s={s}")
    if t > 0 and s % (k + 1):
        raise ParameterError(f"k+1={k + 1} must divide s={s}")
    need = Fraction(r + 3, 1) * (k + 1) / (2 * k) - Fraction(t, k * (k + 1))
    if Fraction(L, s) < need:
        raise ParameterError(f"need L/s >= {need}, got {Fraction(L, s)}")
    designs = []
    offset = 0
    for _ in range(t):
        d = build_superset(k + 1, s, offset)
        designs.append(d)
        offset += d.ground
    for _ in range(plain):
        d = build_superset(k, s, offset)
        designs.append(d)
        offset += d.ground
    return construction1(designs, L)


def construction3(L: int, s: int, r: int, k: int, t: int) -> PpricCode:
    """Even r: the construction2 layout for r+2 minus one superset, plus a
    single disjoint codeword.  Size (r+2)(k+1)/2 + t + 1."""
    if r < 0 or r % 2:
        raise ParameterError("construction3 needs even r >= 0")
    if k < 1 or t < 0 or t > r // 2:
        raise ParameterError("need k >= 1 and 0 <= t <= r/2")
    plain = (r + 2) // 2 - t
    if plain > 0 and s % k:
        raise ParameterError(f"k={k} must divide s={s}")
    if t > 0 and s % (k + 1):
        raise ParameterError(f"k+1={k + 1} must divide s={s}")
    need = Fraction(r + 2, 1) * (k + 1) / (2 * k) - Fraction(t, k * (k + 1)) + 1
    if Fraction(L, s) < need:
        raise ParameterError(f"need L/s >= {need}, got {Fraction(L, s)}")
    designs = []
    offset = 0
    for _ in range(t):
        d = build_superset(k + 1, s, offset)
        designs.append(d)
        offset += d.ground
    for _ in range(plain):
        d = build_superset(k, s, offset)
        designs.append(d)
        offset += d.ground
    designs.append(single_block_design(s, offset))
    return construction1(designs, L)


def doubling(design1: CoveringDesign, design2: CoveringDesign, L: int | None = None) -> PpricCode:
    """Glue the complement families of two covering designs side by side.

    From verified (n1, n1-s, t1) and (n2, n2-s, t2) designs the union is an
    (n1+n2, s, t1+t2-1) code of size b1 + b2.
    """
    s1, s2 = design1.n - design1.k, design2.n - design2.k
    if s1 != s2:
        raise ParameterError(f"complement weights differ: {s1} vs {s2}")
    td1 = build_superset(design1, s1, offset=0)
    td2 = build_superset(design2, s2, offset=design1.n)
    base_len = design1.n + design2.n
    if L is None:
        L = base_len
    code = construction1([td1, td2], L)
    want_r = design1.t + design2.t - 1
    if code.params.r != want_r:
        raise ConstructionError(f"doubling r mismatch: {code.params.r} != {want_r}")
    return code


def doubling_params(n1: int, k1: int, t1: int, b1: int,
                    n2: int, k2: int, t2: int, b2: int) -> dict:
    """Symbolic type-check of a doubling plan (no blocks needed)."""
    s1, s2 = n1 - k1, n2 - k2
    if s1 != s2 or s1 < 1:
        raise ParameterError("complement weights must match and be positive")
    if min(t1, t2) < 1 or k1 < t1 or k2 < t2:
        raise ParameterError("need k_i >= t_i >= 1")
    L, s, r = n1 + n2, s1, t1 + t2 - 1
    if L < 2 * s + r + 1:
        raise ParameterError("doubled parameters are inadmissible")
    return {"L": L, "s": s, "r": r, "size": b1 + b2}


def design952_code(s: int, r: int, L: int | None = None) -> PpricCode:
    """The (9,5,2)-complement family plus r/2 (2,1)-supersets (4 | s, even r).

    Size 5 + 3r/2 on 9s/4 + r/2 * 3s/2 coordinates.  For r = 0 the family
    stands alone: its multihit profile beats its type guarantee, which the
    final verification confirms.
    """
    if r < 0 or r % 2:
        raise ParameterError("design952_code needs even r >= 0")
    if s % 4:
        raise ParameterError("design952_code needs 4 | s")
    td = build_superset(design_9_5_2(), s, offset=0)
    base_len = td.ground
    designs = [td]
    for _ in range(r // 2):
        d = build_superset(2, s, base_len)
        designs.append(d)
        base_len += d.ground
    if L is None:
        L = base_len
    if L < base_len:
        raise ParameterError(f"need L >= {base_len}")
    if len(designs) >= 2:
        return construction1(designs, L)
    # r = 0: single family; construct directly and verify
    params = SchemeParams(L, s, 0)
    words = tuple(BinaryWord.from_support(L, b) for b in td.blocks)
    return _verified(PpricCode(params, words))


def design422_code(s: int, r: int, L: int | None = None) -> PpricCode:
    """The all-pairs (4,2,2)-complement family plus r/2 (2,1)-supersets
    (2 | s, even r >= 2).  Size 6 + 3r/2 on 2s + r/2 * 3s/2 coordinates."""
    if r < 2 or r % 2:
        raise ParameterError("design422_code needs even r >= 2")
    if s % 2:
        raise ParameterError("design422_code needs 2 | s")
    td = build_superset(all_pairs_design(4), s, offset=0)
    base_len = td.ground
    designs = [td]
    for _ in range(r // 2):
        d = build_superset(2, s, base_len)
        designs.append(d)
        base_len += d.ground
    if L is None:
        L = base_len
    return construction1(designs, L)


# ---------------------------------------------------------------------------
# the recipe catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Recipe:
    rule: str
    size: int
    params: dict = field(default_factory=dict)

    def rule_label(self) -> str:
        if not self.params:
            return f"ub.{self.rule}"
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"ub.{self.rule}[{inner}]"

    def to_json_dict(self) -> dict:
        return {"rule": self.rule, **self.params}


def build_recipe(recipe: Recipe, L: int, s: int, r: int) -> PpricCode:
    """Replay a catalog entry into an actual verified code."""
    rule, p = recipe.rule, recipe.params
    if rule == "disjoint":
        return build_disjoint(L, s, r)
    if rule == "full":
        return build_full(L, s, r)
    if rule == "extremal":
        return build_extremal(s, r, L)
    if rule == "eps8":
        return build_eps8(s, L)
    if rule == "construction2":
        return construction2(L, s, r, p["k"], p["t"])
    if rule == "construction3":
        return construction3(L, s, r, p["k"], p["t"])
    if rule == "design952":
        code = design952_code(s, r)
    elif rule == "design422":
        code = design422_code(s, r)
    elif rule == "doubling":
        d = design_9_5_2() if p["seed"] == "9-5-2" else all_pairs_design(4)
        code = doubling(d, d)
    else:
        raise ParameterError(f"unknown recipe rule {rule!r}")
    return pad_coordinate(code, L - code.params.L) if L > code.params.L else code


def available_recipes(L: int, s: int, r: int) -> list[Recipe]:
    """Every catalog construction feasible at (L, s, r), sorted by size."""
    if s < 1 or r < 0 or L < 2 * s + r + 1:
        raise ParameterError("admissible parameters with s >= 1 required")
    rho = Fraction(L, s)
    out: list[Recipe] = [Recipe("full", binom(L, s))]
    if L >= max(2 * s + r + 1, (r + 3) * s):
        out.append(Recipe("disjoint", r + 3))
    if s > r:
        out.append(Recipe("extremal", extremal_size(s, r)))
    if r == 0 and s % 8 == 0 and 8 * L >= 17 * s:
        out.append(Recipe("eps8", 6))
    if r % 2 == 1:
        for k in range(1, s + 1):
            for t in range(0, (r + 1) // 2 + 1):
                plain = (r + 3) // 2 - t
                if plain > 0 and s % k:
                    continue
                if t > 0 and s % (k + 1):
                    continue
                need = Fraction((r + 3) * (k + 1), 2 * k) - Fraction(t, k * (k + 1))
                if rho >= need:
                    out.append(
                        Recipe("construction2", (r + 3) * (k + 1) // 2 + t,
                               {"k": k, "t": t})
                    )
    else:
        for k in range(1, s + 1):
            for t in range(0, r // 2 + 1):
                plain = (r + 2) // 2 - t
                if plain > 0 and s % k:
                    continue
                if t > 0 and s % (k + 1):
                    continue
                need = Fraction((r + 2) * (k + 1), 2 * k) - Fraction(t, k * (k + 1)) + 1
                if rho >= need:
                    out.append(
                        Recipe("construction3", (r + 2) * (k + 1) // 2 + t + 1,
                               {"k": k, "t": t})
                    )
        if s % 4 == 0 and 4 * L >= 9 * s + r * 3 * s:
            out.append(Recipe("design952", 5 + 3 * r // 2, {"u": r // 2}))
        if r >= 2 and s % 2 == 0 and 4 * L >= 8 * s + r * 3 * s:
            out.append(Recipe("design422", 6 + 3 * r // 2, {"u": r // 2}))
    if s == 4 and r == 3 and L >= 18:
        out.append(Recipe("doubling", 10, {"seed": "9-5-2"}))
    if s == 2 and r == 3 and L >= 8:
        out.append(Recipe("doubling", 12, {"seed": "4-2-2"}))
    out.sort(key=lambda rec: (rec.size, rec.rule_label()))
    return out
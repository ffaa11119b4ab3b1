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

RECIPES, the recipe table, has one row per construction family.  Its spec
says once when a plan is feasible, how big it is and how long it must be;
the catalog and every builder ask it.  Every construction returns its
output through ``codes.verified``, so the code comes back with its
``verdict`` already kept.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from .codes import PpricCode, min_multihit_sets, verified
from .cover import check_build
from .covering import (
    CoveringDesign,
    all_pairs_design,
    design_9_5_2,
    singleton_design,
    verify_covering,
)
from .errors import ConstructionError, ParameterError
from .words import BinaryWord, SchemeParams, _subsets, binom


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
        hits = min_multihit_sets(masks, range(1, s + 1))
        return all(res is not None and res[0] >= self.type_level + t
                   for t, res in hits.items())


# the (n, 1, 1) designs behind the (k,1)-supersets, built once each
_singletons = functools.cache(singleton_design)


def _base(base) -> CoveringDesign:
    """A superset base as a design: an int k stands for the (k+1, 1, 1) one."""
    if isinstance(base, int):
        if base < 1:
            raise ParameterError("superset parameter k must be >= 1")
        return _singletons(base + 1)
    if not isinstance(base, CoveringDesign):
        raise ParameterError("base must be a CoveringDesign or an int")
    return base


def _grain(base: CoveringDesign, s: int) -> int:
    """Coordinates per point when the complements of the blocks of ``base``
    (alpha = n - k points each) blow up to weight s."""
    alpha = base.n - base.k
    if alpha < 1:
        raise ParameterError("base design must have k < n")
    if s % alpha:
        raise ParameterError(f"grain mismatch: {alpha} does not divide s={s}")
    return s // alpha


def build_superset(base, s: int, offset: int = 0) -> TypedDesign:
    """Typed family from a covering design (or the integer k shorthand).

    ``base`` is either an (n, n-alpha, ell) covering design -- its
    complements, grain-expanded to weight s, form a family of type ell --
    or an int k, shorthand for the (k+1, 1, 1) design of all singletons
    (the "(k,1)-superset": k+1 blocks of weight s on (k+1)s/k coordinates,
    type 1).
    """
    base = _base(base)
    if not verify_covering(base):
        raise ParameterError("base design does not cover its t-subsets")
    grain = _grain(base, s)
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
    if not td.validate_type():
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
    return verified(PpricCode(params, words))


# ---------------------------------------------------------------------------
# named constructions
# ---------------------------------------------------------------------------

def build_disjoint(L: int, s: int, r: int) -> PpricCode:
    """r+3 pairwise-disjoint supports laid left to right: r+3 single blocks
    side by side."""
    return _build("disjoint", L, s, r)


def build_full(L: int, s: int, r: int) -> PpricCode:
    """Every weight-s word; the universal fallback scheme."""
    return _build("full", L, s, r)


def build_extremal(s: int, r: int, L: int | None = None) -> PpricCode:
    """All s-subsets of each half of a near-even split of 2s+r+1 coordinates.

    Needs s > r.  The minimum length is 2s+r+1; a larger L pads with
    always-zero coordinates.
    """
    return _build("extremal", L, s, r)


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
    return _build("eps8", L, s, 0)


def construction2(L: int, s: int, r: int, k: int, t: int) -> PpricCode:
    """Odd r: t (k+1,1)-supersets plus (r+3)/2 - t (k,1)-supersets,
    disjoint, left to right.  Size (r+3)(k+1)/2 + t."""
    return _build("construction2", L, s, r, k=k, t=t)


def construction3(L: int, s: int, r: int, k: int, t: int) -> PpricCode:
    """Even r: the construction2 layout for r+2 minus one superset, plus a
    single disjoint codeword.  Size (r+2)(k+1)/2 + t + 1."""
    return _build("construction3", L, s, r, k=k, t=t)


def design952_code(s: int, r: int, L: int | None = None) -> PpricCode:
    """The (9,5,2)-complement family plus r/2 (2,1)-supersets (4 | s, even r).

    Size 5 + 3r/2 on 9s/4 + r/2 * 3s/2 coordinates.  For r = 0 the family
    stands alone: its multihit profile beats its type guarantee, which the
    final verification confirms.
    """
    return _build("design952", L, s, r, u=r // 2)


def design422_code(s: int, r: int, L: int | None = None) -> PpricCode:
    """The all-pairs (4,2,2)-complement family plus r/2 (2,1)-supersets
    (2 | s, even r >= 2).  Size 6 + 3r/2 on 2s + r/2 * 3s/2 coordinates."""
    return _build("design422", L, s, r, u=r // 2)


def doubling(design1: CoveringDesign, design2: CoveringDesign, L: int | None = None) -> PpricCode:
    """Glue the complement families of two covering designs side by side.

    From verified (n1, n1-s, t1) and (n2, n2-s, t2) designs the union is an
    (n1+n2, s, t1+t2-1) code of size b1 + b2.
    """
    plan = doubling_params(design1.n, design1.k, design1.t, design1.size,
                           design2.n, design2.k, design2.t, design2.size)
    s = plan["s"]
    families = [build_superset(design1, s), build_superset(design2, s, design1.n)]
    code = construction1(families, plan["L"] if L is None else L)
    if (code.params.r, code.size) != (plan["r"], plan["size"]):
        raise ConstructionError(f"doubling missed its plan {plan}")
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


# ---------------------------------------------------------------------------
# the recipe table
# ---------------------------------------------------------------------------

def _bare(s: int, r: int) -> tuple[dict, ...]:
    """The one plan of a family without parameters."""
    return ({},)


@dataclass(frozen=True)
class Family:
    """One row of the recipe table.

    ``plans(s, r)`` are the family's plans at s and r.  ``spec(L, s, r,
    **plan)`` gives a plan's size and least length, or raises
    ParameterError when the plan does not fit s and r.  ``make`` builds a
    plan that both admit, verified, at length L.
    """

    rule: str
    spec: Callable[..., tuple[int, int]]
    make: Callable[..., PpricCode]
    plans: Callable[[int, int], Iterable[dict]] = _bare

    def fit(self, L: int | None, s: int, r: int,
            plan: dict) -> tuple[int, int]:
        """(size, length) of ``plan``; L None stands for the least length."""
        size, least = self.spec(L, s, r, **plan)
        if L is None:
            return size, least
        if L < least:
            raise ParameterError(f"{self.rule} needs L >= {least}, got L={L}")
        return size, L


def _full_code(L: int, s: int, r: int) -> PpricCode:
    # the search's candidate pool, with no elements
    check_build(binom(L, s), 0)
    words = tuple(BinaryWord(L, m) for m in _subsets((1 << L) - 1, s))
    # admissibility alone guarantees this one
    return PpricCode(SchemeParams(L, s, r), words)


def _extremal_code(L: int, s: int, r: int) -> PpricCode:
    # coordinates 1..half1, then half1+1..2s+r+1
    first = (1 << (2 * s + r + 1) // 2) - 1
    halves = (first, ((1 << 2 * s + r + 1) - 1) ^ first)
    words = tuple(BinaryWord(L, m) for half in halves
                  for m in _subsets(half, s))
    return verified(PpricCode(SchemeParams(L, s, r), words))


def _eps8_spec(L: int, s: int, r: int) -> tuple[int, int]:
    if r or s < 8 or s % 8:
        raise ParameterError("eps8 needs r = 0 and a positive multiple of 8")
    return 6, 17 * s // 8


# the six regions' ends in units of s/8, and the regions of each codeword
_EPS8_ENDS = (0, 1, 6, 9, 11, 13, 17)
_EPS8_WORDS = ((0, 1, 3), (0, 1, 4), (0, 2, 3, 4), (0, 2, 5), (1, 2), (3, 4, 5))


def _eps8_code(L: int, s: int, r: int) -> PpricCode:
    u = s // 8
    regions = [range(a * u + 1, b * u + 1)
               for a, b in zip(_EPS8_ENDS, _EPS8_ENDS[1:])]
    words = tuple(
        BinaryWord.from_support(L, [c for i in picks for c in regions[i]])
        for picks in _EPS8_WORDS
    )
    return verified(PpricCode(SchemeParams(L, s, r), words))


def _chain_family(rule: str, layout, plans=_bare) -> Family:
    """A family of superset families laid side by side, left to right.

    ``layout(r, **plan)`` gives their bases (covering designs, or k for the
    (k,1)-superset) and how many single blocks end the row.
    """
    def spec(L, s, r, **plan):
        if s < 1:
            raise ParameterError("block weight must be >= 1")
        bases, singles = layout(r, **plan)
        size, ground = singles, singles * s
        for base in map(_base, bases):
            size += base.size
            ground += base.n * _grain(base, s)
        return size, ground

    def make(L, s, r, **plan):
        bases, singles = layout(r, **plan)
        designs = []
        offset = 0
        for base in bases:
            designs.append(build_superset(base, s, offset))
            offset += designs[-1].ground
        for _ in range(singles):  # one weight-s block: a family of type 0
            block = frozenset(range(offset + 1, offset + s + 1))
            designs.append(TypedDesign(offset, s, 0, (block,)))
            offset += s
        if len(designs) > 1:
            return construction1(designs, L)
        # a seed family alone: no type theorem covers it, verification does
        words = tuple(BinaryWord.from_support(L, b) for b in designs[0].blocks)
        return verified(PpricCode(SchemeParams(L, s, r), words))

    return Family(rule, spec, make, plans)


def _supersets(rule: str, odd: bool) -> Family:
    """Constructions 2 (odd r) and 3 (even r): p = (r+3)//2 superset
    families, t < p of them (k+1,1)- and the rest (k,1)-supersets; even r
    adds one single block."""
    def layout(r: int, k: int, t: int):
        return [k + 1] * t + [k] * ((r + 3) // 2 - t), int(not odd)

    def plans(s: int, r: int) -> list[dict]:
        if r % 2 != odd:
            return []
        return [{"k": k, "t": t}
                for k in range(1, s + 1) for t in range((r + 3) // 2)]

    return _chain_family(rule, layout, plans)


# seed designs of the design-seeded and doubling families, by label
_SEEDS = {"9-5-2": design_9_5_2(), "4-2-2": all_pairs_design(4)}


def _seeded(rule: str, seed: str, least_r: int) -> Family:
    """The complement family of a seed design plus u (2,1)-supersets, for
    r = 2u >= least_r; the grain of each base fixes what must divide s."""
    def layout(r: int, u: int):
        return [_SEEDS[seed]] + [2] * u, 0

    def plans(s: int, r: int) -> list[dict]:
        return [{"u": r // 2}] if r % 2 == 0 and r >= least_r else []

    return _chain_family(rule, layout, plans)


RECIPES = {family.rule: family for family in (
    Family("full", lambda L, s, r: (binom(L, s), 2 * s + r + 1), _full_code),
    _chain_family("disjoint", lambda r: ([], r + 3)),
    Family("extremal", lambda L, s, r: (extremal_size(s, r), 2 * s + r + 1),
           _extremal_code),
    Family("eps8", _eps8_spec, _eps8_code),
    _supersets("construction2", odd=True),
    _supersets("construction3", odd=False),
    _seeded("design952", "9-5-2", 0),
    # alone, the six all-pairs words are too few at L/s < 17/8 (lb.r0.special)
    _seeded("design422", "4-2-2", 2),
    # two copies of a seed design side by side: s = n - k, r = 2t - 1
    _chain_family("doubling", lambda r, seed: ([_SEEDS[seed]] * 2, 0),
                  lambda s, r: [{"seed": seed} for seed, d in _SEEDS.items()
                                if (s, r) == (d.n - d.k, 2 * d.t - 1)]),
)}


def _build(rule: str, L: int | None, s: int, r: int, **plan) -> PpricCode:
    """Build ``plan`` of family ``rule`` at length L (None: the least)."""
    family = RECIPES.get(rule)
    if family is None:
        raise ParameterError(f"unknown recipe rule {rule!r}")
    if plan not in family.plans(s, r):
        raise ParameterError(f"{rule} has no plan {plan} at s={s}, r={r}")
    size, L = family.fit(L, s, r, plan)
    code = family.make(L, s, r, **plan)
    if code.size != size:
        raise ConstructionError(
            f"{rule} built {code.size} codewords, planned {size}")
    return code


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
    return _build(recipe.rule, L, s, r, **recipe.params)


def available_recipes(L: int, s: int, r: int) -> list[Recipe]:
    """Every catalog construction feasible at (L, s, r), sorted by size."""
    if s < 1 or r < 0 or L < 2 * s + r + 1:
        raise ParameterError("admissible parameters with s >= 1 required")
    out: list[Recipe] = []
    for family in RECIPES.values():
        for plan in family.plans(s, r):
            try:
                size, _ = family.fit(L, s, r, plan)
            except ParameterError:
                continue
            out.append(Recipe(family.rule, size, plan))
    out.sort(key=lambda rec: (rec.size, rec.rule_label()))
    return out

"""Exhaustive determination of N(L, s, r) on small instances.

The reformulation that drives the search: a weight-s code is PPRIC iff
for every gamma in 1..min(s, (L-r+1)//2) and every coordinate set P of
size min(r+2*gamma, L), some codeword c satisfies |P n supp(c)| < gamma.
(Hitting sets only grow under padding, so checking the top size per
gamma suffices.)  Each such (gamma, P) pair is an element to be covered,
and a candidate codeword covers it when |P n supp(c)| < gamma.
Finding N is then a minimum set cover, searched by the engine in
``cover`` with the first codeword pinned to support {1..s} by
coordinate-permutation symmetry.

The search is bracket first: when the smallest catalog code meets the
paper's best lower bound it is the witness, relabelled to start with
{1..s}, and no instance is built; otherwise the witness is the engine's
(the first tree cover below its greedy cover, else the greedy cover).
Every witness passes ``codes.verified`` before being returned, so it
comes back with its ``verdict`` already kept.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import bounds
from .codes import PpricCode, _gamma_range, mippr_min_weight, verified
from .construct import available_recipes, build_recipe
from .cover import DEFAULT_NODE_BUDGET, Budget, Cover, check_build
from .errors import CapacityError, ParameterError
from .jsondoc import JsonDoc
from .words import (BinaryWord, SchemeParams, _at_most, _bit_planes,
                    _count, _subsets, _within, binom)


@dataclass(frozen=True)
class SearchResult(JsonDoc):
    params: SchemeParams
    n_exact: int
    witness: PpricCode
    nodes_explored: int

    def to_json_dict(self) -> dict:
        return {
            "L": self.params.L,
            "s": self.params.s,
            "r": self.params.r,
            "n_exact": self.n_exact,
            "nodes_explored": self.nodes_explored,
            "witness": self.witness.to_json_dict(),
        }


class _Space(Cover):
    """Candidate pool plus the per-gamma element universes, as a cover
    instance: candidate i is the weight-s word pool[i]."""

    def __init__(self, L: int, s: int, r: int):
        self.params = SchemeParams(L, s, r)
        widths = [(g, min(r + 2 * g, L)) for g in _gamma_range(L, s, r)]
        check_build(binom(L, s), sum(binom(L, w) for _, w in widths))
        full = (1 << L) - 1
        self.pool = list(_subsets(full, s))
        # one segment per gamma: the width-w coordinate sets P, bound gamma;
        # every coordinate permutation maps the instance onto itself
        super().__init__(self.pool, [(list(_subsets(full, w)), g)
                                     for g, w in widths], [full])

    def make_code(self, indices) -> PpricCode:
        """The code on the given pool indices, verified."""
        L = self.params.L
        return verified(PpricCode(self.params, tuple(
            BinaryWord(L, self.pool[i]) for i in indices)))


def _pinned(code: PpricCode) -> PpricCode:
    """The code with its first codeword's support renamed to 1..s and the
    other coordinates after it in their order, its codewords sorted into
    the candidate pool's order; verified, as a new code object."""
    L = code.params.L
    first = code.codewords[0].mask
    order = sorted(range(L), key=lambda c: not first >> c & 1)
    supports = sorted(
        [i for i, c in enumerate(order) if w.mask >> c & 1]
        for w in code.codewords)
    return verified(PpricCode(code.params, tuple(
        BinaryWord(L, sum(1 << c for c in supp)) for supp in supports)))


def exact_n_search(L: int, s: int, r: int, size_cap: int | None = None,
                   node_budget: int = DEFAULT_NODE_BUDGET) -> SearchResult:
    """Minimum PPRIC code size, with witness, bracket first.

    The paper's best lower bound opens the bracket.  When the smallest
    catalog recipe meets it, the witness is that code, relabelled so its
    first codeword has support {1..s}, and no tree is searched.  Otherwise
    ``Cover.solve`` takes over with the first codeword pinned to {1..s}:
    the witness is the first cover its tree finds below the greedy size,
    or else the greedy cover.  Deterministic for fixed parameters.  The
    node budget counts tree work only, candidates tried plus handler rows
    intersected at the last pick, so ``nodes_explored`` is 0 when the
    bracket closes without a tree.
    """
    budget = Budget(node_budget)
    params = SchemeParams(L, s, r)
    if s == 0:
        return SearchResult(params, 1,
                            verified(PpricCode(params, (BinaryWord(L, 0),))), 0)
    lower = bounds.best_lower(L, s, r)
    if size_cap is not None and size_cap < lower:
        raise ParameterError(f"size_cap {size_cap} below the lower bound {lower}")
    catalog = available_recipes(L, s, r)[0]
    if catalog.size == lower:
        return SearchResult(params, lower,
                            _pinned(build_recipe(catalog, L, s, r)), 0)
    space = _Space(L, s, r)
    top = len(space.pool) if size_cap is None else min(size_cap, len(space.pool))
    hit = space.solve(lower, top, budget)
    if hit is None:
        raise CapacityError(f"no code within size cap {top}")
    return SearchResult(params, len(hit), space.make_code(hit), budget.nodes)


def minimal_codes_enumerate(L: int, s: int, r: int, m: int,
                            node_budget: int = DEFAULT_NODE_BUDGET) -> list[PpricCode]:
    """All size-m codes whose first codeword has support {1..s}.

    With m = N(L,s,r) this is every minimum code up to the first-codeword
    normalization.  Below the proven lower bound the answer is empty with
    no search spent; above the true minimum a ParameterError is raised as
    soon as a smaller cover shows up mid-branch.
    """
    budget = Budget(node_budget)
    params = SchemeParams(L, s, r)
    if m < 1:
        raise ParameterError("m must be positive")
    if s == 0:
        code = PpricCode(params, (BinaryWord(L, 0),))
        return [code] if m == 1 else []
    if m < bounds.best_lower(L, s, r):
        return []
    space = _Space(L, s, r)
    found = space.collect(m, budget)
    return [space.make_code(ix) for ix in found]


def _minimal_intersection_weights(code: PpricCode) -> dict[int, int]:
    """Weight multiset of all support-minimal intersection words, by a
    scan of F_2^L in bit lanes, lane index = mask.

    ``hits`` holds the words meeting every support (never the empty
    word); one of them is not minimal when dropping some bit c leaves a
    word of ``hits``, that is when it is a lane of ``hits`` without bit c
    moved up by 2^c.
    """
    L = code.params.L
    one = _bit_planes(L)
    hits = (1 << (1 << L)) - 1
    for m in code.masks():
        hits ^= _at_most([p for c, p in enumerate(one) if m >> c & 1], 0, hits)
    minimal = hits
    for c, p in enumerate(one):
        minimal &= ~(((hits & ~p) << (1 << c)) & p)
    lane_weights = _count(one)
    weights: dict[int, int] = {}
    below = 0  # minimal words lighter than w
    for w in range(L + 1):
        count = _within(lane_weights, w, minimal).bit_count()
        if count > below:
            weights[w], below = count - below, count
    return weights


@dataclass
class ProbeReport:
    params: SchemeParams
    n_exact: int
    min_weights: list[int]
    weight_multisets: list[dict[int, int]] | None
    expected: int

    @property
    def min_weight_always_expected(self) -> bool:
        return all(w == self.expected for w in self.min_weights)

    @property
    def all_weights_expected(self) -> bool | None:
        if self.weight_multisets is None:
            return None
        return all(
            set(ms) == {self.expected} for ms in self.weight_multisets
        )

    def to_json_dict(self) -> dict:
        return {
            "L": self.params.L,
            "s": self.params.s,
            "r": self.params.r,
            "n_exact": self.n_exact,
            "expected_weight": self.expected,
            "min_mippr_weights": self.min_weights,
            "weight_multisets": (
                None
                if self.weight_multisets is None
                else [{str(k): v for k, v in sorted(ms.items())}
                      for ms in self.weight_multisets]
            ),
            "min_weight_always_expected": self.min_weight_always_expected,
            "all_weights_expected": self.all_weights_expected,
        }


def conjecture_probe(L: int, s: int, r: int,
                     node_budget: int = DEFAULT_NODE_BUDGET) -> ProbeReport:
    """Minimum intersection-word weights over every minimum code.

    Reports whether the observed weights equal r+3; records outcomes
    without asserting either conjecture.
    """
    if s == 0:
        raise ParameterError("weightless codes have no intersection words")
    res = exact_n_search(L, s, r, node_budget=node_budget)
    codes = minimal_codes_enumerate(L, s, r, res.n_exact, node_budget=node_budget)
    min_weights = [mippr_min_weight(code) for code in codes]
    multisets = None
    if L <= 20:
        multisets = [_minimal_intersection_weights(code) for code in codes]
    return ProbeReport(res.params, res.n_exact, min_weights, multisets, r + 3)
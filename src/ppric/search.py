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

Every witness is re-checked with verify_exact before being returned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import bounds
from .codes import PpricCode, _gamma_range, mippr_min_weight, verify_exact
from .cover import DEFAULT_NODE_BUDGET, POOL_CAP, UNIVERSE_CAP, Budget, Cover
from .errors import CapacityError, ParameterError
from .jsondoc import JsonDoc
from .words import BinaryWord, SchemeParams, binom


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
        if binom(L, s) > POOL_CAP:
            raise CapacityError(
                f"candidate pool C({L},{s}) = {binom(L, s)} exceeds {POOL_CAP}"
            )
        self.pool = [
            sum(1 << c for c in supp)
            for supp in itertools.combinations(range(L), s)
        ]
        gammas = _gamma_range(L, s, r)
        widths = [min(r + 2 * g, L) for g in gammas]
        if sum(binom(L, w) for w in widths) > UNIVERSE_CAP:
            raise CapacityError("element universe exceeds the search cap")

        # one segment per gamma: the width-w coordinate sets P, bound gamma;
        # every coordinate permutation maps the instance onto itself
        super().__init__(self.pool, [
            ([sum(1 << c for c in P)
              for P in itertools.combinations(range(L), w)], g)
            for g, w in zip(gammas, widths)
        ], [(1 << L) - 1])

    def make_code(self, indices) -> PpricCode:
        """The code on the given pool indices, re-checked with verify_exact."""
        L = self.params.L
        words = tuple(BinaryWord(L, self.pool[i]) for i in indices)
        code = PpricCode(self.params, words)
        if not verify_exact(code).is_ppric:
            raise AssertionError(
                "universe bookkeeping disagrees with verify_exact; "
                f"offending index tuple {tuple(indices)}"
            )
        return code


def exact_n_search(L: int, s: int, r: int, size_cap: int | None = None,
                   node_budget: int = DEFAULT_NODE_BUDGET) -> SearchResult:
    """Minimum PPRIC code size by iterative deepening, with witness.

    The first codeword is pinned to support {1..s}; the rest are found by
    the element-branching tree, so the witness is the first completion in
    that fixed order.  Deterministic for fixed parameters.  The node
    budget covers the whole run.
    """
    params = SchemeParams(L, s, r)
    if s == 0:
        code = PpricCode(params, (BinaryWord(L, 0),))
        if not verify_exact(code).is_ppric:
            raise AssertionError("the one-word code fails verify_exact")
        return SearchResult(params, 1, code, 1)
    lower = bounds.best_lower(L, s, r)
    if size_cap is not None and size_cap < lower:
        raise ParameterError(f"size_cap {size_cap} below the lower bound {lower}")
    space = _Space(L, s, r)
    top = len(space.pool) if size_cap is None else min(size_cap, len(space.pool))
    budget = Budget(node_budget)
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
    params = SchemeParams(L, s, r)
    if m < 1:
        raise ParameterError("m must be positive")
    if s == 0:
        code = PpricCode(params, (BinaryWord(L, 0),))
        return [code] if m == 1 else []
    if m < bounds.best_lower(L, s, r):
        return []
    space = _Space(L, s, r)
    found = space.collect(m, Budget(node_budget))
    return [space.make_code(ix) for ix in found]


def _minimal_intersection_weights(code: PpricCode) -> dict[int, int]:
    """Weight multiset of all support-minimal intersection words, by a
    scan of all 2^L words."""
    L = code.params.L
    masks = code.masks()
    hits_all = [False] * (1 << L)
    for v in range(1, 1 << L):
        hits_all[v] = all(v & c for c in masks)
    weights: dict[int, int] = {}
    for v in range(1, 1 << L):
        if not hits_all[v]:
            continue
        minimal = True
        vv = v
        while vv:
            low = vv & -vv
            if hits_all[v ^ low]:
                minimal = False
                break
            vv ^= low
        if minimal:
            w = v.bit_count()
            weights[w] = weights.get(w, 0) + 1
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
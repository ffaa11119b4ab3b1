"""Checks made apart from the program, for the benchmark's outputs.

Nothing here imports ppric.  Words of F_2^L are ints (bit i is coordinate
i+1), and a set of words is a 2^L-bit int whose bit y stands for word y.
The ball identity B(0, r) = intersection of B(c, r+s) over the code is then
checked over all 2^L words at once, by translating the ball bitset with
XOR butterflies.

Expected values come from the paper's formulas (lower bounds, recipe
sizes, the privacy level, the 2r+3 Johnson theorem), from published
covering numbers, and, for N(9, 3, 1) = 7, from the exhaustive search in
``code_of_size_exists``, which the self-tests run.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# 2^22-bit sets are 512 KiB; one translated ball costs L shifts of that.
SCAN_MAX_L = 22

# N(L, s, r) where no paper lower bound reaches the minimum.  N(9, 3, 1) = 7:
# a 7-word witness passes the scan, and ``code_of_size_exists(9, 3, 1, 6)``
# finds no 6-word code (test_checks.py); ``ppric search --L 9 --s 3 --r 1``
# re-derives it.
BACKED_N = {(9, 3, 1): 7}

# Covering numbers c(n, k, t) from the La Jolla Covering Repository
# (D. Gordon), which lists them as proven minima.
PUBLISHED_COVERING = {(8, 3, 2): 11, (9, 4, 2): 8}


# ---------------------------------------------------------------------------
# all-words scan
# ---------------------------------------------------------------------------

class WordSpace:
    """Weight classes and butterfly masks of F_2^L as 2^L-bit sets."""

    def __init__(self, L: int):
        if not 1 <= L <= SCAN_MAX_L:
            raise ValueError(f"scan needs 1 <= L <= {SCAN_MAX_L}, got {L}")
        self.L = L
        classes = [1]  # length 0: the empty word, weight 0
        for ell in range(L):
            shift = 1 << ell
            classes = [
                (classes[w] if w < len(classes) else 0)
                | ((classes[w - 1] << shift) if w else 0)
                for w in range(len(classes) + 1)
            ]
        self.classes = classes
        nbits = 1 << L
        self.full = (1 << nbits) - 1
        # low[j] holds every word whose bit j is 0, grown by doubling
        self.low = []
        for j in range(L):
            step = 1 << j
            pattern, width = (1 << step) - 1, 2 * step
            while width < nbits:
                pattern |= pattern << width
                width *= 2
            self.low.append(pattern)

    def ball(self, radius: int) -> int:
        out = 0
        for w in range(min(radius, self.L) + 1):
            out |= self.classes[w]
        return out

    def translate(self, words: int, c: int) -> int:
        """{y ^ c : y in words}."""
        for j in range(self.L):
            if c >> j & 1:
                step, low = 1 << j, self.low[j]
                words = ((words & low) << step) | ((words >> step) & low)
        return words


_spaces: dict[int, WordSpace] = {}


def word_space(L: int) -> WordSpace:
    if L not in _spaces:
        _spaces[L] = WordSpace(L)
    return _spaces[L]


def scan_violators(L: int, s: int, r: int, masks) -> int:
    """Set of words outside B(0, r) but inside every B(c, r+s)."""
    ws = word_space(L)
    big = ws.ball(r + s)
    inside = ws.full
    for c in masks:
        inside &= ws.translate(big, c)
    return inside & ~ws.ball(r)


def scan_holds(L: int, s: int, r: int, masks) -> bool:
    return scan_violators(L, s, r, masks) == 0


def is_violator(y: int, masks, s: int, r: int) -> bool:
    """Weight above r, yet within r+s of every codeword."""
    return y.bit_count() > r and all(
        (y ^ c).bit_count() <= r + s for c in masks
    )


def code_of_size_exists(L: int, s: int, r: int, m: int) -> bool:
    """Is there an m-word weight-s code passing the scan?  Exhaustive.

    Candidate c expels the words of the scan's target (all words outside
    B(0, r)) that lie outside B(c, r+s); a code passes iff its words expel
    the whole target.  The first word is pinned to {1..s}, since coordinate
    permutations act transitively on weight-s words and keep the property.
    The tree branches on the target word with the fewest usable expellers
    and bans each tried expeller in the later siblings, so every code is
    reached once.
    """
    ws = word_space(L)
    big = ws.ball(r + s)
    target = ws.full & ~ws.ball(r)
    pool = [sum(1 << c for c in supp)
            for supp in itertools.combinations(range(L), s)]
    expel = [target & ~ws.translate(big, c) for c in pool]
    handlers = {}
    for i, e in enumerate(expel):
        while e:
            low = e & -e
            handlers[low] = handlers.get(low, 0) | (1 << i)
            e ^= low
    most = max(e.bit_count() for e in expel)

    def extend(left: int, alive: int, slots: int) -> bool:
        if not left:
            return True
        if slots == 0 or left.bit_count() > slots * most:
            return False
        best = None
        u = left
        while u:
            low = u & -u
            u ^= low
            h = handlers.get(low, 0) & alive
            if not h:
                return False
            if best is None or h.bit_count() < best.bit_count():
                best = h
        while best:
            low = best & -best
            best ^= low
            i = low.bit_length() - 1
            if extend(left & ~expel[i], alive & ~low, slots - 1):
                return True
            alive &= ~low
        return False

    return extend(target & ~expel[0], ((1 << len(pool)) - 1) & ~1, m - 1)


# ---------------------------------------------------------------------------
# the paper's bounds and formulas
# ---------------------------------------------------------------------------

def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def lower_bounds(L: int, s: int, r: int) -> dict[str, int]:
    """The paper's lower bounds on N(L, s, r) that apply at the point."""
    rho = Fraction(L, s)
    out = {"repeat": max(_ceil_div((r + 3 - k) * L**k, (L - s) ** k)
                         for k in range(r + 2))}
    mills = r + 3
    if rho < r + 3:
        for m in range(3 * (r + 3) // 2, r + 3, -1):
            if rho < Fraction(3 * r + 10 - m, 2):
                mills = m
                break
    out["mills"] = mills
    if r % 2 and Fraction(9 * r + 25, 12) <= rho < Fraction(3 * r + 9, 4):
        out["todorov1"] = (3 * r + 11) // 2
    if r % 2 == 0 and Fraction(3 * r + 9, 4) <= rho < Fraction(3 * r + 10, 4):
        out["todorov2"] = (3 * r + 10) // 2
    if r % 2 == 0 and Fraction(3 * r + 8, 4) <= rho < Fraction(3 * r + 9, 4):
        out["todorov3"] = (3 * r + 12) // 2
    if r == 0 and 2 <= rho < Fraction(17, 8):
        out["r0"] = 7
    return out


def extremal_size(s: int, r: int) -> int:
    """All s-subsets of two halves of 2s+r+1 coordinates."""
    lo = (2 * s + r + 1) // 2
    return math.comb(lo, s) + math.comb(2 * s + r + 1 - lo, s)


def construction2_size(r: int, k: int, t: int) -> int:
    return (r + 3) * (k + 1) // 2 + t


def construction3_size(r: int, k: int, t: int) -> int:
    return (r + 2) * (k + 1) // 2 + t + 1


def privacy_level(L: int, s: int) -> float:
    return math.log2(math.comb(L, s)) / L


# ---------------------------------------------------------------------------
# the benchmark's own catalog codes (lists of masks)
# ---------------------------------------------------------------------------

def _span(lo: int, hi: int) -> int:
    return ((1 << (hi - lo)) - 1) << lo


def disjoint_code(s: int, r: int) -> list[int]:
    """r+3 pairwise disjoint supports, left to right."""
    return [_span(i * s, (i + 1) * s) for i in range(r + 3)]


def extremal_code(s: int, r: int) -> list[int]:
    """All s-subsets of each half of a split of 2s+r+1 coordinates."""
    n = 2 * s + r + 1
    half = n // 2
    return [sum(1 << c for c in supp)
            for lo, hi in ((0, half), (half, n))
            for supp in itertools.combinations(range(lo, hi), s)]


def _superset(k: int, s: int, offset: int) -> tuple[list[int], int]:
    """(k,1)-superset: k+1 grains of s/k coordinates, one left out per word."""
    grain = s // k
    grains = [_span(offset + i * grain, offset + (i + 1) * grain)
              for i in range(k + 1)]
    whole = _span(offset, offset + (k + 1) * grain)
    return [whole & ~g for g in grains], offset + (k + 1) * grain


def superset_code(r: int, k: int, s: int, families: int,
                  single: bool) -> list[int]:
    """``families`` (k,1)-supersets side by side, plus one lone codeword.

    With t = 0 this is construction 2 (odd r, (r+3)/2 families) and
    construction 3 (even r, (r+2)/2 families and the lone word).
    """
    words, offset = [], 0
    for _ in range(families):
        fam, offset = _superset(k, s, offset)
        words.extend(fam)
    if single:
        words.append(_span(offset, offset + s))
    return words


def to_strings(L: int, masks) -> list[str]:
    return ["".join("1" if c >> i & 1 else "0" for i in range(L))
            for c in masks]


def from_string(text: str) -> int:
    return sum(1 << i for i, ch in enumerate(text) if ch == "1")


# ---------------------------------------------------------------------------
# output checks; each returns a list of problems, empty when all is well
# ---------------------------------------------------------------------------

def check_words(doc: dict, L: int, s: int, r: int,
                size: int | None = None) -> list[str]:
    """A code document: length L, weight s, distinct words, given size."""
    bad = []
    if (doc.get("L"), doc.get("s"), doc.get("r")) != (L, s, r):
        bad.append(f"parameters {doc.get('L'), doc.get('s'), doc.get('r')}")
    words = doc.get("codewords", [])
    if any(len(w) != L or set(w) - {"0", "1"} for w in words):
        bad.append("a codeword is not a length-L bit string")
    if any(w.count("1") != s for w in words):
        bad.append("a codeword does not have weight s")
    if len(set(words)) != len(words):
        bad.append("repeated codewords")
    if size is not None and len(words) != size:
        bad.append(f"{len(words)} codewords, formula says {size}")
    return bad


def check_valid_code(doc: dict, L: int, s: int, r: int) -> list[str]:
    """Scan where it fits; the paper's recipe is the warrant elsewhere."""
    if L > SCAN_MAX_L:
        return []
    masks = [from_string(w) for w in doc["codewords"]]
    if not scan_holds(L, s, r, masks):
        return ["code fails the all-words scan"]
    return []


def check_search(doc: dict, L: int, s: int, r: int) -> list[str]:
    bad = check_words(doc.get("witness", {}), L, s, r, doc.get("n_exact"))
    if bad:
        return bad
    n = doc["n_exact"]
    masks = [from_string(w) for w in doc["witness"]["codewords"]]
    if not scan_holds(L, s, r, masks):
        bad.append("witness fails the all-words scan")
    low = max(lower_bounds(L, s, r).values())
    if n < low:
        bad.append(f"N = {n} is below the paper's lower bound {low}")
    elif n != low and BACKED_N.get((L, s, r)) != n:
        bad.append(f"N = {n} is neither the lower bound {low} nor backed")
    return bad


def check_covering(doc: dict, n: int, k: int, t: int) -> list[str]:
    want = PUBLISHED_COVERING[(n, k, t)]
    if doc.get("c") != want:
        return [f"c({n},{k},{t}) = {doc.get('c')}, published {want}"]
    return []


def check_johnson(doc: dict, n: int, L: int, s: int, r: int) -> list[str]:
    # the CLI prints "size" as 2r+3 whatever it found, so only "confirmed"
    # says anything about the program
    if doc.get("confirmed") is not True:
        return [f"johnson check at {(n, L, s, r)} did not confirm 2r+3"]
    return []


def check_verdict(doc: dict, masks, L: int, s: int, r: int,
                  expect: bool) -> list[str]:
    """A ``verify`` document against the scan, or the gamma criterion."""
    bad = []
    if doc.get("is_ppric") is not expect:
        bad.append(f"verdict {doc.get('is_ppric')}, expected {expect}")
    if L <= SCAN_MAX_L and scan_holds(L, s, r, masks) is not expect:
        bad.append("scan disagrees with the expected verdict")
    if not expect:
        viol = doc.get("violator")
        if viol is None or len(viol) != L:
            bad.append("no violator given")
        elif not is_violator(from_string(viol), masks, s, r):
            bad.append(f"{viol} is not a violator")
    elif L > SCAN_MAX_L:
        gammas = range(1, min(s, (L - r + 1) // 2) + 1)
        prof = {int(g): h for g, h in doc.get("gamma_profile", {}).items()}
        if sorted(prof) != list(gammas):
            bad.append("gamma profile has the wrong gammas")
        elif any(prof[g] <= min(r + 2 * g, L) for g in gammas):
            bad.append("gamma profile admits a violator")
    return bad


def neighbourhood(records, x: int, radius: int) -> set[int]:
    """1-based indices of the records within ``radius`` of x."""
    return {m for m, y in enumerate(records, start=1)
            if (x ^ y).bit_count() <= radius}


def check_transcript(reconstructed, queries, level, records, x: int, L: int,
                     s: int, r: int, size: int) -> list[str]:
    """A transcript's reconstructed indices, query words (ints) and privacy
    level, against the records the benchmark generated."""
    bad = []
    if set(reconstructed) != neighbourhood(records, x, r):
        bad.append("reconstruction differs from the brute-force neighbourhood")
    if len(queries) != size:
        bad.append(f"{len(queries)} queries for {size} servers")
    if any((q ^ x).bit_count() != s for q in queries):
        bad.append("a query is not at distance s from the user point")
    if level is None or abs(level - privacy_level(L, s)) > 1e-12:
        bad.append(f"privacy level {level}")
    return bad

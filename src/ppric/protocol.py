"""Seeded simulation of the multi-server private proximity retrieval scheme.

One server per codeword.  The user draws a random coordinate permutation,
applies it to every codeword (the same permutation for all servers, which
is what the privacy analysis assumes), translates by the user's own word,
and sends each server one proximity query of radius r+s.  Each server
answers with its database records within the radius, and the
intersection of the answers is exactly the radius-r neighborhood of the
user's word whenever the code verifies.

A server answers with one scan over its whole database, bit-sliced
across records (Biham, FSE 1997).  A query's features are (coordinate,
symbol) pairs: every coordinate of a Hamming-scheme word with its bit or
symbol, and each element e of a Johnson word as coordinate e-1 with
symbol 1.  For each symbol a query asks about, the database keeps, built
on its first use, one M-bit "lacks" plane per coordinate j, whose bit m-1
is set when record m does *not* carry that symbol at j.  For binary and
Johnson records that is one ``words._transpose`` of the records' masks of
the coordinates holding the symbol, so a symbol costs O(M*L) once.  For
q-ary records one pass over the records lays out their symbols, bit-sliced
into log2(q) "digit" planes per coordinate; a symbol's plane at j is then
the OR of the digit planes at j that differ from the symbol's digits, so
the first query costs about what a binary one does and the alphabet size
matters only through log2(q).  The distance from the query to record m is the number of
features the record lacks, so the scan adds the query's planes into the
vertical ripple-carry counter ``words._at_most``, which the identity
scans in ``schemes`` share, and compares the counter with the radius bit
by bit.  The answer is the resulting record mask, and reconstruction
ANDs the masks; ``records_of`` turns a mask into record indices, walking
only the set bits of a sparse mask.

Whether the intersection is right depends on the code alone, not on the
query, so the check reads the code's cached ``verdict``: each code object
is verified once, by the construction or search that built it or on its
first use here.  A code that fails is refused on every call;
``allow_unverified`` skips the check.

Randomness comes from splitmix64 (Steele, Lea, and Flood's 64-bit mixer)
driving a Fisher-Yates shuffle, so a transcript is reproducible from its
seed on any platform.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

from .codes import PpricCode
from .errors import FormatError, ParameterError, read_text
from .jsondoc import JsonDoc
from .schemes import JohnsonPpricCode
from .words import (_DIGITS, BinaryWord, JohnsonWord, QaryWord, _at_most,
                    _transpose, binom)

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64 stream: 64-bit golden-gamma counter plus a finalizer."""

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:
            raise ParameterError("seed must fit in 64 unsigned bits")
        self._state = seed

    def next64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform draw from 0..bound-1 by rejection."""
        if not 0 < bound <= _MASK64 + 1:
            raise ParameterError("bound must be in 1..2**64")
        limit = _MASK64 + 1 - ((_MASK64 + 1) % bound)
        while True:
            draw = self.next64()
            if draw < limit:
                return draw % bound


def shuffled(items, rng: SplitMix64) -> list:
    """Fisher-Yates, consuming one bounded draw per step."""
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.below(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


# ---------------------------------------------------------------------------
# database and transcript objects
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Database:
    """Replicated record store; every server sees the same copy.

    Records are 1-based: answers and reconstructions speak in indices
    m = 1..M.
    """

    records: tuple

    def __post_init__(self):
        if not self.records:
            raise ParameterError("a database needs at least one record")
        first = self.records[0]
        shape = _shape(first)
        for rec in self.records[1:]:
            if type(rec) is not type(first):
                raise ParameterError("mixed record kinds in one database")
            if _shape(rec) != shape:
                raise ParameterError(
                    f"mixed record shapes in one database: {_shape(rec)} "
                    f"after {shape}"
                )

    @property
    def size(self) -> int:
        return len(self.records)

    @functools.cached_property
    def _full(self) -> int:
        return (1 << len(self.records)) - 1

    @functools.cached_property
    def _lacks(self) -> dict[int, list[int]]:
        """symbol -> its "lacks" planes, filled by ``_lacking``."""
        return {}

    @functools.cached_property
    def _digits(self) -> list[list[int]]:
        """For q-ary records, entry j: per bit k of a symbol, the records
        whose symbol at coordinate j has bit k set, bit m-1 for record m.
        One pass lays every symbol out in fixed bytes, last record first,
        so the bytes of one coordinate are a strided slice."""
        first = self.records[0]
        bits = (first.q - 1).bit_length()
        size = bits + 7 >> 3
        rows = reversed(self.records)
        flat = (bytes(itertools.chain.from_iterable(w.symbols for w in rows))
                if size == 1 else b"".join(a.to_bytes(size, "little")
                                           for w in rows for a in w.symbols))
        step = first.length * size
        return [[int(flat[j * size + (k >> 3)::step].translate(_DIGITS[k & 7]),
                     2) for k in range(bits)] for j in range(first.length)]

    def _lacking(self, symbol: int) -> list[int]:
        """Entry j: bit m-1 set iff record m does not carry ``symbol`` at
        coordinate j, kept from first use: one transpose of the records'
        masks, or for q-ary records the digit planes that differ from the
        symbol's, ORed."""
        planes = self._lacks.get(symbol)
        if planes is None:
            first, full = self.records[0], self._full
            if isinstance(first, QaryWord):
                planes = [functools.reduce(operator.or_, (
                    d ^ full if symbol >> k & 1 else d
                    for k, d in enumerate(digits))) for digits in self._digits]
            else:
                width = first.n if isinstance(first, JohnsonWord) else first.length
                held = [_holding(w, symbol) for w in self.records]
                planes = [full ^ p for p in _transpose(held, width)]
            self._lacks[symbol] = planes
        return planes

    def record(self, m: int):
        if not 1 <= m <= len(self.records):
            raise ParameterError(f"record index {m} out of 1..{len(self.records)}")
        return self.records[m - 1]

    def neighborhood(self, x, radius: int) -> frozenset[int]:
        """Ground-truth index set { m : d(x, record m) <= radius }."""
        return records_of(server_answer(self, Query(x, radius)))

    @classmethod
    def from_text(cls, text: str, kind: str = "binary", q: int = 2,
                  n: int = 0) -> "Database":
        """One word per line; blank lines and '#' comments are skipped.  A
        bad, out-of-range or differently shaped word is a FormatError."""
        parse = {"binary": BinaryWord.from_string,
                 "qary": functools.partial(QaryWord.from_string, q),
                 "johnson": functools.partial(JohnsonWord.from_string, n)}
        if kind not in parse:
            raise ParameterError(f"unknown record kind {kind!r}")
        if kind == "qary" and q < 2:
            raise ParameterError("alphabet size q must be >= 2")
        records = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                word = parse[kind](line)
                # one kind, q and n: the length is all that can differ
                if records and word.length != records[0].length:
                    raise FormatError(f"record of length {word.length} after "
                                      f"length {records[0].length}")
            except (FormatError, ParameterError) as exc:
                raise FormatError(str(exc), line=lineno) from exc
            records.append(word)
        if not records:
            raise FormatError("no records in database text")
        return cls(tuple(records))


def _shape(word) -> tuple:
    """What a query and a record must share to be compared."""
    if isinstance(word, BinaryWord):
        return ("binary", word.length)
    if isinstance(word, QaryWord):
        return ("qary", word.q, word.length)
    if isinstance(word, JohnsonWord):
        return ("johnson", word.n, word.length)
    raise ParameterError(f"not a scheme word: {word!r}")


def _holding(word, symbol: int) -> int:
    """Mask of the coordinates at which a binary or Johnson ``word``
    carries ``symbol``: bit j for coordinate j+1 of a binary word, bit e-1
    for element e of a Johnson word (whose elements carry symbol 1)."""
    if isinstance(word, BinaryWord):
        return word.mask if symbol else word.mask ^ ((1 << word.length) - 1)
    return sum(1 << e - 1 for e in word.elements)


def _features(word) -> list[tuple[int, int]]:
    """(coordinate, symbol) pairs; a record's distance is how many it lacks."""
    if isinstance(word, BinaryWord):
        return [(j, word.mask >> j & 1) for j in range(word.length)]
    if isinstance(word, QaryWord):
        return list(enumerate(word.symbols))
    return [(e - 1, 1) for e in word.elements]


# a mask's bits, printed as '0' or '1', become bytes 0 or 1
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def records_of(mask: int) -> frozenset[int]:
    """Record indices of a record mask: bit m-1 stands for record m."""
    bits = format(mask, "b")[::-1]
    # below one set bit in five the split walk is the faster of the two
    if mask.bit_count() * 5 < mask.bit_length():
        # the k-th set bit (from 1) is record k plus the zeros below it
        gaps = map(len, bits.split("1")[:-1])
        return frozenset(map(operator.add, itertools.accumulate(gaps),
                             itertools.count(1)))
    return frozenset(itertools.compress(itertools.count(1),
                                        bits.encode().translate(_BIT_BYTES)))


def load_database(path: str, kind: str = "binary", q: int = 2,
                  n: int = 0) -> Database:
    return Database.from_text(read_text(path), kind=kind, q=q, n=n)


@dataclass(frozen=True)
class Query:
    vector: object
    radius: int

    def to_json_dict(self) -> dict:
        return {"vector": self.vector.to_string(), "radius": self.radius}


@dataclass(frozen=True)
class ProtocolTranscript(JsonDoc):
    seed: int
    permutation: object
    queries: tuple[Query, ...]
    answer_masks: tuple[int, ...]
    reconstructed: frozenset[int]
    privacy_level: float | None

    @property
    def answers(self) -> tuple[frozenset[int], ...]:
        """Each server's answer as record indices."""
        return tuple(map(records_of, self.answer_masks))

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "permutation": self.permutation,
            "queries": [qu.to_json_dict() for qu in self.queries],
            "answers": [sorted(a) for a in self.answers],
            "reconstructed": sorted(self.reconstructed),
            "privacy_level": self.privacy_level,
        }


# ---------------------------------------------------------------------------
# query generation
# ---------------------------------------------------------------------------

def _hamming_queries(x, code: PpricCode, rng: SplitMix64):
    """Each codeword under one shared shuffle, translated by x: XOR for a
    binary x, +1 mod q on the codeword's ones for a q-ary x."""
    L = code.params.L
    radius = code.params.r + code.params.s
    perm = shuffled(range(L), rng)
    queries = []
    for z in code.masks():
        pz = 0
        for dst in range(L):
            pz |= (z >> perm[dst] & 1) << dst
        if isinstance(x, BinaryWord):
            word = BinaryWord(L, x.mask ^ pz)
        else:
            word = QaryWord(x.q, tuple((a + (pz >> dst & 1)) % x.q
                                       for dst, a in enumerate(x.symbols)))
        queries.append(Query(word, radius))
    return [p + 1 for p in perm], queries


def _johnson_queries(x: JohnsonWord, code: JohnsonPpricCode, rng: SplitMix64):
    """Relabel the canonical code onto x with two independent shuffles.

    Center elements map to a shuffled copy of x's elements, the rest to a
    shuffled copy of the complement, so every query stays at Johnson
    distance s from x and pairwise distances among queries match the
    codewords'.
    """
    if x.n != code.n or x.length != code.L:
        raise ParameterError("record does not live in the code's J(n, L)")
    inside = shuffled(sorted(x.elements), rng)
    outside = shuffled(sorted(set(range(1, x.n + 1)) - x.elements), rng)
    relabel = {}
    for canon, img in zip(sorted(code.x.elements), inside):
        relabel[canon] = img
    rest = sorted(set(range(1, code.n + 1)) - code.x.elements)
    for canon, img in zip(rest, outside):
        relabel[canon] = img
    radius = code.r + code.s
    queries = [
        Query(JohnsonWord(x.n, frozenset(relabel[e] for e in v.elements)),
              radius)
        for v in code.codewords
    ]
    return {"inside": inside, "outside": outside}, queries


def _queries(x, code, rng: SplitMix64):
    """The permutation drawn and one query per codeword, in x's scheme."""
    if isinstance(x, JohnsonWord):
        return _johnson_queries(x, code, rng)
    return _hamming_queries(x, code, rng)


def _check_code(x, code, allow_unverified: bool):
    if isinstance(x, (BinaryWord, QaryWord)):
        # a binary-verified code stays valid over any larger alphabet
        if not isinstance(code, PpricCode):
            raise ParameterError("expected a Hamming-scheme code")
        if x.length != code.params.L:
            raise ParameterError(
                f"record length {x.length} != code length {code.params.L}"
            )
    elif isinstance(x, JohnsonWord):
        if not isinstance(code, JohnsonPpricCode):
            raise ParameterError("expected a Johnson-scheme code")
    else:
        raise ParameterError(f"not a scheme word: {x!r}")
    if not (allow_unverified or code.verdict.is_ppric):
        raise ParameterError(
            "code failed verification; pass allow_unverified=True to "
            "simulate with it anyway"
        )


def generate_queries(x, code, seed: int,
                     allow_unverified: bool = False) -> list[Query]:
    """One query per codeword: the shared shuffle applied, then translated.

    Deterministic for a fixed seed.  The code must verify (once per code
    object) unless the caller explicitly opts out (the opt-out exists so
    that broken codes can be demonstrated end to end).
    """
    _check_code(x, code, allow_unverified)
    return _queries(x, code, SplitMix64(seed))[1]


def server_answer(db: Database, query: Query) -> int:
    """Mask of the records within the query radius, bit m-1 for record m;
    one server's whole job.

    One bit-sliced scan over every record at once (see the module
    docstring).
    """
    shape, records = _shape(query.vector), _shape(db.records[0])
    if shape != records:
        raise ParameterError(
            f"query {shape} does not match the database's records {records}"
        )
    lacking = db._lacking
    planes = [lacking(a)[j] for j, a in _features(query.vector)]
    return _at_most(planes, query.radius, db._full)


def reconstruct(masks) -> int:
    """The records in every server's answer: the AND of the answer masks."""
    masks = list(masks)
    if not masks:
        raise ParameterError("reconstruction needs at least one answer")
    return functools.reduce(operator.and_, masks)


def privacy_level(L: int, s: int) -> float:
    """Per-server privacy log2(binom(L, s)) / L for the binary scheme."""
    if L < 1 or not 0 <= s <= L:
        raise ParameterError("need L >= 1 and 0 <= s <= L")
    return math.log2(binom(L, s)) / L


def run_simulation(db: Database, x, r: int, code, seed: int,
                   allow_unverified: bool = False) -> ProtocolTranscript:
    """Full pipeline: queries, per-server answers, intersection, privacy.

    The privacy level is the binary-scheme formula; for q-ary and Johnson
    runs it is None, since no analogue is on record.
    """
    _check_code(x, code, allow_unverified)
    rng = SplitMix64(seed)
    code_r = code.r if isinstance(x, JohnsonWord) else code.params.r
    if r != code_r:
        raise ParameterError(f"requested radius {r} != code radius {code_r}")
    perm, queries = _queries(x, code, rng)
    privacy = None
    if isinstance(x, BinaryWord):
        privacy = privacy_level(code.params.L, code.params.s)
    masks = tuple(server_answer(db, qu) for qu in queries)
    return ProtocolTranscript(
        seed=seed,
        permutation=perm,
        queries=tuple(queries),
        answer_masks=masks,
        reconstructed=records_of(reconstruct(masks)),
        privacy_level=privacy,
    )

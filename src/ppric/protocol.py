"""Seeded simulation of the multi-server private proximity retrieval scheme.

One server per codeword.  The user draws a random coordinate permutation,
applies it to every codeword (the same permutation for all servers, which
is what the privacy analysis assumes), translates by the user's own word,
and sends each server one proximity query of radius r+s.  Each server
answers with its database records within the radius, and the
intersection of the answers is exactly the radius-r neighborhood of the
user's word whenever the code verifies.

A server answers with one column scan over its whole database, bit-sliced
across records (Biham, FSE 1997).  Every record is written as one row of
characters: a binary word's bits, a q-ary word's symbols, or a Johnson
word's characteristic vector over {1..n}.  For each column j and
character c the database keeps, built on first use, one M-bit int whose
bit m-1 is set when record m does *not* carry c in column j.  A query's
features are (column, character) pairs: every column of a Hamming-scheme
word, and the element columns of a Johnson word with character "1".  The
distance from the query to record m is the number of features the record
lacks, so the scan adds the query's "lacks" planes into the vertical
ripple-carry counter ``words._at_most``, which the identity scans in
``schemes`` share, and compares the counter with the radius bit by bit.
The answer is the resulting record mask, and reconstruction ANDs the
masks; ``records_of`` turns a mask into record indices, walking only the
set bits of a sparse mask.

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
from .words import BinaryWord, JohnsonWord, QaryWord, _at_most, binom

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
        if bound <= 0:
            raise ParameterError("bound must be positive")
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
    def _columns(self) -> _Columns:
        return _Columns(self.records)

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


def _rows(words) -> list[str]:
    """Each word of one shape as a row of characters, one per column.

    Column j holds coordinate L-j of a binary word, chr() of symbol j+1 of
    a q-ary word, and "1" for a Johnson word exactly when element n-j
    belongs to it.
    """
    kind, first, *_ = _shape(words[0])
    if kind == "binary":
        fmt = f"0{first}b"
        return [format(w.mask, fmt) for w in words]
    if kind == "qary":
        return ["".join(map(chr, w.symbols)) for w in words]
    fmt = f"0{first}b"
    return [format(sum(1 << (e - 1) for e in w.elements), fmt) for w in words]


def _features(word) -> list[tuple[int, str]]:
    """(column, character) pairs; a record's distance is how many it lacks."""
    if isinstance(word, JohnsonWord):
        return [(word.n - e, "1") for e in word.elements]
    return list(enumerate(_rows([word])[0]))


class _Columns:
    """The database transposed: one string per column, planes on demand."""

    def __init__(self, records):
        self.shape = _shape(records[0])
        rows = _rows(records)
        width = len(rows[0])
        text = "".join(rows)
        self.size = len(rows)
        self.full = (1 << self.size) - 1
        # reversed, so that record m lands on bit m-1 of int(column, 2)
        self.columns = [text[j::width][::-1] for j in range(width)]
        alphabet = set(text) if self.shape[0] == "qary" else "01"
        # every character in the columns marks a lack unless overridden
        self._lacking = dict.fromkeys(map(ord, alphabet), "1")
        self._planes = {}

    def lacks(self, column: int, char: str) -> int:
        """Bit m-1 set iff record m does not carry ``char`` in ``column``."""
        key = (column, char)
        plane = self._planes.get(key)
        if plane is None:
            table = {**self._lacking, ord(char): "0"}
            plane = int(self.columns[column].translate(table), 2)
            self._planes[key] = plane
        return plane


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

    One bit-sliced column scan over every record at once (see the module
    docstring).
    """
    index = db._columns
    shape = _shape(query.vector)
    if shape != index.shape:
        raise ParameterError(
            f"query {shape} does not match the database's records "
            f"{index.shape}"
        )
    planes = (index.lacks(j, c) for j, c in _features(query.vector))
    return _at_most(planes, query.radius, index.full)


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

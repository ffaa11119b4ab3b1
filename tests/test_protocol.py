import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ppric import codes, protocol, schemes
from ppric.codes import PpricCode, make_code, verify_exact
from ppric.construct import build_disjoint
from ppric.errors import CapacityError, FormatError, ParameterError
from ppric.protocol import (
    Database,
    Query,
    SplitMix64,
    generate_queries,
    privacy_level,
    reconstruct,
    records_of,
    run_simulation,
    server_answer,
    shuffled,
)
from ppric.schemes import johnson_construction
from ppric.search import exact_n_search
from ppric.words import (BinaryWord, JohnsonWord, QaryWord, _transpose,
                         diameter, distance)


# -- rng ---------------------------------------------------------------

def test_splitmix_deterministic():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next64() for _ in range(5)] == [b.next64() for _ in range(5)]
    assert all(0 <= SplitMix64(7).next64() <= (1 << 64) - 1 for _ in range(3))


def test_splitmix_streams_differ():
    assert SplitMix64(1).next64() != SplitMix64(2).next64()


def test_splitmix_seed_range():
    SplitMix64(0)
    SplitMix64((1 << 64) - 1)
    with pytest.raises(ParameterError):
        SplitMix64(-1)
    with pytest.raises(ParameterError):
        SplitMix64(1 << 64)


def test_below():
    rng = SplitMix64(9)
    draws = [rng.below(10) for _ in range(200)]
    assert all(0 <= d < 10 for d in draws)
    assert len(set(draws)) == 10  # 200 draws hit every residue
    assert SplitMix64(3).below(1) == 0
    assert 0 <= SplitMix64(0).below(2**64) < 2**64
    # past 2**64 no draw could be uniform: refused, not an endless loop
    with pytest.raises(ParameterError):
        SplitMix64(0).below(2**64 + 1)
    with pytest.raises(ParameterError):
        rng.below(0)


def test_shuffled():
    items = list(range(12))
    once = shuffled(items, SplitMix64(5))
    again = shuffled(items, SplitMix64(5))
    assert once == again
    assert sorted(once) == items
    assert items == list(range(12))  # input untouched


# -- database ----------------------------------------------------------

DB_TEXT = """\
# three record store
0110
1001

0000
"""


def test_from_text():
    db = Database.from_text(DB_TEXT)
    assert db.size == 3
    assert db.record(1) == BinaryWord.from_string("0110")
    assert db.record(3) == BinaryWord.from_string("0000")
    with pytest.raises(ParameterError):
        db.record(0)
    with pytest.raises(ParameterError):
        db.record(4)


def test_from_text_reports_line():
    with pytest.raises(FormatError) as exc:
        Database.from_text("0110\n01x0\n")
    assert "line 2" in str(exc.value)


@pytest.mark.parametrize("text,kind", [
    # an element out of range, a symbol out of range
    ("{1,3,5}\n{1,9,2}\n", {"kind": "johnson", "n": 6}),
    ("0,1,2\n0,5,1\n", {"kind": "qary", "q": 3}),
    # a record shaped unlike line 1
    ("0101\n011\n", {}),
    ("0,1,2\n0,1\n", {"kind": "qary", "q": 3}),
    ("{1,2}\n{1,2,3}\n", {"kind": "johnson", "n": 6}),
])
def test_from_text_reports_line_of_a_bad_record(text, kind):
    with pytest.raises(FormatError, match="^line 2: "):
        Database.from_text(text, **kind)


def test_from_text_bad_parameters_stay_parameter_errors():
    with pytest.raises(ParameterError, match="record kind"):
        Database.from_text("0101\n", kind="ternary")
    with pytest.raises(ParameterError, match="alphabet size"):
        Database.from_text("0,0\n", kind="qary", q=1)


def test_from_text_empty():
    with pytest.raises(FormatError):
        Database.from_text("# only a comment\n\n")


def test_from_text_other_kinds():
    db3 = Database.from_text("0,1,2\n2,1,0\n", kind="qary", q=3)
    assert db3.record(2) == QaryWord(3, (2, 1, 0))
    dbj = Database.from_text("{1,3,5}\n{2,4,6}\n", kind="johnson", n=6)
    assert dbj.record(1) == JohnsonWord(6, frozenset({1, 3, 5}))


def test_mixed_kinds_rejected():
    with pytest.raises(ParameterError):
        Database((BinaryWord(4, 3), QaryWord(3, (0, 1, 2, 0))))
    # one kind, mixed shapes
    with pytest.raises(ParameterError):
        Database((BinaryWord(4, 3), BinaryWord(5, 3)))
    with pytest.raises(ParameterError):
        Database((QaryWord(3, (0, 1, 2)), QaryWord(4, (0, 1, 2))))
    with pytest.raises(ParameterError):
        Database((QaryWord(3, (0, 1, 2)), QaryWord(3, (0, 1))))
    with pytest.raises(ParameterError):
        Database((JohnsonWord(8, frozenset({1, 2})),
                  JohnsonWord(9, frozenset({1, 2}))))
    with pytest.raises(ParameterError):
        Database((JohnsonWord(8, frozenset({1, 2})),
                  JohnsonWord(8, frozenset({1, 2, 3}))))


def test_neighborhood():
    db = Database.from_text("0110\n1001\n0000\n0100\n")
    x = BinaryWord.from_string("0110")
    assert db.neighborhood(x, 0) == {1}
    assert db.neighborhood(x, 1) == {1, 4}
    assert db.neighborhood(x, 4) == {1, 2, 3, 4}


# -- the column scan against the distance oracle ------------------------

SCAN_KINDS = [("binary", 2), ("qary", 3), ("qary", 5), ("qary", 2_000_000),
              ("johnson", 2)]


def random_word(kind, q, L, n, rnd):
    if kind == "binary":
        return BinaryWord(L, rnd.getrandbits(L))
    if kind == "qary":
        return QaryWord(q, tuple(rnd.randrange(q) for _ in range(L)))
    return JohnsonWord(n, frozenset(rnd.sample(range(1, n + 1), L)))


def assert_scan_matches_oracle(records, x, radius, diam):
    got = server_answer(Database(tuple(records)), Query(x, radius))
    assert isinstance(got, int)
    truth = {m for m, rec in enumerate(records, start=1)
             if distance(x, rec) <= radius}
    assert records_of(got) == truth
    # bit m-1 of the mask is record m
    assert got == sum(1 << (m - 1) for m in truth)
    if radius < 0:
        assert got == 0
    if radius >= diam:
        assert got == (1 << len(records)) - 1


@pytest.mark.parametrize("size", [1, 7, 8, 9, 300])
@pytest.mark.parametrize("kind,q", SCAN_KINDS)
@settings(max_examples=25, deadline=None)
@given(L=st.integers(1, 9), extra=st.integers(0, 3),
       seed=st.integers(0, 2**32), data=st.data())
def test_scan_matches_distance_oracle(kind, q, size, L, extra, seed, data):
    rnd = random.Random(seed)
    n = 2 * L + extra
    x = random_word(kind, q, L, n, rnd)
    records = [random_word(kind, q, L, n, rnd) for _ in range(size)]
    records[rnd.randrange(size)] = x  # one record equals the query
    diam = diameter(kind, L, n=n)
    radius = data.draw(st.sampled_from([-1, 0, diam, diam + 2])
                       | st.integers(0, diam), label="radius")
    assert_scan_matches_oracle(records, x, radius, diam)


@pytest.mark.parametrize("kind,q,n,texts,x", [
    # symbols at and past 0x110000, beyond chr()
    ("qary", 2_000_000, 0, ["0,1500000", "1114112,7", "1999999,1500000"],
     "1114112,1500000"),
    # query symbols 3 and 4 are carried by no record
    ("qary", 5, 0, ["0,1,2", "1,1,1", "2,4,0"], "4,3,0"),
    # elements 7 and 8 are held by no record
    ("johnson", 2, 8, ["{1,2,3}", "{2,3,4}", "{4,5,6}"], "{1,7,8}"),
])
def test_scan_matches_distance_oracle_on_rare_symbols(kind, q, n, texts, x):
    def parse(*lines):
        return Database.from_text("\n".join(lines), kind=kind, q=q, n=n)
    x = parse(x).record(1)
    diam = diameter(kind, x.length, n=n)
    for radius in range(-1, diam + 2):
        assert_scan_matches_oracle(parse(*texts).records, x, radius, diam)


def symbols_of(word):
    """A record's symbol at each coordinate: a Johnson word's elements
    carry symbol 1, the rest of 1..n symbol 0."""
    if isinstance(word, BinaryWord):
        return [word.mask >> j & 1 for j in range(word.length)]
    if isinstance(word, QaryWord):
        return list(word.symbols)
    return [int(e in word.elements) for e in range(1, word.n + 1)]


@pytest.mark.parametrize("kind,q,L,n", [
    pytest.param("binary", 2, 11, 0, id="binary"),
    pytest.param("johnson", 2, 5, 12, id="johnson"),
    pytest.param("qary", 3, 11, 0, id="3"),
    pytest.param("qary", 5, 11, 0, id="5"),
])
def test_qary_planes_match_the_per_symbol_transpose(kind, q, L, n):
    # the digit planes give every symbol's planes; each equals the
    # transpose of the records' masks of the coordinates holding it
    rnd = random.Random(q + n)
    records = tuple(random_word(kind, q, L, n, rnd) for _ in range(300))
    db = Database(records)
    full = (1 << len(records)) - 1
    width = len(symbols_of(records[0]))
    for a in range(q):
        held = [sum(1 << j for j, b in enumerate(symbols_of(w)) if b == a)
                for w in records]
        assert db._lacking(a) == [full ^ p for p in _transpose(held, width)]


def test_a_binary_database_transposes_its_records_once(monkeypatch):
    # both symbols' planes come from the one layout of the records
    calls = []

    def counted(masks, width):
        calls.append(width)
        return _transpose(masks, width)

    monkeypatch.setattr(protocol, "_transpose", counted)
    records = [BinaryWord(9, m) for m in random.Random(4).choices(
        range(1 << 9), k=50)]
    db = Database(tuple(records))
    x = BinaryWord(9, 0b101100101)
    for radius in range(5):
        truth = {m for m, rec in enumerate(records, start=1)
                 if distance(x, rec) <= radius}
        assert records_of(server_answer(db, Query(x, radius))) == truth
    assert calls == [9]


def test_scan_rejects_a_query_of_another_shape():
    db = Database.from_text("0,1,2\n2,1,0\n", kind="qary", q=3)
    with pytest.raises(ParameterError):
        server_answer(db, Query(QaryWord(4, (0, 1, 2)), 1))
    with pytest.raises(ParameterError):
        server_answer(db, Query(BinaryWord(3, 0), 1))


def test_johnson_point_against_a_binary_database():
    with pytest.raises(ParameterError):
        run_simulation(Database.from_text("11110000\n"),
                       JohnsonWord.from_string(8, "{1,2,3,4}"), 0,
                       johnson_construction(8, 4, 1, 0), seed=1)


# -- end to end reconstruction -----------------------------------------

def random_binary_db(L, count, seed):
    rnd = random.Random(seed)
    words = [BinaryWord(L, rnd.getrandbits(L)) for _ in range(count)]
    return Database(tuple(words))


def test_binary_reconstruction_matches_ground_truth():
    code = exact_n_search(7, 2, 1).witness
    db = random_binary_db(7, 60, seed=101)
    rnd = random.Random(202)
    for trial in range(6):
        x = BinaryWord(7, rnd.getrandbits(7))
        tr = run_simulation(db, x, 1, code, seed=1000 + trial)
        assert tr.reconstructed == db.neighborhood(x, 1), (
            f"trial {trial}: x={x.to_string()}"
        )


def test_qary_reconstruction_matches_ground_truth():
    code = exact_n_search(7, 2, 1).witness
    rnd = random.Random(77)
    words = [
        QaryWord(3, tuple(rnd.randrange(3) for _ in range(7)))
        for _ in range(50)
    ]
    db = Database(tuple(words))
    for trial in range(4):
        x = QaryWord(3, tuple(rnd.randrange(3) for _ in range(7)))
        tr = run_simulation(db, x, 1, code, seed=50 + trial)
        assert tr.reconstructed == db.neighborhood(x, 1)
        assert tr.privacy_level is None


def test_johnson_reconstruction_matches_ground_truth():
    code = johnson_construction(14, 5, 1, 1)
    rnd = random.Random(13)
    universe = list(range(1, 15))
    words = [
        JohnsonWord(14, frozenset(rnd.sample(universe, 5))) for _ in range(40)
    ]
    db = Database(tuple(words))
    for trial in range(3):
        x = JohnsonWord(14, frozenset(rnd.sample(universe, 5)))
        tr = run_simulation(db, x, 1, code, seed=900 + trial)
        assert tr.reconstructed == db.neighborhood(x, 1)
        assert tr.privacy_level is None
        assert set(tr.permutation) == {"inside", "outside"}


def test_johnson_code_verified_up_to_the_scan_cap():
    # J(22,11) has 705,432 words, within SCAN_CAP: the code is verified,
    # not refused, with no opt-out
    code = johnson_construction(22, 11, 1, 1)
    rnd = random.Random(22)
    universe = list(range(1, 23))
    x = JohnsonWord(22, frozenset(range(1, 12)))
    near = JohnsonWord(22, frozenset(range(2, 13)))  # distance 1 from x
    db = Database((near,) + tuple(
        JohnsonWord(22, frozenset(rnd.sample(universe, 11)))
        for _ in range(30)))
    tr = run_simulation(db, x, 1, code, seed=5)
    assert 1 in tr.reconstructed  # record 1 is near
    assert tr.reconstructed == db.neighborhood(x, 1)


def test_queries_preserve_pairwise_distances():
    # one shared permutation: queries inherit the codeword geometry
    code = exact_n_search(7, 2, 1).witness
    x = BinaryWord.from_string("1010101")
    queries = generate_queries(x, code, seed=31)
    words = code.codewords
    n = len(words)
    for i in range(n):
        assert distance(queries[i].vector, x) == 2  # weight s survives
        for j in range(i + 1, n):
            assert distance(queries[i].vector, queries[j].vector) == \
                distance(words[i], words[j])


def test_byte_determinism():
    code = build_disjoint(6, 2, 0)
    db = random_binary_db(6, 20, seed=5)
    x = BinaryWord.from_string("110000")
    one = run_simulation(db, x, 0, code, seed=321)
    two = run_simulation(db, x, 0, code, seed=321)
    assert one.dumps(pretty=True) == two.dumps(pretty=True)
    other = run_simulation(db, x, 0, code, seed=322)
    assert other.permutation != one.permutation


def test_answers_are_per_server():
    code = build_disjoint(6, 2, 0)
    db = random_binary_db(6, 20, seed=5)
    x = BinaryWord.from_string("000011")
    tr = run_simulation(db, x, 0, code, seed=11)
    assert len(tr.answer_masks) == code.size
    for qu, mask in zip(tr.queries, tr.answer_masks):
        assert server_answer(db, qu) == mask
    assert tr.answers == tuple(map(records_of, tr.answer_masks))
    assert tr.reconstructed == frozenset.intersection(*tr.answers)


# -- privacy -----------------------------------------------------------

def test_privacy_pinned_values():
    assert privacy_level(16, 4) == pytest.approx(0.6768576709428786, abs=1e-12)
    assert privacy_level(17, 8) == pytest.approx(0.8570154278185936, abs=1e-12)
    assert privacy_level(4, 0) == 0.0
    with pytest.raises(ParameterError):
        privacy_level(4, 5)


def test_transcript_carries_privacy():
    code = build_disjoint(6, 2, 0)
    db = random_binary_db(6, 8, seed=1)
    tr = run_simulation(db, BinaryWord(6, 0), 0, code, seed=4)
    assert tr.privacy_level == pytest.approx(privacy_level(6, 2))


# -- guard rails -------------------------------------------------------

def test_unverified_code_rejected():
    bad = make_code(5, 2, 0, [{1, 2}, {1, 3}, {1, 4}, {1, 5}])
    db = random_binary_db(5, 6, seed=9)
    x = BinaryWord(5, 0)
    with pytest.raises(ParameterError):
        run_simulation(db, x, 0, bad, seed=1)
    tr = run_simulation(db, x, 0, bad, seed=1, allow_unverified=True)
    assert tr.queries  # ran anyway once the caller opted in


# -- each code object is verified once --------------------------------

@pytest.fixture
def verifier_calls(monkeypatch):
    """Calls to each verifier from here on, counted by name."""
    calls = {"verify_exact": 0, "johnson_verify": 0}
    for module, name in ((codes, "verify_exact"), (schemes, "johnson_verify")):
        def counted(code, *args, _real=getattr(module, name), _name=name):
            calls[_name] += 1
            return _real(code, *args)
        monkeypatch.setattr(module, name, counted)
    return calls


def disjoint_code():
    """A new object each call: three disjoint pairs, a PPRIC (6,2,0) code."""
    return make_code(6, 2, 0, [{1, 2}, {3, 4}, {5, 6}])


def test_a_code_object_is_verified_once(verifier_calls):
    code = disjoint_code()
    db = random_binary_db(6, 8, seed=1)
    x = BinaryWord(6, 0b100101)
    transcripts = [run_simulation(db, x, 0, code, seed=sd) for sd in (1, 2, 3)]
    assert verifier_calls["verify_exact"] == 1
    # generate_queries shares the one verification
    assert generate_queries(x, code, seed=2) == list(transcripts[1].queries)
    assert verifier_calls["verify_exact"] == 1
    assert verifier_calls["johnson_verify"] == 0


def test_a_johnson_code_object_is_verified_once(verifier_calls):
    code = johnson_construction(10, 5, 1, 0)
    assert verifier_calls["johnson_verify"] == 1  # the construction's check
    x = JohnsonWord(10, frozenset(range(1, 6)))
    db = Database((x, JohnsonWord(10, frozenset(range(2, 7)))))
    for sd in (1, 2, 3):
        assert run_simulation(db, x, 0, code, seed=sd).reconstructed == {1}
    generate_queries(x, code, seed=4)
    # the simulations read the verdict the construction kept
    assert verifier_calls["johnson_verify"] == 1
    assert verifier_calls["verify_exact"] == 0


def test_a_constructed_code_object_is_verified_once(verifier_calls):
    code = build_disjoint(6, 2, 0)
    assert verifier_calls["verify_exact"] == 1  # the construction's check
    db = random_binary_db(6, 8, seed=1)
    x = BinaryWord(6, 0b100101)
    for sd in (1, 2, 3):
        run_simulation(db, x, 0, code, seed=sd)
    generate_queries(x, code, seed=4)
    assert verifier_calls == {"verify_exact": 1, "johnson_verify": 0}


def test_a_search_witness_is_not_verified_again(verifier_calls):
    witness = exact_n_search(7, 3, 0).witness
    searched = verifier_calls["verify_exact"]
    db = random_binary_db(7, 8, seed=2)
    run_simulation(db, BinaryWord(7, 0), 0, witness, seed=1)
    assert verifier_calls["verify_exact"] == searched


def test_a_failing_code_is_refused_on_every_call(verifier_calls):
    bad = make_code(5, 2, 0, [{1, 2}, {1, 3}, {1, 4}, {1, 5}])
    db = random_binary_db(5, 6, seed=9)
    x = BinaryWord(5, 0)
    for sd in (1, 2, 3):
        with pytest.raises(ParameterError):
            run_simulation(db, x, 0, bad, seed=sd)
        with pytest.raises(ParameterError):
            generate_queries(x, bad, seed=sd)
    assert verifier_calls["verify_exact"] == 1


def test_opting_out_never_verifies(verifier_calls):
    bad = make_code(5, 2, 0, [{1, 2}, {1, 3}, {1, 4}, {1, 5}])
    db = random_binary_db(5, 6, seed=9)
    x = BinaryWord(5, 0)
    for sd in (1, 2):
        run_simulation(db, x, 0, bad, seed=sd, allow_unverified=True)
        generate_queries(x, bad, seed=sd, allow_unverified=True)
    assert verifier_calls == {"verify_exact": 0, "johnson_verify": 0}


def test_an_equal_new_code_object_is_verified_again(verifier_calls):
    code = disjoint_code()
    db = random_binary_db(6, 8, seed=1)
    x = BinaryWord(6, 0)
    run_simulation(db, x, 0, code, seed=1)
    twin = PpricCode.loads(code.dumps())
    assert twin == code and twin is not code
    run_simulation(db, x, 0, twin, seed=1)
    run_simulation(db, x, 0, twin, seed=2)
    assert verifier_calls["verify_exact"] == 2  # once for each object


def test_a_capacity_error_is_not_kept(monkeypatch):
    calls = []

    def over_budget(code, *args):
        calls.append(code)
        raise CapacityError("multihit node budget exhausted")

    code = disjoint_code()
    monkeypatch.setattr(codes, "verify_exact", over_budget)
    db = random_binary_db(6, 8, seed=1)
    for _ in range(2):
        with pytest.raises(CapacityError):
            run_simulation(db, BinaryWord(6, 0), 0, code, seed=1)
    assert calls == [code, code]


def test_false_positive_demonstration():
    """A non-member code admits a record that reconstructs wrongly.

    The violator word, pushed through the transcript's permutation and
    translated by x, lands within r+s of every query while sitting
    outside B(x, r)."""
    bad = make_code(5, 2, 0, [{1, 2}, {1, 3}, {1, 4}, {1, 5}])
    verdict = verify_exact(bad)
    assert not verdict.is_ppric
    vm = verdict.violator.mask
    x = BinaryWord.from_string("01011")
    seed = 77
    probe = run_simulation(
        Database((x,)), x, 0, bad, seed=seed, allow_unverified=True)
    perm = probe.permutation  # 1-based source per destination
    ym = 0
    for dst in range(5):
        ym |= ((vm >> (perm[dst] - 1)) & 1) << dst
    y = BinaryWord(5, x.mask ^ ym)
    db = Database((x, y))
    tr = run_simulation(db, x, 0, bad, seed=seed, allow_unverified=True)
    truth = db.neighborhood(x, 0)
    assert truth == {1}
    assert tr.reconstructed == {1, 2}  # record 2 is a false positive
    assert distance(x, y) > 0


def test_reconstruct_guards():
    with pytest.raises(ParameterError):
        reconstruct([])
    with pytest.raises(ParameterError):
        reconstruct(iter([]))
    # records {1,2,3}, {2,3} and {2,3,4} as masks: bit m-1 is record m
    assert reconstruct([0b0111, 0b0110, 0b1110]) == 0b0110
    assert records_of(reconstruct([0b0111, 0b0110, 0b1110])) == {2, 3}
    # any iterable, including a one-shot iterator
    assert reconstruct(m for m in (0b0111, 0b0110, 0b1110)) == 0b0110
    assert reconstruct([0b101]) == 0b101
    assert reconstruct([0b101, 0b010]) == 0


def test_records_of():
    assert records_of(0) == frozenset()
    assert records_of(1) == {1}
    assert records_of(0b1010) == {2, 4}
    assert records_of((1 << 300) - 1) == frozenset(range(1, 301))


def _records_by_compress(mask):
    """The plain conversion: walk every bit of the mask."""
    bits = [int(c) for c in format(mask, "b")[::-1]]
    return frozenset(itertools.compress(itertools.count(1), bits))


@st.composite
def record_masks(draw):
    """An M-record mask, M in 1..20,000: empty, the top record alone,
    sparse (the AND of k + 1 random masks has density 2^-(k+1)), dense
    (their OR has density 1 - 2^-(k+1)) or full."""
    M = draw(st.integers(1, 20_000), label="M")
    shape = draw(st.sampled_from(["empty", "top", "sparse", "dense", "full"]))
    rnd = random.Random(draw(st.integers(0, 2**32), label="seed"))
    if shape == "empty":
        return 0
    if shape == "top":
        return 1 << (M - 1)
    if shape == "full":
        return (1 << M) - 1
    mask = rnd.getrandbits(M)
    for _ in range(draw(st.integers(0, 12), label="k")):
        more = rnd.getrandbits(M)
        mask = mask & more if shape == "sparse" else mask | more
    return mask


@settings(max_examples=200, deadline=None)
@given(record_masks())
def test_records_of_matches_the_plain_conversion(mask):
    assert records_of(mask) == _records_by_compress(mask)


def test_radius_must_match_code():
    code = build_disjoint(6, 2, 0)
    db = random_binary_db(6, 5, seed=2)
    with pytest.raises(ParameterError):
        run_simulation(db, BinaryWord(6, 0), 1, code, seed=0)


def test_record_length_mismatch():
    code = build_disjoint(6, 2, 0)
    db = Database((BinaryWord(5, 0),))
    with pytest.raises(ParameterError):
        run_simulation(db, BinaryWord(6, 0), 0, code, seed=0)

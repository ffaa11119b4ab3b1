import itertools
import math
import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from ppric import words
from ppric.errors import CapacityError, FormatError, ParameterError
from ppric.words import (
    BinaryWord,
    JohnsonWord,
    QaryWord,
    SchemeParams,
    _binary_identity,
    _at_most,
    _bit_planes,
    _count,
    _lightest,
    _qary_plane,
    _subsets,
    _transpose,
    _within,
    ball_size,
    binom,
    diameter,
    distance,
    enumerate_ball,
    enumerate_sphere,
    enumerate_weight_class,
    hamming_distance,
    johnson_distance,
    johnson_sphere_size,
    sphere_size,
)


def test_scheme_params_admissibility():
    SchemeParams(5, 2, 0)
    SchemeParams(6, 2, 1)
    with pytest.raises(ParameterError):
        SchemeParams(5, 2, 1)  # L < 2s+r+1
    with pytest.raises(ParameterError):
        SchemeParams(4, 2, 0)
    with pytest.raises(ParameterError):
        SchemeParams(6, 2, -1)


def test_binary_word_roundtrip():
    w = BinaryWord.from_string("10110")
    assert w.length == 5
    assert w.weight == 3
    assert w.to_string() == "10110"
    # leftmost character is coordinate 1
    assert w.mask & 1
    # a literal is only 0s and 1s, though int() also takes "_", signs, spaces
    for text in ("10x1", "", "0_1", "+1", " 01", "01 ", "-1", "0b1"):
        with pytest.raises(FormatError):
            BinaryWord.from_string(text)
    assert BinaryWord(0, 0).to_string() == ""


def test_qary_word_roundtrip():
    w = QaryWord.from_string(3, "0,2,1,0")
    assert w.to_string() == "0,2,1,0"
    assert w.length == 4
    with pytest.raises(ParameterError):
        QaryWord.from_string(3, "0,3,1")  # symbol out of range
    with pytest.raises(FormatError):
        QaryWord.from_string(3, "0,,1")


def test_johnson_word_roundtrip():
    w = JohnsonWord.from_string(8, "{1,2,5,8}")
    assert w.elements == frozenset({1, 2, 5, 8})
    assert w.to_string() == "{1,2,5,8}"
    with pytest.raises(ParameterError):
        JohnsonWord(8, frozenset({0, 1, 2}))  # elements are 1-based
    with pytest.raises(ParameterError):
        JohnsonWord(6, frozenset({1, 2, 3, 4}))  # needs 2L <= n
    # an element listed twice is a malformed literal, not a shorter word
    for text in ("{1,1,2,3}", "{3, 2, 3}", "{4,4}"):
        with pytest.raises(FormatError, match="repeated element"):
            JohnsonWord.from_string(8, text)


def test_distances():
    a = BinaryWord.from_string("1100")
    b = BinaryWord.from_string("0110")
    assert hamming_distance(a, b) == 2
    assert distance(a, b) == 2
    qa = QaryWord.from_string(3, "0,1,2")
    qb = QaryWord.from_string(3, "0,2,2")
    assert hamming_distance(qa, qb) == 1
    ja = JohnsonWord(8, frozenset({1, 2, 3, 4}))
    jb = JohnsonWord(8, frozenset({1, 2, 5, 6}))
    assert johnson_distance(ja, jb) == 2
    assert distance(ja, jb) == 2
    with pytest.raises(ParameterError):
        distance(a, BinaryWord.from_string("11000"))
    # both argument kinds are checked, as hamming_distance does
    with pytest.raises(ParameterError):
        johnson_distance(ja, BinaryWord.from_string("11110000"))
    with pytest.raises(ParameterError):
        johnson_distance(BinaryWord.from_string("11110000"), ja)


def test_diameter():
    assert diameter("binary", 7) == 7
    assert diameter("qary", 7) == 7
    assert diameter("johnson", 4, n=9) == 4
    assert diameter("johnson", 6, n=12) == 6


def test_sphere_and_ball_sizes():
    assert sphere_size(7, 3) == math.comb(7, 3)
    assert ball_size(7, 2) == 1 + 7 + 21
    got = sum(1 for _ in enumerate_sphere(BinaryWord(7, 0), 3))
    assert got == sphere_size(7, 3)
    got = sum(1 for _ in enumerate_ball(BinaryWord(7, 0), 2))
    assert got == ball_size(7, 2)


def test_enumerate_weight_class():
    words = list(enumerate_weight_class(6, 2))
    assert len(words) == 15
    assert all(w.weight == 2 for w in words)
    assert len({w.mask for w in words}) == 15


def test_johnson_sphere_enumeration():
    x = JohnsonWord(9, frozenset({1, 2, 3, 4}))
    got = sum(1 for _ in enumerate_sphere(x, 2))
    assert got == johnson_sphere_size(9, 4, 2) == math.comb(4, 2) * math.comb(5, 2)


def test_qary_sphere_enumeration():
    x = QaryWord(3, (0, 0, 0, 0))
    got = sum(1 for _ in enumerate_sphere(x, 2))
    assert got == math.comb(4, 2) * 4  # choose positions, then nonzero symbols


@given(st.integers(0, (1 << 12) - 1), st.data())
def test_subsets_follow_combinations_order(points, data):
    # the masks of itertools.combinations over the set bits, lowest first;
    # binom(popcount, k) of them, so none for k < 0 or k > popcount
    bits = [i for i in range(12) if points >> i & 1]
    k = data.draw(st.integers(-1, len(bits) + 1))
    want = ([sum(1 << i for i in sub) for sub in itertools.combinations(bits, k)]
            if k >= 0 else [])
    got = list(_subsets(points, k))
    assert got == want
    assert len(got) == binom(len(bits), k)


def test_sphere_order_matches_combinations():
    # the candidate order behind every witness: flips in combinations order
    # for a binary sphere, drop-major swaps for a Johnson sphere
    for L, center, radius in [(6, 0b101001, 2), (7, 0, 3), (5, 0b11111, 5)]:
        want = []
        for flips in itertools.combinations(range(L), radius):
            want.append(center ^ sum(1 << i for i in flips))
        got = [z.mask for z in enumerate_sphere(BinaryWord(L, center), radius)]
        assert got == want
    for n, elems, radius in [(9, {2, 4, 5, 8}, 2), (8, {1, 2, 3, 4}, 1),
                             (10, {3, 6, 7, 9, 10}, 3)]:
        inside = sorted(elems)
        outside = sorted(set(range(1, n + 1)) - elems)
        want = [(elems - set(drop)) | set(add)
                for drop in itertools.combinations(inside, radius)
                for add in itertools.combinations(outside, radius)]
        got = [z.elements
               for z in enumerate_sphere(JohnsonWord(n, frozenset(elems)),
                                         radius)]
        assert got == want


@pytest.mark.parametrize("center", [
    BinaryWord(5, 0b10110),
    QaryWord(3, (0, 2, 1)),
    JohnsonWord(8, frozenset({1, 4, 6})),
])
def test_negative_radius_sphere_is_empty(center):
    # as for enumerate_ball, sphere_size and johnson_sphere_size
    assert list(enumerate_sphere(center, -1)) == []
    assert list(enumerate_sphere(center, -3)) == []
    assert list(enumerate_ball(center, -1)) == []


def test_bit_lanes_index_words_by_mask():
    # lane y of F_2^L is the word with mask y, bit by bit
    for L in range(1, 9):
        one = _bit_planes(L)
        assert len(one) == L
        for c, plane in enumerate(one):
            assert plane >> (1 << L) == 0
            for y in range(1 << L):
                assert plane >> y & 1 == y >> c & 1, (L, c, y)
    with pytest.raises(CapacityError):
        _bit_planes(25)


def test_bit_planes_match_the_product_order_planes():
    for L in range(15):
        assert _bit_planes(L) == [_qary_plane(2, L, L - 1 - c, 1)
                                  for c in range(L)]


@st.composite
def _transpose_cases(draw):
    # up to 40 masks of at most cap bits, zero masks included; the width
    # near a byte or 64-bit word edge, within the longest mask, or past it
    cap = draw(st.sampled_from([8, 63, 64, 65, 128, 129, 200]))
    masks = draw(st.lists(st.integers(0, cap).flatmap(
        lambda bits: st.integers(0, (1 << bits) - 1)), min_size=1,
        max_size=40))
    longest = max(masks).bit_length()
    width = draw(st.one_of(
        st.sampled_from([8, 63, 64, 65, 128, 129]).flatmap(
            lambda w: st.integers(w - 2, w + 2)),
        st.integers(0, longest), st.integers(longest, longest + 70)))
    return masks, width


@settings(deadline=None, max_examples=300)
@given(_transpose_cases(), st.booleans())
def test_transpose_matches_the_per_bit_definition(case, machine_words):
    masks, width = case
    expected = [sum((m >> g & 1) << i for i, m in enumerate(masks))
                for g in range(width)]
    # the machine-word layout, where the platform has it, and to_bytes
    with patch.object(words, "_MACHINE_WORDS",
                      words._MACHINE_WORDS and machine_words):
        assert _transpose(masks, width) == expected


@settings(deadline=None, max_examples=200)
@given(st.lists(st.integers(0, (1 << 12) - 1), max_size=20),
       st.integers(0, (1 << 12) - 1), st.integers(-3, 40))
def test_count_and_within_match_per_lane_counts(planes, full, radius):
    # digit b of _count holds bit b of each lane's count; _within keeps
    # the lanes of full counted at most radius times, none for radius < 0
    # and all of full once radius reaches 2**len(digits)
    digits = _count(planes)
    counts = [sum(p >> lane & 1 for p in planes) for lane in range(12)]
    assert digits == [] or digits[-1]
    for lane, n in enumerate(counts):
        assert sum((d >> lane & 1) << b for b, d in enumerate(digits)) == n
    for rad in (radius, -1, 1 << len(digits), (1 << len(digits)) - 1):
        want = sum(1 << lane for lane, n in enumerate(counts)
                   if n <= rad and full >> lane & 1)
        assert _within(digits, rad, full) == want, rad
        assert _at_most(iter(planes), rad, full) == want


@settings(deadline=None, max_examples=200)
@given(st.lists(st.integers(0, (1 << 12) - 1), max_size=4),
       st.lists(st.integers(0, (1 << 12) - 1), max_size=20))
def test_count_extends_a_start_count(start, planes):
    # _count(planes, start) counts on from start's value, as if digit b of
    # start had come first as 2**b planes (a zero top digit included), and
    # leaves start as it was
    given_start = list(start)
    got = _count(planes, start)
    want = _count([d for b, d in enumerate(start) for _ in range(1 << b)]
                  + planes)
    assert start == given_start
    for lane in range(12):
        assert (sum((d >> lane & 1) << b for b, d in enumerate(got))
                == sum((d >> lane & 1) << b for b, d in enumerate(want)))


def test_lightest_lane():
    # the lightest word of a lane set, ties to the smallest mask, also
    # when the search starts at a weight w no lane is lighter than
    L = 7
    weights = _count(_bit_planes(L))
    assert _lightest(0, weights) is None
    rng = random.Random(3)
    for _ in range(50):
        w = rng.randint(0, 3)
        words = [y for y in range(1 << L)
                 if y.bit_count() >= w and rng.random() < 0.2]
        lanes = sum(1 << y for y in words)
        want = min(words, key=lambda y: (y.bit_count(), y), default=None)
        assert _lightest(lanes, weights, w) == (
            None if want is None else (want.bit_count(), want))


def test_binary_identity_matches_per_word():
    # the mask of disagreeing lanes, against B(center, r) and the
    # B(z, r+s) word by word, for sphere parts around non-zero centres
    L = 6
    one = _bit_planes(L)
    rng = random.Random(5)
    for _ in range(60):
        center = rng.getrandbits(L)
        s, r = rng.randint(1, 3), rng.randint(0, 3)
        sphere = [z.mask for z in enumerate_sphere(BinaryWord(L, center), s)]
        part = rng.sample(sphere, rng.randint(1, len(sphere)))
        want = sum(1 << y for y in range(1 << L)
                   if ((y ^ center).bit_count() <= r)
                   != all((y ^ z).bit_count() <= r + s for z in part))
        assert _binary_identity(one, center, part, r, s) == want


def test_binary_cap():
    with pytest.raises(CapacityError):
        list(enumerate_ball(BinaryWord(30, 0), 1))


@given(st.integers(2, 10), st.data())
def test_hamming_metric_axioms(L, data):
    bits = st.integers(0, (1 << L) - 1)
    a = BinaryWord(L, data.draw(bits))
    b = BinaryWord(L, data.draw(bits))
    c = BinaryWord(L, data.draw(bits))
    assert hamming_distance(a, b) == hamming_distance(b, a)
    assert (hamming_distance(a, b) == 0) == (a == b)
    assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)


@given(st.integers(4, 12), st.data())
def test_johnson_metric_axioms(n, data):
    L = n // 2
    subs = st.frozensets(st.integers(1, n), min_size=L, max_size=L)
    a = JohnsonWord(n, data.draw(subs))
    b = JohnsonWord(n, data.draw(subs))
    c = JohnsonWord(n, data.draw(subs))
    assert johnson_distance(a, b) == johnson_distance(b, a)
    assert (johnson_distance(a, b) == 0) == (a == b)
    assert johnson_distance(a, c) <= johnson_distance(a, b) + johnson_distance(b, c)


@given(st.integers(1, 8), st.integers(0, 8))
def test_binom_matches_math(n, k):
    assert binom(n, k) == math.comb(n, k)

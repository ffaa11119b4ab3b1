import functools
import itertools
import operator
import os
import subprocess
import sys
import time
import unittest
from pathlib import Path

from ppric.codes import PpricCode, make_code, verify_exact
from ppric.construct import build_disjoint, build_extremal
from ppric.cover import Budget
from ppric.covering import fano_plane
from ppric.errors import CapacityError, ParameterError
from ppric.schemes import (
    JohnsonCoveringCode,
    JohnsonPpricCode,
    _johnson_cover,
    _johnson_identity,
    _qary_identity,
    johnson_construction,
    johnson_exact_check,
    johnson_verify,
    product_covering_code,
    qary_verify,
    verify_johnson_covering,
    verify_symmetric_sphere_identity,
)
from ppric.words import (
    BinaryWord,
    JohnsonWord,
    QaryWord,
    SchemeParams,
    _johnson_plane,
    _qary_plane,
    enumerate_sphere,
    enumerate_weight_class,
    johnson_distance,
)


def oracle_scan(center, sphere, space, dist, r, s):
    """The per-word reference: first word of ``space``, in its order, that
    lies in B(center, r) but not in every B(z, r+s) over the sphere, or
    the other way round; None when there is none."""
    reach = r + s
    for y in space:
        if (dist(center, y) <= r) != all(dist(z, y) <= reach for z in sphere):
            return y
    return None


def hamming(a, b):
    return sum(u != v for u, v in zip(a, b))


def johnson(a, b):
    return len(a - b)


def oracle_qary(q, L, center, sphere, r, s):
    return oracle_scan(center, list(sphere),
                       itertools.product(range(q), repeat=L), hamming, r, s)


def oracle_johnson(n, L, center, sphere, r, s):
    space = map(frozenset, itertools.combinations(range(1, n + 1), L))
    return oracle_scan(center, list(sphere), space, johnson, r, s)


def brute_min_johnson_code(n, L, s, r, top):
    """Fewest sphere words around {1..L} that form a code, trying every
    family of at most ``top`` words with nothing pinned; None if none."""
    x = frozenset(range(1, L + 1))
    rest = sorted(set(range(1, n + 1)) - x)
    sphere = [(x - set(drop)) | set(add)
              for drop in itertools.combinations(sorted(x), s)
              for add in itertools.combinations(rest, s)]
    far = [y for y in map(frozenset, itertools.combinations(range(1, n + 1), L))
           if len(x - y) > r]
    # per sphere word, the far words it fails to expel
    kept = [sum(1 << j for j, y in enumerate(far) if len(v - y) <= r + s)
            for v in sphere]
    for m in range(1, top + 1):
        for family in itertools.combinations(kept, m):
            if functools.reduce(operator.and_, family) == 0:
                return m
    return None


class SphereIdentityTests(unittest.TestCase):

    def test_binary(self):
        x = BinaryWord.from_string("10110100")
        self.assertTrue(verify_symmetric_sphere_identity(x, 1, 2))
        self.assertTrue(verify_symmetric_sphere_identity(x, 2, 1))

    def assert_identity(self, x, r, s):
        """The scan holds, and so does the per-word oracle."""
        self.assertTrue(verify_symmetric_sphere_identity(x, r, s))
        if isinstance(x, QaryWord):
            sphere = [z.symbols for z in enumerate_sphere(x, s)]
            want = oracle_qary(x.q, x.length, x.symbols, sphere, r, s)
        else:
            sphere = [z.elements for z in enumerate_sphere(x, s)]
            want = oracle_johnson(x.n, x.length, x.elements, sphere, r, s)
        self.assertIsNone(want)

    def test_qary(self):
        x = QaryWord(3, (0, 2, 1, 0, 2, 1))
        self.assert_identity(x, 0, 2)
        self.assert_identity(x, 1, 1)
        self.assert_identity(QaryWord(4, (3, 1, 0, 2)), 1, 1)
        self.assert_identity(QaryWord(5, (4, 0, 2, 1)), 0, 1)

    def test_johnson(self):
        # diameter is min(L, n-L) = 6, exactly r + 2s + 1
        x = JohnsonWord(13, frozenset({1, 2, 3, 4, 5, 6}))
        self.assert_identity(x, 1, 2)
        # a centre other than {1..L}
        self.assert_identity(JohnsonWord(13, frozenset({2, 5, 6, 8, 11, 13})),
                             1, 2)
        self.assert_identity(JohnsonWord(11, frozenset({1, 4, 9, 10, 11})),
                             2, 1)

    def test_work_cap_boundary(self):
        # 352,716 lanes, 121 sphere words and the centre, 11 planes each:
        # 473M lane-plane additions, within SCAN_WORK_CAP = 2**32
        x = JohnsonWord(22, frozenset(range(1, 12)))
        self.assertTrue(verify_symmetric_sphere_identity(x, 1, 1))
        # J(20,10) at s = 3: 184,756 lanes x 14,401 x 10 planes
        with self.assertRaises(CapacityError):
            verify_symmetric_sphere_identity(
                JohnsonWord(20, frozenset(range(1, 11))), 1, 3)

    def test_regime_enforced(self):
        # diameter 6 < r + 2s + 1 = 7: outside the theorem, refuse to scan
        x = BinaryWord.from_string("101101")
        with self.assertRaises(ParameterError):
            verify_symmetric_sphere_identity(x, 2, 2)
        y = JohnsonWord(10, frozenset({1, 2, 3, 4}))  # diameter min(4, 6) = 4
        with self.assertRaises(ParameterError):
            verify_symmetric_sphere_identity(y, 2, 1)

    def test_s_zero_trivial(self):
        self.assertTrue(
            verify_symmetric_sphere_identity(BinaryWord(5, 0), 2, 0))


class BitSlicedScanTests(unittest.TestCase):
    """The bit-sliced identity scans against the per-word oracle."""

    def test_johnson_plane_matches_combinations(self):
        for n in range(13):
            for L in range(n // 2 + 1):
                words = list(itertools.combinations(range(1, n + 1), L))
                for p in range(1, n + 1):
                    want = sum(1 << i for i, w in enumerate(words) if p in w)
                    self.assertEqual(_johnson_plane(n, L, p), want, (n, L, p))

    def test_qary_plane_matches_product(self):
        for q in (2, 3, 4, 5):
            for L in range(1, 6):
                words = list(itertools.product(range(q), repeat=L))
                for j in range(L):
                    for a in range(q):
                        want = sum(1 << i for i, w in enumerate(words)
                                   if w[j] == a)
                        self.assertEqual(_qary_plane(q, L, j, a), want,
                                         (q, L, j, a))

    def test_johnson_verify_matches_oracle(self):
        checked = failed = 0
        for n in range(2, 13):
            for L in range(1, n // 2 + 1):
                centers = {frozenset(range(1, L + 1)),
                           frozenset(range(2, 2 * L + 1, 2)),
                           frozenset(range(n - L + 1, n + 1))}
                # r = -1 is refused by JohnsonPpricCode, as by SchemeParams
                for s, r in itertools.product(range(3), range(3)):
                    for c in centers:
                        x = JohnsonWord(n, c)
                        sphere = list(enumerate_sphere(x, s))
                        if not sphere:
                            continue
                        families = [sphere[:2 * r + 3], sphere[-2 * r - 3:]]
                        if s and L >= s * (2 * r + 3):
                            families.append(list(johnson_construction(
                                n, L, s, r, x).codewords))
                        for family in families:
                            for words in (family, family[1:], family[::2]):
                                if not words:
                                    continue
                                code = JohnsonPpricCode(n, L, s, r, x,
                                                        tuple(words))
                                want = oracle_johnson(
                                    n, L, x.elements,
                                    (v.elements for v in words), r, s)
                                got = johnson_verify(code)
                                self.assertEqual(got.is_ppric, want is None)
                                self.assertEqual(
                                    got.violator,
                                    None if want is None
                                    else JohnsonWord(n, want),
                                    (n, L, s, r, x, words))
                                checked += 1
                                failed += want is not None
        # both verdicts are well represented
        self.assertGreater(checked, 2000)
        self.assertGreater(failed, 500)

    def test_qary_verify_matches_oracle(self):
        failed = 0
        for L in range(1, 7):
            for s, r in itertools.product(range(3), range(3)):
                if L < 2 * s + r + 1:
                    continue
                weight = [w.mask for w in enumerate_weight_class(L, s)]
                families = {tuple(weight), tuple(weight[:r + 2]),
                            tuple(weight[1:]), tuple(weight[::3])}
                for masks in filter(None, families):
                    code = PpricCode(SchemeParams(L, s, r),
                                     tuple(BinaryWord(L, m) for m in masks))
                    bits = [tuple(m >> i & 1 for i in range(L))
                            for m in masks]
                    for q in (2, 3, 4, 5):
                        want = oracle_qary(q, L, (0,) * L, bits, r, s)
                        got = qary_verify(code, q)
                        self.assertEqual(got.is_ppric, want is None)
                        self.assertEqual(
                            got.violator,
                            None if want is None else QaryWord(q, want),
                            (q, L, s, r, masks))
                        failed += want is not None
        self.assertGreater(failed, 50)

    def test_sphere_identity_matches_oracle(self):
        # every centre of small spaces, with the whole sphere and with a
        # part of it, also outside the regime where the identity is a
        # theorem, so the oracle finds violators to match
        failed = symbols = 0
        for q, L in ((3, 3), (4, 3), (5, 2), (2, 5)):
            for x in itertools.product(range(q), repeat=L):
                for s, r in itertools.product(range(1, 3), range(3)):
                    sphere = [z.symbols
                              for z in enumerate_sphere(QaryWord(q, x), s)]
                    for part in (sphere, sphere[-2:]):
                        want = oracle_qary(q, L, x, part, r, s)
                        self.assertEqual(
                            _qary_identity(q, L, x, part, r, s), want,
                            (q, x, r, s, part))
                        failed += want is not None
                        symbols += want is not None and max(want) > 1
        for n, L in ((7, 3), (8, 4), (9, 3)):
            for x in map(frozenset,
                         itertools.combinations(range(1, n + 1), L)):
                for s, r in itertools.product(range(1, 3), range(3)):
                    sphere = [z.elements
                              for z in enumerate_sphere(JohnsonWord(n, x), s)]
                    for part in (sphere, sphere[-2:]):
                        want = oracle_johnson(n, L, x, part, r, s)
                        self.assertEqual(
                            _johnson_identity(n, L, x, part, r, s), want,
                            (n, x, r, s, part))
                        failed += want is not None
        self.assertGreater(failed, 1000)
        self.assertGreater(symbols, 100)  # first violators with a symbol > 1

class QaryLiftTests(unittest.TestCase):

    def test_disjoint_code_lifts(self):
        code = build_disjoint(6, 2, 0)
        self.assertTrue(verify_exact(code).is_ppric)
        for q in (3, 4):
            verdict = qary_verify(code, q)
            self.assertTrue(verdict.is_ppric, f"lift failed at q={q}")

    def test_extremal_code_lifts(self):
        code = build_extremal(2, 1, 6)
        self.assertTrue(qary_verify(code, 3).is_ppric)

    def test_negative_case_stays_negative(self):
        # every codeword through coordinate 1, so e_1 violates in any alphabet
        bad = make_code(5, 2, 0, [{1, 2}, {1, 3}, {1, 4}, {1, 5}])
        verdict = qary_verify(bad, 3)
        self.assertFalse(verdict.is_ppric)
        self.assertIsNotNone(verdict.violator)

    def test_q_two_agrees_with_binary(self):
        code = build_disjoint(6, 2, 0)
        self.assertTrue(qary_verify(code, 2).is_ppric)
        with self.assertRaises(ParameterError):
            qary_verify(code, 1)


class JohnsonCodeTests(unittest.TestCase):

    def test_construction_pinned(self):
        code = johnson_construction(8, 4, 1, 0)
        self.assertEqual(code.size, 3)
        self.assertEqual(
            [sorted(v.elements) for v in code.codewords],
            [[2, 3, 4, 5], [1, 3, 4, 6], [1, 2, 4, 7]],
        )
        self.assertTrue(johnson_verify(code).is_ppric)

    def test_construction_r1(self):
        code = johnson_construction(14, 5, 1, 1)
        self.assertEqual(code.size, 5)
        self.assertTrue(johnson_verify(code).is_ppric)

    def test_construction_custom_center(self):
        x = JohnsonWord(8, frozenset({2, 4, 6, 8}))
        code = johnson_construction(8, 4, 1, 0, x=x)
        self.assertEqual(code.x, x)
        self.assertTrue(johnson_verify(code).is_ppric)

    def test_construction_distances(self):
        # distinct codewords trade disjoint runs of x, so they sit at
        # distance s from x and 2s from each other
        for n, L, s, r in [(8, 4, 1, 0), (10, 5, 1, 1), (12, 6, 2, 0),
                           (14, 7, 1, 2), (18, 9, 3, 0), (20, 10, 2, 1)]:
            for x in (None, JohnsonWord(n, frozenset(range(2, 2 * L + 1, 2)))):
                code = johnson_construction(n, L, s, r, x=x)
                self.assertEqual(code.size, 2 * r + 3)
                for i, a in enumerate(code.codewords):
                    self.assertEqual(johnson_distance(code.x, a), s)
                    for b in code.codewords[i + 1:]:
                        self.assertEqual(johnson_distance(a, b), 2 * s)

    def test_failed_self_check_raises_under_O(self):
        # the self-check is no assert: it still fires with asserts stripped
        probe = (
            "import ppric.schemes as S\n"
            "from ppric.codes import Verdict\n"
            "from ppric.construct import ConstructionError\n"
            "S.johnson_verify = lambda code: Verdict(False, code.x)\n"
            "try:\n"
            "    S.johnson_construction(8, 4, 1, 0)\n"
            "except ConstructionError:\n"
            "    print('raised')\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run([sys.executable, "-O", "-c", probe],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=60)
        self.assertEqual((done.returncode, done.stdout), (0, "raised\n"),
                         done.stderr)

    def test_construction_regime(self):
        with self.assertRaises(ParameterError):
            johnson_construction(8, 4, 2, 0)  # L < s(2r+3)
        with self.assertRaises(ParameterError):
            johnson_construction(7, 4, 1, 0)  # n < 2L

    def test_dropping_a_codeword_breaks_it(self):
        code = johnson_construction(8, 4, 1, 0)
        crippled = JohnsonPpricCode(8, 4, 1, 0, code.x, code.codewords[:2])
        verdict = johnson_verify(crippled)
        self.assertFalse(verdict.is_ppric)
        # two codewords leave a covered word strictly outside B(x, r)
        self.assertGreater(johnson_distance(code.x, verdict.violator), 0)

    def test_json_round_trip(self):
        code = johnson_construction(10, 5, 1, 1)
        again = JohnsonPpricCode.loads(code.dumps(pretty=True))
        self.assertEqual(again, code)

    def test_validation(self):
        x = JohnsonWord(8, frozenset({1, 2, 3, 4}))
        off = JohnsonWord(8, frozenset({5, 6, 7, 8}))  # distance 4, not s
        with self.assertRaises(ParameterError):
            JohnsonPpricCode(8, 4, 1, 0, x, (off,))
        with self.assertRaises(ParameterError):
            JohnsonPpricCode(7, 4, 1, 0, JohnsonWord(7, frozenset({1, 2, 3, 4})),
                             (JohnsonWord(7, frozenset({1, 2, 3, 5})),))
        near = JohnsonWord(8, frozenset({1, 2, 3, 5}))
        with self.assertRaises(ParameterError):
            JohnsonPpricCode(8, 4, 1, -1, x, (near,))  # r < 0
        with self.assertRaises(ParameterError):
            JohnsonPpricCode(8, 4, 1, 0, x, (near, near))  # repeated codeword

    def test_exact_check_matches_brute_force(self):
        for n, L, s, r in [(8, 4, 1, 0), (10, 5, 1, 1), (12, 5, 1, 1)]:
            brute = brute_min_johnson_code(n, L, s, r, 2 * r + 3)
            self.assertEqual(brute, 2 * r + 3)
            self.assertTrue(johnson_exact_check(n, L, s, r))
            # the pinned instance reaches the same minimum with a real
            # code, so its refutations below 2r+3 are not vacuous; the
            # deepening finds it without the greedy cover's help
            inst = _johnson_cover(n, L, s, r)
            hit = inst._deepen(1, 2 * r + 3, Budget())
            self.assertEqual(len(hit), brute)
            # collect prunes no symmetric subtree, unlike solve
            self.assertEqual(inst.collect(brute - 1, Budget()), [])
            self.assertIn(hit, inst.collect(brute, Budget()))
            x = JohnsonWord(n, frozenset(range(1, L + 1)))
            sphere = list(enumerate_sphere(x, s))
            code = JohnsonPpricCode(n, L, s, r, x,
                                    tuple(sphere[i] for i in hit))
            self.assertTrue(johnson_verify(code).is_ppric)

    def test_scan_cap_boundary(self):
        # J(24,12) has 2.7M words, within SCAN_CAP = 2**24
        self.assertTrue(johnson_exact_check(24, 12, 1, 1))
        # J(28,14) has 40.1M words: refused before any scan
        x = JohnsonWord(28, frozenset(range(1, 15)))
        code = JohnsonPpricCode(28, 14, 1, 0, x, tuple(
            JohnsonWord(28, x.elements - {i} | {14 + i}) for i in (1, 2, 3)))
        with self.assertRaises(CapacityError):
            johnson_verify(code)
        with self.assertRaises(CapacityError):
            johnson_construction(28, 14, 1, 0)

    def test_universe_cap_boundary(self):
        # the instance is counted before it is built: 6084 sphere words by
        # the 87,880 of the 88,050 words of B(v0, 3) outside B(x, 1), and
        # 54,600 by 59,475 at J(25, 10)
        for point in [(26, 13, 2, 1), (25, 10, 3, 0)]:
            start = time.perf_counter()
            with self.assertRaisesRegex(CapacityError, "BUILD_CAP"):
                _johnson_cover(*point)
            self.assertLess(time.perf_counter() - start, 1)
        # B(v0, 4) has 60,626 words, but only the 44,100 outside B(x, 3)
        # are elements, so the instance is built
        self.assertEqual(len(_johnson_cover(20, 10, 1, 3).elements), 44_100)

    def test_instance_masks_match_definition(self):
        # sphere word v covers y (in B(v0, r+s), outside B(x, r)) iff
        # |v - y| > r+s
        # the oracle lists both sides with itertools and frozensets, apart
        # from the enumerators the instance is built with
        def swaps(word, d):  # distance d from word, drop-major
            outside = sorted(set(range(1, n + 1)) - word)
            return [(word - set(drop)) | set(add)
                    for drop in itertools.combinations(sorted(word), d)
                    for add in itertools.combinations(outside, d)]
        for n, L, s, r in [(8, 4, 1, 0), (10, 5, 1, 1), (12, 5, 1, 1)]:
            inst = _johnson_cover(n, L, s, r)
            x = frozenset(range(1, L + 1))
            sphere = swaps(x, s)
            universe = [y for d in range(r + s + 1) for y in swaps(sphere[0], d)
                        if len(x - y) > r]
            self.assertEqual(len(inst.cover), len(sphere))
            self.assertEqual(len(inst.elements), len(universe))
            self.assertEqual(max(inst.cover) >> len(universe), 0)
            self.assertEqual(max(map(inst.handlers, range(len(universe))))
                             >> len(sphere), 0)
            for c, v in enumerate(sphere):
                for j, y in enumerate(universe):
                    hit = len(v - y) > r + s
                    self.assertEqual(inst.cover[c] >> j & 1, hit)
                    self.assertEqual(inst.handlers(j) >> c & 1, hit)

    def test_exact_check(self):
        self.assertTrue(johnson_exact_check(8, 4, 1, 0))
        self.assertTrue(johnson_exact_check(12, 4, 1, 0))
        with self.assertRaises(ParameterError):
            johnson_exact_check(10, 4, 1, 1)  # 2r+3 only claimed for L >= 5s


class JohnsonCoveringTests(unittest.TestCase):

    def test_product_of_fano_planes(self):
        fano = fano_plane()
        code = product_covering_code(fano, fano)
        self.assertEqual((code.n, code.L, code.k, code.t), (14, 7, 3, 2))
        self.assertEqual(code.size, 49)
        verdict = verify_johnson_covering(code)
        self.assertTrue(verdict.at_least_one)
        self.assertTrue(verdict.exactly_one)  # Steiner inputs, so unique

    def test_product_dimension_mismatch(self):
        from ppric.covering import all_pairs_design
        with self.assertRaises(ParameterError):
            product_covering_code(fano_plane(), all_pairs_design(5))

    def test_head_count_validation(self):
        # codeword must have exactly L-k ones among the first L coordinates
        with self.assertRaises(ParameterError):
            JohnsonCoveringCode(
                14, 7, 3, 2,
                (JohnsonWord(14, frozenset({1, 2, 3, 8, 9, 10, 11})),))

    def test_incomplete_family_fails_at_least_one(self):
        fano = fano_plane()
        code = product_covering_code(fano, fano)
        crippled = JohnsonCoveringCode(14, 7, 3, 2, code.codewords[:10])
        verdict = verify_johnson_covering(crippled)
        self.assertFalse(verdict.at_least_one)

    def test_json_shape(self):
        code = product_covering_code(fano_plane(), fano_plane())
        doc = code.to_json_dict()
        self.assertEqual(doc["n"], 14)
        self.assertEqual(len(doc["codewords"]), 49)
        self.assertEqual(len(doc["codewords"][0]), 7)


if __name__ == "__main__":
    unittest.main()

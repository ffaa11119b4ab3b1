import pytest
from hypothesis import given, settings, strategies as st

from ppric import bounds, covering
from ppric.errors import CapacityError, ParameterError


@pytest.fixture(autouse=True)
def cold_probe_cache():
    # the chain's covering probes are kept for the life of the process;
    # start every test here without them, so that a test watching the
    # probes sees each one
    bounds._covering_probe.cache_clear()


def test_lb_repeat():
    # one coordinate can only be avoided so often
    assert bounds.lb_repeat(5, 2, 0) >= 2
    assert bounds.lb_repeat(34, 16, 0) >= 2


def test_lb_mills_pinned():
    assert bounds.lb_mills(5, 2, 0) == 4
    assert bounds.lb_mills(6, 2, 1) == 6
    assert bounds.lb_mills(34, 16, 0) == 4
    # ratio at or above r+3 settles to the floor value
    assert bounds.lb_mills(20, 2, 1) == 4
    assert bounds.lb_mills(12, 4, 1) == 6


def test_lb_todorov_fires_in_interval():
    hit = bounds.lb_todorov(34, 16, 0, with_rule=True)
    assert hit is not None and hit[1] >= 5
    # far outside every interval: absent
    assert bounds.lb_todorov(40, 2, 0) is None


def test_r0_special_rule():
    assert bounds.lb_r0_special(33, 16) == 7
    assert bounds.lb_r0_special(34, 16) is None  # rho = 17/8 excluded
    assert bounds.lb_r0_special(19, 9) == 7  # smallest s where the window
    # contains an admissible L: 2s+1 <= L < 17s/8 is empty for s <= 8
    assert bounds.lb_r0_special(36, 16) is None


def test_exact_n_regimes():
    assert bounds.exact_n(9, 2, 0) == 3  # item 1, rho >= 3
    assert bounds.exact_n(5, 1, 2) == 5  # item 1 at rho = r+3
    assert bounds.exact_n(5, 2, 0) == 4
    assert bounds.exact_n(6, 2, 0) == 3
    assert bounds.exact_n(7, 3, 0) == 5
    assert bounds.exact_n(7, 2, 1) == 5
    assert bounds.exact_n(6, 2, 1) == 6
    assert bounds.exact_n(34, 16, 0) == 6  # the 17/8 <= rho < 9/4 regime
    assert bounds.exact_n(33, 16, 0) is None
    rule, value = bounds.exact_n(7, 3, 0, with_rule=True)
    assert value == 5 and rule.startswith("exact.")


def test_exact_n_claims_only_certified_values():
    # table values whose constructions need divisibility are claimed only
    # when a code of that size is actually on record
    assert bounds.exact_n(9, 3, 1) is None  # refuted: true minimum is 7
    assert bounds.exact_n(12, 3, 2) is None  # refuted: true minimum is 8
    assert bounds.exact_n(12, 4, 1) == 6  # catalog achieves it
    assert bounds.exact_n(8, 3, 0) == 4  # search exhibited a code
    assert bounds.exact_n(11, 5, 0) == 6  # search exhibited a code


def test_deep_search_witnesses_replay():
    """Upper-bound halves of the two heavyweight search results.

    The codes below are the ones the first, unpruned searches found.  The
    minimality halves run elsewhere in the suite: the (12, 3, 2) search
    replays in test_search.py::test_replay_12_3_2_has_no_seven_word_code,
    and (12, 4, 1) settles in acceptance criterion 05.  The first code
    shows the closed-form value 7 is one short of reachable, the second
    meets the catalog value."""
    from ppric.codes import make_code, verify_exact

    w = [[1, 2, 3], [1, 2, 8], [3, 8, 9], [4, 5, 6], [4, 5, 7], [4, 6, 7],
         [5, 6, 7], [10, 11, 12]]
    code = make_code(12, 3, 2, [set(b) for b in w])
    assert verify_exact(code).is_ppric
    assert code.size == 8
    assert bounds.best_lower(12, 3, 2) == 7  # bounds alone leave a gap

    w = [[1, 2, 3, 4], [1, 2, 9, 10], [3, 4, 9, 10], [5, 6, 7, 8],
         [5, 8, 11, 12], [6, 7, 11, 12]]
    code = make_code(12, 4, 1, [set(b) for b in w])
    assert verify_exact(code).is_ppric
    assert code.size == bounds.exact_n(12, 4, 1) == 6


@pytest.mark.slow
def test_search_certificates_reproduce():
    from ppric.search import exact_n_search

    for (L, s, r), v in sorted(bounds._SEARCH_CONFIRMED.items()):
        assert bounds.exact_n(L, s, r) == v
        assert exact_n_search(L, s, r, node_budget=10_000_000).n_exact == v


def test_exact_n_inadmissible():
    with pytest.raises(ParameterError):
        bounds.exact_n(5, 2, 1)
    with pytest.raises(ParameterError):
        bounds.exact_n(6, 0, 1)


def test_report_pinned_34_16_0():
    report = bounds.compute_report(34, 16, 0)
    assert report.exact == 6
    assert report.best_lower == 6
    assert report.best_upper == 6
    rules = dict(report.lower_bounds)
    assert rules["lb.mills"] == 4
    doc = report.to_json_dict()
    assert doc["exact"] == 6
    assert doc["best_lower"] == 6


def test_report_special_rule_33_16_0():
    report = bounds.compute_report(33, 16, 0)
    assert dict(report.lower_bounds)["lb.r0.special"] == 7
    assert report.exact is None
    assert report.best_lower == 7


def test_report_consistency_grid():
    for L in range(3, 13):
        for s in range(1, L // 2 + 1):
            for r in range(0, max(0, L - 2 * s)):
                report = bounds.compute_report(L, s, r)
                assert report.best_lower >= 2
                if report.best_upper is not None:
                    assert report.best_lower <= report.best_upper
                if report.exact is not None:
                    assert report.best_lower <= report.exact
                    if report.best_upper is not None:
                        assert report.exact <= report.best_upper


@settings(deadline=None, max_examples=80)
@given(st.integers(1, 6), st.integers(0, 4), st.data())
def test_lower_bounds_monotone_in_L(s, r, data):
    # growing L (easier instance) never increases the best lower bound by
    # much structure... it stays a valid bound: check it never exceeds the
    # trivial upper bound from the full weight class
    L = data.draw(st.integers(2 * s + r + 1, 2 * s + r + 6))
    from ppric.words import binom

    lo = bounds.best_lower(L, s, r)
    assert 1 <= lo <= binom(L, s)


def test_best_lower_never_beats_exact():
    # wherever the certified table speaks, the bounds must not contradict it
    for L in range(5, 13):
        for s in range(1, L // 2 + 1):
            for r in range(0, max(0, L - 2 * s)):
                v = bounds.exact_n(L, s, r)
                if v is not None:
                    assert bounds.best_lower(L, s, r) <= v


def test_chain_probe_misses_pinned(monkeypatch):
    # every covering number within the exact search's n <= EXACT_N_CAP
    # that the chain probes for L <= 40 and r <= 5, and which of them its
    # 50k-node budget misses; a slower covering search shows up here as a
    # longer list.  The probes at t = 1 take the closed form, not the search
    real = covering.exact_covering_number
    seen = {}
    asked = set()
    inner = bounds._covering_probe

    def asking(n, k, t):
        asked.add((n, k, t))
        return inner(n, k, t)

    def probe(n, k, t, node_budget):
        if (n, k, t) not in seen:
            try:
                seen[n, k, t] = real(n, k, t, node_budget=node_budget)
            except CapacityError:
                seen[n, k, t] = None
        if seen[n, k, t] is None:
            raise CapacityError("probe budget")
        return seen[n, k, t]

    monkeypatch.setattr(covering, "exact_covering_number", probe)
    monkeypatch.setattr(bounds, "_covering_probe", asking)
    for L in range(1, 41):
        for r in range(0, 6):
            for s in range(1, (L - r - 1) // 2 + 1):
                bounds.lb_covering_chain(L, s, r)
    # the search itself refuses every probe past its cap
    assert all(value is None for key, value in seen.items()
               if key[0] > covering.EXACT_N_CAP)
    seen = {key: value for key, value in seen.items()
            if key[0] <= covering.EXACT_N_CAP}
    asked = {key for key in asked if key[0] <= covering.EXACT_N_CAP}
    assert len(asked) == 82
    assert set(seen) == {key for key in asked if key[2] > 1}
    assert sorted(key for key, value in seen.items() if value is None) == [
        (9, 6, 4), (10, 6, 3), (10, 7, 4), (10, 7, 5),
    ]
    # settled within the budget, at the La Jolla Covering Repository values
    assert seen[9, 6, 3] == 7 and seen[10, 7, 3] == 6


def test_probe_takes_the_closed_form_at_t1():
    # c(n, k, 1) = ceil(n / k), the exact search's value wherever it runs;
    # past the search's cap the probe still has no value
    for n in range(1, covering.EXACT_N_CAP + 1):
        for k in range(1, n + 1):
            assert (bounds._covering_probe(n, k, 1) == -(-n // k)
                    == covering.exact_covering_number(n, k, 1))
    assert bounds._covering_probe(covering.EXACT_N_CAP + 1, 3, 1) is None


def test_chain_probes_are_paid_once(monkeypatch):
    real = covering.exact_covering_number
    calls = []

    def probe(n, k, t, node_budget):
        calls.append((n, k, t))
        return real(n, k, t, node_budget=node_budget)

    monkeypatch.setattr(covering, "exact_covering_number", probe)
    # (11, 3, 2) probes c(10, 7, 3)
    first = bounds.compute_report(11, 3, 2)
    assert (10, 7, 3) in calls
    del calls[:]
    again = bounds.compute_report(11, 3, 2)
    assert calls == []
    assert again.to_json_dict() == first.to_json_dict()

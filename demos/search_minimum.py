"""Exhaustive minimum-size search, from easy to deliberately hard.

The searcher brackets the minimum first: when the smallest catalog code
or a greedy cover meets the best lower bound, that code is the witness
and no tree node is spent.  Otherwise it deepens from the lower bound and
emits the first witness in a fixed branch order, so results are
reproducible run to run.  The last example is the smallest point where
the closed-form table and the search engine disagree; the engine wins.
"""

from ppric import exact_n, exact_n_search, minimal_codes_enumerate


def main():
    for L, s, r in [(5, 2, 0), (7, 3, 0), (7, 2, 1), (11, 5, 0)]:
        res = exact_n_search(L, s, r)
        words = [sorted(w.support()) for w in res.witness.codewords]
        print(f"N({L},{s},{r}) = {res.n_exact}"
              f"   [{res.nodes_explored} nodes]")
        print("   witness:", words)

    print("\nall minimum codes at (6, 2, 1) whose first word is {1, 2}:")
    for code in minimal_codes_enumerate(6, 2, 1, 6):
        print("  ", [sorted(w.support()) for w in code.codewords])

    print("\nthe (9, 3, 1) discrepancy:")
    print("  closed-form table offers:", exact_n(9, 3, 1),
          "(None: the library refuses the uncertified value 6)")
    res = exact_n_search(9, 3, 1)
    print(f"  exhaustive search says: {res.n_exact}"
          f"   [{res.nodes_explored} nodes]")
    print("   witness:", [sorted(w.support()) for w in res.witness.codewords])


if __name__ == "__main__":
    main()

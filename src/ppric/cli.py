"""Command line front end.

One verb per task: ``verify``, ``construct``, ``bounds``, ``exact-n``,
``search``, ``sweep``, ``simulate``, ``covering``, ``johnson``.  Output is
JSON on stdout (CSV for ``sweep``), compact by default, indented with
``--pretty``.  Exit status: 0 on success, 1 when a predicate verb answers
no (code fails verification, exact check refuted), 2 on bad input, 3 when
an instance exceeds a built-in capacity cap.

Every document a verb emits can be fed back in: ``construct`` output is a
valid ``--code`` file for ``verify`` and ``simulate``, and ``johnson
--construct`` output feeds ``johnson --verify``.
"""

import argparse
import csv
import functools
import json
import sys

from . import bounds
from .codes import PpricCode, verify_enumeration, verify_exact
from .construct import available_recipes, build_recipe
from .cover import Budget
from .covering import (
    exact_covering_number,
    load_design,
    schoenheim_bound,
    verify_covering,
)
from .errors import CapacityError, FormatError, ParameterError, read_text
from .jsondoc import dumps
from .protocol import load_database, run_simulation
from .schemes import (
    JohnsonPpricCode,
    johnson_construction,
    johnson_exact_check,
    johnson_verify,
    product_covering_code,
    qary_verify,
    verify_johnson_covering,
)
from .search import DEFAULT_NODE_BUDGET, exact_n_search
from .words import BinaryWord, JohnsonWord, QaryWord


class _Parser(argparse.ArgumentParser):
    """argparse, but usage problems become a single stderr line."""

    def error(self, message):
        print(f"error: usage: {message}", file=sys.stderr)
        raise SystemExit(2)


def _emit(doc, pretty: bool) -> None:
    print(dumps(doc, pretty))


def _load_json(path: str) -> dict:
    text = read_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path} is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: expected a JSON object")
    return doc


def _load_code(path: str):
    """Binary and Johnson code files are told apart by their keys."""
    doc = _load_json(path)
    if "x" in doc:
        return JohnsonPpricCode.from_json_dict(doc)
    return PpricCode.from_json_dict(doc)


def _seed(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")


# ---------------------------------------------------------------------------
# verb handlers
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    code = _load_code(args.code)
    if isinstance(code, JohnsonPpricCode):
        for flag, given in (("--q", args.q is not None),
                            ("--enumerate", args.enumerate_oracle)):
            if given:
                raise ParameterError(f"{flag} does not apply to a Johnson code")
        method = "johnson"
        verdict = johnson_verify(code)
    elif args.q is not None:
        method = f"qary[q={args.q}]"
        verdict = qary_verify(code, args.q)
    elif args.enumerate_oracle:
        method = "enumeration"
        verdict = verify_enumeration(code)
    else:
        method = "exact"
        verdict = verify_exact(code)
    _emit({"method": method, **verdict.to_json_dict()}, args.pretty)
    return 0 if verdict.is_ppric else 1


def cmd_construct(args) -> int:
    wanted = {key: value for key, value in
              (("rule", args.rule), ("k", args.k), ("t", args.t))
              if value is not None}
    recipes = [rec for rec in available_recipes(args.L, args.s, args.r)
               if wanted.items() <= rec.to_json_dict().items()]
    if not recipes:
        asked = ", ".join(f"{key}={value}" for key, value in wanted.items())
        raise ParameterError(
            f"no feasible recipe with {asked} at "
            f"({args.L},{args.s},{args.r}); try --list"
        )
    if args.list:
        _emit(
            [{"rule": rec.rule_label(), "size": rec.size} for rec in recipes],
            args.pretty,
        )
        return 0
    picked = recipes[0]
    code = build_recipe(picked, args.L, args.s, args.r)
    doc = code.to_json_dict()
    doc["rule"] = picked.rule_label()
    doc["size"] = code.size
    _emit(doc, args.pretty)
    return 0


def cmd_bounds(args) -> int:
    report = bounds.compute_report(args.L, args.s, args.r)
    _emit(report.to_json_dict(), args.pretty)
    return 0


def cmd_exact_n(args) -> int:
    hit = bounds.exact_n(args.L, args.s, args.r, with_rule=True)
    doc = {"L": args.L, "s": args.s, "r": args.r}
    if hit is None:
        doc["exact"] = None
        doc["rule"] = None
    else:
        doc["rule"], doc["exact"] = hit
    _emit(doc, args.pretty)
    return 0


def cmd_search(args) -> int:
    result = exact_n_search(
        args.L,
        args.s,
        args.r,
        size_cap=args.size_cap,
        node_budget=args.node_budget,
    )
    _emit(result.to_json_dict(), args.pretty)
    return 0


def _parse_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    try:
        if sep:
            return range(int(lo), int(hi) + 1)
        return range(int(text), int(text) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected N or A..B, got {text!r}"
        )


def cmd_sweep(args) -> int:
    Budget(args.node_budget)  # a bad budget is refused before the header
    writer = csv.writer(sys.stdout)
    writer.writerow(
        ["L", "s", "r", "best_lower", "best_upper", "exact", "search",
         "lower_le_upper", "exact_eq_search", "note"]
    )
    for r in args.r:
        for s in args.s:
            for L in args.L:
                if s < 1 or r < 0 or L < 2 * s + r + 1:
                    continue
                notes = []
                report = bounds.compute_report(L, s, r)
                lo, up, ex = report.best_lower, report.best_upper, report.exact
                sv = None
                if not args.no_search:
                    try:
                        sv = exact_n_search(
                            L, s, r,
                            size_cap=up,
                            node_budget=args.node_budget,
                        ).n_exact
                    except CapacityError as exc:
                        notes.append(f"search capacity: {exc}")
                flag_lu = "" if up is None else ("yes" if lo <= up else "no")
                flag_es = ""
                if ex is not None and sv is not None:
                    flag_es = "yes" if ex == sv else "no"
                writer.writerow([
                    L, s, r, lo,
                    "" if up is None else up,
                    "" if ex is None else ex,
                    "" if sv is None else sv,
                    flag_lu, flag_es, "; ".join(notes),
                ])
    return 0


def cmd_simulate(args) -> int:
    code = _load_code(args.code)
    if isinstance(code, JohnsonPpricCode):
        db = load_database(args.db, kind="johnson", n=code.n)
        x = JohnsonWord.from_string(code.n, args.x)
        radius = code.r if args.r is None else args.r
    elif args.q is not None and args.q != 2:
        db = load_database(args.db, kind="qary", q=args.q)
        x = QaryWord.from_string(args.q, args.x)
        radius = code.params.r if args.r is None else args.r
    else:
        db = load_database(args.db)
        x = BinaryWord.from_string(args.x)
        radius = code.params.r if args.r is None else args.r
    transcript = run_simulation(
        db, x, radius, code, args.seed, allow_unverified=args.allow_unverified
    )
    _emit(transcript.to_json_dict(), args.pretty)
    return 0


def cmd_covering(args) -> int:
    if args.design is not None:
        design = load_design(args.design)
        ok = verify_covering(design)
        _emit(
            {"n": design.n, "k": design.k, "t": design.t,
             "size": design.size, "covers": ok},
            args.pretty,
        )
        return 0 if ok else 1
    if args.n is None or args.k is None or args.t is None:
        raise ParameterError("--exact and --schoenheim need --n, --k and --t")
    if args.exact:
        value = exact_covering_number(args.n, args.k, args.t)
        doc = {"n": args.n, "k": args.k, "t": args.t, "c": value}
        if args.n > args.k > args.t:
            doc["schoenheim"] = schoenheim_bound(args.n, args.k, args.t)
        _emit(doc, args.pretty)
        return 0
    _emit(
        {"n": args.n, "k": args.k, "t": args.t,
         "schoenheim": schoenheim_bound(args.n, args.k, args.t)},
        args.pretty,
    )
    return 0


def cmd_johnson(args) -> int:
    if args.construct:
        _require_nlsr(args)
        x = None
        if args.x is not None:
            x = JohnsonWord.from_string(args.n, args.x)
        code = johnson_construction(args.n, args.L, args.s, args.r, x=x)
        _emit(code.to_json_dict(), args.pretty)
        return 0
    if args.exact_check:
        _require_nlsr(args)
        ok = johnson_exact_check(args.n, args.L, args.s, args.r)
        _emit(
            {"n": args.n, "L": args.L, "s": args.s, "r": args.r,
             "size": 2 * args.r + 3, "confirmed": ok},
            args.pretty,
        )
        return 0 if ok else 1
    if args.verify is not None:
        code = _load_code(args.verify)
        if not isinstance(code, JohnsonPpricCode):
            raise FormatError(f"{args.verify} is not a Johnson code file")
        verdict = johnson_verify(code)
        _emit({"method": "johnson", **verdict.to_json_dict()}, args.pretty)
        return 0 if verdict.is_ppric else 1
    first, second = (load_design(p) for p in args.product)
    code = product_covering_code(first, second)
    verdict = verify_johnson_covering(code)
    _emit(
        {"code": code.to_json_dict(), "covering": verdict.to_json_dict()},
        args.pretty,
    )
    return 0 if verdict.at_least_one else 1


def _require_nlsr(args) -> None:
    if None in (args.n, args.L, args.s, args.r):
        raise ParameterError("this mode needs --n, --L, --s and --r")


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

@functools.cache  # built once per process; parse_args keeps no state
def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true",
                        help="indent JSON output")
    point = argparse.ArgumentParser(add_help=False)
    for name in ("--L", "--s", "--r"):
        point.add_argument(name, type=int, required=True)

    parser = _Parser(prog="ppric", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("verify", parents=[common],
                       help="check a code file for the covering property")
    p.add_argument("--code", required=True, help="code JSON file")
    p.add_argument("--enumerate", dest="enumerate_oracle",
                   action="store_true",
                   help="use the full-enumeration oracle instead")
    p.add_argument("--q", type=int, help="check over a q-letter alphabet")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("construct", parents=[common, point],
                       help="build a code from the recipe catalog")
    p.add_argument("--rule", help="keep only this recipe family")
    p.add_argument("--k", type=int, help="keep only recipes with this k")
    p.add_argument("--t", type=int, help="keep only recipes with this t")
    p.add_argument("--list", action="store_true",
                   help="list the kept recipes instead of building")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("bounds", parents=[common, point],
                       help="every applicable bound at one parameter point")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("exact-n", parents=[common, point],
                       help="closed-form minimum size when one is on record")
    p.set_defaults(func=cmd_exact_n)

    p = sub.add_parser("search", parents=[common, point],
                       help="exhaustive minimum-size search with witness")
    p.add_argument("--size-cap", type=int, dest="size_cap")
    p.add_argument("--node-budget", type=int, dest="node_budget",
                   default=DEFAULT_NODE_BUDGET)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("sweep", parents=[common],
                       help="CSV of bounds/exact/search over a grid")
    p.add_argument("--L", type=_parse_range, required=True,
                   metavar="A..B or N")
    p.add_argument("--s", type=_parse_range, required=True,
                   metavar="A..B or N")
    p.add_argument("--r", type=_parse_range, required=True,
                   metavar="A..B or N")
    p.add_argument("--no-search", action="store_true", dest="no_search",
                   help="skip the search column")
    p.add_argument("--node-budget", type=int, dest="node_budget",
                   default=DEFAULT_NODE_BUDGET)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", parents=[common],
                       help="run the retrieval protocol against a database")
    p.add_argument("--db", required=True, help="one record per line")
    p.add_argument("--x", required=True, help="the private point")
    p.add_argument("--code", required=True, help="code JSON file")
    p.add_argument("--r", type=int,
                   help="target radius (default: the code's radius)")
    p.add_argument("--q", type=int,
                   help="alphabet size for a q-ary run (default binary)")
    p.add_argument("--seed", type=_seed, default=0,
                   help="64-bit generator seed (default 0)")
    p.add_argument("--allow-unverified", action="store_true",
                   dest="allow_unverified",
                   help="skip the covering check on the code")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("covering", parents=[common],
                       help="covering designs: verify, exact number, bound")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--design", help="design file to verify")
    mode.add_argument("--exact", action="store_true",
                      help="exhaustive c(n,k,t)")
    mode.add_argument("--schoenheim", action="store_true",
                      help="lower bound only")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--t", type=int)
    p.set_defaults(func=cmd_covering)

    p = sub.add_parser("johnson", parents=[common],
                       help="fixed-weight scheme: construct, check, verify")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--construct", action="store_true",
                      help="build the 2r+3 swap code")
    mode.add_argument("--exact-check", action="store_true",
                      dest="exact_check",
                      help="prove 2r+3 minimal by exhaustion (small n)")
    mode.add_argument("--verify", metavar="CODE",
                      help="verify a Johnson code file")
    mode.add_argument("--product", nargs=2, metavar=("D1", "D2"),
                      help="covering-code product from two design files")
    p.add_argument("--n", type=int)
    p.add_argument("--L", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--x", help="center, as {1,2,...} (with --construct)")
    p.set_defaults(func=cmd_johnson)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: format: {exc}", file=sys.stderr)
        return 2
    except ParameterError as exc:
        print(f"error: parameter: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"error: capacity: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of ppric: exhaustive searches, construct/verify, and the protocol.

    python3 bench/run.py --workload search --seed 1 --seconds 30 --trace 0

One process per run, one caller, no warm-up pass: the run repeats whole
rounds of its workload's ops, each op issued after the previous one
returns, until ``--seconds`` have passed.  ``search`` and
``construct_verify`` ops call ``ppric.cli.main(argv)`` in-process with
stdout captured, on ppric imported afresh before every round, so that no
program state carries from one round to the next; ``protocol_sim`` ops
call ``run_simulation`` against one in-memory database.  Every output is
checked by ``checks.py``, apart from the program, after the ops and after
the peak memory is read.  Every op and set-up is timed, then scaled to the
machine's reference speed by the yardstick in ``speed.py``; the end-to-end
times are those reference times.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics from spans with ``--trace 1``).  Each run also writes
one row per op, with machine facts, to
``bench/results/<workload>-seed<seed>-trace<trace>.jsonl``; a traced run
writes its spans to ``...-spans.jsonl`` beside it.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(BENCH, "results")
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path.insert(0, SRC)

import checks  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import Speed  # noqa: E402

# setup_s is the median of the set-ups made before the ops (the last one
# feeds them), between rounds (search and construct_verify) and after the
# ops, so that one slow spell of the machine does not decide it
SETUPS_BEFORE = 5
SETUPS_AFTER = 4


# one call into the program, and the check of what it returned; keep, if
# given, cuts the result down to what the check reads, outside the timing
Op = collections.namedtuple("Op", "name params call check keep",
                            defaults=(None,))


def run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def cli_op(cli, name, params, argv, check):
    return Op(name, params, lambda: run_cli(cli, argv),
              lambda res: check(json.loads(res[1])))


# ---------------------------------------------------------------------------
# search: the three exhaustive minimum-cover engines
# ---------------------------------------------------------------------------

# Op counts per round are odd (11, 15, 5), so that the median and the 90th
# percentile of a run's op times fall inside one op's samples rather than
# between two ops of very different cost.

# deep trees, where the DFS dominates
SEARCH_DEEP = [(9, 3, 1), (11, 5, 0), (11, 3, 2), (11, 3, 1), (10, 3, 1)]
# larger L and shallow trees, where building search._Space dominates
SEARCH_WIDE = [(13, 3, 2), (12, 4, 0)]
COVERING = [(9, 4, 2), (8, 3, 2)]
JOHNSON = [(16, 8, 1, 0), (18, 9, 1, 0)]


class SearchWorkload:
    """Fixed points with known answers; the seed does not change them."""

    fresh_each_round = True

    def __init__(self, ppric, cli, seed, workdir):
        self.ops = []
        for L, s, r in SEARCH_DEEP + SEARCH_WIDE:
            argv = ["search", "--L", str(L), "--s", str(s), "--r", str(r)]
            self.ops.append(cli_op(
                cli, "search", {"L": L, "s": s, "r": r}, argv,
                lambda doc, p=(L, s, r): checks.check_search(doc, *p)))
        for n, k, t in COVERING:
            argv = ["covering", "--exact", "--n", str(n), "--k", str(k),
                    "--t", str(t)]
            self.ops.append(cli_op(
                cli, "covering", {"n": n, "k": k, "t": t}, argv,
                lambda doc, p=(n, k, t): checks.check_covering(doc, *p)))
        for n, L, s, r in JOHNSON:
            argv = ["johnson", "--exact-check", "--n", str(n), "--L", str(L),
                    "--s", str(s), "--r", str(r)]
            self.ops.append(cli_op(
                cli, "johnson", {"n": n, "L": L, "s": s, "r": r}, argv,
                lambda doc, p=(n, L, s, r): checks.check_johnson(doc, *p)))

    def round_ops(self):
        return self.ops


# ---------------------------------------------------------------------------
# construct_verify: the exact verifier behind every construction
# ---------------------------------------------------------------------------

# (L, s, r, rule, k); rule None takes the catalog's first choice (extremal)
CONSTRUCT = [
    (17, 7, 2, None, None),
    (19, 8, 2, None, None),
    (18, 7, 3, None, None),
    (24, 7, 3, "construction2", 7),
    (29, 9, 2, "construction3", 9),
    (22, 10, 1, "construction2", 10),
]

# code files the benchmark writes: name -> (L, s, r, masks)
VERIFY_CODES = {
    "extremal-6-3": (16, 6, 3, checks.extremal_code(6, 3)),
    "extremal-6-4": (17, 6, 4, checks.extremal_code(6, 4)),
    "construction2-20-5-3": (20, 5, 3, checks.superset_code(3, 5, 5, 3, False)),
    "construction3-20-6-2": (20, 6, 2, checks.superset_code(2, 6, 6, 2, True)),
    "disjoint-30-5-3": (30, 5, 3, checks.disjoint_code(5, 3)),
}
# these lose all but r+2 words, so they must fail: N(L, s, r) >= r+3
ALTERED = ["extremal-6-3", "extremal-6-4", "construction2-20-5-3",
           "construction3-20-6-2"]


def _recipe_size(rule_label, s, r):
    if rule_label == "ub.extremal":
        return checks.extremal_size(s, r)
    family, _, inner = rule_label[3:].partition("[")
    p = dict(kv.split("=") for kv in inner.rstrip("]").split(","))
    k, t = int(p["k"]), int(p["t"])
    if family == "construction2":
        return checks.construction2_size(r, k, t)
    return checks.construction3_size(r, k, t)


def _check_construct(doc, L, s, r, rule):
    label = doc.get("rule", "")
    if rule is None and label != "ub.extremal":
        return [f"catalog chose {label}, expected ub.extremal"]
    if rule is not None and not label.startswith(f"ub.{rule}["):
        return [f"catalog chose {label}, expected {rule}"]
    bad = checks.check_words(doc, L, s, r, _recipe_size(label, s, r))
    return bad or checks.check_valid_code(doc, L, s, r)


def _check_verify(res, masks, L, s, r, expect):
    bad = checks.check_verdict(json.loads(res[1]), masks, L, s, r, expect)
    if res[0] != (0 if expect else 1):
        bad.append(f"exit code {res[0]} for a verdict expected {expect}")
    return bad


class ConstructVerifyWorkload:
    """The seed picks the r+2 words each altered copy keeps."""

    fresh_each_round = True

    def __init__(self, ppric, cli, seed, workdir):
        rng = random.Random(seed)
        os.makedirs(workdir, exist_ok=True)
        files = []
        for name, (L, s, r, masks) in VERIFY_CODES.items():
            files.append((name, L, s, r, masks, True))
            if name in ALTERED:
                kept = sorted(rng.sample(range(len(masks)), r + 2))
                files.append((name + "-altered", L, s, r,
                              [masks[i] for i in kept], False))
        self.ops = []
        for L, s, r, rule, k in CONSTRUCT:
            argv = ["construct", "--L", str(L), "--s", str(s), "--r", str(r)]
            if rule is not None:
                argv += ["--rule", rule, "--k", str(k)]
            self.ops.append(cli_op(
                cli, "construct", {"L": L, "s": s, "r": r, "rule": rule, "k": k},
                argv, lambda doc, p=(L, s, r, rule): _check_construct(doc, *p)))
        for name, L, s, r, masks, expect in files:
            text = json.dumps({"L": L, "s": s, "r": r,
                               "codewords": checks.to_strings(L, masks)})
            ppric.PpricCode.loads(text)  # the program's own loader accepts it
            path = os.path.join(workdir, name + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.ops.append(Op(
                "verify", {"code": name},
                lambda argv=["verify", "--code", path]: run_cli(cli, argv),
                lambda res, p=(masks, L, s, r, expect): _check_verify(res, *p)))

    def round_ops(self):
        return self.ops


# ---------------------------------------------------------------------------
# protocol_sim: run_simulation against one in-memory database
# ---------------------------------------------------------------------------

PROTOCOL_L = 17
RECORDS = 20_000
CLUSTERS = 500
# Hamming weight of the offset of a record from its cluster centre
OFFSET_WEIGHTS = [0, 1, 1, 2, 2, 2, 3, 3, 4, 5]
# (name, s, r, masks): 4, 5, 10, 35 and 44 servers, all on L = 17
PROTOCOL_CODES = [
    ("disjoint-17-4-1", 4, 1, checks.disjoint_code(4, 1)),
    ("disjoint-17-3-2", 3, 2, checks.disjoint_code(3, 2)),
    ("extremal-4-1", 4, 1, checks.extremal_code(4, 1)),
    ("extremal-6-2", 6, 2, checks.extremal_code(6, 2)),
    ("extremal-7-2", 7, 2, checks.extremal_code(7, 2)),
]


def _flip(rng, word, weight):
    for c in rng.sample(range(PROTOCOL_L), weight):
        word ^= 1 << c
    return word


def _keep_transcript(tr):
    return (tr.reconstructed, [q.vector.mask for q in tr.queries],
            tr.privacy_level)


class ProtocolWorkload:
    """The seed makes the database, the user points and the call seeds."""

    # one database for the whole run, as a server would hold it
    fresh_each_round = False

    def __init__(self, ppric, cli, seed, workdir):
        rng = random.Random(seed)
        L = PROTOCOL_L
        self.centres = [rng.getrandbits(L) for _ in range(CLUSTERS)]
        self.records = [
            _flip(rng, self.centres[i % CLUSTERS], rng.choice(OFFSET_WEIGHTS))
            for i in range(RECORDS)
        ]
        text = "\n".join(format(y, f"0{L}b")[::-1] for y in self.records)
        self.db = ppric.Database.from_text(text)
        self.codes = []
        for name, s, r, masks in PROTOCOL_CODES:
            doc = {"L": L, "s": s, "r": r,
                   "codewords": checks.to_strings(L, masks)}
            code = ppric.PpricCode.loads(json.dumps(doc))
            self.codes.append((name, s, r, len(masks), code))
        self.ppric = ppric
        self.rng = random.Random(seed ^ 0x5EED)

    def round_ops(self):
        ops = []
        for name, s, r, size, code in self.codes:
            x = _flip(self.rng, self.rng.choice(self.centres),
                      self.rng.choice([0, 1, 2]))
            call_seed = self.rng.getrandbits(64)
            word = self.ppric.BinaryWord(PROTOCOL_L, x)
            ops.append(Op(
                "simulate",
                {"code": name, "x": format(x, f"0{PROTOCOL_L}b")[::-1],
                 "seed": call_seed},
                lambda w=word, r=r, c=code, sd=call_seed:
                    self.ppric.run_simulation(self.db, w, r, c, sd),
                lambda kept, x=x, s=s, r=r, size=size: checks.check_transcript(
                    *kept, self.records, x, PROTOCOL_L, s, r, size),
                _keep_transcript))
        return ops


WORKLOADS = {
    "search": SearchWorkload,
    "construct_verify": ConstructVerifyWorkload,
    "protocol_sim": ProtocolWorkload,
}


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def _fresh_ppric():
    """Import ppric anew from this checkout's src/, never from elsewhere."""
    for name in [m for m in sys.modules if m == "ppric" or m.startswith("ppric.")]:
        del sys.modules[name]
    ppric = importlib.import_module("ppric")
    if not os.path.abspath(ppric.__file__).startswith(SRC + os.sep):
        raise ImportError(f"ppric imported from {ppric.__file__}, not {SRC}")
    return ppric, importlib.import_module("ppric.cli")


def _machine():
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "load1": os.getloadavg()[0]}


def run_round(ops, tracer, speed, rnd, rows, pending) -> int:
    """Issue one round of ops in order; append their rows; return failures.

    The result of each op that did not fail goes to ``pending`` with its
    row, to be checked after the run.
    """
    failed = 0
    for slot, op in enumerate(ops):
        speed.start()
        if tracer is not None:
            tracer.op = len(rows)
            span = tracer.begin("op." + op.name)
        t0 = time.perf_counter()
        try:
            result = op.call()
            error = None
        except Exception as exc:  # an op that raises counts as failed
            result, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            speed.stop()
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end(span)
        dt, ref = speed.scale(dt)
        # the CLI answers with exit 0 or 1 (a "no" verdict); 2 and 3
        # refuse the input or the size
        if error is None and isinstance(result, tuple) and result[0] not in (0, 1):
            error = f"exit {result[0]}: {result[2].strip()}"
        row = {"kind": "op", "round": rnd, "slot": slot, "op": op.name,
               "params": op.params, "seconds": dt, "ref_seconds": ref,
               "yardstick_s": speed.before, "ticks": len(speed.ticks),
               "outcome": None}
        rows.append(row)
        if error is not None:
            failed += 1
            row["outcome"] = "failed: " + error
        else:
            pending.append((row, op.check,
                            result if op.keep is None else op.keep(result)))
    return failed


def check_results(pending) -> list[str]:
    """Run the checks on the kept results; fill in the rows' outcomes."""
    problems = []
    for row, check, result in pending:
        try:
            bad = check(result)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            bad = [f"unreadable output: {type(exc).__name__}: {exc}"]
        row["outcome"] = "ok" if not bad else "wrong: " + "; ".join(bad)
        if bad:
            problems.append(f"{row['op']} {row['params']}: {row['outcome']}")
    return problems


def end_to_end(rows, round_walls, setups, peak_rss_mb) -> dict:
    """Every time is at the reference speed (see speed.py)."""
    times = [row["ref_seconds"] for row in rows]
    return {
        "wall_s": (statistics.mean(round_walls), "s"),
        "op_geomean_ms": (1e3 * statistics.geometric_mean(times), "ms"),
        "op_p50_ms": (1e3 * statistics.median(times), "ms"),
        "op_p90_ms": (1e3 * statistics.quantiles(
            times, n=10, method="inclusive")[8], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "ppric")):
        print(f"error: no ppric package under {SRC}", file=sys.stderr)
        return 2
    machine = _machine()
    os.makedirs(RESULTS, exist_ok=True)
    workdir = os.path.join(RESULTS, f"work-{args.workload}-seed{args.seed}")

    # set-up times at the reference speed, and as measured
    setups, setups_raw = [], []
    speed = Speed()

    def set_up(tracer):
        # the previous workload and its modules are gone before the timing
        # starts, so that two are never alive at once
        gc.collect()
        speed.stale()
        speed.start()
        t0 = time.perf_counter()
        try:
            ppric, cli = _fresh_ppric()
            if tracer is not None:
                tracer.op = None
                tracer.install()
            workload = WORKLOADS[args.workload](ppric, cli, args.seed, workdir)
        finally:
            speed.stop()
        dt, ref = speed.scale(time.perf_counter() - t0)
        setups_raw.append(dt)
        setups.append(ref)
        return workload

    tracer = Tracer() if args.trace else None
    for _ in range(SETUPS_BEFORE):
        workload = None
        workload = set_up(tracer)

    rows, pending, round_walls, round_walls_raw = [], [], [], []
    failed = 0
    start = time.perf_counter()
    while not round_walls or time.perf_counter() - start < args.seconds:
        if round_walls and workload.fresh_each_round:
            workload = None
            workload = set_up(tracer)
        first = len(rows)
        failed += run_round(workload.round_ops(), tracer, speed,
                            len(round_walls), rows, pending)
        round_walls.append(sum(row["ref_seconds"] for row in rows[first:]))
        round_walls_raw.append(sum(row["seconds"] for row in rows[first:]))

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = check_results(pending)
    if tracer is not None:
        metrics = tracer.layer_metrics(len(round_walls))
    del pending
    for _ in range(SETUPS_AFTER):
        workload = None
        workload = set_up(None)

    e2e = end_to_end(rows, round_walls, setups, peak_rss_mb)
    if tracer is None:
        metrics = e2e
    result = {"correct": not problems, "attempted": len(rows),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}

    stem = os.path.join(
        RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    machine["load1_end"] = os.getloadavg()[0]
    with open(stem + ".jsonl", "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"kind": "run", "workload": args.workload,
                             "seed": args.seed, "seconds": args.seconds,
                             "trace": args.trace, "machine": machine,
                             "setup_s": setups, "setup_raw_s": setups_raw,
                             "round_wall_s": round_walls,
                             "round_wall_raw_s": round_walls_raw,
                             "wall_s": e2e["wall_s"][0]}) + "\n")
        for row in rows:
            fh.write(json.dumps(row) + "\n")
        fh.write(json.dumps({"kind": "result", **result}) + "\n")
    if tracer is not None:
        tracer.write(stem + "-spans.jsonl")
    for line in problems:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Steadiness check: run workloads over several seeds, report the spreads.

    python3 bench/steady.py --seeds 1..10

Runs ``bench/run.py`` once per (workload, seed), one at a time, with the
run length from BENCHMARK.json.  For every end-to-end metric it prints the
median over seeds and the spread: the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median,
next to the metric's bound, and the mean length of a run.  The table is
also written to ``bench/results/steady-<first seed>-<last seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1..10", help="A..B")
    args = ap.parse_args()
    lo, _, hi = args.seeds.partition("..")
    seeds = range(int(lo), int(hi or lo) + 1)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    table = {}
    for wl in [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {}
        fails, lengths = [], []
        for seed in seeds:
            t0 = time.monotonic()
            proc = subprocess.run(
                spec["command"] + ["--workload", wl, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]),
                                   "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lengths.append(time.monotonic() - t0)
            lines = proc.stdout.splitlines()
            res = json.loads(lines[-1]) if lines and not proc.returncode else {}
            if not res.get("correct"):
                print(f"{wl} seed {seed}: not correct\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            fails.append(res["failed"] / res["attempted"])
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med, "bound": bounds[name],
                          "values": vals}
            print(f"{wl:17s} {name:14s} median {med:12.4f} "
                  f"spread {rows[name]['spread']:.4f} bound {bounds[name]}")
        print(f"{wl:17s} mean run length {statistics.mean(lengths):.1f} s")
        table[wl] = {"failed_share": sorted(set(fails)), "run_s": lengths,
                     "metrics": rows}
    os.makedirs(os.path.join(BENCH, "results"), exist_ok=True)
    out = os.path.join(BENCH, "results", f"steady-{seeds[0]}-{seeds[-1]}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Steadiness of the airbench figures: repeat runs, quartiles, and a
comparison of two sets of runs against the bounds in BENCHMARK.json.

Run from the repository root.

    python3 airbench/steady.py run --workload serve_steady [--runs 10]
        [--first-seed 1] [--seconds S] [--trace 0] [--out set.json]

runs the workload once per seed (first-seed, first-seed + 1, ...) and
prints, for every metric, its median, first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median next
to the metric's bound, plus the share of failed operations. With --out it
writes the runs to a JSON file for `compare`.

    python3 airbench/steady.py compare first.json second.json

compares two such sets workload by workload: for each end-to-end metric the
second median may be worse than the first by at most the metric's bound,
each spread except setup_s's must stay within its bound, and the shares of
failed operations must be equal. Exits 1 if any of that fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def bounds(bench):
    return {m["name"]: m for m in bench["end_to_end"]}


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(runs, known):
    """Per metric: (median, q1, q3, spread) over the runs."""
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else float("inf")
        out[name] = (med, q1, q3, spread, known.get(name))
    return out


def failed_share(runs):
    return [r["failed"] / r["attempted"] for r in runs]


def cmd_run(args):
    bench = spec()
    known = bounds(bench)
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        r = run_once(args.workload, seed, seconds, args.trace)
        runs.append(r)
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}",
              flush=True)
    print(f"\n{args.workload}: {len(runs)} runs of {seconds} s, trace {args.trace}")
    print(f"{'metric':<26}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}")
    for name, (med, q1, q3, spread, m) in summarize(runs, known).items():
        bound = m["bound"] if m else None
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "  OVER" if spread > bound else ("  > bound/3" if spread > bound / 3 else "")
        b = f"{bound:.3f}" if bound is not None else "-"
        print(f"{name:<26}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.4f}{b:>8}{flag}")
    shares = sorted(set(failed_share(runs)))
    print(f"failed share: {shares}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump({"workload": args.workload, "trace": args.trace, "runs": runs}, f)
    return 0


def cmd_compare(args):
    known = bounds(spec())
    sets = []
    for path in (args.first, args.second):
        with open(path, encoding="utf-8") as f:
            sets.append(json.load(f))
    a, b = sets
    ok = True
    if a["workload"] != b["workload"]:
        raise SystemExit("the two sets ran different workloads")
    sa, sb = summarize(a["runs"], known), summarize(b["runs"], known)
    print(f"{a['workload']}: {'metric':<22}{'first':>14}{'second':>14}{'change':>9}{'bound':>8}")
    for name, m in known.items():
        if name not in sa or name not in sb:
            print(f"  {name}: missing")
            ok = False
            continue
        first, second = sa[name][0], sb[name][0]
        change = (second - first) / first if first else 0.0
        worse = change if m["better"] == "lower" else -change
        verdict = "ok"
        if worse > m["bound"]:
            verdict, ok = "WORSE", False
        for s in (sa, sb):
            if name != "setup_s" and s[name][3] > m["bound"]:
                verdict, ok = "SPREAD", False
        print(f"  {name:<28}{first:>14.6g}{second:>14.6g}{change:>+9.4f}{m['bound']:>8.3f}  {verdict}")
    fa, fb = set(failed_share(a["runs"])), set(failed_share(b["runs"]))
    if fa != fb or len(fa) != 1:
        print(f"  failed shares differ: {sorted(fa)} vs {sorted(fb)}")
        ok = False
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--seconds", type=int, default=0)
    r.add_argument("--trace", type=int, default=0, choices=[0, 1])
    r.add_argument("--out")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = parser.parse_args()
    return cmd_run(args) if args.cmd == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())

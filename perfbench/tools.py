#!/usr/bin/env python3
"""Repeat, summarize and compare perfbench runs. Run from the repository root.

  python3 perfbench/tools.py runs --workload solve --seeds 1-10 [--spin-ms X] [--trace 1] > solve.jsonl
  python3 perfbench/tools.py spread solve.jsonl ...
  python3 perfbench/tools.py compare base.jsonl change.jsonl
  python3 perfbench/tools.py selfcheck [--seeds 1-5]

`runs` writes one JSON object per run: the run's result line plus its
workload, seed and spin. `spread` prints each end-to-end metric's median and
inter-quartile range as a share of the median, against the metric's bound in
BENCHMARK.json. `compare` pairs the two sets by workload and seed and flags a
metric when the second set's median is worse than the first's by more than
the metric's bound, or when the second set is worse in at least nine tenths
of the pairs and the medians differ by more than the first set's own
inter-quartile range. `selfcheck` runs solve and cluster with and without a
CPU spin of 15% of the solve median on every nfvd request, alternating which
side runs first, and checks that the comparison flags solve and leaves
cluster, which has no HTTP path, unflagged.
"""

import argparse
import json
import statistics
import subprocess
import sys

COMMAND = ["bash", "perfbench/run.sh"]


def bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace, spin_ms):
    args = COMMAND + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", str(trace), "--spin-ms", str(spin_ms)]
    out = subprocess.run(args, check=True, capture_output=True, text=True, timeout=900).stdout
    result = json.loads(out.strip().splitlines()[-1])
    result.update(workload=workload, seed=seed, spin_ms=spin_ms, trace=trace)
    return result


def load(paths):
    runs = []
    for path in paths:
        with open(path) as f:
            runs += [json.loads(line) for line in f if line.strip()]
    return runs


def by_workload(runs):
    groups = {}
    for r in runs:
        groups.setdefault(r["workload"], []).append(r)
    return groups


def values(runs, name):
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def spread(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def worse(base, change, better):
    """Share by which change is worse than base (positive = worse)."""
    if better == "lower":
        return (change - base) / base
    return (base - change) / base


def cmd_runs(a):
    seconds = a.seconds or bench()["run_seconds"]
    for s in seeds(a.seeds):
        r = run_once(a.workload, s, seconds, a.trace, a.spin_ms)
        print(json.dumps(r), flush=True)
        print(f"{a.workload} seed {s}: correct={r['correct']} failed={r['failed']}/{r['attempted']}", file=sys.stderr)


def cmd_spread(a):
    ok = True
    for w, runs in sorted(by_workload(load(a.files)).items()):
        fails = sum(r["failed"] for r in runs)
        print(f"{w}: {len(runs)} runs, {fails} failed jobs, all correct: {all(r['correct'] for r in runs)}")
        ok &= fails == 0
        for m in bench()["end_to_end"]:
            xs = values(runs, m["name"])
            if len(xs) < 2:
                continue
            med, iqr = spread(xs)
            flag = "" if m["name"] == "setup_s" or iqr <= m["bound"] / 3 else "  <-- above bound/3"
            if m["name"] != "setup_s" and iqr > m["bound"]:
                flag, ok = "  <-- ABOVE BOUND", False
            print(f"  {m['name']:18s} median {med:14.6f} {m['unit']:6s} iqr/median {iqr:7.4f}  bound {m['bound']}{flag}")
    return 0 if ok else 1


def compare(base_runs, change_runs):
    """Return {workload: [flagged metric names]} and print the table."""
    flagged = {}
    base, change = by_workload(base_runs), by_workload(change_runs)
    for w in sorted(set(base) & set(change)):
        flagged[w] = []
        paired = {r["seed"]: r for r in base[w]}
        pairs = [(paired[r["seed"]], r) for r in change[w] if r["seed"] in paired]
        for m in bench()["end_to_end"]:
            name = m["name"]
            b, c = values(base[w], name), values(change[w], name)
            if not b or not c:
                continue
            mb, mc = statistics.median(b), statistics.median(c)
            d = worse(mb, mc, m["better"])
            losses = sum(worse(x["metrics"][name]["value"], y["metrics"][name]["value"], m["better"]) > 0
                         for x, y in pairs)
            iqr = spread(b)[1] if len(b) >= 2 else float("inf")
            why = []
            if d > m["bound"]:
                why.append("beyond bound")
            if pairs and losses >= 0.9 * len(pairs) and d > iqr:
                why.append(f"worse in {losses}/{len(pairs)} pairs, shift > base IQR {100 * iqr:.1f}%")
            if why:
                flagged[w].append(name)
            print(f"{w:9s} {name:18s} base {mb:14.6f} change {mc:14.6f}  worse by {100 * d:+7.2f}%"
                  f"  bound {100 * m['bound']:.0f}%{'  FLAGGED: ' + '; '.join(why) if why else ''}")
    return flagged


def cmd_compare(a):
    flagged = compare(load([a.base]), load([a.change]))
    return 1 if any(flagged.values()) else 0


def cmd_selfcheck(a):
    seconds = a.seconds or bench()["run_seconds"]
    solve = [run_once("solve", s, seconds, 0, 0) for s in seeds(a.seeds)[:3]]
    spin = 0.15 * statistics.median(values(solve, "p50_ms"))
    print(f"spin per request: {spin:.3f} ms (15% of the solve p50 median)")
    base, spun = [], []
    for i, s in enumerate(seeds(a.seeds)):
        for w in ("solve", "cluster"):
            for spin_ms in ((0, spin) if i % 2 == 0 else (spin, 0)):
                (spun if spin_ms else base).append(run_once(w, s, seconds, 0, spin_ms))
    flagged = compare(base, spun)
    ok = bool(flagged.get("solve")) and not flagged.get("cluster")
    print(f"selfcheck {'passed' if ok else 'FAILED'}: solve flagged {flagged.get('solve')}, cluster flagged {flagged.get('cluster')}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("runs")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", type=int)
    r.add_argument("--trace", type=int, default=0)
    r.add_argument("--spin-ms", type=float, default=0)
    s = sub.add_parser("spread")
    s.add_argument("files", nargs="+")
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("change")
    k = sub.add_parser("selfcheck")
    k.add_argument("--seeds", default="1-5")
    k.add_argument("--seconds", type=int)
    a = p.parse_args()
    return {"runs": cmd_runs, "spread": cmd_spread, "compare": cmd_compare, "selfcheck": cmd_selfcheck}[a.cmd](a) or 0


if __name__ == "__main__":
    sys.exit(main())

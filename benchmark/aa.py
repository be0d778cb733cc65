#!/usr/bin/env python3
"""A/A check: do two (or more) sets of runs of the same code agree?

Runs the command of BENCHMARK.json on every workload, `--runs` times per
set and `--sets` sets, round-robin over the workloads so host drift spreads
over all of them, each run with a seed of its own. For every workload and
end-to-end metric it prints each set's median, the spread inside each set
(distance between its quartiles over its median, as the driver takes it;
needs --runs >= 4), and the disagreement between set medians
((worst - best) / best), next to the metric's bound, and below them the set
medians of the ungated times and the host covariates.
Exits 1 if any spread or the disagreement is past the bound, for any metric:
the metric is then unresolved on this host, whatever a change did. (The
driver is more lenient twice: it does not hold setup_s to the spread check,
and it only asks that the second median be no worse than the first.)

    python3 benchmark/aa.py --sets 3 --runs 1      # quick look, ~6 min
    python3 benchmark/aa.py --sets 2 --runs 10     # what the driver does, ~35 min
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed, seconds):
    argv = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    out = subprocess.run(argv, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    result, ungated = json.loads(lines[-1]), json.loads(lines[-2])["ungated"]
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect run: {lines[-1]}")
    return {name: m["value"] for name, m in result["metrics"].items()}, ungated


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--seed", type=int, default=1, help="first seed; every run gets its own")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]

    # runs[set][workload] = [(metrics, ungated), ...]
    runs = [{w: [] for w in workloads} for _ in range(args.sets)]
    seed = args.seed
    for s in range(args.sets):
        for r in range(args.runs):
            for w in workloads:
                runs[s][w].append(run_once(bench, w, seed, seconds))
                metrics, ungated = runs[s][w][-1]
                print(f"set {s} run {r} {w} seed {seed}: {json.dumps({**metrics, **ungated})}",
                      file=sys.stderr)
                seed += 1

    def row(workload, name, bound):
        """Prints one metric's set medians, spreads and disagreement; returns
        whether any of them is past `bound` (never, for an ungated row)."""
        gated = bound is not None
        sets = [[x[0 if gated else 1][name] for x in runs[s][workload]] for s in range(args.sets)]
        medians = [statistics.median(values) for values in sets]
        spreads = []
        if args.runs >= 4:
            for values, med in zip(sets, medians):
                q = statistics.quantiles(values, n=4)
                spreads.append((q[2] - q[0]) / med if med else 0.0)
        disagree = (max(medians) - min(medians)) / min(medians) if min(medians) > 0 else 0.0
        bad = gated and (disagree > bound or any(spread > bound for spread in spreads))
        fmt = lambda values: " ".join(f"{v:.4g}" for v in values)
        print(f"{workload:18} {name:22} {fmt(medians):26} {fmt(spreads) or '-':22} {disagree:8.3f} "
              f"{f'{bound:6.2f}' if gated else '     -'}{'  PAST BOUND' if bad else ''}")
        return bad

    failed = False
    print(f"{'workload':18} {'metric':22} {'set medians':26} {'spread per set':22} {'disagree':>8} {'bound':>6}")
    for w in workloads:
        for m in bench["end_to_end"]:
            failed |= row(w, m["name"], m["bound"])
        for name in runs[0][w][0][1]:
            row(w, name, None)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()

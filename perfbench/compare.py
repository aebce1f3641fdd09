#!/usr/bin/env python3
"""Compares two sets of perfbench results.

    python3 perfbench/compare.py BASE_RESULTS_DIR NEW_RESULTS_DIR

Each directory holds the <workload>-seed<N>-trace<T>.json files that
perfbench/run.py writes to <build>/results/. For every workload and
end-to-end metric the script prints the median over seeds on each side, the
relative change, and whether the change stays within the metric's bound in
BENCHMARK.json. It also reports, per workload and seed present on both
sides, whether the output digests of the units both sides ran are
identical (a speed-only change must leave them so).

Throughput and advice metrics depend on how many CPUs the host has, so
runs_per_s and every advice_* metric are refused (not compared) when the two
sides recorded different CPU counts. Exit status: 0 when every compared
metric is within its bound and every digest matches, 1 otherwise.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CPU_BOUND = ("runs_per_s", "advice_qps", "advice_p50_ms", "advice_p99_ms")


def load(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            r = json.load(f)
        runs[(r["workload"], r["seed"], r["trace"])] = r
    return runs


def cpu_counts(runs):
    return {(r["provenance"]["nproc"], r["provenance"]["hardware_concurrency"])
            for r in runs.values()}


def main():
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    base_cpus, new_cpus = cpu_counts(base), cpu_counts(new)
    same_cpus = base_cpus == new_cpus and len(base_cpus) == 1
    if not same_cpus:
        print(f"CPU counts differ (base {sorted(base_cpus)}, new "
              f"{sorted(new_cpus)}): refusing {', '.join(CPU_BOUND)}")
    ok = True
    workloads = sorted({k[0] for k in base} & {k[0] for k in new})
    for wl in workloads:
        for m in spec["end_to_end"]:
            name = m["name"]
            b = [r["end_to_end"][name] for k, r in base.items()
                 if k[0] == wl and k[2] == 0]
            n = [r["end_to_end"][name] for k, r in new.items()
                 if k[0] == wl and k[2] == 0]
            if not b or not n:
                continue
            if name in CPU_BOUND and not same_cpus:
                print(f"{wl:11s} {name:14s} refused (CPU counts differ)")
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            change = mn / mb - 1.0 if mb else float("inf")
            worse = change if m["better"] == "lower" else -change
            within = worse <= m["bound"]
            ok = ok and within
            print(f"{wl:11s} {name:14s} {mb:12.6g} -> {mn:12.6g} "
                  f"{change:+7.1%} (bound {m['bound']:.0%}) "
                  f"{'ok' if within else 'WORSE'}")
        for key in sorted(k for k in base if k[0] == wl and k in new):
            # A faster build fits more units into the time budget; compare
            # the units both sides ran.
            b_dig = dict(d.split(" ", 1) for d in base[key]["digests"])
            n_dig = dict(d.split(" ", 1) for d in new[key]["digests"])
            same = all(b_dig[u] == n_dig[u] for u in b_dig if u in n_dig)
            ok = ok and same
            print(f"{wl:11s} seed {key[1]} trace {key[2]}: outputs "
                  f"{'identical' if same else 'DIFFER'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Compares two result sets of the benchmark: `compare.py BENCHMARK.json A/ B/`.

A result set is a directory of `<workload>.seed<N>.trace0.json` files (and
their `.info` twins), one per run, as `run.sh --out` writes them. For every
workload and end-to-end metric this prints both medians, B's ratio to its
base A, and a verdict against the metric's bound in BENCHMARK.json:

  unresolved  a side's own runs spread (first to third quartile, as a
              share of the median) wider than the bound: nothing can be
              said either way;
  regressed   B's median is worse than A's by more than the bound;
  ok          it is not.

What the seed alone decides - the three metrics taken at the end of the
fixed prefix, the decision digest, the operation counts - must be equal in
A and B for every seed both ran; a difference is a `mismatch`. Exits 1 on
any `regressed` or `mismatch`.
"""
import glob
import json
import os
import re
import statistics
import sys

DETERMINISTIC = ["durable_bytes_per_round", "files_reduced_per_gbhr", "small_file_fraction_end"]


def load(directory):
    """{workload: {seed: {"metrics": {...}, "attempted": n, "failed": n, "digest": str}}}"""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.trace0.json"))):
        match = re.fullmatch(r"(.+)\.seed(\d+)\.trace0\.json", os.path.basename(path))
        if not match:
            continue
        with open(path) as f:
            result = json.loads(f.read().strip().splitlines()[-1])
        with open(path[: -len("json")] + "info") as f:
            digest = re.search(r"^digest=(\S+ \S+ \S+)", f.read(), re.M)
        runs.setdefault(match[1], {})[int(match[2])] = {
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "attempted": result["attempted"],
            "failed": result["failed"],
            "digest": digest[1] if digest else "",
        }
    return runs


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        spec = json.load(f)
    a_runs, b_runs = load(sys.argv[2]), load(sys.argv[3])
    bad = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        a, b = a_runs.get(workload, {}), b_runs.get(workload, {})
        if not a or not b:
            print(f"{workload}: missing from {'A' if not a else 'B'}")
            continue
        print(f"{workload}: A has {len(a)} run(s), B has {len(b)}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va = [run["metrics"][name] for run in a.values()]
            vb = [run["metrics"][name] for run in b.values()]
            ma, mb = statistics.median(va), statistics.median(vb)
            # A metric that is 0 on both sides (smoke scale) has no ratio.
            ratio = mb / ma if ma else 1.0 if mb == ma else float("inf")
            worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
            if max(spread(va), spread(vb)) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
                bad += 1
            else:
                verdict = "ok"
            print(
                f"  {name:26s} A {ma:16.6f}  B {mb:16.6f} {metric['unit']:7s}"
                f" B/A {ratio:7.4f}  spread A {spread(va):6.1%} B {spread(vb):6.1%}"
                f"  bound {bound:4.0%}  {verdict}"
            )
        for seed in sorted(set(a) & set(b)):
            ra, rb = a[seed], b[seed]
            differing = [n for n in DETERMINISTIC if ra["metrics"][n] != rb["metrics"][n]]
            differing += [k for k in ("digest", "failed") if ra[k] != rb[k]]
            if differing:
                print(f"  seed {seed}: mismatch in {', '.join(differing)}")
                bad += 1
            else:
                print(f"  seed {seed}: deterministic metrics, digest and failures equal")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""End-to-end benchmark driver for the causal-broadcast stack.

Run one workload (builds the benchmark first, from source):

    python3 perfbench/run.py --workload mix8-graph-sim --seed 1 --seconds 10 --trace 0

The last line printed is the JSON result ``{"correct", "attempted",
"failed", "metrics"}``; every metric is also printed by name and unit, with
a provenance line (host, toolchain, commit, seed, workload parameters).
Each result is saved under ``perfbench/results/<set>/`` (``--set`` names
the set, default ``latest``).

Compare two result sets against the bounds in BENCHMARK.json:

    python3 perfbench/run.py compare perfbench/results/parent perfbench/results/change

Summarise the run-to-run spread of one set:

    python3 perfbench/run.py spread perfbench/results/latest

Run from the repository root. Build output goes to ``$CARGO_TARGET_DIR``
(default ``.bench_build``).
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
SPEC = ROOT / "BENCHMARK.json"
# Metrics that repeat exactly for a given seed on the simulator: compared
# seed by seed, not by medians.
EXACT_ON_SIM = {"latency_p50_us", "latency_p99_us", "msgs_per_op"}


def build():
    """Builds the benchmark binary and returns its path (exits on failure)."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH / "Cargo.toml")]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, check=False)
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(1)
    return target / "release" / "perfbench"


def command_output(cmd):
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, check=False, cwd=ROOT)
    except OSError:
        return None
    out = done.stdout.strip()
    return out if done.returncode == 0 and out else None


def run(args):
    binary = build()
    rustc = command_output(["rustc", "--version"]) or "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = command_output(["git", "rev-parse", "HEAD"]) or commit
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rustc", rustc, "--commit", commit]
    done = subprocess.run(cmd, capture_output=True, text=True, check=False)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        print(f"perfbench: run failed with code {done.returncode}", file=sys.stderr)
        sys.exit(done.returncode or 1)
    provenance = {}
    for line in lines:
        if line.startswith('{"provenance"'):
            provenance = json.loads(line)["provenance"]
    result = json.loads(lines[-1])
    out_dir = BENCH / "results" / args.set
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps({"provenance": provenance, "result": result}, indent=1) + "\n")
    # The result line stays last on stdout.
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    return 0


def load(directory):
    """Untraced results of a set: {workload: [(seed, provenance, result)]}."""
    runs = {}
    for path in sorted(Path(directory).rglob("*.json")):
        data = json.loads(path.read_text())
        prov, result = data["provenance"], data["result"]
        if prov.get("trace") != 0:
            continue
        runs.setdefault(prov["workload"], []).append((prov["seed"], prov, result))
    return runs


def values(entries, metric):
    return {seed: r["metrics"][metric]["value"] for seed, _, r in entries if metric in r["metrics"]}


def iqr_share(vals):
    """Distance between first and third quartile as a share of the median."""
    if len(vals) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return (q3 - q1) / med if med else float("inf")


def verdict(better, bound, parent, change, exact):
    """Judges one metric: better / worse / unresolved / same.

    Worse: the change's median is worse than the parent's by more than the
    bound. Unresolved: the parent's own spread exceeds the bound and not
    every change run beats every parent run. Better: the change wins at
    least 9 in 10 pairs and the medians differ by more than the parent's
    quartile distance. Exact metrics are compared seed by seed.
    """
    lower = better == "lower"
    if exact:
        common = sorted(set(parent) & set(change))
        if not common:
            return "unresolved", "no common seeds for an exact comparison"
        diffs = [change[s] - parent[s] for s in common]
        moved = [d for d in diffs if d != 0]
        if not moved:
            return "same", f"identical on {len(common)} seeds"
        worse = sum(1 for d in moved if (d > 0) == lower)
        kind = "worse" if worse > len(moved) / 2 else "better"
        return kind, f"{len(moved)} of {len(common)} seeds moved, {worse} for the worse"
    p, c = list(parent.values()), list(change.values())
    if not p or not c:
        return "unresolved", "missing runs"
    pm, cm = statistics.median(p), statistics.median(c)
    worse_by = ((cm - pm) if lower else (pm - cm)) / pm if pm else 0.0
    spread = iqr_share(p)
    all_better = all((x < y) if lower else (x > y) for x in c for y in p)
    detail = f"parent {pm:.6g}, change {cm:.6g} ({-worse_by:+.1%}), parent spread {spread:.1%}"
    if spread > bound and not all_better:
        return "unresolved", detail + f" exceeds the {bound:.0%} bound"
    if worse_by > bound:
        return "worse", detail
    if len(p) >= 2:
        q1, _, q3 = statistics.quantiles(p, n=4)
        seeds = sorted(set(parent) & set(change))
        pairs = [(parent[s], change[s]) for s in seeds] or list(zip(sorted(p), sorted(c)))
        wins = sum(1 for a, b in pairs if (b < a if lower else b > a))
        if pairs and wins >= 0.9 * len(pairs) and abs(cm - pm) > (q3 - q1):
            return "better", detail + f", change wins {wins}/{len(pairs)} pairs"
    return "same", detail + f", within the {bound:.0%} bound"


def compare(args):
    spec = json.loads(SPEC.read_text())
    parent, change = load(args.parent), load(args.change)
    worse = 0
    for w in spec["workloads"]:
        name = w["name"]
        print(f"== {name}")
        p_entries, c_entries = parent.get(name, []), change.get(name, [])
        on_sim = any(prov.get("params", {}).get("runtime") == "simnet" for _, prov, _ in p_entries)
        for m in spec["end_to_end"]:
            exact = on_sim and m["name"] in EXACT_ON_SIM
            kind, detail = verdict(m["better"], m["bound"],
                                   values(p_entries, m["name"]), values(c_entries, m["name"]), exact)
            worse += kind == "worse"
            print(f"  {m['name']:<16} {kind:<10} {detail}")
        fails = [r["failed"] for _, _, r in c_entries if r["failed"] or not r["correct"]]
        if fails:
            print(f"  change has {len(fails)} runs with failed ops or a failed gate")
            worse += 1
    return 1 if worse else 0


def spread(args):
    spec = json.loads(SPEC.read_text())
    runs = load(args.set_dir)
    for w in spec["workloads"]:
        entries = runs.get(w["name"], [])
        print(f"== {w['name']} ({len(entries)} runs)")
        for m in spec["end_to_end"]:
            vals = list(values(entries, m["name"]).values())
            if vals:
                print(f"  {m['name']:<16} median {statistics.median(vals):<14.6g} "
                      f"spread {iqr_share(vals):6.1%}  (bound {m['bound']:.0%})")
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("parent")
        p.add_argument("change")
        return compare(p.parse_args(sys.argv[2:]))
    if len(sys.argv) > 1 and sys.argv[1] == "spread":
        p = argparse.ArgumentParser(prog="run.py spread")
        p.add_argument("set_dir")
        return spread(p.parse_args(sys.argv[2:]))
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--set", default="latest", help="result set to save into")
    args = p.parse_args()
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", args.set) or args.set.startswith("."):
        p.error("--set takes a plain directory name")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

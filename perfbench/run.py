#!/usr/bin/env python3
"""End-to-end benchmark of pdf-enrich.

Builds perfbench/bench.exe from the checkout's sources with dune and runs
one seeded workload from the checkout root:

    python3 perfbench/run.py --workload enrich-sim --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end_to_end metrics of
BENCHMARK.json, or with --trace 1 its per_layer metrics.

Steadiness mode runs the workload once for each of K consecutive seeds
and prints every metric's median, quartiles and spread (the distance
between the quartiles over the median):

    python3 perfbench/run.py --workload grade --seconds 20 --steady 10 --out FILE
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
WORKLOADS = ["enrich-sim", "enrich-portfolio", "grade"]
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def build():
    """Build the executable; dune's output goes to stderr.  Returns an
    error message, or None."""
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        return "the program's sources are missing (no dune-project at the root)"
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    cmd += ["build", "--root", ROOT, "./perfbench/bench.exe"]
    # Dune's shared cache lives outside the checkout; build without it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, env=env,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        return f"build failed: {e}"
    if r.returncode != 0 or not os.path.isfile(EXE):
        return f"build failed with exit code {r.returncode}"
    return None


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return sorted(m["name"] for m in spec["per_layer" if trace else "end_to_end"])


def run_once(workload, seed, seconds, trace):
    """Run one workload.  Returns (exit code, stdout lines, result, error)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 1, [], None, "the workload did not finish in time"
    lines = r.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return r.returncode or 1, lines, None, "no result line"
    names = sorted(result["metrics"])
    if names != declared_metrics(trace):
        return 1, lines, None, f"metrics {names} differ from BENCHMARK.json"
    return r.returncode, lines, result, None


def steady(args):
    runs = []
    for seed in range(args.seed, args.seed + args.steady):
        code, lines, result, err = run_once(args.workload, seed, args.seconds, args.trace)
        if err or code != 0:
            sys.stderr.write("\n".join(lines) + "\n")
            print(f"run.py: seed {seed}: {err or f'exit code {code}'}", file=sys.stderr)
            return 1
        digest = next((l.split()[1] for l in lines if l.startswith("digest ")), None)
        metrics = {n: m["value"] for n, m in result["metrics"].items()}
        runs.append({"seed": seed, "digest": digest,
                     "attempted": result["attempted"], "metrics": metrics})
        print(f"seed {seed}: " + "  ".join(f"{n} {v:.6g}" for n, v in metrics.items()),
              flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        q1, med, q3 = statistics.quantiles([r["metrics"][name] for r in runs], n=4)
        spread = (q3 - q1) / med if med else None
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        print(f"{name:32} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {spread if spread is None else round(spread, 4)}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "trace": args.trace, "runs": runs, "summary": summary},
                      f, indent=1)
            f.write("\n")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1,
                   help="input seed; in steadiness mode the first of K seeds")
    p.add_argument("--seconds", type=float, default=20, help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, default=0, metavar="K",
                   help="run K seeds and print each metric's median and quartiles")
    p.add_argument("--out", help="steadiness mode: write the runs and summary here")
    args = p.parse_args()
    err = build()
    if err:
        print(f"run.py: {err}", file=sys.stderr)
        return 1
    if args.steady:
        return steady(args)
    code, lines, _, err = run_once(args.workload, args.seed, args.seconds, args.trace)
    if err:
        sys.stderr.write("\n".join(lines) + "\n")
        print(f"run.py: {err}", file=sys.stderr)
        return 1
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())

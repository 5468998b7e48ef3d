#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each end-to-end
metric's run-to-run spread against its bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload parity-loss --seeds 1-10

The spread of a metric is the distance between the first and third quartile
of its per-run values (statistics.quantiles, n=4) divided by their median.
A metric is steady when its spread is under a third of its bound; setup_s is
reported but has no spread gate. --out saves every run's result line.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    """(q3 - q1) / median of the values, as the acceptance check takes it."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    steal = [l for l in lines if l.startswith("# host: cpu steal")]
    return json.loads(lines[-1]), (steal[0][2:] if steal else "")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = []
    for seed in parse_seeds(args.seeds):
        result, steal = run_once(args.workload, seed, spec["run_seconds"])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"{steal}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1))

    steady = True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in results]
        s = spread(values) if len(values) >= 2 else float("nan")
        gated = name != "setup_s"
        ok = not gated or s < bound / 3
        steady &= ok
        print(f"{name:38s} median {statistics.median(values):12.6g} "
              f"spread {s:7.4f} bound {bound:5.3f} "
              f"{'' if ok else 'NOT STEADY'}")
    return 0 if steady and all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())

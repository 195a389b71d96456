#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads e3_rounds,e4_scale --seeds 1-10 [--trace 0|1]
                                [--heldout 1009] [--record perfbench/baselines.json]

For every workload and metric this prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread: the
distance between the quartiles as a share of the median. Runs go one at a
time, so they do not disturb each other's timings. With `--record`, the
medians, quartiles, seeds and simulated-outcome digests are written to the
given file, which `run.py` reads to check digests. A `--heldout` seed is
run and its digest recorded, but it is left out of the statistics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    # A run that is not correct exits 1 but still prints its result line.
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    digest = next((l.split()[3] for l in lines if " digest = " in l), None)
    return json.loads(lines[-1]), digest


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--heldout", type=int)
    ap.add_argument("--record")
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    record = {"run_seconds": seconds, "host": platform.platform(),
              "nproc": os.cpu_count(), "seeds": seeds(a.seeds),
              "heldout_seed": a.heldout, "baselines": {}, "digests": {}}
    for w in a.workloads.split(","):
        values, digests = {}, {}
        for s in seeds(a.seeds):
            res, digest = run_once(w, s, seconds, a.trace)
            if not res["correct"] or res["failed"]:
                print(f"{w} seed {s}: incorrect result {res}", file=sys.stderr)
            digests[str(s)] = digest
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {s}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
        if a.heldout is not None:
            res, digest = run_once(w, a.heldout, seconds, a.trace)
            digests[str(a.heldout)] = digest
            print(f"{w} held-out seed {a.heldout}: correct={res['correct']}", flush=True)
        rows = {}
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            print(f"{w} {name}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f}")
        record["baselines"][w] = rows
        record["digests"][w] = digests
    if a.record:
        with open(a.record, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

Runs every named workload once per seed (trace off), then prints, per
metric, the median and the spread (q3 - q1) / median of the values over
the seeds, next to the metric's bound from BENCHMARK.json: "ok" below a
third of the bound, "WIDE" up to the bound, "OVER" beyond it. host.ref_ns
is printed beside them so host drift shows. Run from the repository
root:

    python3 perfbench/steadiness.py --seeds 1-10 --out set1.json
    python3 perfbench/steadiness.py --compare set1.json set2.json

--compare checks a second set of runs against a first: for every metric
the second median may be worse than the first by at most the bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def seeds_of(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr}")
    res = json.loads(lines[-1])
    ref = next((float(l.split()[1]) for l in lines if l.startswith("host.ref_ns")), 0.0)
    digest = next((l.split("digest ")[1].split(",")[0] for l in lines if " digest " in l), "")
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect or failed ops: {lines[-1]}")
    return {"metrics": {k: v["value"] for k, v in res["metrics"].items()},
            "host_ref_ns": ref, "digest": digest, "attempted": res["attempted"]}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else 0.0


def report(spec, data):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload, runs in data.items():
        refs = [r["host_ref_ns"] for r in runs]
        ref_med, ref_spread = spread(refs)
        print(f"\n{workload}: {len(runs)} runs, host.ref_ns median {ref_med:.0f} spread {ref_spread:.4f}")
        for name, bound in bounds.items():
            vals = [r["metrics"][name] for r in runs]
            med, sp = spread(vals)
            flag = "ok" if sp < bound / 3 else "WIDE" if sp <= bound else "OVER"
            print(f"  {name:24s} median {med:14.6g} spread {sp:.4f} bound {bound:.3f} {flag}")


def compare(spec, a, b):
    ok = True
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in a:
        for name, bound in bounds.items():
            ma = statistics.median([r["metrics"][name] for r in a[workload]])
            mb = statistics.median([r["metrics"][name] for r in b[workload]])
            worse = (mb - ma) / ma if better[name] == "lower" else (ma - mb) / ma
            flag = "ok" if worse <= bound else "WORSE"
            ok &= flag == "ok"
            print(f"{workload:18s} {name:24s} {ma:14.6g} -> {mb:14.6g} worse by {worse:+.4f} (bound {bound}) {flag}")
    return ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--out", default="")
    ap.add_argument("--compare", nargs=2)
    args = ap.parse_args()
    spec = load_spec()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        sys.exit(0 if compare(spec, *sets) else 1)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    data = {}
    for w in workloads:
        data[w] = []
        for s in seeds_of(args.seeds):
            r = run_once(spec, w, s, seconds)
            r["seed"] = s
            data[w].append(r)
            print(f"{w} seed {s}: digest {r['digest']} " +
                  " ".join(f"{k}={v:.6g}" for k, v in sorted(r["metrics"].items())), flush=True)
    report(spec, data)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(data, f, indent=1)


if __name__ == "__main__":
    main()

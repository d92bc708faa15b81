"""Steadiness evidence: repeat the benchmark and compare sets of repeats.

    python3 perfbench/repeat.py run --runs 10 --out A.json [--workloads fit,hot]
    python3 perfbench/repeat.py compare A.json B.json

``run`` runs each workload back to back, ``--runs`` times with seeds
``--seed-base`` + 0, 1, ..., and prints for every end-to-end metric the
median, the quartiles, the quartile spread and (max - min) as shares of
the median: the data the bounds in ``BENCHMARK.json`` are set from.
``compare`` checks that two such sets, of the same code, agree within
those bounds: each set's quartile spread stays within the bound, and the
two medians differ by no more than the bound, in either direction.  It
exits 1 when they do not.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med,
            "range_share": (max(values) - min(values)) / med}


def run_sets(args) -> int:
    results: dict[str, list[dict]] = {}
    status = 0
    for workload in args.workloads.split(","):
        results[workload] = []
        for i in range(args.runs):
            seed = args.seed_base + i
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            stamp = next((json.loads(line.split(" ", 1)[1]) for line in lines
                          if line.startswith("provenance ")), None)
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            results[workload].append({"seed": seed, "provenance": stamp, **result})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
    Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    report(results)
    return status


def metric_values(runs: list[dict]) -> dict[str, list[float]]:
    names = runs[0]["metrics"] if runs else {}
    return {n: [r["metrics"][n]["value"] for r in runs] for n in names}


def report(results: dict) -> None:
    print(f"{'workload':8s} {'metric':16s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'iqr/med':>8s} {'rng/med':>8s} {'bound':>6s}")
    for workload, runs in results.items():
        for name, values in metric_values(runs).items():
            s = spread(values)
            print(f"{workload:8s} {name:16s} {s['median']:12.5g} {s['q1']:12.5g} "
                  f"{s['q3']:12.5g} {s['iqr_share']:8.4f} {s['range_share']:8.4f} "
                  f"{BOUNDS[name]:6.3f}")


def compare(args) -> int:
    first = json.loads(Path(args.first).read_text())
    second = json.loads(Path(args.second).read_text())
    ok = True
    for workload in first:
        a, b = metric_values(first[workload]), metric_values(second[workload])
        for name, values in a.items():
            bound = BOUNDS[name]
            sa, sb = spread(values), spread(b[name])
            change = (sb["median"] - sa["median"]) / sa["median"]
            fails = [f"spread {s['iqr_share']:.3f} > {bound}"
                     for s in (sa, sb) if s["iqr_share"] > bound]
            if abs(change) > bound:
                fails.append(f"medians differ by {change:+.3f}, beyond {bound}")
            ok &= not fails
            print(f"{workload:8s} {name:16s} spread {sa['iqr_share']:.4f} / "
                  f"{sb['iqr_share']:.4f}  median change {change:+.4f}  "
                  f"bound {bound}  {'FAIL: ' + '; '.join(fails) if fails else 'ok'}")
    print("agree within bounds" if ok else "DISAGREE")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--runs", type=int, default=10)
    p_run.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    p_run.add_argument("--seed-base", type=int, default=1)
    p_run.add_argument("--workloads",
                       default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    p_run.add_argument("--out", required=True)
    p_cmp = sub.add_parser("compare")
    p_cmp.add_argument("first")
    p_cmp.add_argument("second")
    args = parser.parse_args()
    return run_sets(args) if args.mode == "run" else compare(args)


if __name__ == "__main__":
    sys.exit(main())

"""Record a baseline of the benchmark over many seeds, or compare two.

Record: run every workload once per seed (tracing off), keep each
end-to-end metric's median, quartiles and spread (interquartile range over
median), then one traced run per workload::

    python3 perfbench/baseline.py record --runs 10 --out baseline.json

Compare two recorded baselines, for example the parent commit's and a
change's.  A metric is flagged when the new median is worse than the old
by more than its bound in ``BENCHMARK.json``; a warning is printed when
the two machine headers differ (other than the commit)::

    python3 perfbench/baseline.py compare old.json new.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Run ``i`` of a record uses this seed plus ``i`` (run.py's default seed).
FIRST_SEED = 20050608


def run_once(workload: str, seed: int, trace: int) -> dict:
    """One benchmark run: its result line, machine header and digest."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("# machine "):
            result["header"] = json.loads(line[len("# machine "):])
        elif line.startswith("# digest "):
            result["digest"] = line[len("# digest "):]
        elif line.startswith("# passes "):
            key, values = line[len("# passes "):].split(" ", 1)
            result.setdefault("passes", {})[key] = json.loads(values)
    return result


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values), "q1": q1, "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def record(args) -> None:
    seeds = [FIRST_SEED + i for i in range(args.runs)]
    out = {"header": None, "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [run_once(workload, seed, 0) for seed in seeds]
        out["header"] = out["header"] or runs[0]["header"]
        metrics = {
            metric["name"]: summarize(
                [r["metrics"][metric["name"]]["value"] for r in runs]
            )
            for metric in SPEC["end_to_end"]
        }
        entry = {
            "metrics": metrics,
            "passes": [r["passes"] for r in runs],
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
        }
        traced = run_once(workload, seeds[0], 1)
        entry["traced"] = {k: v["value"] for k, v in traced["metrics"].items()}
        out["workloads"][workload] = entry
        for name, stats in metrics.items():
            print(f"{workload:<14} {name:<12} median {stats['median']:.4g} "
                  f"q1 {stats['q1']:.4g} q3 {stats['q3']:.4g} "
                  f"spread {stats['spread']:.3f}", flush=True)
    args.out.write_text(json.dumps(out, indent=2) + "\n")


def compare(args) -> int:
    old = json.loads(args.old.read_text())
    new = json.loads(args.new.read_text())
    differs = sorted(
        key for key in set(old["header"]) | set(new["header"])
        if key != "commit" and old["header"].get(key) != new["header"].get(key)
    )
    if differs:
        print("WARNING: the machine headers differ in "
              + ", ".join(f"{k} ({old['header'].get(k)} vs "
                          f"{new['header'].get(k)})" for k in differs))
    flagged = 0
    for workload in sorted(set(old["workloads"]) & set(new["workloads"])):
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            a = old["workloads"][workload]["metrics"][name]["median"]
            b = new["workloads"][workload]["metrics"][name]["median"]
            change = (b - a) / a if a else 0.0
            worse = change if metric["better"] == "lower" else -change
            flag = worse > metric["bound"]
            flagged += flag
            print(f"{workload:<14} {name:<12} {a:10.4g} -> {b:10.4g} "
                  f"{change:+7.1%} bound {metric['bound']:.0%}"
                  + ("  WORSE" if flag else ""))
    return 1 if flagged else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run every workload over many seeds")
    rec.add_argument("--runs", type=int, default=10)
    rec.add_argument("--out", type=Path, required=True)
    cmp_ = sub.add_parser("compare", help="compare two recorded baselines")
    cmp_.add_argument("old", type=Path)
    cmp_.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    if args.command == "record":
        record(args)
        return 0
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())

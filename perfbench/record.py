"""Run the benchmark over several seeds and summarize every metric.

    python3 perfbench/record.py [--seeds 1-10] [--trace-seeds 1-3]
                                [--out FILE]

Each workload runs once per seed untraced and once per trace seed traced,
for ``run_seconds`` from BENCHMARK.json.  For every metric and workload it
prints and records the median, the quartiles, n, and the spread: the
distance between the quartiles as a share of the median, with quartiles
from ``statistics.quantiles(values, n=4)``.  The raw result of every run
is kept too, so metrics that a seed drives can be told apart from those
it does not.  Exits 1 if any run was not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def describe(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--trace-seeds", type=seed_range,
                    default=seed_range("1-3"))
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    runs, summary, ok = [], {}, True
    for workload in WORKLOADS:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for trace, seeds in ((0, args.seeds), (1, args.trace_seeds)):
            for seed in seeds:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload",
                     workload, "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", str(trace)],
                    capture_output=True, text=True, cwd=ROOT)
                result = json.loads(proc.stdout.splitlines()[-1])
                ok &= proc.returncode == 0 and result["correct"]
                runs.append({"workload": workload, "seed": seed,
                             "trace": trace, "correct": result["correct"],
                             "metrics": {k: v["value"] for k, v
                                         in result["metrics"].items()}})
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                    units[name] = metric["unit"]
        summary[workload] = {}
        for name in sorted(values):
            stats = describe(values[name])
            summary[workload][name] = {**stats, "unit": units[name]}
            print(f"{workload:17} {name:32} median={stats['median']:<12.6g} "
                  f"spread={stats['spread']:.4f} n={stats['n']}", flush=True)
    if args.out:
        args.out.write_text(json.dumps({
            "machine": {"cpus": os.cpu_count(),
                        "python": platform.python_version(),
                        "platform": platform.platform()},
            "run_seconds": seconds, "summary": summary, "runs": runs},
            indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

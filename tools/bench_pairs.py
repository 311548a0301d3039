"""Time two checkouts of this repository against each other in pairs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N

PARENT and CHANGE are two checkouts (directories holding ``src/`` and
``perfbench/``).  One input is made with PARENT's ``perfbench/run.py``
``make_input`` (seed 1, full sizes), and each pair runs one fresh
``perfbench/jobs.py`` repetition per side on it, checked against that
side's own ``perfbench/reference.json``.  The pairs alternate their order
(ABBA: parent first, then change first, ...), so a drift in the machine's
speed falls on both sides alike.

For wall_s, cpu_s and peak_rss_mb it prints each side's median and
quartiles and the number of pairs in which the change reads lower.  It
notes a fingerprint (counts, etas, digests) that differs between the
sides, and exits 1 if any repetition fails a check or exits non-zero.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

METRICS = ("wall_s", "cpu_s", "peak_rss_mb")
TIMEOUT_S = 600


def make_input(parent: Path, workload: str) -> dict:
    """The workload's input as PARENT's benchmark makes it."""
    sys.path.insert(0, str(parent / "src"))
    spec = importlib.util.spec_from_file_location(
        "parent_run", parent / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.make_input(workload, run.DEFAULT_SEED, "full")


def repetition(root: Path, input_path: Path) -> dict:
    """One jobs.py repetition in ROOT, as its JSON report."""
    cmd = [sys.executable, str(root / "perfbench" / "jobs.py"),
           "--input", str(input_path),
           "--reference", str(root / "perfbench" / "reference.json")]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=root,
                          timeout=TIMEOUT_S)
    if proc.returncode != 0:
        return {"failures": [f"{root}: exited with {proc.returncode}: "
                             f"{proc.stderr[-500:]}"]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True,
                    choices=("fixture-pipeline", "build-valley",
                             "growth-unit"))
    ap.add_argument("--pairs", type=int, required=True)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    sides = (args.parent.resolve(), args.change.resolve())

    with tempfile.TemporaryDirectory() as tmp:
        input_path = Path(tmp) / "input.json"
        input_path.write_text(json.dumps(make_input(sides[0],
                                                    args.workload)))
        reports: list[tuple[dict, dict]] = []
        for k in range(args.pairs):
            order = (0, 1) if k % 2 == 0 else (1, 0)
            got = {side: repetition(sides[side], input_path)
                   for side in order}
            reports.append((got[0], got[1]))

    failures = [f for pair in reports for r in pair for f in r["failures"]]
    for line in failures:
        print(f"FAIL {line}")
    if failures:
        return 1
    print(f"{args.workload}, {args.pairs} ABBA pairs "
          f"(median, Q1-Q3; change lower in k of n pairs)")
    for name in METRICS:
        old = [p[name] for p, _ in reports]
        new = [c[name] for _, c in reports]
        (o1, om, o3), (n1, nm, n3) = quartiles(old), quartiles(new)
        wins = sum(c < p for p, c in zip(old, new))
        print(f"{name:12} parent {om:.6g} ({o1:.6g}-{o3:.6g})  "
              f"change {nm:.6g} ({n1:.6g}-{n3:.6g})  "
              f"lower {wins}/{args.pairs}")
    moved = sorted(key for key in reports[0][0]["fingerprint"]
                   if reports[0][0]["fingerprint"][key]
                   != reports[0][1]["fingerprint"].get(key))
    if moved:
        print(f"fingerprint differs: {', '.join(moved)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

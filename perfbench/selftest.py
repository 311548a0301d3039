"""Smoke-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at smoke size (20 pairs, growth to radius 8, a build
with max_len=12) once untraced and once traced, and checks that:

- each run is correct and prints exactly the metrics BENCHMARK.json
  names for its mode, each with its unit;
- a deliberately wrong reference value makes a run fail: ``failed`` is
  above 0 and the exit status is 1;
- a copy of the benchmark without the package exits non-zero without
  printing a result.

Exits 1 and lists the broken expectations when any of them does not hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import OUT, WORKLOADS  # noqa: E402


def bench(*args: str, cwd: Path = ROOT,
          script: Path = HERE / "run.py") -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, str(script), "--smoke",
                           "--seconds", "0", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=600)
    return proc.returncode, proc.stdout.splitlines()


def main() -> int:
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = bench("--workload", workload, "--trace", str(trace))
            result = json.loads(lines[-1])
            where = f"{workload} --trace {trace}"
            expect(code == 0 and result["correct"] and result["failed"] == 0,
                   f"{where}: exit {code}, {result['failed']} failed")
            named = {m["name"]: m["unit"] for m in spec[kind]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(printed == named,
                   f"{where}: metrics or units differ from BENCHMARK.json: "
                   f"{sorted(set(printed.items()) ^ set(named.items()))}")

    OUT.mkdir(exist_ok=True)
    wrong = json.loads((HERE / "reference.json").read_text())
    wrong["unit_ball_counts"][3] += 1
    wrong_path = OUT / "wrong-reference.json"
    wrong_path.write_text(json.dumps(wrong))
    code, lines = bench("--workload", "growth-unit", "--reference",
                        str(wrong_path))
    result = json.loads(lines[-1])
    expect(code == 1 and not result["correct"]
           and result["failed"] / result["attempted"] > 0,
           f"a wrong reference value was not caught: exit {code}, "
           f"{result['failed']} failed")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, lines = bench("--workload", "growth-unit", cwd=bare,
                        script=bare / HERE.name / "run.py")
    expect(code != 0 and not lines,
           f"without the package: exit {code}, output {lines[-1:]}")
    shutil.rmtree(bare)

    for line in problems:
        print(f"FAIL {line}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

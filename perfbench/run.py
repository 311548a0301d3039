"""Benchmark of the grigorchuk toolkit: three cold-process workloads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke] [--reference FILE]

Workloads (each one process with one thread in a closed loop):

    fixture-pipeline  parse, verify and measure the bundled machine,
                      optimize its weights from unit weights, compute K,
                      then transduce and baseline-invert seeded pairs;
    build-valley      build the machine at the VALLEY weights (with
                      max_len=16, which gives the default build's output),
                      then verify, measure and serialize it;
    growth-unit       ball tables to radius 20 at unit and tuned weights,
                      the index-2 sandwich, the signature back-end and
                      the word problem on seeded words.

Every repetition runs ``jobs.py`` in a fresh interpreter.  The inputs are
generated here from ``--seed`` and handed to the repetition as a file;
repetitions start one after another, at least one, and a further one
starts only while the run would end nearer to ``--seconds`` with it than
without it.  With ``--trace 0`` the end-to-end metrics are measured
untraced; a few extra set-up-only processes steady ``setup_s``.  With
``--trace 1`` untraced and traced repetitions alternate, the per-layer
metrics come from the traced ones, and ``trace.overhead_s`` is the
difference of their median wall times.  ``--workload all`` (the default)
runs both modes on every workload.

Each metric is printed with its median, quartiles and sample count.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The exit status is 1 when a check failed, when a
repetition raised, or when repetitions disagree on a count, an eta or a
build digest, and 2 when the package or its fixture is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("fixture-pipeline", "build-valley", "growth-unit")
DEFAULT_SEED = 1
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 170

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# max_len=16 builds the same VALLEY machine, byte for byte, as the default
# max_len=20 (4,156 candidate outputs instead of 18,221), in a fifth of the
# time, so a run holds several builds and its median is steady
FULL_SIZES = {"pairs": 2000, "pair_len": 120, "optimizer_steps": None,
              "max_len": 16, "radius": 20, "sandwich_radius": 18,
              "signature_len": 10, "words": 2500, "word_len": 256,
              "conjugator_len": 128, "probes": 8, "probe_len": 16}
SIZES = {"full": FULL_SIZES,
         "smoke": {**FULL_SIZES, "pairs": 20, "optimizer_steps": [0.1],
                   "max_len": 12, "radius": 8, "sandwich_radius": 8,
                   "signature_len": 8, "words": 50}}
RELATORS = ("ad" * 4, "ac" * 8, "ab" * 16)
# verify_graph settles the fixture's minimal forms up to this weight (12,137
# elements at its weights, the tuned ones); a pair component heavier than
# that can make transduce settle thousands more, so a seed with one such
# pair in 2000 would do more work and use more memory than the others.
# Such pairs, at most a few per seed, are drawn again.
PAIR_WEIGHT_CAP = 32.52


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if ".s_per_" in name:
        return "s"
    for suffix, unit in (("_per_s", "1/s"), ("_us", "us"), ("_s", "s"),
                         ("_ratio", "ratio"), ("eta_reached", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def make_input(workload: str, seed: int, scale: str) -> dict:
    """The workload's generated inputs; equal seeds give equal inputs."""
    from grigorchuk import (SCALE, TUNED_WEIGHTS, free_reduce, in_H, psi,
                            rev, word_weight)

    sizes = SIZES[scale]
    rng = random.Random(f"{workload}:{seed}")

    def word(n: int) -> str:
        return "".join(rng.choice("abcd") for _ in range(n))

    inp = {"workload": workload, "scale": scale, "sizes": sizes}
    if workload == "fixture-pipeline":
        cap = PAIR_WEIGHT_CAP * SCALE
        pairs = []
        while len(pairs) < sizes["pairs"]:
            h = word(rng.randrange(sizes["pair_len"] + 1))
            if in_H(h):
                pair = psi(h)
                if all(word_weight(free_reduce(c), TUNED_WEIGHTS) <= cap
                       for c in pair):
                    pairs.append(pair)
        inp["pairs"] = pairs
    elif workload == "growth-unit":
        inp["words"] = [word(sizes["word_len"]) for _ in range(sizes["words"])]
        conjugates = []
        for _ in range(sizes["words"]):
            u = word(sizes["conjugator_len"])
            conjugates.append(u + rng.choice(RELATORS) + rev(u))
        inp["conjugates"] = conjugates
        inp["probes"] = ["".join(rng.choice("01")
                                 for _ in range(sizes["probe_len"]))
                         for _ in range(sizes["probes"])]
    return inp


def spawn(input_path: Path, reference: Path, spans: Path | None = None,
          setup_only: bool = False) -> dict:
    """Run one repetition process and return its JSON report.

    ``setup_s`` is measured from just before the process starts to the
    end of its set-up, on the system-wide monotonic clock.
    """
    cmd = [sys.executable, str(HERE / "jobs.py"), "--input", str(input_path),
           "--reference", str(reference)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"repetition exited with {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - started
    return report


def more_time(start: float, took: list[float], seconds: float) -> bool:
    """Whether one more step, as long as the median one so far, ends the
    run nearer to ``seconds`` after ``start`` than stopping now does."""
    return time.monotonic() - start + statistics.median(took) / 2 < seconds


def summary(values: list[float]) -> tuple[float, float, float, int]:
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3, len(values)


class Run:
    """The repetitions of one workload in one mode, and their verdict."""

    def __init__(self, workload: str, seed: int, scale: str,
                 reference: Path):
        self.workload, self.seed = workload, seed
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []
        self.fingerprint: dict | None = None
        OUT.mkdir(exist_ok=True)
        self.input_path = OUT / f"input-{workload}-{seed}-{os.getpid()}.json"
        self.input_path.write_text(json.dumps(make_input(workload, seed,
                                                         scale)))

    def close(self) -> None:
        self.input_path.unlink(missing_ok=True)

    def repetition(self, traced: bool, index: int) -> dict | None:
        spans = (OUT / f"spans-{self.workload}-seed{self.seed}-rep{index}.json"
                 if traced else None)
        try:
            report = spawn(self.input_path, self.reference, spans)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            self.attempted += 1
            self.failures.append(f"repetition {index}: {exc}")
            return None
        self.attempted += report["attempted"]
        self.failures += report["failures"]
        if self.fingerprint is None:
            self.fingerprint = report["fingerprint"]
        elif report["fingerprint"] != self.fingerprint:
            differ = sorted(k for k in self.fingerprint
                            if report["fingerprint"].get(k)
                            != self.fingerprint[k])
            self.failures.append(f"repetition {index} is not deterministic: "
                                 f"{', '.join(differ)} changed")
        return report

    def untraced(self, seconds: float) -> dict[str, list[float]]:
        samples: dict[str, list[float]] = {k: [] for k in END_TO_END}
        for _ in range(SETUP_PROBES):
            samples["setup_s"].append(
                spawn(self.input_path, self.reference,
                      setup_only=True)["setup_s"])
        start = time.monotonic()
        took: list[float] = []
        while not took or more_time(start, took, seconds):
            began = time.monotonic()
            report = self.repetition(False, len(took))
            took.append(time.monotonic() - began)
            if report is None:
                break
            for key in END_TO_END:
                samples[key].append(report[key])
        return samples

    def traced(self, seconds: float) -> dict[str, list[float]]:
        samples: dict[str, list[float]] = {}
        walls: dict[bool, list[float]] = {False: [], True: []}
        start = time.monotonic()
        took: list[float] = []
        index = 0
        failed = False
        while not failed and (not took or more_time(start, took, seconds)):
            began = time.monotonic()
            # pairs of repetitions alternate which of the two runs first
            for traced in ((False, True) if index % 4 == 0 else (True, False)):
                report = self.repetition(traced, index)
                index += 1
                if report is None:
                    failed = True
                    break
                walls[traced].append(report["wall_s"])
                for key, value in report.get("layers", {}).items():
                    samples.setdefault(key, []).append(value)
            took.append(time.monotonic() - began)
        if walls[False] and walls[True]:
            samples["trace.overhead_s"] = [statistics.median(walls[True])
                                           - statistics.median(walls[False])]
        return samples


def report_metrics(workload: str, samples: dict[str, list[float]],
                   prefix: str = "") -> dict[str, dict]:
    metrics, idle = {}, []
    for name, values in sorted(samples.items()):
        if not values:
            continue
        med, q1, q3, n = summary(values)
        unit = unit_of(name)
        metrics[prefix + name] = {"value": med, "unit": unit}
        if not any(values):
            idle.append(name)
            continue
        print(f"{workload:17} {name:32} {med:>14.6g} {unit:6} "
              f"q1={q1:.6g} q3={q3:.6g} n={n}")
    if idle:
        print(f"{workload:17} not exercised (0): {', '.join(idle)}")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="keep starting repetitions until this much time "
                         "has passed (default: one repetition)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs, for the benchmark's self-test")
    ap.add_argument("--reference", type=Path, default=HERE / "reference.json",
                    help="expected outputs the checks compare against")
    args = ap.parse_args()

    package = ROOT / "src" / "grigorchuk" / "__init__.py"
    fixture = ROOT / "fixtures" / "appendix.graph"
    for needed in (package, fixture, args.reference):
        if not needed.is_file():
            print(f"error: {needed} is missing", file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))

    scale = "smoke" if args.smoke else "full"
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)
    metrics: dict[str, dict] = {}
    attempted = 0
    failures: list[str] = []
    for workload in workloads:
        for traced in modes:
            run = Run(workload, args.seed, scale, args.reference)
            try:
                samples = (run.traced(args.seconds) if traced
                           else run.untraced(args.seconds))
            finally:
                run.close()
            prefix = f"{workload}/" if args.workload == "all" else ""
            metrics.update(report_metrics(workload, samples, prefix))
            attempted += run.attempted
            failures += run.failures
    for line in failures[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"fail_ratio {len(failures) / max(attempted, 1):.6g} "
          f"({len(failures)} failed of {attempted} attempted)")
    print(json.dumps({"correct": not failures, "attempted": max(attempted, 1),
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())

"""One repetition of a benchmark workload, in a fresh interpreter.

``run.py`` starts this file once per repetition: ``grigorchuk.elements``
keeps its intern and product tables for the life of the process, and a
command-line user always starts cold.  The process imports the package,
reads its input files (set-up), runs the workload's job (the timed
region), checks the outputs outside the timed region, and prints one
JSON object on stdout:

    ready        monotonic clock reading at the end of set-up
    wall_s       wall time of the job
    cpu_s        process CPU time of the job
    peak_rss_mb  maximum resident memory up to the end of the job
    attempted    calls into the package that the job made
    failures     one message per failed check or raised exception
    fingerprint  values every repetition with this input must reproduce
    layers       per-layer metrics (traced repetitions only)

With ``--spans FILE`` the job runs traced: every call the job makes into
a module is wrapped in a span (name, parent, start, end), the spans stay
in memory, and they are written to FILE at exit.  Span names are
``<module>.<operation>`` for calls into the package and ``bench.<phase>``
for the job's own loops, which parent the per-call spans.

Usage: python3 perfbench/jobs.py --input IN.json --reference REF.json
           [--spans SPANS.json] [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import re
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from grigorchuk import (BuildParams, OptimizerSchedule, TransduceError,  # noqa: E402
                        build, check_subgroup_growth, gamma,
                        gamma_by_signature, is_trivial, max_cycle_ratio,
                        optimize_weights, parse_graph, preimage_constant,
                        psi, psi_preimage_basic, serialize_graph, transduce,
                        verify_graph, words_equal)
from grigorchuk.minforms import (SCALE, TUNED_WEIGHTS, UNIT_WEIGHTS,  # noqa: E402
                                 MinimalForms, is_triangular, parse_weights,
                                 word_weight)
from grigorchuk.words import act, in_H  # noqa: E402

FIXTURE = ROOT / "fixtures" / "appendix.graph"
# the weights at which the builder reaches its lowest measured cycle ratio
VALLEY = "a=1 b=2.7 c=2.0 d=1.3"


# --- tracing -----------------------------------------------------------------

class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        spans, open_ = self.tracer.spans, self.tracer.open
        self.index = len(spans)
        spans.append([self.name, open_[-1] if open_ else -1,
                      time.perf_counter(), 0.0])
        open_.append(self.index)

    def __exit__(self, *exc) -> None:
        self.tracer.spans[self.index][3] = time.perf_counter()
        self.tracer.open.pop()


class Tracer:
    """Spans [name, parent index, start, end], kept in memory.

    A disabled tracer hands out one shared no-op context, so traced and
    untraced repetitions run the same job code.
    """

    _OFF = contextlib.nullcontext()

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.open: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else self._OFF

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus child spans.

        Spans of one thread nest without overlapping, so the part of a
        span that its children cover is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = {}
        for (name, _, start, end), inner in zip(self.spans, covered):
            totals[name] = totals.get(name, 0.0) + (end - start - inner)
        return totals

    def durations(self, name: str) -> list[float]:
        return [end - start for n, _, start, end in self.spans if n == name]

    def write(self, path: Path) -> None:
        rows = [{"id": i, "name": n, "parent": p, "start": s, "end": e}
                for i, (n, p, s, e) in enumerate(self.spans)]
        path.write_text(json.dumps(rows))


# --- the jobs ----------------------------------------------------------------
#
# Each job makes its calls in the order of the matching CLI subcommands and
# returns what the checks and metrics need.  ``ops`` counts the calls.

def fixture_pipeline(inp: dict, text: str, tr: Tracer) -> dict:
    sizes = inp["sizes"]
    pairs = [tuple(p) for p in inp["pairs"]]
    with tr.span("automaton.parse"):
        graph = parse_graph(text)
    with tr.span("automaton.verify"):
        report = verify_graph(graph)
    with tr.span("automaton.eta"):
        eta, witness = max_cycle_ratio(graph)
    unit = dict(UNIT_WEIGHTS)
    schedule = (OptimizerSchedule(step_sizes=tuple(sizes["optimizer_steps"]))
                if sizes["optimizer_steps"] else OptimizerSchedule())
    with tr.span("optimizer.optimize"):
        optimized = optimize_weights(graph, initial=unit, schedule=schedule)
    with tr.span("automaton.preimage_constant"):
        constant = preimage_constant(graph)
    runs, errors = [], []
    with tr.span("bench.transduce_batch"):
        for pair in pairs:
            try:
                with tr.span("automaton.transduce"):
                    runs.append(transduce(graph, pair))
            except TransduceError as exc:
                runs.append(None)
                errors.append(f"transduce {pair}: {exc}")
    basics = []
    with tr.span("bench.preimage_batch"):
        for pair in pairs:
            try:
                with tr.span("words.preimage_basic"):
                    basics.append(psi_preimage_basic(*pair))
            except ValueError as exc:
                basics.append(None)
                errors.append(f"psi_preimage_basic {pair}: {exc}")
    return {"graph": graph, "report": report, "eta": eta, "witness": witness,
            "optimized": optimized, "constant": constant, "pairs": pairs,
            "runs": runs, "basics": basics, "errors": errors,
            "ops": 5 + 2 * len(pairs)}


def build_valley(inp: dict, text: str, tr: Tracer) -> dict:
    params = BuildParams(initial_weight=parse_weights(VALLEY),
                         max_len=inp["sizes"]["max_len"])
    log: list[str] = []
    with tr.span("builder.build"):
        graph = build(params, log)
    with tr.span("automaton.verify"):
        report = verify_graph(graph)
    with tr.span("automaton.eta"):
        eta, _ = max_cycle_ratio(graph)
    with tr.span("automaton.serialize"):
        text = serialize_graph(graph)
    return {"graph": graph, "report": report, "eta": eta, "text": text,
            "log": log, "errors": [], "ops": 4}


def growth_unit(inp: dict, text: str, tr: Tracer) -> dict:
    sizes = inp["sizes"]
    tables, settled_by_extend, all_forms = {}, 0, []
    for label, weights in (("unit", UNIT_WEIGHTS), ("tuned", TUNED_WEIGHTS)):
        forms = MinimalForms(weights)
        all_forms.append(forms)
        counts = []
        with tr.span("bench.growth_table"):
            for r in range(sizes["radius"] + 1):
                before = len(forms.table)
                with tr.span("minforms.extend"):
                    forms.extend(r * SCALE)
                settled_by_extend += len(forms.table) - before
                with tr.span("growth.count"):
                    counts.append(gamma(forms, r * SCALE))
        tables[label] = counts
    forms = MinimalForms(UNIT_WEIGHTS)
    all_forms.append(forms)
    radii = [r * SCALE for r in range(sizes["sandwich_radius"] + 1)]
    with tr.span("growth.sandwich"):
        sandwich = check_subgroup_growth(forms, radii, in_H, 2,
                                         UNIT_WEIGHTS["a"])
    with tr.span("growth.signature"):
        signature = gamma_by_signature(sizes["signature_len"])
    words = inp["words"] + inp["conjugates"]
    with tr.span("bench.word_problem"):
        answers = []
        for w in words:
            with tr.span("elements.word_problem"):
                answers.append(is_trivial(w))
    return {"tables": tables, "sandwich": sandwich, "signature": signature,
            "answers": answers, "settled": sum(len(f.table) for f in all_forms),
            "settled_by_extend": settled_by_extend, "errors": [],
            "ops": 4 * (sizes["radius"] + 1) + 2 + len(words)}


# --- checks (outside the timed region) ----------------------------------------

def check_fixture(out: dict, inp: dict, ref: dict) -> list[str]:
    fails = list(out["errors"])
    graph, eta = out["graph"], out["eta"]
    w = graph.weights
    if not out["report"].ok:
        fails.append(f"verify_graph: {out['report'].violations[:3]}")
    if eta != ref["fixture_eta"]:
        fails.append(f"eta {eta!r} != reference {ref['fixture_eta']!r}")
    cycle = out["witness"].cycle
    emitted = sum(t.emitted(w) for t in cycle)
    consumed = sum(sum(t.consumed(w)) for t in cycle)
    if float(Fraction(2 * emitted, consumed)) != eta:
        fails.append("witness cycle ratio does not recompute to eta")
    weights, best, trace = out["optimized"]
    kept = [row.eta for row in trace if row.accepted]
    if any(b >= a for a, b in zip(kept, kept[1:])):
        fails.append("optimizer: kept etas do not strictly decrease")
    if not is_triangular(weights):
        fails.append(f"optimizer: weights {weights} are not triangular")
    if max_cycle_ratio(graph, weights)[0] != best:
        fails.append("optimizer: returned eta is not the ratio at its weights")
    constant = out["constant"]
    if not (math.isfinite(constant) and constant > 0):
        fails.append(f"preimage_constant {constant!r} is not positive")
    for pair, run, basic in zip(out["pairs"], out["runs"], out["basics"]):
        if run is not None:
            back = psi(run.output)
            if not (words_equal(back[0], pair[0])
                    and words_equal(back[1], pair[1])):
                fails.append(f"transduce {pair}: psi(output) != pair")
            biggest = max(word_weight(pair[0], w), word_weight(pair[1], w))
            if word_weight(run.output, w) / SCALE > \
                    eta * biggest / SCALE + constant:
                fails.append(f"transduce {pair}: output weight over bound")
        if basic is not None:
            back = psi(basic)
            if not (words_equal(back[0], pair[0])
                    and words_equal(back[1], pair[1])):
                fails.append(f"psi_preimage_basic {pair}: psi(output) != pair")
    return fails


def check_valley(out: dict, inp: dict, ref: dict) -> list[str]:
    fails = []
    expect = ref["valley"][inp["scale"]]
    if not out["report"].ok:
        fails.append(f"verify_graph: {out['report'].violations[:3]}")
    digest = hashlib.sha256(out["text"].encode()).hexdigest()
    if digest != expect["sha256"]:
        fails.append(f"serialization sha256 {digest} != reference")
    if serialize_graph(parse_graph(out["text"])) != out["text"]:
        fails.append("serialize -> parse -> serialize changed the text")
    if out["eta"] != expect["eta"]:
        fails.append(f"eta {out['eta']!r} != reference {expect['eta']!r}")
    return fails


def check_growth(out: dict, inp: dict, ref: dict) -> list[str]:
    fails = []
    unit = out["tables"]["unit"]
    sig = out["signature"]
    if unit[:len(sig)] != sig:
        fails.append(f"unit ball counts {unit[:len(sig)]} != signature {sig}")
    if unit != ref["unit_ball_counts"][:len(unit)]:
        fails.append(f"unit ball counts {unit} != reference")
    fails += [f"sandwich fails at radius {c.radius}"
              for c in out["sandwich"] if not c.holds]
    n = len(inp["words"])
    fails += [f"conjugate {w!r} reported non-trivial"
              for w, t in zip(inp["conjugates"], out["answers"][n:]) if not t]
    for w, trivial in zip(inp["words"], out["answers"][:n]):
        # one moved probe proves w non-trivial; a non-trivial word may still
        # fix every probe, so only a trivial answer can be refuted
        if trivial and any(act(w, p) != p for p in inp["probes"]):
            fails.append(f"word {w!r} reported trivial but moves a probe")
    return fails


# --- counts and per-layer metrics ----------------------------------------------

def _count(pattern: str, log: list[str]) -> int:
    for line in log:
        found = re.search(pattern, line)
        if found:
            return int(found.group(1))
    raise ValueError(f"no build log line matches {pattern!r}")


def fingerprint(workload: str, out: dict) -> dict:
    """Counts and exact values that every repetition must reproduce."""
    if workload == "fixture-pipeline":
        runs = [r for r in out["runs"] if r is not None]
        _, best, trace = out["optimized"]
        return {"eta_reached": best, "fixture_eta": out["eta"],
                "optimizer.proposals": len(trace),
                "optimizer.accepted": sum(r.accepted for r in trace),
                "automaton.transduce_chunks": sum(r.consumed_chunks
                                                  for r in runs),
                "automaton.specials_used": sum(r.used_special for r in runs),
                "minforms.settled": len(out["graph"].forms.table)}
    if workload == "build-valley":
        graph, log = out["graph"], out["log"]
        return {"eta_reached": out["eta"],
                "sha256": hashlib.sha256(out["text"].encode()).hexdigest(),
                "builder.candidates": _count(r"candidate outputs: (\d+)", log),
                "builder.states": len(graph.states),
                "builder.input_states": _count(r"\((\d+) input\)", log),
                "builder.transitions": len(graph.transitions),
                "builder.specials_attached": _count(
                    r"specials attached: (\d+)", log),
                "minforms.settled": len(graph.forms.table)}
    return {"minforms.settled": out["settled"],
            "minforms.settled_by_extend": out["settled_by_extend"],
            "tables": out["tables"],
            "sandwich": [[c.lower, c.middle, c.upper] for c in out["sandwich"]],
            "trivial_answers": sum(out["answers"])}


TIMED = ("automaton.parse", "automaton.verify", "automaton.eta",
         "automaton.preimage_constant", "automaton.serialize",
         "automaton.transduce", "optimizer.optimize", "builder.build",
         "minforms.extend", "growth.count", "growth.sandwich",
         "growth.signature", "elements.word_problem", "words.preimage_basic")
DERIVED = ("eta_reached", "transduce_pairs_per_s",
           "automaton.transduce_p50_us", "automaton.transduce_p99_us",
           "automaton.transduce_chunks", "automaton.special_ratio",
           "automaton.output_weight_ratio", "optimizer.proposals",
           "optimizer.accepted_ratio", "optimizer.s_per_proposal",
           "builder.candidates", "builder.states", "builder.input_states",
           "builder.transitions", "builder.specials_attached",
           "builder.s_per_state", "minforms.settled_per_s",
           "elements.words_per_s", "words.preimage_over_bound")


def layer_metrics(workload: str, out: dict, fp: dict, tr: Tracer,
                  wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced repetition; 0 where a layer is idle."""
    self_s = tr.self_times()
    m = {f"{name}_s": self_s.get(name, 0.0) for name in TIMED}
    m.update(dict.fromkeys(DERIVED, 0))
    m["trace.coverage_ratio"] = sum(
        v for k, v in self_s.items() if not k.startswith("bench.")) / wall
    m["minforms.settled"] = fp["minforms.settled"]
    if workload == "fixture-pipeline":
        pairs, proposals = len(out["pairs"]), fp["optimizer.proposals"]
        times = sorted(tr.durations("automaton.transduce"))
        w = out["graph"].weights
        produced = sum(word_weight(r.output, w) for r in out["runs"] if r)
        baseline = sum(word_weight(b, w) for b in out["basics"] if b)
        m.update({
            "eta_reached": fp["eta_reached"],
            "transduce_pairs_per_s": pairs / m["automaton.transduce_s"],
            "automaton.transduce_p50_us": _rank(times, 0.50) * 1e6,
            "automaton.transduce_p99_us": _rank(times, 0.99) * 1e6,
            "automaton.transduce_chunks": fp["automaton.transduce_chunks"],
            "automaton.special_ratio": fp["automaton.specials_used"] / pairs,
            "automaton.output_weight_ratio": produced / baseline,
            "optimizer.proposals": proposals,
            "optimizer.accepted_ratio": fp["optimizer.accepted"] / proposals,
            "optimizer.s_per_proposal": m["optimizer.optimize_s"] / proposals,
            # psi_preimage_basic documents at most 4*max(|w0|, |w1|) + 12
            # letters; the seed code exceeds it on some pairs, so the excess
            # is counted here rather than failed
            "words.preimage_over_bound": sum(
                len(b) > 4 * max(map(len, p)) + 12
                for p, b in zip(out["pairs"], out["basics"]) if b)})
    elif workload == "build-valley":
        m.update({k: v for k, v in fp.items() if k.startswith("builder.")})
        m["eta_reached"] = fp["eta_reached"]
        m["builder.s_per_state"] = m["builder.build_s"] / fp["builder.states"]
    else:
        m["minforms.settled_per_s"] = (fp["minforms.settled_by_extend"]
                                       / m["minforms.extend_s"])
        m["elements.words_per_s"] = (len(out["answers"])
                                     / m["elements.word_problem_s"])
    return m


def _rank(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with a share q at or below."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


JOBS = {"fixture-pipeline": (fixture_pipeline, check_fixture),
        "build-valley": (build_valley, check_valley),
        "growth-unit": (growth_unit, check_growth)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--input", type=Path, required=True)
    ap.add_argument("--reference", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    inp = json.loads(args.input.read_text())
    workload = inp["workload"]
    text = FIXTURE.read_text() if workload == "fixture-pipeline" else ""
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return

    job, check = JOBS[workload]
    tr = Tracer(args.spans is not None)
    cpu0, t0 = time.process_time(), time.perf_counter()
    with tr.span(f"bench.{workload}"):
        out = job(inp, text, tr)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    failures = check(out, inp, json.loads(args.reference.read_text()))
    fp = fingerprint(workload, out)
    result = {"ready": ready, "wall_s": wall, "cpu_s": cpu,
              "peak_rss_mb": peak_kb / 1024, "attempted": out["ops"],
              "failures": failures, "fingerprint": fp}
    if tr.enabled:
        result["layers"] = layer_metrics(workload, out, fp, tr, wall)
        tr.write(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

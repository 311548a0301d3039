"""Command-line front end for every toolkit capability.

One subcommand per library operation, plain-text output, deterministic
for fixed inputs.  Numeric results print with six significant digits;
--json switches report-style commands to machine-readable output.  Exit
status: 0 on success, 1 on contract violations (bad words, failed
verification, exhausted budgets), 2 on I/O errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .automaton import (GraphFormatError, TransduceError, buffer_text,
                        max_cycle_ratio, parse_graph, serialize_graph,
                        transduce, verify_graph)
from .builder import BuildParams, build
from .elements import is_trivial
from .growth import (BoundParams, alpha_of_eta, check_subgroup_growth,
                     gamma_table, lower_bound_log_gamma)
from .minforms import (MinimalForms, SCALE, TUNED_WEIGHTS, UNIT_WEIGHTS,
                       Weight, format_scaled, format_weights, parse_weights)
from .optimizer import (DEFAULT_STEPS, OptimizerSchedule, optimize_weights,
                         trace_csv)
from .words import (act, check_word, free_reduce, in_H, psi,
                    psi_preimage_basic)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _show(word: str) -> str:
    return word if word else "-"


def _read(word: str) -> str:
    word = "" if word == "-" else word
    check_word(word)
    return word


def _load_weights(spec: str | None) -> Weight:
    if spec is None:
        return dict(UNIT_WEIGHTS)
    path = Path(spec)
    text = path.read_text() if path.exists() else spec.replace(",", " ")
    return parse_weights(text)


def _load_graph(path: str):
    return parse_graph(Path(path).read_text())


def _weights_json(w: Weight) -> dict[str, str]:
    return {k: format_scaled(v) for k, v in sorted(w.items())}


def _cmd_act(args) -> int:
    word = _read(args.word)
    if set(args.string) - {"0", "1"}:
        raise ValueError(f"binary string expected, got {args.string!r}")
    print(act(word, args.string))
    return 0


def _cmd_reduce(args) -> int:
    print(_show(free_reduce(_read(args.word))))
    return 0


def _cmd_minform(args) -> int:
    forms = MinimalForms(_load_weights(args.weights))
    print(_show(forms.minimal_form(_read(args.word))))
    return 0


def _cmd_trivial(args) -> int:
    print("true" if is_trivial(_read(args.word)) else "false")
    return 0


def _cmd_psi(args) -> int:
    w = _read(args.word)
    if not in_H(w):
        raise ValueError(f"word {w!r} is not in H (odd a-count)")
    w0, w1 = psi(w)
    print(f"({_show(w0)},{_show(w1)})")
    return 0


def _cmd_preimage_basic(args) -> int:
    word = psi_preimage_basic(_read(args.left), _read(args.right))
    print(_show(word))
    return 0


def _radii(max_radius: int) -> list[int]:
    if max_radius < 0:
        raise ValueError(f"--max-radius must be >= 0, not {max_radius}")
    return [r * SCALE for r in range(max_radius + 1)]


def _growth_rows(weights: Weight, radii: list[int],
                 subgroup: bool) -> list[tuple[str, int]]:
    table = gamma_table(MinimalForms(weights), radii, in_H if subgroup else None)
    return [(format_scaled(radius), count) for radius, count in table]


def _cmd_growth(args) -> int:
    if args.weights is None:
        tables = [dict(UNIT_WEIGHTS), dict(TUNED_WEIGHTS)]
    else:
        tables = [_load_weights(args.weights)]
    radii = _radii(args.max_radius)
    rows = [_growth_rows(w, radii, args.subgroup) for w in tables]
    if args.json:
        print(json.dumps({"tables": [
            {"weights": _weights_json(w), "rows": r}
            for w, r in zip(tables, rows)]}))
        return 0
    for i, (w, r) in enumerate(zip(tables, rows)):
        if i:
            print()
        print(f"# {format_weights(w)}")
        print("radius,count")
        for radius, count in r:
            print(f"{radius},{count}")
    return 0


def _cmd_check_sbgp(args) -> int:
    weights = _load_weights(args.weights)
    forms = MinimalForms(weights)
    radii = _radii(args.max_radius)
    checks = check_subgroup_growth(forms, radii, in_H, 2, weights["a"])
    if args.json:
        print(json.dumps({"checks": [
            {**asdict(c), "radius": format_scaled(c.radius), "holds": c.holds}
            for c in checks]}))
    else:
        for c in checks:
            print(f"radius {format_scaled(c.radius)}: "
                  f"{c.lower} <= {c.middle} <= {c.upper} "
                  f"{'ok' if c.holds else 'FAIL'}")
    if all(c.holds for c in checks):
        return 0
    print("error: subgroup growth sandwich failed", file=sys.stderr)
    return 1


def _cmd_verify_graph(args) -> int:
    report = verify_graph(_load_graph(args.file))
    if args.json:
        print(json.dumps({"ok": report.ok, **asdict(report)}))
    else:
        print(f"input states: {report.input_states}")
        print(f"output states: {report.output_states}")
        print(f"transitions: {report.transitions}")
        print(f"swapped successors: {report.swapped_successors}")
        for note in report.notes:
            print(f"note: {note}")
        for v in report.violations:
            print(f"violation: {v}")
        print(f"violations: {len(report.violations)}")
    if report.ok:
        return 0
    print("error: graph verification failed", file=sys.stderr)
    return 1


def _edge_text(t) -> str:
    if t.output is not None:
        label = f"out {_show(t.output)}"
    else:
        label = f"in {buffer_text(t.reads)}"
    return f"{buffer_text(t.src)} --{label}--> {buffer_text(t.dst)}"


def _cmd_eta(args) -> int:
    graph = _load_graph(args.file)
    eta, report = max_cycle_ratio(graph)
    if args.json:
        print(json.dumps({
            "eta": eta,
            "cycle": [_edge_text(t) for t in report.cycle],
            "in_weight0": report.in_weight0,
            "in_weight1": report.in_weight1,
            "out_weight": report.out_weight,
            "eta_exact": str(report.eta),
            "potentials": {buffer_text(b): p
                           for b, p in report.potentials.items()},
        }))
    else:
        print(_fmt(eta))
        for t in report.cycle:
            print(f"cycle: {_edge_text(t)}")
    return 0


def _cmd_alpha(args) -> int:
    print(_fmt(alpha_of_eta(args.eta)))
    return 0


def _cmd_transduce(args) -> int:
    graph = _load_graph(args.file)
    result = transduce(graph, (_read(args.left), _read(args.right)))
    if args.json:
        print(json.dumps({**asdict(result), "output": _show(result.output)}))
    else:
        print(_show(result.output))
    return 0


def _cmd_build(args) -> int:
    params = BuildParams(
        initial_weight=_load_weights(args.weights),
        delta=args.delta,
        eta_prime=args.eta_prime,
        max_len=args.max_len,
        budget=args.budget,
    )
    log: list[str] = []
    graph = build(params, log)
    Path(args.out).write_text(serialize_graph(graph))
    for line in log:
        print(line)
    return 0


def _cmd_optimize(args) -> int:
    graph = _load_graph(args.graph)
    initial = _load_weights(args.weights) if args.weights else None
    steps = (DEFAULT_STEPS if args.schedule == "default"
             else tuple(float(s) for s in args.schedule.split(",")))
    schedule = OptimizerSchedule(step_sizes=steps,
                                 max_iterations=args.max_iterations)
    weights, eta, trace = optimize_weights(graph, initial, schedule)
    Path(args.out).write_text(format_weights(weights) + "\n")
    sys.stdout.write(trace_csv(trace))
    print(f"eta {_fmt(eta)}", file=sys.stderr)
    return 0


def _cmd_bound(args) -> int:
    params = BoundParams(eta=args.eta, shift=args.shift,
                         base_radius=args.base_radius,
                         base_count=args.base_count)
    m, value = lower_bound_log_gamma(args.n, params)
    if args.json:
        print(json.dumps({"doublings": m, "log_gamma_lower": value}))
    else:
        print(f"log gamma lower bound: {_fmt(value)} (doublings: {m})")
    return 0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="grigorchuk",
        description=("Exact toolkit for the first Grigorchuk group: words, "
                     "minimal forms, growth tables, the section-preimage "
                     "transducer, and its cycle-ratio analysis."))
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("act", help="apply a word to a binary string")
    q.add_argument("word")
    q.add_argument("string")
    q.set_defaults(fn=_cmd_act)

    q = sub.add_parser("reduce", help="freely reduce a word")
    q.add_argument("word")
    q.set_defaults(fn=_cmd_reduce)

    q = sub.add_parser("minform", help="minimal form of a word")
    q.add_argument("word")
    q.add_argument("--weights")
    q.set_defaults(fn=_cmd_minform)

    q = sub.add_parser("trivial", help="does a word represent the identity")
    q.add_argument("word")
    q.set_defaults(fn=_cmd_trivial)

    q = sub.add_parser("psi", help="section pair of an even-a word")
    q.add_argument("word")
    q.set_defaults(fn=_cmd_psi)

    q = sub.add_parser("preimage-basic",
                       help="baseline section preimage of a word pair")
    q.add_argument("left")
    q.add_argument("right")
    q.set_defaults(fn=_cmd_preimage_basic)

    q = sub.add_parser("growth", help="ball sizes per radius as CSV")
    q.add_argument("--weights")
    q.add_argument("--max-radius", type=int, default=6)
    q.add_argument("--subgroup", action="store_true",
                   help="count only even-a words")
    q.add_argument("--json", action="store_true")
    q.set_defaults(fn=_cmd_growth)

    q = sub.add_parser("check-sbgp",
                       help="index-2 subgroup growth sandwich check")
    q.add_argument("--weights")
    q.add_argument("--max-radius", type=int, default=6)
    q.add_argument("--json", action="store_true")
    q.set_defaults(fn=_cmd_check_sbgp)

    q = sub.add_parser("verify-graph", help="structural and group-exact "
                                            "checks of a transducer file")
    q.add_argument("file")
    q.add_argument("--json", action="store_true")
    q.set_defaults(fn=_cmd_verify_graph)

    q = sub.add_parser("eta", help="largest cycle ratio with witness")
    q.add_argument("file")
    q.add_argument("--json", action="store_true")
    q.set_defaults(fn=_cmd_eta)

    q = sub.add_parser("alpha", help="growth exponent log2/log(eta)")
    q.add_argument("eta", type=float)
    q.set_defaults(fn=_cmd_alpha)

    q = sub.add_parser("transduce",
                       help="run a word pair through a transducer file")
    q.add_argument("file")
    q.add_argument("left")
    q.add_argument("right")
    q.add_argument("--json", action="store_true")
    q.set_defaults(fn=_cmd_transduce)

    q = sub.add_parser("build", help="grow a transducer from scratch")
    q.add_argument("--weights", required=True,
                   help="weights file or inline a=..,b=..,c=..,d=..")
    q.add_argument("--delta", type=float, default=BuildParams.delta)
    q.add_argument("--eta-prime", type=float, default=BuildParams.eta_prime)
    q.add_argument("--max-len", type=int, default=BuildParams.max_len)
    q.add_argument("--budget", type=int, default=BuildParams.budget)
    q.add_argument("--out", required=True)
    q.set_defaults(fn=_cmd_build)

    q = sub.add_parser(
        "optimize", help="minimise the cycle ratio over triangular weights: "
                         "hill-climb, then an exact cutting-plane finish")
    q.add_argument("--graph", required=True)
    q.add_argument("--weights", help="initial weights, default: the graph's")
    q.add_argument("--schedule", default="default",
                   help='"default" or comma-separated step sizes')
    q.add_argument("--max-iterations", type=int,
                   default=OptimizerSchedule.max_iterations)
    q.add_argument("--out", required=True)
    q.set_defaults(fn=_cmd_optimize)

    q = sub.add_parser("bound", help="doubling lower bound on log-growth")
    q.add_argument("n", type=float)
    q.add_argument("--eta", type=float, required=True)
    q.add_argument("--shift", type=float, required=True)
    q.add_argument("--base-radius", type=float, required=True)
    q.add_argument("--base-count", type=int, required=True)
    q.add_argument("--json", action="store_true")
    q.set_defaults(fn=_cmd_bound)

    return p


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GraphFormatError, TransduceError, ValueError,
            RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

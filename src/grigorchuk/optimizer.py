"""Tune transducer weights: a coordinate hill-climb, then an exact finish.

The cycle-ratio bound of a finished machine depends on the weight given
to each generator; a is the scale gauge and stays fixed at one.

Every measurement of the machine also yields a witness cycle.  A cycle's
ratio 2*out/in is a linear-fractional function of the weights, and at
every weight it bounds the machine's ratio from below; each witness is
therefore a cut.

Hill-climb: starting from any triangular weight, each proposal nudges
one of b, c, d by the current step and is kept exactly when the measured
ratio strictly drops.  Steps shrink on a schedule.  A proposal that some
cut already rates at or above the current ratio cannot be kept, so it is
rejected without measuring the machine.

Finish: the hill-climb stalls at kinks where several cycles tie.  The
cuts then form a model, the largest cut ratio, which is minimised over
triangular weights as a sequence of matrix games (a cutting plane for a
generalized linear-fractional program; Dinkelbach 1967, Crouzeix and
Ferland 1991).  Each game is solved exactly in integers; every tableau
row is a positive multiple of its row in fractions, so every pivot is
the one that fractions would take.
The model's optimum is rounded to the 1e-4 weight grid and measured, its
witness joins the cuts, and the loop stops once the best measured ratio
is within 1e-4 of the model's lower bound.  On the bundled machine both
unit and bundled starts end at 3.931236 (b=6.1425 c=4.8968 d=3.2456),
1.5e-5 above the certified floor 3.931221 of all triangular weights.

Every measured or rejected proposal is recorded, so a run can be
replayed from its trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .automaton import CycleReport, TransducerGraph, max_cycle_ratio
from .minforms import SCALE, Weight, check_weights, format_scaled, is_triangular
from .words import LETTERS

DEFAULT_STEPS = (0.1, 0.05, 0.02, 0.01, 0.005)
COORDINATES = ("b", "c", "d")

# The finish stops when the best measured ratio is this close to the
# model's lower bound.
FINISH_TOLERANCE = 1e-4

# The model searches the triangular weights with b + c + d <= 2*MODEL_SPAN
# (a = 1): in (a, b, c, d) they are the convex cone over a alone and the
# three rays (0,1,1), (1,0,1), (1,1,0) of the triangular cone, each
# scaled to MODEL_SPAN, and stored times MODEL_SPAN to be integers.
MODEL_SPAN = 100
_VERTICES = ((MODEL_SPAN, 0, 0, 0),
             (1, 0, MODEL_SPAN, MODEL_SPAN),
             (1, MODEL_SPAN, 0, MODEL_SPAN),
             (1, MODEL_SPAN, MODEL_SPAN, 0))
_MODEL_GAP = Fraction(1, 10 ** 9)
_MODEL_ROUNDS = 200

# letters (a, b, c, d) that a cycle consumes, and that it emits
Cut = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass
class OptimizerSchedule:
    step_sizes: tuple[float, ...] = DEFAULT_STEPS
    max_iterations: int = 2000

    def validate(self) -> None:
        if not self.step_sizes:
            raise ValueError("schedule needs at least one step size")
        if not all(math.isfinite(s * SCALE) for s in self.step_sizes):
            raise ValueError("step sizes must be finite")
        if any(s <= 0 for s in self.step_sizes):
            raise ValueError("step sizes must be positive")
        if any(round(s * SCALE) < 1 for s in self.step_sizes):
            raise ValueError("step sizes must be at least the 1e-4 grid unit")
        if list(self.step_sizes) != sorted(self.step_sizes, reverse=True):
            raise ValueError("step sizes must decrease")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")


@dataclass
class TraceRow:
    """One proposal.

    A hill-climb row names the coordinate it nudged and the step.  A
    finishing row has coordinate ``cut`` and, as its step, the largest
    change of b, c or d from the weights current before it.  ``eta`` is
    the measured ratio, except on a row that a known cycle rules out
    without measuring: there it is that cycle's ratio at the proposal,
    a lower bound on the measured ratio.
    """

    iteration: int
    coordinate: str
    step: float
    eta: float
    accepted: bool

    def csv(self) -> str:
        return (f"{self.iteration},{self.coordinate},"
                f"{format_scaled(round(self.step * SCALE))},"
                f"{self.eta:.6f},{str(self.accepted).lower()}")


def trace_csv(trace: list[TraceRow]) -> str:
    lines = ["iteration,coordinate,step,eta,accepted"]
    lines.extend(row.csv() for row in trace)
    return "\n".join(lines) + "\n"


def _cut(witness: CycleReport) -> Cut:
    """The witness cycle's letter counts, a b c d, read and written."""
    read0, read1, written = zip(*(t.counts for t in witness.cycle))
    return (tuple(map(sum, zip(*read0, *read1))),
            tuple(map(sum, zip(*written))))


def _ratio(cut: Cut, weights) -> Fraction:
    """The cut's ratio 2*out/in at weights given in (a, b, c, d) order."""
    consumed, emitted = cut
    return Fraction(2 * sum(n * w for n, w in zip(emitted, weights)),
                    sum(n * w for n, w in zip(consumed, weights)))


def _game(payoff: list[list[int]], unit: int) -> tuple[list[int], list[int]]:
    """Optimal (row, column) strategies of a zero-sum game, rows maximising,
    whose payoffs are ``payoff`` over the positive integer ``unit``.

    Shifts the payoffs positive and solves  max sum(q)  s.t.  A q <= 1,
    q >= 0  by the simplex method with Bland's rule, fraction-free (Edmonds
    1967, Bareiss 1968): the tableau is integers over one denominator, and
    each division is exact since every entry is a minor of the first.
    Returns the slack prices and q; each, scaled to sum one, is a strategy.
    """
    rows, cols = len(payoff), len(payoff[0])
    shift = unit - min(min(row) for row in payoff)
    tab = [[x + shift for x in row]
           + [unit * (i == k) for i in range(rows)] + [unit]
           for k, row in enumerate(payoff)]
    tab.append([-1] * cols + [0] * (rows + 1))
    basis = list(range(cols, cols + rows))
    denom = 1
    while (enter := next((j for j, x in enumerate(tab[rows][:-1]) if x < 0),
                         None)) is not None:
        _, _, k = min((Fraction(tab[r][-1], tab[r][enter]), basis[r], r)
                      for r in range(rows) if tab[r][enter] > 0)
        pivot = tab[k]
        p = pivot[enter]
        for r, row in enumerate(tab):
            if r != k:
                f = row[enter]
                tab[r] = [(p * x - f * y) // denom for x, y in zip(row, pivot)]
        denom = p
        basis[k] = enter
    q = [0] * cols
    for r, j in enumerate(basis):
        if j < cols:
            q[j] = tab[r][-1]
    return tab[rows][cols:cols + rows], q


def _model(cuts: list[Cut], level: Fraction) -> tuple[Fraction, tuple]:
    """Lower bound and near-optimal point of the model: the largest cut
    ratio, minimised over the weights that ``_VERTICES`` span.

    At a level t, minimising max_k (2*out_k - t*in_k) over mixtures of
    the vertices is a matrix game between cuts and vertices.  Its column
    strategy is a weight whose largest cut ratio bounds the model's
    minimum from above; its row strategy gives multipliers whose combined
    2*out - t*in is non-negative at every vertex for the largest t it
    certifies, which bounds the minimum from below.  The level then moves
    to the upper bound (Dinkelbach) until the bracket closes.
    """
    num = [[2 * sum(n * x for n, x in zip(emitted, v)) for v in _VERTICES]
           for _, emitted in cuts]
    den = [[sum(n * x for n, x in zip(consumed, v)) for v in _VERTICES]
           for consumed, _ in cuts]
    lower, upper, point = Fraction(0), None, None
    for _ in range(_MODEL_ROUNDS):
        lt, lb = level.numerator, level.denominator
        lam, mix = _game([[n * lb - lt * d for n, d in zip(nk, dk)]
                          for nk, dk in zip(num, den)], MODEL_SPAN * lb)
        weights = tuple(sum(m * v[i] for m, v in zip(mix, _VERTICES))
                        for i in range(4))
        top = max(_ratio(cut, weights) for cut in cuts)
        if upper is None or top < upper:
            upper, point = top, weights
        lower = max(lower, min(
            Fraction(sum(m * nk[j] for m, nk in zip(lam, num)),
                     sum(m * dk[j] for m, dk in zip(lam, den)))
            for j in range(len(_VERTICES))))
        if upper - lower <= _MODEL_GAP:
            break
        level = Fraction(math.ceil(upper * 10 ** 12), 10 ** 12)
    return lower, point


def _on_grid(ratios) -> Weight:
    """Round b, c, d, given as ratios to a, to a triangular weight on the
    1e-4 grid with a = 1, lowering each to at most the other two."""
    trial = {"a": SCALE}
    for ch, value in zip(COORDINATES, ratios):
        trial[ch] = max(1, round(SCALE * value))
    for ch in COORDINATES:
        trial[ch] = min(trial[ch],
                        sum(trial[o] for o in COORDINATES if o != ch))
    return trial


def optimize_weights(
    graph: TransducerGraph,
    initial: Weight | None = None,
    schedule: OptimizerSchedule | None = None,
) -> tuple[Weight, float, list[TraceRow]]:
    """Minimise the non-special cycle ratio over triangular weights.

    Runs the scheduled hill-climb, then the cutting-plane finish, and
    returns the best weight found, its ratio, and the full proposal
    trace.  Every proposal, measured or ruled out, is a trace row and
    counts against ``max_iterations``.  The kept-ratio subsequence is
    strictly decreasing, every kept weight is triangular, the returned
    ratio is ``max_cycle_ratio`` at the returned weight, and identical
    inputs replay identically.
    """
    schedule = schedule or OptimizerSchedule()
    schedule.validate()
    weights = dict(initial or graph.weights)
    check_weights(weights)
    # rescale so a carries exactly one unit; ratios are scale-invariant
    weights = _on_grid(Fraction(weights[c], weights["a"]) for c in COORDINATES)

    cuts: list[Cut] = []
    seen = {tuple(weights[c] for c in COORDINATES)}
    trace: list[TraceRow] = []

    def measure(trial: Weight) -> Fraction:
        report = max_cycle_ratio(graph, trial)[1]
        cut = _cut(report)
        if cut not in cuts:
            cuts.append(cut)
        return report.eta

    best = measure(weights)

    for step_units in schedule.step_sizes:
        step = round(step_units * SCALE)
        improved = True
        while improved and len(trace) < schedule.max_iterations:
            improved = False
            for coord, sign in product(COORDINATES, (+1, -1)):
                if len(trace) >= schedule.max_iterations:
                    break
                trial = dict(weights)
                trial[coord] = weights[coord] + sign * step
                if trial[coord] <= 0 or not is_triangular(trial):
                    continue
                key = tuple(trial[c] for c in COORDINATES)
                if key in seen:
                    continue
                seen.add(key)
                at = tuple(trial[ch] for ch in LETTERS)
                # the machine's ratio is at least any cut's, so a cut at
                # or above the current ratio decides the proposal as a
                # measurement would
                ruled = max(_ratio(cut, at) for cut in cuts)
                eta = ruled if ruled >= best else measure(trial)
                keep = eta < best
                trace.append(TraceRow(len(trace) + 1, coord, step_units,
                                      float(eta), keep))
                if keep:
                    weights, best = trial, eta
                    improved = True
                    break

    while len(trace) < schedule.max_iterations:
        bound, point = _model(cuts, best)
        if best <= bound + FINISH_TOLERANCE:
            break
        trial = _on_grid(Fraction(v, point[0]) for v in point[1:])
        key = tuple(trial[c] for c in COORDINATES)
        if key in seen:
            break
        seen.add(key)
        eta = measure(trial)
        keep = eta < best
        jump = max(abs(trial[c] - weights[c]) for c in COORDINATES) / SCALE
        trace.append(TraceRow(len(trace) + 1, "cut", jump, float(eta), keep))
        if keep:
            weights, best = trial, eta
    return weights, float(best), trace

"""Tests for the weight optimizer: schedule checks, trace discipline, the
certified floor that it reaches on the bundled machine, and its integer
simplex against one on a tableau of fractions."""

import hashlib
import random
from fractions import Fraction

import pytest

from grigorchuk import (
    OptimizerSchedule,
    max_cycle_ratio,
    optimize_weights,
    parse_graph,
    trace_csv,
)
from grigorchuk.minforms import (SCALE, TUNED_WEIGHTS, UNIT_WEIGHTS,
                                 is_triangular, parse_weights)
from grigorchuk.optimizer import DEFAULT_STEPS, _game

# The lowest maximum cycle ratio over all triangular weights on the
# bundled machine (test_acceptance.py replays its certificate), and the
# grid weight nearest its optimum, which measures 3.931236.
CERTIFIED_FLOOR = 3.93122
FLOOR_WEIGHTS = {"a": 10000, "b": 61425, "c": 48968, "d": 32456}

# every output weighs exactly as much as the chunk that paid for it, so
# each cycle has ratio 2 at any weight and the optimizer has nothing to do
FLAT = """\
weights a=1 b=1 c=1 d=1
state (-,-) input initial final
edge (-,-) in (da,da) out dada -> (-,-)
edge (-,-) in (da,ca) out daca -> (-,-)
edge (-,-) in (da,ba) out daba -> (-,-)
edge (-,-) in (ca,da) out cada -> (-,-)
edge (-,-) in (ca,ca) out caca -> (-,-)
edge (-,-) in (ca,ba) out caba -> (-,-)
edge (-,-) in (ba,da) out bada -> (-,-)
edge (-,-) in (ba,ca) out baca -> (-,-)
edge (-,-) in (ba,ba) out baba -> (-,-)
"""


class TestSchedule:
    def test_default_valid(self):
        OptimizerSchedule().validate()

    def test_needs_steps(self):
        with pytest.raises(ValueError, match="at least one step"):
            OptimizerSchedule(step_sizes=()).validate()

    def test_steps_positive(self):
        with pytest.raises(ValueError, match="positive"):
            OptimizerSchedule(step_sizes=(0.1, -0.05)).validate()

    def test_steps_decrease(self):
        with pytest.raises(ValueError, match="decrease"):
            OptimizerSchedule(step_sizes=(0.05, 0.1)).validate()

    def test_iteration_floor(self):
        with pytest.raises(ValueError, match="max_iterations"):
            OptimizerSchedule(max_iterations=0).validate()

    # an infinite step overflows the grid, NaN cannot be rounded to it,
    # and a step under half a grid unit rounds to a proposal that moves
    # nothing
    @pytest.mark.parametrize("steps, message", [
        ((float("inf"),), "finite"),
        ((1e400,), "finite"),
        ((float("nan"),), "finite"),
        ((0.1, float("nan")), "finite"),
        ((1e305,), "finite"),
        ((0.00001,), "grid unit"),
        ((0.1, 0.00004), "grid unit"),
    ], ids=["inf", "1e400", "nan", "late-nan", "overflows-grid", "1e-5",
            "late-4e-5"])
    def test_steps_on_the_grid(self, steps, message):
        with pytest.raises(ValueError, match=message):
            OptimizerSchedule(step_sizes=steps).validate()


class TestFlatGraph:
    def test_nothing_to_improve(self):
        graph = parse_graph(FLAT)
        weights, eta, trace = optimize_weights(graph)
        assert eta == pytest.approx(2.0, abs=1e-12)
        assert weights == {k: SCALE * v for k, v in
                           {"a": 1, "b": 1, "c": 1, "d": 1}.items()}
        assert not any(row.accepted for row in trace)


class TestFixtureDescent:
    def test_from_unit_weights(self, fixture_graph):
        unit = {"a": SCALE, "b": SCALE, "c": SCALE, "d": SCALE}
        weights, eta, trace = optimize_weights(fixture_graph, initial=unit)
        assert eta == pytest.approx(CERTIFIED_FLOOR, abs=1e-4)
        assert weights == FLOOR_WEIGHTS
        # the returned ratio is really the ratio of the returned weights
        direct, _ = max_cycle_ratio(fixture_graph, weights)
        assert direct == pytest.approx(eta, abs=1e-12)
        kept = [row.eta for row in trace if row.accepted]
        assert kept, "descent from unit weights must accept something"
        assert all(b < a for a, b in zip(kept, kept[1:]))
        assert eta == pytest.approx(kept[-1], abs=1e-12)

    def test_from_bundled_weights(self, fixture_graph):
        weights, eta, trace = optimize_weights(
            fixture_graph, initial=dict(TUNED_WEIGHTS))
        assert eta == pytest.approx(CERTIFIED_FLOOR, abs=1e-4)
        assert weights == FLOOR_WEIGHTS
        start, _ = max_cycle_ratio(fixture_graph)
        assert eta < start
        assert is_triangular(weights)
        assert weights["a"] == SCALE

    # sha256 of the whole trace: every witness the engine returns becomes a
    # cut, so a different witness at any step feeds the finish other cuts.
    # A step of 20 leaves no triangular proposal, so those runs are the
    # finish alone.
    @pytest.mark.parametrize("initial, steps, cut_rows, digest", [
        (UNIT_WEIGHTS, DEFAULT_STEPS, 2,
         "bbfb1ea047126291ee0c48b4a2b2bd046dddc461413b4ac41bc4690b87f501ba"),
        (TUNED_WEIGHTS, DEFAULT_STEPS, 2,
         "ff211d08e8402df01bd6ede98d23931abe83b536cad9e69ed120402f83b88977"),
        (UNIT_WEIGHTS, (20.0,), 6,
         "d2df9673d454277f61e26eb998cd68503bef5a7e10153b8b50f8c62349962754"),
        (TUNED_WEIGHTS, (20.0,), 5,
         "251dbbeb28aa9932c5a1416fa3ae780685bde6d3bf0881db2646f4c2caaa5f96"),
    ], ids=["unit", "bundled", "unit-finish", "bundled-finish"])
    def test_trace_pinned(self, fixture_graph, initial, steps, cut_rows,
                          digest):
        weights, _, trace = optimize_weights(
            fixture_graph, initial=dict(initial),
            schedule=OptimizerSchedule(step_sizes=steps))
        assert weights == FLOOR_WEIGHTS
        assert sum(row.coordinate == "cut" for row in trace) == cut_rows
        text = trace_csv(trace)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_iteration_cap_respected(self, fixture_graph):
        schedule = OptimizerSchedule(max_iterations=5)
        _, _, trace = optimize_weights(fixture_graph, schedule=schedule)
        assert len(trace) == 5
        assert [row.iteration for row in trace] == [1, 2, 3, 4, 5]

    def test_rejects_non_triangular_start(self, fixture_graph):
        bad = {"a": 10000, "b": 10000, "c": 10000, "d": 30001}
        with pytest.raises(ValueError, match="triangular"):
            optimize_weights(fixture_graph, initial=bad)

    def test_start_with_a_not_one(self, fixture_graph):
        # gauged to a = 1, b = 2/3 rounds up past c + d = 1/3 + 1/3 (each
        # rounded down), and is clamped back onto the triangle
        weights, eta, _ = optimize_weights(
            fixture_graph, initial=parse_weights("a=3 b=2 c=1 d=1"))
        assert weights == FLOOR_WEIGHTS
        assert eta == pytest.approx(CERTIFIED_FLOOR, abs=1e-4)


class TestTraceFormat:
    def test_csv_layout(self, fixture_graph):
        schedule = OptimizerSchedule(max_iterations=3)
        _, _, trace = optimize_weights(fixture_graph, schedule=schedule)
        text = trace_csv(trace)
        lines = text.splitlines()
        assert lines[0] == "iteration,coordinate,step,eta,accepted"
        assert len(lines) == 4
        assert text.endswith("\n")
        for row, line in zip(trace, lines[1:]):
            cells = line.split(",")
            assert cells[0] == str(row.iteration)
            assert cells[1] in ("b", "c", "d")
            assert cells[2] == "0.1"
            assert cells[4] in ("true", "false")
            assert float(cells[3]) == pytest.approx(row.eta, abs=1e-6)


def reference_game(payoff):
    """The simplex of ``_game`` on a tableau of fractions, with both
    strategies scaled to sum one."""
    rows, cols = len(payoff), len(payoff[0])
    shift = 1 - min(min(row) for row in payoff)
    tab = [[Fraction(x + shift) for x in row]
           + [Fraction(i == k) for i in range(rows)] + [Fraction(1)]
           for k, row in enumerate(payoff)]
    cost = [Fraction(-1)] * cols + [Fraction(0)] * (rows + 1)
    basis = list(range(cols, cols + rows))
    while (enter := next((j for j, x in enumerate(cost[:-1]) if x < 0),
                         None)) is not None:
        _, _, k = min((tab[r][-1] / tab[r][enter], basis[r], r)
                      for r in range(rows) if tab[r][enter] > 0)
        tab[k] = [x / tab[k][enter] for x in tab[k]]
        for r in range(rows):
            if r != k and tab[r][enter]:
                f = tab[r][enter]
                tab[r] = [x - f * y for x, y in zip(tab[r], tab[k])]
        f = cost[enter]
        cost = [x - f * y for x, y in zip(cost, tab[k])]
        basis[k] = enter
    q = [Fraction(0)] * cols
    for r, j in enumerate(basis):
        if j < cols:
            q[j] = tab[r][-1]
    p = cost[cols:cols + rows]
    return [x / sum(p) for x in p], [x / sum(q) for x in q]


def random_game(rng):
    """Integer payoffs over a unit from 1 to 1e14, with zeros, repeated
    rows, and one-row or one-column shapes among them."""
    rows, cols = rng.randint(1, 12), rng.randint(1, 5)
    unit = rng.choice([1, rng.randint(1, 100), rng.randint(1, 10 ** 14)])
    span = rng.choice([1, 3, unit, 5 * unit])
    payoff = [[rng.choice([0, rng.randint(-span, span)]) for _ in range(cols)]
              for _ in range(rows)]
    for _ in range(rng.randint(0, rows // 2)):
        payoff.append(list(rng.choice(payoff)))
    rng.shuffle(payoff)
    return payoff, unit


class TestGame:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_fraction_tableau(self, seed):
        rng = random.Random(seed)
        for _ in range(100):
            payoff, unit = random_game(rng)
            lam, mix = _game(payoff, unit)
            assert min(lam) >= 0 and min(mix) >= 0
            assert (len(lam), len(mix)) == (len(payoff), len(payoff[0]))
            scaled = ([Fraction(x, sum(lam)) for x in lam],
                      [Fraction(x, sum(mix)) for x in mix])
            assert scaled == reference_game(
                [[Fraction(x, unit) for x in row] for row in payoff])

    @pytest.mark.parametrize("payoff", [
        [[5]], [[0, 0, 0]], [[-2], [7], [7]], [[1, -1], [-1, 1]],
    ], ids=["one-cell", "one-row", "one-column", "matching-pennies"])
    def test_small_games(self, payoff):
        lam, mix = _game(payoff, 3)
        assert ([Fraction(x, sum(lam)) for x in lam],
                [Fraction(x, sum(mix)) for x in mix]) == reference_game(
            [[Fraction(x, 3) for x in row] for row in payoff])

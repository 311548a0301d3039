"""Tests for the weight optimizer: schedule checks, trace discipline, and
the certified floor that it reaches on the bundled machine."""

import hashlib

import pytest

from grigorchuk import (
    OptimizerSchedule,
    max_cycle_ratio,
    optimize_weights,
    parse_graph,
    trace_csv,
)
from grigorchuk.minforms import (SCALE, TUNED_WEIGHTS, UNIT_WEIGHTS,
                                 is_triangular)

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
    # cut, so a different witness at any step feeds the finish other cuts
    @pytest.mark.parametrize("initial, digest", [
        (UNIT_WEIGHTS,
         "bbfb1ea047126291ee0c48b4a2b2bd046dddc461413b4ac41bc4690b87f501ba"),
        (TUNED_WEIGHTS,
         "ff211d08e8402df01bd6ede98d23931abe83b536cad9e69ed120402f83b88977"),
    ], ids=["unit", "bundled"])
    def test_trace_pinned(self, fixture_graph, initial, digest):
        _, _, trace = optimize_weights(fixture_graph, initial=dict(initial))
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

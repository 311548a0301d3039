import pathlib

import pytest
from hypothesis import strategies as st

from grigorchuk import max_cycle_ratio, parse_graph

FIXTURE_PATH = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "appendix.graph"

# words of up to 300 letters: random ones, and ones joined from {b,c,d}-runs
# longer than the six letters that segments values by table, some of them
# beginning and ending with a
long_words = st.one_of(
    st.text(alphabet="abcd", max_size=300),
    st.builds(lambda head, runs, tail: (head + "a".join(runs) + tail)[:300],
              st.sampled_from(["", "a"]),
              st.lists(st.text(alphabet="bcd", max_size=10), max_size=40),
              st.sampled_from(["", "a"])))


def cycle_value(t, weights, eta):
    """A transition's 2q*out - p*(in0+in1) at eta = p/q, in 1e-4 units."""
    return (2 * t.emitted(weights) * eta.denominator
            - eta.numerator * sum(t.consumed(weights)))


def replay_potentials(graph, eta, potential):
    """Check that no cycle beats eta: potential, an integer per state
    buffer, never rises along a non-special transition's value."""
    for t in graph.transitions.values():
        if not t.special:
            assert (cycle_value(t, graph.weights, eta)
                    + potential[t.src] - potential[t.dst] <= 0)


def assert_no_special_only_states(graph):
    """Every state but START is the target of a chunk or an output
    transition: a special, one transition, makes no state of its own."""
    targets = {t.dst for t in graph.transitions.values() if not t.special}
    assert all(b in targets for b in graph.states if b != ("", ""))


def replay_certificate(graph):
    """Check the engine's exact eta against its witness and potentials."""
    report = max_cycle_ratio(graph)[1]
    eta = report.eta
    assert list(report.potentials) == list(graph.states)
    replay_potentials(graph, eta, report.potentials)
    cycle = report.cycle
    assert all(a.dst == b.src for a, b in zip(cycle, cycle[1:] + cycle[:1]))
    assert sum(cycle_value(t, graph.weights, eta) for t in cycle) == 0
    return eta


@pytest.fixture(scope="session")
def fixture_text() -> str:
    return FIXTURE_PATH.read_text()


@pytest.fixture(scope="session")
def fixture_graph(fixture_text):
    return parse_graph(fixture_text)

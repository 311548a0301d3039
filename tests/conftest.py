import pathlib

import pytest
from hypothesis import strategies as st

from grigorchuk import parse_graph

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


@pytest.fixture(scope="session")
def fixture_text() -> str:
    return FIXTURE_PATH.read_text()


@pytest.fixture(scope="session")
def fixture_graph(fixture_text):
    return parse_graph(fixture_text)

"""Tests for the transducer graph: parsing, verification, cycle analysis,
and word transduction against the bundled machine."""

import dataclasses
import hashlib
import importlib.util
import math
import pathlib
import random
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grigorchuk import (
    BuildParams,
    GraphFormatError,
    TransduceError,
    build,
    first_loop_ratio,
    max_cycle_ratio,
    parse_graph,
    preimage_constant,
    psi,
    serialize_graph,
    transduce,
    verify_graph,
    words_equal,
)
from grigorchuk.automaton import (CHUNK_PAIRS, START, Transition,
                                  TransducerGraph, _dinkelbach)
from grigorchuk.minforms import (SCALE, UNIT_WEIGHTS, is_triangular,
                                 parse_weights, word_weight)
from grigorchuk.words import in_H

from conftest import assert_no_special_only_states, replay_certificate

# A structurally valid machine used for exact-ratio checks.  Its outputs are
# not group-correct (verify_graph would flag them); only the shape matters
# here.  Chunks weigh 2 apiece, the heavy output weighs 6, and every other
# output weighs 2, so the worst cycle ratio is exactly 2*6/(2+2) = 3.
TOY = """\
weights a=1 b=1 c=1 d=1
state (-,-) input initial final
edge (-,-) in (da,da) out cacaca -> (-,-)
edge (-,-) in (da,ca) out ca -> (-,-)
edge (-,-) in (da,ba) out ca -> (-,-)
edge (-,-) in (ca,da) out ca -> (-,-)
edge (-,-) in (ca,ca) out ca -> (-,-)
edge (-,-) in (ca,ba) out ca -> (-,-)
edge (-,-) in (ba,da) out ca -> (-,-)
edge (-,-) in (ba,ca) out ca -> (-,-)
edge (-,-) in (ba,ba) out ca -> (-,-)
"""

# Nine chunk loops at the empty buffer that consume input and emit nothing.
SILENT_LOOPS = "".join(f"edge (-,-) in ({x}a,{y}a) -> (-,-)\n"
                       for x in "dcb" for y in "dcb")
HEADER = "weights a=1 b=1 c=1 d=1\nstate (-,-) input initial final\n"

# Two output states emitting into each other: output without input.
OUTPUT_ONLY = HEADER + SILENT_LOOPS + """\
state (d,-) output
state (c,-) output
edge (d,-) out aca -> (c,-)
edge (c,-) out aca -> (d,-)
"""

# A special whose pad buffer (-,b) is also an output state emitting d: the
# special and that state's output are two transitions.
SHARED_MID = HEADER + "state (-,b) output\n" + SILENT_LOOPS + """\
edge (-,b) out d -> (-,-)
special (-,-) pad (_,b) out d -> (-,-)
"""

# (-,-) reads (ba,ba) into the input state (ad,-), whose heavy (da,da) edge
# emits at (-,da), the buffer a special at (-,-) reads as its pad; the one
# emitting cycle, (-,-) -> (ad,-) -> (-,da) -> (-,-), has ratio
# 2*6/(4+4) = 1.5.
HEAVY_EDGE = "edge (ad,-) in (da,da) out cacaca -> (-,-)\n"
HEAVY_SPECIAL = "special (-,-) pad (__,da) out cacaca -> (-,-)\n"
SHARED_HEAVY_MID = (
    HEADER + "state (ad,-) input\n"
    + SILENT_LOOPS.replace("in (ba,ba) -> (-,-)", "in (ba,ba) -> (ad,-)")
    + SILENT_LOOPS.replace("(-,-)", "(ad,-)")
    .replace("edge (ad,-) in (da,da) -> (ad,-)\n", ""))

# Two input states with nine silent loops each, except that the (da,da)
# edge at (-,-) also emits, so its middle buffer is the input state (da,da).
INPUT_MID = (
    HEADER + "state (da,da) input\n"
    + SILENT_LOOPS.replace("in (da,da) ->", "in (da,da) out cacacaca ->")
    + SILENT_LOOPS.replace("(-,-)", "(da,da)"))

# A special whose pad buffer (-,b) is a declared input state.
INPUT_PAD_MID = (HEADER + "state (-,b) input\n" + SILENT_LOOPS
                 + SILENT_LOOPS.replace("(-,-)", "(-,b)")
                 + "special (-,-) pad (_,b) out d -> (-,-)\n")

# Characters a mutated line may gain: the format's own, a digit and a
# letter outside the alphabet.
MUTATION_CHARS = "abcd-_(),>#3x"


# The fixture's witness cycle at its own weights, as (source, label) steps
# from one rotation: in0 18.85, in1 12.57, out 66.51, ratio 6651/1571.
FIXTURE_WITNESS = [
    (("adaba", "da"), "c"),
    (("daba", "a"), "acacadac"),
    (("", ""), ("da", "da")),
    (("da", "da"), ("ba", "ba")),
    (("daba", "daba"), "acacabacacabaca"),
    (("ad", ""), ("ca", "da")),
    (("aba", "da"), "caba"),
    (("da", ""), ("ba", "da")),
    (("daba", "da"), "acacadac"),
    (("ada", ""), ("ba", "da")),
]

# Up to six nodes and twelve edges (u, v, in0, in1, out) with small integer
# weights; self-loops, parallel edges and silent edges all occur.
SMALL_WEIGHTED_GRAPHS = st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                       st.integers(0, 4), st.integers(0, 4),
                       st.integers(0, 6)), max_size=12)))


def load_make_fixture():
    path = (pathlib.Path(__file__).resolve().parent.parent
            / "tools" / "make_fixture.py")
    spec = importlib.util.spec_from_file_location("make_fixture", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def simple_cycles(n, edges):
    """(in0+in1, out) of every simple cycle, each found once from its
    least node."""
    found = []

    def extend(start, v, visited, consumed, emitted):
        for u, w, i0, i1, out in edges:
            if u != v:
                continue
            if w == start:
                found.append((consumed + i0 + i1, emitted + out))
            elif w > start and w not in visited:
                extend(start, w, visited | {w}, consumed + i0 + i1,
                       emitted + out)

    for s in range(n):
        extend(s, s, {s}, 0, 0)
    return found


def replay_edges(n, edges):
    """Check the engine core's exact eta on an edge list against its
    witness cycle and potentials."""
    eta, cycle, dist = _dinkelbach(n, edges)

    def value(edge):
        u, v, i0, i1, out = edge
        return 2 * out * eta.denominator - eta.numerator * (i0 + i1)

    for edge in edges:
        assert value(edge) + dist[edge[0]] - dist[edge[1]] <= 0
    walk = [edges[ei] for ei in cycle]
    assert all(a[1] == b[0] for a, b in zip(walk, walk[1:] + walk[:1]))
    assert sum(value(edge) for edge in walk) == 0
    return eta


def replaced(graph, src, reads=("", ""), **changes):
    """Edit the transition leaving src that reads reads, by default the
    output transition of src: a transition is a value, so a changed copy
    goes under its key."""
    graph.transitions[src, reads] = dataclasses.replace(
        graph.transitions[src, reads], **changes)


@pytest.fixture(scope="module")
def valley_graph():
    """The VALLEY build at max_len=12."""
    valley = parse_weights("a=1 b=2.7 c=2.0 d=1.3")
    return build(BuildParams(initial_weight=valley, max_len=12))


def random_pair(rng, max_len=14):
    """A pair in the image of psi: psi of a random even-a-count word."""
    while True:
        h = "".join(rng.choice("abcd") for _ in range(rng.randrange(max_len + 1)))
        if in_H(h):
            return psi(h)


class TestParsing:
    def test_fixture_shape(self, fixture_graph):
        kinds = list(fixture_graph.states.values())
        assert len(fixture_graph.states) == 102
        assert kinds.count("input") == 12
        assert kinds.count("output") == 90
        assert len(fixture_graph.transitions) == 237
        # a special is one transition, so no state exists for it alone
        assert_no_special_only_states(fixture_graph)

    def test_serialize_round_trip(self, fixture_text, fixture_graph):
        assert serialize_graph(fixture_graph) == fixture_text

    def test_fixture_regenerates(self, fixture_text):
        # the generator respells every label through minimal forms, so the
        # bundled file pins the canonical spellings as well as the table
        module = load_make_fixture()
        graph, stats, provenance = module.build_fixture()
        assert serialize_graph(graph) == fixture_text
        # one provenance line per repaired row and per swapped successor
        kinds = [line.split()[0] for line in provenance]
        assert (kinds.count("repaired"), kinds.count("swapped")) \
            == (stats["repaired"], stats["swapped"]) == (13, 24)
        assert "repaired (ad,-) in (da,ba): printed ada -> derived d" \
            in provenance

    def test_toy_round_trip_stable(self):
        once = serialize_graph(parse_graph(TOY))
        assert serialize_graph(parse_graph(once)) == once

    def test_duplicate_state(self):
        text = TOY.replace(
            "state (-,-) input initial final",
            "state (-,-) input initial final\nstate (-,-) input",
        )
        with pytest.raises(GraphFormatError, match="duplicate state"):
            parse_graph(text)

    def test_dangling_endpoint(self):
        text = TOY.replace("out cacaca -> (-,-)", "out cacaca -> (b,-)")
        with pytest.raises(GraphFormatError, match="dangling endpoint"):
            parse_graph(text)

    def test_wrong_successor_count(self):
        lines = TOY.strip().splitlines()
        with pytest.raises(GraphFormatError, match="wrong successor count"):
            parse_graph("\n".join(lines[:-1]))

    # bc is heavier than its form d; under unit weights dada weighs as
    # little as its canonical form adad but is not that form
    @pytest.mark.parametrize("word", ["bc", "dada"])
    def test_non_minimal_buffer(self, word):
        text = TOY + f"state ({word},-) input\n"
        with pytest.raises(GraphFormatError, match="non-minimal buffer"):
            parse_graph(text)

    def test_no_initial_state(self):
        text = TOY.replace("input initial final", "input")
        with pytest.raises(GraphFormatError, match="no initial state"):
            parse_graph(text)

    @pytest.mark.parametrize("text", ["", "# a comment\n\n  # another\n"])
    def test_no_graph_at_all(self, text):
        with pytest.raises(GraphFormatError, match="^no initial state$"):
            parse_graph(text)

    def test_weights_line_required_first(self):
        text = "state (-,-) input initial\n" + TOY
        with pytest.raises(GraphFormatError, match="weights line must come first"):
            parse_graph(text)

    def test_unknown_directive(self):
        with pytest.raises(GraphFormatError, match="unknown directive"):
            parse_graph(TOY + "frobnicate (-,-)\n")

    def test_bad_chunk_shape(self):
        text = TOY.replace("in (da,da)", "in (ad,da)")
        with pytest.raises(GraphFormatError, match="not of the form xa"):
            parse_graph(text)

    def test_special_shares_output_state(self):
        # the special reading b and the output of the state (-,b) both
        # write d, as two transitions
        graph = parse_graph(SHARED_MID)
        outs = [(t.src, t.reads, t.output, t.dst, t.special)
                for t in graph.transitions.values() if t.output is not None]
        assert outs == [(("", "b"), ("", ""), "d", ("", ""), False),
                        (("", ""), ("", "b"), "d", ("", ""), True)]
        assert serialize_graph(graph) == SHARED_MID
        # the silent loops land on the wrong buffers; (-,b) itself is sound
        assert not any("(-,b)" in v for v in verify_graph(graph).violations)

    def test_output_state_without_output_written(self, fixture_text):
        # every output state no chunk reaches gets its state line, even
        # one that emits nothing yet, so the file parses back to it
        graph = parse_graph(fixture_text)
        graph.add_state(("d", ""), "output")
        text = serialize_graph(graph)
        assert "state (d,-) output" in text.splitlines()
        assert parse_graph(text).states == graph.states

    def test_index_keys_name_source_and_reads(self, fixture_graph,
                                              valley_graph):
        # the builder retargets a transition by putting a replaced copy
        # under its key; each key must still name its source and reads
        graphs = [fixture_graph, valley_graph,
                  load_make_fixture().build_fixture()[0]]
        for graph in graphs:
            assert all(key == (t.src, t.reads)
                       for key, t in graph.transitions.items())

    @pytest.mark.parametrize("text, lineno, message", [
        (TOY + "edge (-,-) in (da,ca) out ca -> (-,-)\n", 12,
         "repeated transition at (-,-) reading (da,ca)"),
        (SHARED_MID + "special (-,-) pad (_,b) out d -> (-,-)\n", 15,
         "repeated transition at (-,-) reading (-,b)"),
        (SHARED_MID + "edge (-,b) out d -> (-,-)\n", 15,
         "repeated transition at (-,b) reading (-,-)"),
    ], ids=["edge", "special", "output"])
    def test_repeated_transition_line(self, text, lineno, message):
        with pytest.raises(GraphFormatError) as info:
            parse_graph(text)
        assert str(info.value) == f"line {lineno}: {message}"

    def test_output_line_then_combined_line_refused(self, fixture_text):
        # (adad,adad) is the middle buffer of the (da,da) edge reading
        # (da,da); its output written on a line of its own and again by
        # that combined line is written twice, and the combined line, the
        # second to write it, is refused
        lines = fixture_text.splitlines(keepends=True)
        first = next(i for i, line in enumerate(lines)
                     if line.startswith("edge "))
        text = "".join(lines[:first] + [
            "state (adad,adad) output\n",
            "edge (adad,adad) out acacacac -> (-,-)\n"] + lines[first:])
        assert text.splitlines()[24].startswith(
            "edge (da,da) in (da,da) out acacacac ")
        with pytest.raises(GraphFormatError) as info:
            parse_graph(text)
        assert str(info.value) \
            == "line 25: repeated transition at (adad,adad) reading (-,-)"

    def test_every_repeated_line_refused(self, valley_graph):
        # each line of a written machine declares a state or lays down a
        # transition, so any line written twice is an error
        lines = serialize_graph(valley_graph).splitlines(keepends=True)
        for i, line in enumerate(lines):
            with pytest.raises(GraphFormatError):
                parse_graph("".join(lines[:i + 1] + [line] + lines[i + 1:]))

    @pytest.mark.parametrize("special_first", [False, True])
    def test_edge_output_at_pad_buffer_counts_toward_eta(self, special_first):
        # the edge's output at (-,da), a special's pad buffer, is its own
        # transition and not special, so it counts toward eta whatever the
        # line order
        lines = [HEAVY_EDGE, HEAVY_SPECIAL]
        graph = parse_graph(SHARED_HEAVY_MID + "".join(
            lines[::-1] if special_first else lines))
        assert not graph.edge(("", "da")).special
        assert graph.edge(START, ("", "da")).special
        assert max_cycle_ratio(graph)[0] == 1.5
        assert serialize_graph(graph) == serialize_graph(
            parse_graph(SHARED_HEAVY_MID + HEAVY_EDGE + HEAVY_SPECIAL))

    @pytest.mark.parametrize("line, message", [
        ("edge (-,-) in (da,da) -> (-,-) junk", "malformed edge line"),
        ("edge (-,-) in (da,da) ->", "malformed edge line"),
        ("edge (-,-) in (da,da) out caca (-,-)", "missing '->'"),
        ("edge (-,-) in (da,da) out cxca -> (-,-)", "invalid letter 'x'"),
        ("edge (-,-) in (d-,da) -> (-,-)", "invalid letter '-'"),
        ("edge (-,-) out ca -> (-,-)", "edge source (-,-) is not a "
                                        "declared output state"),
        ("special (-,-) pad (__,b) out d -> (-,-)", "malformed pad label"),
        ("special (-,-) pad (,) out d -> (-,-)", "malformed pad label '(,)'"),
        ("state (-,-) input", "duplicate state (-,-)"),
    ], ids=["trailing-token", "bare-arrow", "missing-arrow", "output-letter",
            "buffer-letter", "source-kind", "pad-label", "empty-pad",
            "duplicate-state"])
    def test_errors_name_the_line(self, line, message):
        text = HEADER + line + "\n" + SILENT_LOOPS
        with pytest.raises(GraphFormatError) as info:
            parse_graph(text)
        assert str(info.value).startswith("line 3: ")
        assert message in str(info.value)

    # only (-,-) is flagged, as "input initial final", and only (-,-)
    # has specials; each other declaration is an error naming its line
    @pytest.mark.parametrize("text, lineno, message", [
        (HEADER + "state (da,da) input initial\n", 3,
         "flags on (da,da): only (-,-) is 'initial final'"),
        (HEADER + "state (da,-) output final\n", 3,
         "flags on (da,-): only (-,-) is 'initial final'"),
        (HEADER + "state (da,da) input initial final\n", 3,
         "flags on (da,da): only (-,-) is 'initial final'"),
        (HEADER.replace("input initial final", "output"), 2,
         "no initial state: (-,-) must be declared 'input initial final'"),
        (HEADER.replace("input initial final", "output initial final"), 2,
         "no initial state: (-,-) must be declared 'input initial final'"),
        (SHARED_HEAVY_MID + "special (ad,-) pad (__,da) out cacaca -> (-,-)\n",
         21, "special source (ad,-) is not the empty buffer (-,-)"),
    ], ids=["initial-elsewhere", "final-elsewhere", "second-initial",
            "start-output", "start-output-flagged", "special-elsewhere"])
    def test_start_rules(self, text, lineno, message):
        with pytest.raises(GraphFormatError) as info:
            parse_graph(text)
        assert str(info.value) == f"line {lineno}: {message}"

    def test_non_triangular_weights_line(self):
        text = TOY.replace("c=1", "c=5")
        with pytest.raises(GraphFormatError,
                           match="^line 1: weights must be triangular"):
            parse_graph(text)

    @pytest.mark.parametrize("weights, message", [
        ("a=1.-5", "malformed number"), ("a=1 a=5", "repeated weight")],
        ids=["malformed", "repeated"])
    def test_bad_weights_line(self, weights, message):
        text = TOY.replace("a=1", weights, 1)
        with pytest.raises(GraphFormatError, match=f"^line 1: {message}"):
            parse_graph(text)

    @pytest.mark.parametrize("text, lineno, mid", [
        (INPUT_MID, 4, "(da,da)")], ids=["edge"])
    def test_middle_buffer_must_not_be_input_state(self, text, lineno, mid):
        with pytest.raises(GraphFormatError,
                           match=rf"^line {lineno}: middle buffer "
                                 rf"{re.escape(mid)} is a declared input"):
            parse_graph(text)

    def test_pad_buffer_may_be_input_state(self):
        # a special's pad buffer is no state of its own, so (-,b) may be
        # an input state; only the silent loops break the successor rule
        graph = parse_graph(INPUT_PAD_MID)
        special = graph.edge(START, ("", "b"))
        assert (special.output, special.dst) == ("d", START)
        assert graph.states[("", "b")] == "input"
        assert serialize_graph(graph) == INPUT_PAD_MID
        assert all(v.startswith("chunk ")
                   for v in verify_graph(graph).violations)

    def test_chunk_edge_into_other_output_state(self, fixture_text):
        # (daca,a) is the middle buffer of other edges; written through it,
        # this edge would reparse at its own middle buffer (da,da)
        text = fixture_text.replace("edge (-,-) in (da,da) -> (da,da)",
                                    "edge (-,-) in (da,da) -> (daca,a)")
        with pytest.raises(GraphFormatError,
                           match=r"^line 14: edge reaches output state "
                                 r"\(daca,a\), not its middle buffer"):
            parse_graph(text)

    # three forms no writer produces: a target spelled as the swap of a
    # state, a transition line above its source's state line, and a state
    # line re-declaring a middle buffer that a line above created ((da,ba),
    # of line 16's (-,-) reading (da,ba))
    @pytest.mark.parametrize("edit, message", [
        (lambda text: text.replace("(da,ba) out daca -> (a,-)",
                                   "(da,ba) out daca -> (-,a)"),
         "line 16: dangling endpoint (-,a)"),
        (lambda text: text.replace("state (da,da) input\n", "")
         + "state (da,da) input\n",
         "line 22: edge source (da,da) is not a declared input state"),
        (lambda text: text + "state (da,ba) output\n",
         "line 161: duplicate state (da,ba)"),
    ], ids=["swapped-target", "source-below", "middle-redeclared"])
    def test_unwritten_forms_name_the_line(self, fixture_text, edit,
                                           message):
        with pytest.raises(GraphFormatError) as info:
            parse_graph(edit(fixture_text))
        assert str(info.value) == message

    @settings(max_examples=20, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_transition_line_order_does_not_matter(self, fixture_text,
                                                   fixture_graph, rng):
        # a combined line's target may be a middle buffer that a later
        # line creates; the parser must resolve it wherever it stands
        lines = fixture_text.splitlines()
        head = [x for x in lines if not x.startswith(("edge", "special"))]
        body = lines[len(head):]
        assert head == lines[:len(head)]
        rng.shuffle(body)
        graph = parse_graph("\n".join(head + body) + "\n")
        assert graph.states == fixture_graph.states
        assert graph.transitions.keys() == fixture_graph.transitions.keys()
        for key, t in fixture_graph.transitions.items():
            got = graph.transitions[key]
            assert (got.dst, got.output, got.special) == (
                t.dst, t.output, t.special)
        assert max_cycle_ratio(graph)[1].eta == Fraction(6651, 1571)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_line_parses_or_raises_format_error(self, fixture_text,
                                                        data):
        # one line, the weights line included, gets one token deleted,
        # inserted, replaced or edited by a character, or loses its tail
        lines = fixture_text.splitlines()
        pick = st.integers(0, len(lines) - 1)
        i = data.draw(pick)
        tokens = lines[i].split()
        k = data.draw(st.integers(0, len(tokens) - 1))
        donor = data.draw(st.sampled_from(lines[data.draw(pick)].split()))
        edit = data.draw(st.sampled_from(
            ["delete", "insert", "replace", "char", "truncate"]))
        if edit == "delete":
            del tokens[k]
        elif edit == "insert":
            tokens.insert(k + data.draw(st.integers(0, 1)), donor)
        elif edit == "replace":
            tokens[k] = donor
        elif edit == "char":
            j = data.draw(st.integers(0, len(tokens[k]) - 1))
            ch = data.draw(st.sampled_from(MUTATION_CHARS))
            tokens[k] = tokens[k][:j] + ch + tokens[k][j + 1:]
        else:
            tokens = tokens[:k + 1]
        lines[i] = " ".join(tokens)
        try:
            graph = parse_graph("\n".join(lines) + "\n")
        except GraphFormatError:
            return
        once = serialize_graph(graph)
        assert serialize_graph(parse_graph(once)) == once

    def test_special_conflicting_output(self):
        # the special writes ada while its pad buffer (-,b) emits d: the
        # line is its own transition, and only its wrong label is flagged
        text = SHARED_MID.replace("pad (_,b) out d", "pad (_,b) out ada")
        graph = parse_graph(text)
        assert graph.edge(START, ("", "b")).output == "ada"
        assert graph.edge(("", "b")).output == "d"
        assert serialize_graph(graph) == text
        assert [v for v in verify_graph(graph).violations
                if not v.startswith("chunk ")] == [
            "pad 'b' at (-,-) should reach (b,b), found (-,-)"]


class TestVerification:
    def test_fixture_verifies_clean(self, fixture_graph):
        report = verify_graph(fixture_graph)
        assert report.ok
        assert report.violations == []
        assert report.input_states == 12
        assert report.output_states == 90
        assert report.transitions == 237
        assert report.swapped_successors == 23

    def test_corrupted_label_caught(self, fixture_text):
        # swap one output for a weight-minimal word of the wrong element, so
        # exactly the cancellation check fires and nothing else
        bad = fixture_text.replace(
            "edge (da,da) in (da,da) out acacacac -> (-,-)",
            "edge (da,da) in (da,da) out acacacad -> (-,-)",
            1,
        )
        assert bad != fixture_text
        report = verify_graph(parse_graph(bad))
        assert not report.ok
        assert len(report.violations) == 1
        assert "acacacad" in report.violations[0]

    def test_noncanonical_label_noted(self, fixture_text):
        # cacacaca is acacacac's element at the same weight, so it reaches
        # the same buffer and verifies; only its spelling is noted
        respelled = fixture_text.replace(
            "edge (da,da) in (da,da) out acacacac -> (-,-)",
            "edge (da,da) in (da,da) out cacacaca -> (-,-)")
        assert respelled != fixture_text
        report = verify_graph(parse_graph(respelled))
        assert report.ok
        assert report.notes == [
            "output 'cacacaca' at (adad,adad) is minimal-weight but not the "
            "canonical spelling"]

    def test_pad_successor_checked(self):
        # reading b and writing d, the special must return to (-,-); aimed
        # at another declared output state, it is the one violation naming
        # the pad
        graph = parse_graph(
            SHARED_MID + "state (-,d) output\nedge (-,d) out aca -> (-,-)\n")
        replaced(graph, START, ("", "b"), dst=("", "d"))
        assert [v for v in verify_graph(graph).violations if "pad" in v] \
            == ["pad 'b' at (-,-) should reach (-,-), found (-,d)"]


    def test_input_state_with_output_caught(self):
        # the middle buffer of INPUT_MID's emitting edge, built in code:
        # the chunk edge reaches the input state, which then emits
        graph = parse_graph(INPUT_MID.replace("out cacacaca ", ""))
        graph.add_transition(
            Transition(("da", "da"), ("", ""), output="cacacaca"))
        assert "input state (da,da) has 1 output transitions, expected 0" \
            in verify_graph(graph).violations

    def test_missing_start_caught(self):
        # built in code without (-,-), a machine has nowhere to start runs
        graph = TransducerGraph(UNIT_WEIGHTS)
        graph.add_state(("da", "da"), "input")
        assert "no input state (-,-) to start runs at" \
            in verify_graph(graph).violations
        with pytest.raises(TransduceError,
                           match=r"^stuck: no chunk edge .* at \(-,-\)$"):
            transduce(graph, ("dada", "dada"))

    def test_chunk_at_output_state_caught(self, fixture_text):
        # the edge reaches its successor, but an output state emits and
        # reads nothing: written out, the graph would not parse again
        graph = parse_graph(fixture_text)
        graph.add_transition(Transition(("dad", "da"), ("daba", "adad"),
                                        reads=("ca", "da")))
        assert verify_graph(graph).violations == [
            "output state (dad,da) has 1 chunk or pad transitions, expected 0"]
        with pytest.raises(GraphFormatError,
                           match=r"edge source \(dad,da\) is not a declared "
                                 r"input state"):
            parse_graph(serialize_graph(graph))

    def test_chunk_with_output_caught(self, fixture_text):
        # the edge reaches its successor, a declared output state, but
        # the file format writes a read and an emission as two lines
        # through the middle buffer, here the input state (da,da)
        graph = parse_graph(fixture_text)
        replaced(graph, START, ("da", "da"), output="adab", dst=("aca", "ba"))
        assert verify_graph(graph).violations == [
            "output 'adab' at (-,-) also reads (da,da)"]
        with pytest.raises(GraphFormatError,
                           match=r"^line 14: middle buffer \(da,da\) is a "
                                 r"declared input state$"):
            parse_graph(serialize_graph(graph))

    def test_undeclared_target_caught(self):
        # every edge reaches its successor, but no state holds it, so
        # serialize_graph and max_cycle_ratio would fail on a KeyError
        graph = TransducerGraph(dict(UNIT_WEIGHTS))
        graph.add_state(START, "input")
        for chunk in CHUNK_PAIRS:
            graph.add_transition(Transition(
                START, graph.successor(START, chunk), reads=chunk))
        violations = verify_graph(graph).violations
        assert len(violations) == 9
        assert violations[0] == ("chunk ('da', 'da') at (-,-) reaches "
                                 "(da,da), which is not a declared state")

    def test_undeclared_source_caught(self, fixture_text):
        # the edge reaches its successor, but leaves no state: written out,
        # the graph would not parse again
        graph = parse_graph(fixture_text)
        graph.add_transition(Transition(("a", "d"), ("ada", "ba"),
                                        reads=("da", "ca")))
        assert verify_graph(graph).violations == [
            "chunk ('da', 'ca') leaves (a,d), which is not a declared state"]
        with pytest.raises(GraphFormatError,
                           match=r"edge source \(a,d\) is not a declared "
                                 r"input state"):
            parse_graph(serialize_graph(graph))

    # each corruption of the parsed fixture, made in code, trips one check;
    # (adad,adad) is the output state behind (da,da)'s (da,da) edge
    @pytest.mark.parametrize("corrupt, message", [
        (lambda g: replaced(g, ("adad", "adad"), output="acacac"),
         "output 'acacac' at (adad,adad) has odd a-parity"),
        (lambda g: replaced(g, ("adad", "adad"), output="acacacacdd"),
         "output 'acacacacdd' at (adad,adad) is not weight-minimal"),
        (lambda g: g.add_transition(
            Transition(START, START, reads=("", "d"), output="d")),
         "special at (-,-) consumes 'd' outside the closure of b"),
        (lambda g: g.add_transition(
            Transition(("a", ""), ("a", ""), reads=("", "b"), output="d")),
         "special attached at (a,-), not at the empty buffer (-,-)"),
        (lambda g: g.add_transition(
            Transition(("da", "da"), ("da", "da"), reads=("", "b"),
                       output="d")),
         "special attached at (da,da), not at the empty buffer (-,-)"),
        (lambda g: g.transitions.pop((("da", "da"), ("da", "da"))),
         "input state (da,da) has 8 chunk successors, expected 9"),
        (lambda g: g.add_transition(
            Transition(("dad", "da"), ("dad", "da"), reads=("", "b"),
                       output="d")),
         "output state (dad,da) has 1 chunk or pad transitions, expected 0"),
        (lambda g: replaced(g, START, ("", "b"), output="ab"),
         "output 'ab' at (-,-) has odd a-parity"),
        (lambda g: replaced(g, START, ("", "b"), output=None),
         "special at (-,-) reads 'b' and writes no label"),
    ], ids=["odd-parity", "not-minimal", "pad-outside-b",
            "special-off-section-pair", "special-off-start", "eight-chunks",
            "pad-at-output", "special-odd-parity", "special-no-label"])
    def test_violation_texts(self, fixture_text, corrupt, message):
        graph = parse_graph(fixture_text)
        corrupt(graph)
        assert message in verify_graph(graph).violations


class TestCycleRatio:
    def test_toy_exact(self):
        ratio, witness = max_cycle_ratio(parse_graph(TOY))
        assert ratio == pytest.approx(3.0, abs=1e-12)
        assert float(witness.eta) == ratio
        assert witness.out_weight == 6.0
        assert witness.in_weight0 == witness.in_weight1 == 2.0

    def test_fixture_eta(self, fixture_graph):
        ratio, witness = max_cycle_ratio(fixture_graph)
        assert ratio == pytest.approx(4.233609, abs=1e-4)
        # the witness must reproduce its own ratio from the reported weights
        recomputed = 2 * witness.out_weight / (
            witness.in_weight0 + witness.in_weight1)
        assert recomputed == pytest.approx(ratio, abs=1e-9)
        assert witness.cycle

    def test_fixture_eta_unit_weights(self, fixture_graph):
        ratio, _ = max_cycle_ratio(fixture_graph, dict(UNIT_WEIGHTS))
        assert ratio == pytest.approx(4.5, abs=1e-9)

    def test_letter_counts_weigh_like_words(self, fixture_graph):
        # the engine weighs each transition by its letter counts, taken
        # once when it is made; they must give word_weight of its words at
        # any weights
        rng = random.Random(29)
        tried = 0
        while tried < 20:
            w = {ch: rng.randint(1, 60_000) for ch in "abcd"}
            if not is_triangular(w):
                continue
            tried += 1
            for t in fixture_graph.transitions.values():
                words = (*t.reads, t.output or "")
                assert t.weighs(w) == tuple(word_weight(x, w) for x in words)
                assert t.consumed(w) == (word_weight(t.reads[0], w),
                                         word_weight(t.reads[1], w))
                assert t.emitted(w) == word_weight(t.output or "", w)

    def test_transition_is_a_value(self, fixture_graph):
        # no field can be assigned; a replaced copy counts its own letters
        t = fixture_graph.edge(START, ("da", "da"))
        for f in dataclasses.fields(Transition):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(t, f.name, getattr(t, f.name))
        assert dataclasses.replace(t, output="aca").counts \
            == (*t.counts[:2], (2, 0, 1, 0))

    def test_relabelled_transition_reweighs(self, fixture_text):
        # a relabelled copy under the old key weighs its new label, as a
        # reparse of the relabelled graph does
        graph = parse_graph(fixture_text)
        assert max_cycle_ratio(graph)[1].eta == Fraction(6651, 1571)
        assert graph.edge(("aba", "da")).output == "caba"
        # (da)^4 is trivial
        replaced(graph, ("aba", "da"), output="caba" + "dadadada")
        eta = max_cycle_ratio(graph)[1].eta
        assert eta == Fraction(1605, 293)
        assert max_cycle_ratio(
            parse_graph(serialize_graph(graph)))[1].eta == eta

    def test_first_loop_ratio(self, fixture_graph):
        assert first_loop_ratio(fixture_graph) == pytest.approx(
            3.689320, abs=5e-3)

    # the loop runs (-,-) -> (da,da) -> (adad,adad) --acacacac--> (-,-)
    @pytest.mark.parametrize("corrupt, message", [
        (lambda g: g.transitions.pop((("", ""), ("da", "da"))),
         "initial state has no (da,da) edge"),
        (lambda g: g.transitions.pop((("da", "da"), ("da", "da"))),
         "no second (da,da) edge"),
        (lambda g: g.transitions.pop((("adad", "adad"), ("", ""))),
         "the (da,da)(da,da) path does not close up"),
        (lambda g: replaced(g, ("adad", "adad"), dst=("da", "da")),
         "the (da,da)(da,da) path does not close up"),
    ], ids=["no-first", "no-second", "no-output", "output-dst"])
    def test_first_loop_ratio_on_broken_loop(self, fixture_text, corrupt,
                                             message):
        graph = parse_graph(fixture_text)
        corrupt(graph)
        with pytest.raises(TransduceError) as err:
            first_loop_ratio(graph)
        assert str(err.value) == message

    def test_constants_finite(self, fixture_graph):
        assert preimage_constant(fixture_graph) == pytest.approx(
            419.354150, abs=1e-2)
        assert max_cycle_ratio(fixture_graph)[1].excess == pytest.approx(
            30.25, abs=1e-6)
        # with d heavier than b, the answer prefix ada outweighs aba
        assert preimage_constant(
            fixture_graph, parse_weights("a=1 b=1 c=2 d=2.5")
        ) == pytest.approx(523.125, abs=1e-9)

    def test_output_only_cycle_unbounded(self):
        with pytest.raises(TransduceError, match="unbounded"):
            max_cycle_ratio(parse_graph(OUTPUT_ONLY))

    def test_no_output_cycle(self):
        with pytest.raises(TransduceError,
                           match="no cycle with positive consumed weight"):
            max_cycle_ratio(parse_graph(HEADER + SILENT_LOOPS))

    def test_certificate_toy(self):
        assert replay_certificate(parse_graph(TOY)) == 3

    def test_certificate_fixture(self, fixture_graph):
        # 6651/1571 = 4.233609166...
        assert replay_certificate(fixture_graph) == Fraction(6651, 1571)

    def test_fixture_witness(self, fixture_graph):
        _, witness = max_cycle_ratio(fixture_graph)
        steps = [(t.src, t.output or t.reads) for t in witness.cycle]
        assert any(steps[i:] + steps[:i] == FIXTURE_WITNESS
                   for i in range(len(steps)))
        assert (witness.in_weight0, witness.in_weight1,
                witness.out_weight) == pytest.approx((18.85, 12.57, 66.51))

    @settings(max_examples=300, deadline=None)
    @given(SMALL_WEIGHTED_GRAPHS)
    def test_eta_matches_brute_force(self, spec):
        # the engine core runs on the raw multigraph, parallel edges kept
        cycles = simple_cycles(*spec)
        if any(consumed == 0 and emitted > 0 for consumed, emitted in cycles):
            with pytest.raises(TransduceError, match="unbounded"):
                _dinkelbach(*spec)
        elif not any(emitted > 0 for _, emitted in cycles):
            with pytest.raises(TransduceError,
                               match="no cycle with positive consumed weight"):
                _dinkelbach(*spec)
        else:
            assert replay_edges(*spec) == max(
                Fraction(2 * emitted, consumed)
                for consumed, emitted in cycles if consumed)


# The fixture's output for (dada,dada), and corruptions of the steps of
# that run with the message each stops it with: a successor holding
# neither orientation of the true buffer, then a step taken away.
DADA_OUTPUT = "cacabacacabacacacacabacacabacacacacacaca"
MISMATCHES = [
    (lambda g: replaced(g, START, ("da", "da"), dst=("ca", "ca")),
     "stuck: successor buffer mismatch after chunk ('da', 'da')"),
    (lambda g: replaced(g, ("adad", "adad"), dst=("da", "da")),
     "stuck: successor buffer mismatch after 'acacacac'"),
]
STUCK = [
    (lambda g: g.transitions.pop((("", ""), ("da", "da"))),
     "stuck: no chunk edge ('da', 'da') at (-,-)"),
    (lambda g: g.transitions.pop((("adad", "adad"), ("", ""))),
     "stuck: no output transition at (adad,adad)"),
    (lambda g: replaced(g, ("adad", "adad"), output="acacac"),
     "stuck: output 'acacac' at (adad,adad) has odd a-parity"),
]


class TestTransduce:
    def test_known_output(self, fixture_graph):
        result = transduce(fixture_graph, ("dada", "dada"))
        assert result.output == DADA_OUTPUT
        assert not result.used_special

    def test_special_path(self, fixture_graph):
        result = transduce(fixture_graph, ("", "b"))
        assert result.output == "d"
        assert result.used_special
        assert result.consumed_chunks == 0

    def test_identity_pair(self, fixture_graph):
        result = transduce(fixture_graph, ("", ""))
        assert words_equal(result.output, "")

    def test_rejects_pair_outside_image(self, fixture_graph):
        with pytest.raises(TransduceError):
            transduce(fixture_graph, ("da", "ca"))

    def test_successor_mismatch_names_the_step(self, fixture_text):
        # (dada,dada) runs (-,-) -> (da,da) -> (adad,adad) --acacacac--> (-,-);
        # a successor holding neither orientation of the true buffer stops
        # the run and names the chunk or output that led to it
        for corrupt, message in MISMATCHES:
            graph = parse_graph(fixture_text)
            corrupt(graph)
            with pytest.raises(TransduceError) as err:
                transduce(graph, ("dada", "dada"))
            assert str(err.value) == message

    @pytest.mark.parametrize("corrupt, message", STUCK,
                             ids=["no-chunk-edge", "no-output", "odd-output"])
    def test_stuck_texts(self, fixture_text, corrupt, message):
        graph = parse_graph(fixture_text)
        corrupt(graph)
        with pytest.raises(TransduceError) as err:
            transduce(graph, ("dada", "dada"))
        assert str(err.value) == message

    @pytest.mark.parametrize("corrupt, message", MISMATCHES + STUCK + [
        # a new label moves the true buffer off the stored successor
        (lambda g: replaced(g, ("adad", "adad"), output="acac"),
         "stuck: successor buffer mismatch after 'acac'"),
    ], ids=["chunk-dst", "output-dst", "no-chunk-edge", "no-output",
            "odd-output", "output-label"])
    def test_corruption_after_a_run(self, fixture_text, corrupt, message):
        # the successor memo is keyed by values, so a run on the intact
        # graph leaves nothing behind that hides a later corruption
        graph = parse_graph(fixture_text)
        assert transduce(graph, ("dada", "dada")).output == DADA_OUTPUT
        corrupt(graph)
        with pytest.raises(TransduceError) as err:
            transduce(graph, ("dada", "dada"))
        assert str(err.value) == message

    # a special's closing label is emitted unchecked, so only the run
    # check sees that abadaba has sections (1, aba), not (1, b), and that
    # ab has odd parity and no sections
    @pytest.mark.parametrize("label", ["abadaba", "ab"])
    def test_run_check_catches_a_wrong_special(self, fixture_text, label):
        graph = parse_graph(fixture_text)
        replaced(graph, START, ("", "b"), output=label)
        with pytest.raises(TransduceError) as err:
            transduce(graph, ("", "b"))
        assert str(err.value) == "not in the section image: run check failed"

    def test_outputs_pinned(self, fixture_graph):
        # 300 seeded pairs of words up to 40 letters, hashed as
        # output|used_special|consumed_chunks, one line per pair
        rng = random.Random(31337)
        lines = []
        for _ in range(300):
            r = transduce(fixture_graph, random_pair(rng, 40))
            lines.append(f"{r.output}|{r.used_special}|{r.consumed_chunks}")
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
            "7e960799da2ffdb314c185e22517696ed8950fb0ce3fdda5c8c4bb35a80da305"

    def test_successor_memo_bounded(self, fixture_text):
        graph = parse_graph(fixture_text)
        verify_graph(graph)
        rng = random.Random(2)
        for _ in range(2000):
            transduce(graph, random_pair(rng, 40))
        memo = graph.successor_memo
        assert len(memo) == len(graph.transitions)
        fresh = parse_graph(fixture_text)
        for (src, consumed, emitted), succ in memo.items():
            assert fresh.successor(src, consumed, emitted) == succ

    def test_exhaustive_small_consistency(self, fixture_graph):
        for length in range(7):
            for letters in product("abcd", repeat=length):
                h = "".join(letters)
                if not in_H(h):
                    continue
                pair = psi(h)
                out = transduce(fixture_graph, pair).output
                assert in_H(out)
                back = psi(out)
                assert words_equal(back[0], pair[0])
                assert words_equal(back[1], pair[1])

    def test_random_consistency_and_weight_bound(self, fixture_graph):
        rng = random.Random(20250823)
        eta, _ = max_cycle_ratio(fixture_graph)
        slack = preimage_constant(fixture_graph)
        w = fixture_graph.weights
        specials_used = 0
        for _ in range(60):
            pair = random_pair(rng)
            result = transduce(fixture_graph, pair)
            back = psi(result.output)
            assert words_equal(back[0], pair[0])
            assert words_equal(back[1], pair[1])
            # weights here are in plain units: word_weight is scaled by
            # SCALE while the additive constant is not
            biggest = max(word_weight(pair[0], w),
                          word_weight(pair[1], w)) / SCALE
            out_weight = word_weight(result.output, w) / SCALE
            assert out_weight <= eta * biggest + slack
            specials_used += result.used_special
        assert specials_used > 0

    def test_output_weight_not_wildly_padded(self, fixture_graph):
        # a long balanced pair should come out near the cycle ratio, far
        # under the additive constant regime
        pair = psi("abab" * 12)
        result = transduce(fixture_graph, pair)
        w = fixture_graph.weights
        biggest = max(word_weight(pair[0], w), word_weight(pair[1], w))
        assert word_weight(result.output, w) <= 4.5 * biggest

    def test_log_preimage_constant_sane(self, fixture_graph):
        assert math.isfinite(preimage_constant(fixture_graph))
        assert preimage_constant(fixture_graph) > 0

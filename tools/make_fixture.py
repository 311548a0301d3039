"""Regenerate fixtures/appendix.graph from the transcribed reference machine.

The table below is a faithful transcription of the reference 12-state
machine: for each input state, nine rows in chunk order (first-stream
letter d, c, b; second-stream letter d, c, b) giving the materialized
buffer pair, the row kind, the printed output label, and the printed
successor pair.

A handful of printed labels do not satisfy the cancellation equation
that defines an output transition.  For those rows this script derives
the label element forced by the buffers (source buffer times reversed
successor buffer, per component), preferring the printed successor
orientation and, when both orientations are admissible, the one whose
forced element matches the printed label or its reverse.  All labels are
then respelled in canonical minimal form under the reference weights.
Special end-of-input transitions are attached at the empty buffer by
builder.attach_specials, as in the builder: one transition for every
nonempty minimal form of at most eight letters in the closure of b.

Run from the repository root:  python3 tools/make_fixture.py
It prints, besides the counts, one line per repaired row (input state,
chunk, printed label and derived label) and one per row whose label was
derived for the swapped successor, so each can be checked against the
reference table; only the graph goes to the fixture file.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from grigorchuk.automaton import (CHUNK_PAIRS, Transition, TransducerGraph,  # noqa: E402
                                  buffer_text, serialize_graph)
from grigorchuk.builder import attach_specials  # noqa: E402
from grigorchuk.minforms import TUNED_WEIGHTS  # noqa: E402
from grigorchuk.words import (free_reduce, pair_in_section_image,  # noqa: E402
                              psi_preimage_basic, rev)
from grigorchuk.elements import element_of  # noqa: E402


# (input state) -> nine rows (buffer, kind, printed label, printed successor)
TABLE: list[tuple[tuple[str, str], list]] = [
    (("", ""), [
        (("da", "da"), "IN", None, ("da", "da")),
        (("da", "ca"), "IN", None, ("da", "ca")),
        (("da", "ba"), "OUT", "acad", ("a", "")),
        (("ca", "da"), "IN", None, ("ca", "da")),
        (("ca", "ca"), "IN", None, ("ca", "ca")),
        (("ca", "ba"), "OUT", "abad", ("a", "")),
        (("ba", "da"), "OUT", "cada", ("a", "")),
        (("ba", "ca"), "OUT", "bada", ("a", "")),
        (("ba", "ba"), "OUT", "abad", ("da", "")),
    ]),
    (("da", "da"), [
        (("adad", "adad"), "OUT", "cacacaca", ("", "")),
        (("adad", "daca"), "OUT", "cacabaca", ("", "")),
        (("adad", "daba"), "OUT", "cacab", ("da", "d")),
        (("daca", "adad"), "OUT", "acacabac", ("", "")),
        (("daca", "daca"), "OUT", "acabacadadab", ("", "")),
        (("daca", "daba"), "OUT", "cabacaca", ("aca", "")),
        (("daba", "adad"), "OUT", "acacaba", ("da", "d")),
        (("daba", "daca"), "OUT", "acabacac", ("aca", "")),
        (("daba", "daba"), "OUT", "acabacacabacaca", ("ad", "")),
    ]),
    (("da", "ca"), [
        (("adad", "cada"), "OUT", "bacacaca", ("", "")),
        (("adad", "caca"), "OUT", "bacabaca", ("", "")),
        (("adad", "caba"), "OUT", "bacab", ("da", "d")),
        (("daca", "cada"), "OUT", "cabacacad", ("", "")),
        (("daca", "caca"), "OUT", "acababab", ("", "")),
        (("daca", "caba"), "OUT", "cabacacad", ("aca", "")),
        (("daba", "cada"), "OUT", "cacadaba", ("da", "d")),
        (("daba", "caca"), "OUT", "acabacab", ("aca", "")),
        (("daba", "caba"), "OUT", "cabacacabacab", ("ad", "")),
    ]),
    (("ca", "da"), [
        (("cada", "adad"), "OUT", "abacacac", ("", "")),
        (("cada", "daca"), "OUT", "acabacacada", ("", "")),
        (("cada", "daba"), "OUT", "acacadab", ("da", "d")),
        (("caca", "adad"), "OUT", "abacabac", ("", "")),
        (("caca", "daca"), "OUT", "cabacababadab", ("", "")),
        (("caca", "daba"), "OUT", "cabacaba", ("aca", "")),
        (("caba", "adad"), "OUT", "abacaba", ("da", "d")),
        (("caba", "daca"), "OUT", "acabacacada", ("aca", "")),
        (("caba", "daba"), "OUT", "acabacacabacaba", ("ad", "")),
    ]),
    (("ca", "ca"), [
        (("cada", "cada"), "OUT", "acacacabada", ("", "")),
        (("cada", "caca"), "OUT", "acabacabada", ("", "")),
        (("cada", "caba"), "OUT", "acabadab", ("da", "d")),
        (("caca", "cada"), "OUT", "cabacabad", ("", "")),
        (("caca", "caca"), "OUT", "acabacabadabadab", ("", "")),
        (("caca", "caba"), "OUT", "cabacabad", ("aca", "")),
        (("caba", "cada"), "OUT", "cabadaba", ("da", "d")),
        (("caba", "caca"), "OUT", "acabacabada", ("aca", "")),
        (("caba", "caba"), "OUT", "badabababadababac", ("ad", "")),
    ]),
    (("a", ""), [
        (("ada", "da"), "OUT", "caca", ("a", "")),
        (("ada", "ca"), "OUT", "baca", ("a", "")),
        (("ada", "ba"), "OUT", "b", ("da", "da")),
        (("aca", "da"), "OUT", "caba", ("a", "")),
        (("aca", "ca"), "OUT", "baba", ("a", "")),
        (("aca", "ba"), "OUT", "b", ("ca", "da")),
        (("aba", "da"), "OUT", "caba", ("da", "")),
        (("aba", "ca"), "OUT", "baba", ("da", "")),
        (("aba", "ba"), "OUT", "badac", ("a", "")),
    ]),
    (("da", "d"), [
        (("adad", "a"), "OUT", "aca", ("ada", "")),
        (("adad", "ba"), "OUT", "acad", ("ada", "")),
        (("adad", "ca"), "OUT", "baca", ("ad", "")),
        (("daca", "a"), "OUT", "aca", ("aca", "")),
        (("daca", "ba"), "OUT", "acad", ("aca", "")),
        (("daca", "ca"), "OUT", "cabacacad", ("ad", "")),
        (("daba", "a"), "OUT", "acabadab", ("", "")),
        (("daba", "ba"), "OUT", "acacadab", ("", "")),
        (("daba", "ca"), "OUT", "badabaca", ("aca", "")),
    ]),
    (("da", ""), [
        (("adad", "da"), "OUT", "caca", ("ad", "")),
        (("adad", "ca"), "OUT", "baca", ("ad", "")),
        (("adad", "ba"), "OUT", "acad", ("ada", "")),
        (("daca", "da"), "OUT", "cabacaca", ("ad", "")),
        (("daca", "ca"), "OUT", "cabacacad", ("ad", "")),
        (("daca", "ba"), "OUT", "acad", ("aca", "")),
        (("daba", "da"), "OUT", "badabaca", ("ada", "")),
        (("daba", "ca"), "OUT", "badabaca", ("aca", "")),
        (("daba", "ba"), "OUT", "acacadab", ("", "")),
    ]),
    (("ca", ""), [
        (("cada", "da"), "OUT", "acacada", ("ad", "")),
        (("cada", "ca"), "OUT", "acabada", ("ad", "")),
        (("cada", "ba"), "OUT", "abad", ("ada", "")),
        (("caca", "da"), "OUT", "cabacaba", ("ad", "")),
        (("caca", "ca"), "OUT", "cabacabad", ("ad", "")),
        (("caca", "ba"), "OUT", "abad", ("aca", "")),
        (("caba", "da"), "OUT", "badababa", ("ada", "")),
        (("caba", "ca"), "OUT", "badababa", ("aca", "")),
        (("caba", "ba"), "OUT", "abacadab", ("", "")),
    ]),
    (("ad", ""), [
        (("", "da"), "IN", None, ("da", "")),
        (("", "ca"), "IN", None, ("ca", "")),
        (("", "ba"), "OUT", "ada", ("a", "")),
        (("aba", "da"), "OUT", "caba", ("da", "")),
        (("aba", "ca"), "OUT", "baba", ("da", "")),
        (("aba", "ba"), "OUT", "badac", ("a", "")),
        (("aca", "da"), "OUT", "caba", ("a", "")),
        (("aca", "ca"), "OUT", "baba", ("a", "")),
        (("aca", "ba"), "OUT", "b", ("ca", "da")),
    ]),
    (("ada", ""), [
        (("dad", "da"), "OUT", "acac", ("ada", "")),
        (("dad", "ca"), "OUT", "acab", ("ada", "")),
        (("dad", "ba"), "OUT", "acad", ("ad", "")),
        (("adaca", "da"), "OUT", "c", ("daca", "a")),
        (("adaca", "ca"), "OUT", "b", ("daca", "a")),
        (("adaca", "ba"), "OUT", "b", ("daca", "da")),
        (("adaba", "da"), "OUT", "c", ("daba", "a")),
        (("adaba", "ca"), "OUT", "b", ("daba", "a")),
        (("adaba", "ba"), "OUT", "b", ("daba", "da")),
    ]),
    (("aca", ""), [
        (("acada", "da"), "OUT", "caba", ("ada", "")),
        (("acada", "ca"), "OUT", "baba", ("ada", "")),
        (("acada", "ba"), "OUT", "acacadab", ("ad", "")),
        (("acaca", "da"), "OUT", "caba", ("aca", "")),
        (("acaca", "ca"), "OUT", "baba", ("aca", "")),
        (("acaca", "ba"), "OUT", "b", ("caca", "da")),
        (("acaba", "da"), "OUT", "cababadab", ("", "")),
        (("acaba", "ca"), "OUT", "bababadab", ("", "")),
        (("acaba", "ba"), "OUT", "b", ("caba", "da")),
    ]),
]

INPUT_STATES = [s for s, _ in TABLE]


def build_fixture() -> tuple[TransducerGraph, dict[str, int], list[str]]:
    """The fixture machine, its repair counts, and one provenance line per
    repaired row and per row whose label fits the swapped successor."""
    graph = TransducerGraph(TUNED_WEIGHTS)
    forms = graph.forms
    for st in INPUT_STATES:
        graph.add_state(st, "input")

    stats = {"repaired": 0, "respelled": 0, "swapped": 0}
    provenance: list[str] = []
    for state, rows in TABLE:
        for idx, (buffer, kind, label, succ) in enumerate(rows):
            chunk = CHUNK_PAIRS[idx]
            expect = graph.successor(state, chunk)
            if kind == "IN":
                assert succ in (expect, (expect[1], expect[0])), (state, chunk)
                graph.add_transition(Transition(state, succ, reads=chunk))
                continue
            assert buffer == expect, (state, chunk, buffer, expect)
            # forced label element for each admissible successor orientation
            candidates = []
            for sc in (succ, (succ[1], succ[0])):
                w0 = free_reduce(buffer[0] + rev(sc[0]))
                w1 = free_reduce(buffer[1] + rev(sc[1]))
                if pair_in_section_image(w0, w1):
                    candidates.append(
                        (sc, forms.minimal_form(psi_preimage_basic(w0, w1))))
            assert candidates, (state, buffer, succ)
            sc, word = candidates[0]
            if len(candidates) > 1:
                printed = (element_of(label), element_of(rev(label)))
                for cand in candidates:
                    if element_of(cand[1]) in printed:
                        sc, word = cand
                        break
            row = f"{buffer_text(state)} in {buffer_text(chunk)}"
            if element_of(word) not in (element_of(label),
                                        element_of(rev(label))):
                stats["repaired"] += 1
                provenance.append(f"repaired {row}: printed {label} -> "
                                  f"derived {word}")
            elif word != label:
                stats["respelled"] += 1
            if sc != succ:
                stats["swapped"] += 1
                provenance.append(f"swapped {row}: printed successor "
                                  f"{buffer_text(succ)}, label derived for "
                                  f"{buffer_text(sc)}")
            out = Transition(buffer, succ, output=word)
            if buffer not in graph.states:
                graph.add_state(buffer, "output")
                graph.add_transition(out)
            else:
                # rows sharing a middle buffer derive one output, as the
                # parser asks of lines that share one
                assert graph.edge(buffer) == out, (state, chunk, out)
            graph.add_transition(Transition(state, buffer, reads=chunk))

    stats["specials"] = attach_specials(graph)
    return graph, stats, provenance


def main() -> int:
    graph, stats, provenance = build_fixture()

    from grigorchuk.automaton import (first_loop_ratio, max_cycle_ratio,
                                      parse_graph, verify_graph)
    report = verify_graph(graph)
    eta, witness = max_cycle_ratio(graph)
    loop = first_loop_ratio(graph)
    n_input = list(graph.states.values()).count("input")
    print(f"states: {len(graph.states)} ({n_input} input), "
          f"transitions: {len(graph.transitions)}")
    print(f"labels repaired: {stats['repaired']}, respelled: "
          f"{stats['respelled']}, successor orientation swapped: "
          f"{stats['swapped']}, specials: {stats['specials']}")
    for line in provenance:
        print("  " + line)
    print(f"verify: {len(report.violations)} violations, "
          f"{len(report.notes)} notes, {report.swapped_successors} "
          f"swapped successors accepted")
    for v in report.violations[:10]:
        print("  !", v)
    print(f"eta (specials excluded): {eta:.6f} = {witness.eta}")
    print(f"two-chunk loop at the initial state: {loop:.6f}")

    text = serialize_graph(graph)
    again = serialize_graph(parse_graph(text))
    assert text == again, "serialization is not stable under reparsing"
    out = ROOT / "fixtures" / "appendix.graph"
    out.parent.mkdir(exist_ok=True)
    out.write_text(text)
    print(f"wrote {out} ({len(text.splitlines())} lines)")
    return 0 if not report.violations else 1


if __name__ == "__main__":
    sys.exit(main())

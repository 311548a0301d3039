"""The section-preimage transducer: file format, verification, ratios, runs.

The machine reads a pair of words chunk by chunk (a chunk is a
{b,c,d}-letter followed by a) and emits a word whose section pair equals
the consumed input, as group elements.  Vertices carry a buffer pair of
minimal-form words: input vertices consume one chunk on each stream and
have all nine successors, output vertices emit their single label and
move to the buffer with that label's sections cancelled off.

Each transition is one entry of ``TransducerGraph.transitions``, keyed
by its source and the words it reads: (xa, ya) for a chunk edge, ("", u)
for a special, ("", "") for an output.  A special is one transition, as
it is one line: it reads its pad u on the second stream at START and
writes its label, and its pad's buffer is no state.  Insertion order is
the serialized line order and the cycle-ratio engine's edge order.

The central invariant is one successor rule, ``TransducerGraph.successor``:
a transition from buffer (u0,u1) that consumes (x0,x1) and emits v
reaches the minimal forms of

    rev(v0) + u0 + x0   and   rev(v1) + u1 + x1

with (v0,v1) the section pair of v.  Since all generators are
involutions, rev(v0) is the inverse of v0, so the sections of the
emitted output times the remaining buffer always equal the consumed
input.  The parser, the runner and the builder step every buffer they
reach, by chunk or emission, by this rule; only the builder's pricing
of candidate emissions uses the inverse products rev(u0) * v0 and
rev(u1) * v1 instead.  The verifier checks the rule on every
transition: chunk edges, output edges and specials, each stepped by
what it reads and writes.  A buffer pair may equally be stored with its
components swapped; the verifier and the runner accept either
orientation, and the runner derives the swap from the state it is in.

Cycle analysis bounds the output weight of arbitrarily long runs: the
maximal ratio 2*out/(in0+in1) over directed cycles is the certified
growth constant of the machine.  It is found exactly by Dinkelbach
steps over one Bellman-Ford relaxation in scaled integers, which also
yields a witness cycle attaining it and node potentials proving that no
cycle exceeds it.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

from .elements import segment_element
from .minforms import (MinimalForms, SCALE, Weight, format_weights,
                       parse_weights, word_weight)
from .words import (LETTERS, check_word, free_reduce, in_B, in_H,
                    pair_in_section_image, psi, psi_preimage_basic, rev,
                    segment_sections, segments, spell)

Buffer = tuple[str, str]

# The nine chunk pairs an input state consumes, (xa, ya) for x, y in {b,c,d}.
CHUNK_PAIRS = [(x + "a", y + "a") for x in "dcb" for y in "dcb"]

LAMBDA = "-"
PAD = "_"

# The empty buffer, where every run starts and ends and specials leave.
START: Buffer = ("", "")

# Chunk-shaped replacements for a trailing {b,c,d}-letter, element-equal
# to the letter they replace; they let any minimal form be consumed as a
# sequence of (letter, a) chunks.
CHUNKED_LETTER = {"b": "cadadada", "c": "badadada", "d": "dacadadadaba"}

# One block of neutral padding in chunk shape ((da)^4 is trivial).
PADDING_BLOCK = "dadadada"


class GraphFormatError(ValueError):
    """Structural problem in a transducer graph file."""


class TransduceError(RuntimeError):
    """A run could not be completed on the given graph."""


@dataclass(frozen=True, slots=True)
class Transition:
    """One edge of the machine, a value: an edit puts a replaced copy
    under its key, and dataclasses.replace counts the copy's letters."""

    src: Buffer
    dst: Buffer
    reads: Buffer = ("", "")      # a chunk (xa, ya), a pad ("", u), or none
    output: str | None = None     # output label
    # the letter counts, a b c d, of reads[0], reads[1] and the output
    counts: tuple[tuple[int, ...], ...] = field(init=False, repr=False,
                                                compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(
            tuple(word.count(ch) for ch in LETTERS)
            for word in (*self.reads, self.output or "")))

    @property
    def special(self) -> bool:
        """A special reads a pad: nothing on the first stream, a nonempty
        word on the second."""
        return not self.reads[0] and bool(self.reads[1])

    def weighs(self, w: Weight) -> tuple[int, int, int]:
        """Scaled weights of the two read words and the output, dotted from
        their letter counts."""
        wa, wb, wc, wd = w["a"], w["b"], w["c"], w["d"]
        (a0, b0, c0, d0), (a1, b1, c1, d1), (a2, b2, c2, d2) = self.counts
        return (a0 * wa + b0 * wb + c0 * wc + d0 * wd,
                a1 * wa + b1 * wb + c1 * wc + d1 * wd,
                a2 * wa + b2 * wb + c2 * wc + d2 * wd)

    def consumed(self, w: Weight) -> tuple[int, int]:
        return self.weighs(w)[:2]

    def emitted(self, w: Weight) -> int:
        return self.weighs(w)[2]


@dataclass
class CycleReport:
    """The exact maximal cycle ratio ``eta``, a ``cycle`` attaining it
    (with its weights in weight units) and integer ``potentials``, keyed
    by state buffer in ``graph.states`` order: at eta = p/q, in 1e-4
    weight units, 2q*out - p*(in0+in1) + pi(src) - pi(dst) <= 0 on every
    non-special transition, so no cycle exceeds eta."""

    eta: Fraction
    cycle: list[Transition]
    potentials: dict[Buffer, int]
    in_weight0: float
    in_weight1: float
    out_weight: float

    @property
    def excess(self) -> float:
        """Largest accumulated 2*out - eta*(in0+in1) over walks, halved,
        in weight units: how far any run's output can exceed eta/2 times
        its consumed weight."""
        return (max(self.potentials.values())
                / (2 * self.eta.denominator * SCALE))


@dataclass
class VerificationReport:
    violations: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    input_states: int = 0
    output_states: int = 0
    transitions: int = 0
    swapped_successors: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


def buffer_text(b: Buffer) -> str:
    """A buffer pair as the graph format writes it, LAMBDA for empty."""
    return f"({b[0] or LAMBDA},{b[1] or LAMBDA})"


def _text_to_buffer(text: str) -> Buffer:
    if not (text.startswith("(") and text.endswith(")") and "," in text):
        raise GraphFormatError(f"malformed buffer {text!r}")
    left, _, right = text[1:-1].partition(",")
    pair = ("" if left == LAMBDA else left, "" if right == LAMBDA else right)
    for part in pair:
        check_word(part)
    return pair


class TransducerGraph:
    def __init__(self, weights: Weight):
        self.weights = dict(weights)
        # each state's kind, "input" or "output", keyed by its buffer
        self.states: dict[Buffer, str] = {}
        # every transition keyed by (src, reads), in insertion order
        self.transitions: dict[tuple[Buffer, Buffer], Transition] = {}
        self.forms = MinimalForms(weights)
        # successor results keyed by their argument values, so a replaced
        # transition looks up its own entry; the program's callers add one
        # per transition key
        self.successor_memo: dict[tuple[Buffer, Buffer, str], Buffer] = {}

    # -- construction -------------------------------------------------------

    def add_state(self, buffer: Buffer, kind: str) -> None:
        if buffer in self.states:
            raise GraphFormatError(f"duplicate state {buffer_text(buffer)}")
        self.states[buffer] = kind

    def add_transition(self, t: Transition) -> None:
        if (t.src, t.reads) in self.transitions:
            raise GraphFormatError(f"repeated transition at "
                                   f"{buffer_text(t.src)} reading "
                                   f"{buffer_text(t.reads)}")
        self.transitions[t.src, t.reads] = t

    def edge(self, src: Buffer, reads: Buffer = ("", "")) -> Transition | None:
        """The transition leaving src that reads the pair reads; by
        default, the output transition of src."""
        return self.transitions.get((src, reads))

    def successor(self, src: Buffer, consumed: Buffer = ("", ""),
                  emitted: str = "") -> Buffer:
        """The buffer reached from src by reading consumed and writing
        emitted: the minimal forms of rev(v_i) + src_i + consumed_i, with
        (v0,v1) the section pair of emitted.  Memoized per graph."""
        key = (src, consumed, emitted)
        found = self.successor_memo.get(key)
        if found is None:
            w0, w1 = src[0] + consumed[0], src[1] + consumed[1]
            if emitted:
                v0, v1 = psi(emitted)
                w0, w1 = rev(v0) + w0, rev(v1) + w1
            found = self.successor_memo[key] = (
                self.forms.minimal_form(w0), self.forms.minimal_form(w1))
        return found


# --- parsing and serialization ---------------------------------------------

# The keywords a transition line may put between its source and "->": an
# edge consumes a chunk, emits, or both; a special consumes a pad and emits.
GRAMMAR = {"edge": (("in",), ("in", "out"), ("out",)),
           "special": (("pad", "out"),)}


def _state_flags(buffer: Buffer, kind: str) -> list[str]:
    """A state line's flags, which only the input state START carries."""
    return ["initial", "final"] if (buffer, kind) == (START, "input") else []


@contextmanager
def _numbered(lineno: int) -> Iterator[None]:
    """Re-raise a ValueError as a GraphFormatError naming the line."""
    try:
        yield
    except ValueError as exc:
        raise GraphFormatError(f"line {lineno}: {exc}") from None


def _read_transition(graph: TransducerGraph, tokens: list[str],
                     combined: set[Buffer]) -> list[tuple[Buffer, Buffer]]:
    """Lay down a transition line's transitions, aimed at its target as
    written, and return their keys.  A special, or an edge that only reads
    or only emits, is one transition.  An edge that reads and emits gives
    the middle buffer it reads into one output transition; a line that
    repeats that output adds none.  combined holds the middle buffers
    whose output such lines laid down, the only outputs they may share."""
    directive = tokens[0]
    if "->" not in tokens:
        raise GraphFormatError("missing '->'")
    arrow = tokens.index("->")
    head, tail = tokens[1:arrow], tokens[arrow + 1:]
    if len(head) % 2 != 1 or len(tail) != 1 \
            or tuple(head[1::2]) not in GRAMMAR[directive]:
        raise GraphFormatError(f"malformed {directive} line")
    labels = dict(zip(head[1::2], head[2::2]))
    src, target = _text_to_buffer(head[0]), _text_to_buffer(tail[0])
    reads = ("", "")
    if "in" in labels:
        reads = _text_to_buffer(labels["in"])
        if reads not in CHUNK_PAIRS:
            bad = next(p for p in reads if p not in {x for x, _ in CHUNK_PAIRS})
            raise GraphFormatError(f"chunk {bad!r} is not of the form xa")
    elif "pad" in labels:
        consumed = labels["pad"][1:-1].partition(",")[2]
        check_word(consumed)
        if not consumed \
                or labels["pad"] != f"({PAD * len(consumed)},{consumed})":
            raise GraphFormatError(f"malformed pad label {labels['pad']!r}")
        reads = ("", consumed)
    output = labels.get("out")
    check_word(output or "")
    kind = "output" if reads == ("", "") else "input"
    if graph.states.get(src) != kind:
        raise GraphFormatError(f"{directive} source {buffer_text(src)} is not "
                               f"a declared {kind} state")
    if directive == "special" and src != START:
        raise GraphFormatError(f"special source {buffer_text(src)} is not "
                               f"the empty buffer {buffer_text(START)}")
    if output is None or not reads[0]:
        graph.add_transition(
            Transition(src, target, reads=reads, output=output))
        return [(src, reads)]
    # the middle buffer, an output state keyed by its exact buffer (a
    # swapped pair is a different vertex with its own label), is created
    # here unless a state line above declared it
    mid = graph.successor(src, reads)
    if mid not in graph.states:
        graph.add_state(mid, "output")
    elif graph.states[mid] != "output":
        raise GraphFormatError(f"middle buffer {buffer_text(mid)} "
                               f"is a declared input state")
    graph.add_transition(Transition(src, mid, reads=reads))
    # the first such line to reach mid lays down its output, which
    # add_transition refuses as a repeat if an output line above did
    if mid not in combined:
        graph.add_transition(Transition(mid, target, output=output))
        combined.add(mid)
        return [(src, reads), (mid, ("", ""))]
    prior = graph.edge(mid)
    if (prior.output, prior.dst) != (output, target):
        raise GraphFormatError(
            f"duplicate state {buffer_text(mid)} with conflicting "
            f"output transitions")
    return [(src, reads)]


def parse_graph(text: str) -> TransducerGraph:
    """Parse the line-oriented graph format; raise GraphFormatError early.

    Structural requirements enforced here: a weights line first, unique
    state declarations, canonical buffer words, START as the one flagged
    state, nine chunk successors per input state, no chunk or pad read
    twice from one state, transition lines shaped as GRAMMAR says and
    below their source's state line, specials only at START, and every
    target a state exactly as declared or created, by any line.  A bad
    line raises GraphFormatError naming it, whatever the cause: bad
    words, repeated transitions, non-triangular weights.
    """
    graph: TransducerGraph | None = None
    # the line that laid down each transition, for the target sweep
    line_of: dict[tuple[Buffer, Buffer], int] = {}
    # the middle buffers whose output a line that reads and emits laid down
    combined: set[Buffer] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        with _numbered(lineno):
            directive = tokens[0]
            if directive == "weights":
                if graph is not None:
                    raise GraphFormatError("repeated weights line")
                graph = TransducerGraph(parse_weights(" ".join(tokens[1:])))
            elif graph is None:
                raise GraphFormatError("weights line must come first")
            elif directive == "state":
                if len(tokens) < 3 or tokens[2] not in ("input", "output"):
                    raise GraphFormatError("malformed state line")
                buffer, kind = _text_to_buffer(tokens[1]), tokens[2]
                graph.add_state(buffer, kind)  # a duplicate fails first
                flags = _state_flags(buffer, kind)
                if buffer == START and tokens[2:] != ["input", *flags]:
                    raise GraphFormatError(
                        f"no initial state: {buffer_text(START)} must be "
                        f"declared 'input initial final'")
                if tokens[3:] != flags:
                    raise GraphFormatError(
                        f"flags on {buffer_text(buffer)}: only "
                        f"{buffer_text(START)} is 'initial final'")
                for comp in buffer:
                    if graph.forms.minimal_form(comp) != comp:
                        raise GraphFormatError(f"non-minimal buffer word {comp!r}")
            elif directive in GRAMMAR:
                for key in _read_transition(graph, tokens, combined):
                    line_of[key] = lineno
            else:
                raise GraphFormatError(f"unknown directive {directive!r}")
    if graph is None or START not in graph.states:
        raise GraphFormatError("no initial state")

    # Targets may name states that later lines create, so they are
    # checked once every line is in.
    for key, t in graph.transitions.items():
        with _numbered(line_of[key]):
            kind = graph.states.get(t.dst)
            if kind is None:
                raise GraphFormatError(
                    f"dangling endpoint {buffer_text(t.dst)}")
            # a chunk reaches an output state only as its middle buffer,
            # the one way the serialization can write it
            if t.reads[0] and kind == "output" and t.dst != (
                    mid := graph.successor(t.src, t.reads)):
                raise GraphFormatError(
                    f"edge reaches output state {buffer_text(t.dst)}, "
                    f"not its middle buffer {buffer_text(mid)}")

    for buffer, kind in graph.states.items():
        chunks = sum((buffer, c) in graph.transitions for c in CHUNK_PAIRS)
        if kind == "input" and chunks != 9:
            raise GraphFormatError(
                f"wrong successor count at {buffer_text(buffer)}: "
                f"{chunks} chunk edges, expected 9")
    return graph


def serialize_graph(graph: TransducerGraph) -> str:
    """Canonical text form; parse . serialize is the identity on outputs.

    Output states reached by a chunk edge stay implicit inside combined
    edge lines; an output state only reachable from another output state
    is declared explicitly with its own output edge line.
    """
    lines = ["weights " + format_weights(graph.weights)]
    transitions = graph.transitions.values()
    # only a chunk edge reads on the first stream
    chunk_edges = [t for t in transitions if t.reads[0]]
    chunk_covered = {t.dst for t in chunk_edges
                     if graph.states[t.dst] == "output"}
    for b, kind in graph.states.items():
        if kind == "input":
            lines.append(" ".join(["state", buffer_text(b), kind,
                                   *_state_flags(b, kind)]))
    for b, kind in graph.states.items():
        if kind == "output" and b not in chunk_covered:
            lines.append(f"state {buffer_text(b)} output")
    for t in chunk_edges:
        out = graph.edge(t.dst) if graph.states[t.dst] == "output" else None
        if out is None:
            lines.append(f"edge {buffer_text(t.src)} in "
                         f"{buffer_text(t.reads)} -> {buffer_text(t.dst)}")
        else:
            lines.append(f"edge {buffer_text(t.src)} in "
                         f"{buffer_text(t.reads)} out {out.output} -> "
                         f"{buffer_text(out.dst)}")
    for t in transitions:
        if t.output is not None and not t.special \
                and t.src not in chunk_covered:
            lines.append(f"edge {buffer_text(t.src)} out {t.output} -> "
                         f"{buffer_text(t.dst)}")
    for t in transitions:
        if t.special:
            pad = t.reads[1]
            lines.append(f"special {buffer_text(t.src)} pad "
                         f"({PAD * len(pad)},{pad}) out {t.output} -> "
                         f"{buffer_text(t.dst)}")
    return "\n".join(lines) + "\n"


# --- verification -----------------------------------------------------------

def verify_graph(graph: TransducerGraph) -> VerificationReport:
    """Check every structural and group-theoretic requirement; report all.

    Every transition must leave a declared state and reach
    graph.successor of its source, reading its chunk or pad and writing
    its output, and that target must be a declared state.  Output labels
    must be parity-even and weight-minimal, and may not sit on a chunk
    edge.  A special, one transition reading a pad and writing a label,
    must leave the input state START, read a pad in the closure of b and
    write a label.  Input states need nine chunk successors and no
    output, and output states exactly one output and no chunk or pad.  A
    successor stored with swapped components is accepted and counted,
    not flagged.
    """
    report = VerificationReport()
    report.input_states = list(graph.states.values()).count("input")
    report.output_states = len(graph.states) - report.input_states
    report.transitions = len(graph.transitions)
    if graph.states.get(START) != "input":
        report.violations.append(
            f"no input state {buffer_text(START)} to start runs at")

    forms = graph.forms
    for t in graph.transitions.values():
        src_name = buffer_text(t.src)
        label = (f"pad {t.reads[1]!r}" if t.special else
                 f"chunk {t.reads}" if t.output is None else
                 f"output {t.output!r}")
        if t.special:
            pad = t.reads[1]
            if not in_B(pad):
                report.violations.append(
                    f"special at {src_name} consumes {pad!r} outside the "
                    f"closure of b")
            if t.src != START:
                report.violations.append(
                    f"special attached at {src_name}, not at the empty "
                    f"buffer {buffer_text(START)}")
            if t.output is None:
                report.violations.append(
                    f"special at {src_name} reads {pad!r} and writes no label")
        if t.output is not None:
            written = f"output {t.output!r}"
            if t.reads[0]:
                # the file format writes a read and an emission as two
                # transitions through the middle buffer
                report.violations.append(
                    f"{written} at {src_name} also reads "
                    f"{buffer_text(t.reads)}")
            if not in_H(t.output):
                report.violations.append(
                    f"{written} at {src_name} has odd a-parity")
                continue
            e = forms.settled(t.output)
            if word_weight(t.output, forms.weights) != forms.form_weight[e]:
                report.violations.append(
                    f"{written} at {src_name} is not weight-minimal")
            elif forms.table[e] != t.output:
                report.notes.append(
                    f"{written} at {src_name} is minimal-weight but not the "
                    f"canonical spelling")
        expect = graph.successor(t.src, t.reads, t.output or "")
        if t.dst == expect:
            pass
        elif t.dst == (expect[1], expect[0]):
            report.swapped_successors += 1
        else:
            report.violations.append(
                f"{label} at {src_name} should reach {buffer_text(expect)}, "
                f"found {buffer_text(t.dst)}")
        if t.src not in graph.states:
            report.violations.append(
                f"{label} leaves {src_name}, which is not a declared state")
        if t.dst not in graph.states:
            report.violations.append(
                f"{label} at {src_name} reaches {buffer_text(t.dst)}, which "
                f"is not a declared state")

    leaving = Counter(src for src, _ in graph.transitions)
    for buffer, kind in graph.states.items():
        outs = int(graph.edge(buffer) is not None)
        name = f"{kind} state {buffer_text(buffer)}"
        if kind == "input":
            chunks = sum((buffer, c) in graph.transitions for c in CHUNK_PAIRS)
            if chunks != 9:
                report.violations.append(
                    f"{name} has {chunks} chunk successors, expected 9")
        elif leaving[buffer] > outs:
            report.violations.append(
                f"{name} has {leaving[buffer] - outs} chunk or pad "
                f"transitions, expected 0")
        expected = 1 if kind == "output" else 0
        if outs != expected:
            report.violations.append(
                f"{name} has {outs} output transitions, expected {expected}")
    return report


# --- cycle-ratio engine -----------------------------------------------------

def _longest_walks(n: int, edges: list, num: int,
                   den: int) -> tuple[list[int] | None, list[int]]:
    """Longest walks under value(e) = 2*out*den - num*(in0+in1).

    Returns the edge indices of a cycle of positive value, or None
    together with the converged walk values dist, which then satisfy
    value(e) + dist[u] - dist[v] <= 0 on every edge u -> v.

    Every cycle among the predecessor edges has positive value
    (Cherkassky and Goldberg, "Negative-cycle detection algorithms",
    1999), so the predecessors of the last improved node are followed
    after each round and the first cycle met is returned.  Round n finds
    one at the latest: a node improved in round k has an unbroken chain
    of k predecessors.
    """
    values = [(u, v, 2 * o * den - num * (i0 + i1))
              for u, v, i0, i1, o in edges]
    dist = [0] * n
    pred = [-1] * n
    while True:
        last_improved = -1
        for ei, (u, v, val) in enumerate(values):
            if dist[u] + val > dist[v]:
                dist[v] = dist[u] + val
                pred[v] = ei
                last_improved = v
        if last_improved == -1:
            return None, dist
        # walk back from last_improved; chain[depth[x]] is the edge into x
        depth: dict[int, int] = {}
        chain = []
        v = last_improved
        while v not in depth and pred[v] != -1:
            depth[v] = len(chain)
            chain.append(pred[v])
            v = values[pred[v]][0]
        if v in depth:
            return chain[depth[v]:][::-1], dist


def _dinkelbach(n: int, edges: list) -> tuple[Fraction, list[int], list[int]]:
    """The exact maximal cycle ratio over edges (u, v, in0, in1, out) on n
    nodes, the edge indices of a cycle attaining it, and its potentials.

    Dinkelbach iteration: starting from r = 0, while some cycle has
    positive value under 2*out - r*(in0+in1), r becomes that cycle's own
    ratio, which is strictly larger.  When no positive cycle is left, r is
    the maximum, the last cycle attains it, and the walk values dist of
    the final relaxation (scaled by r's denominator) are the potentials
    certifying that no cycle exceeds it.
    """
    eta = Fraction(0)
    witness = None
    while True:
        cycle, dist = _longest_walks(n, edges, eta.numerator, eta.denominator)
        if cycle is None:
            break
        consumed = sum(edges[ei][2] + edges[ei][3] for ei in cycle)
        if consumed == 0:
            raise TransduceError("unbounded: cycle with output but no input")
        eta = Fraction(2 * sum(edges[ei][4] for ei in cycle), consumed)
        witness = cycle
    if witness is None:
        raise TransduceError("no cycle with positive consumed weight")
    return eta, witness, dist


def _cycle_ratio(graph: TransducerGraph, weights: Weight) -> CycleReport:
    """The graph's exact maximal cycle ratio with its certificate.  Special
    transitions are left out: no certified number depends on them."""
    index = {b: i for i, b in enumerate(graph.states)}
    kept = [t for t in graph.transitions.values() if not t.special]
    edges = [(index[t.src], index[t.dst], *t.weighs(weights)) for t in kept]
    eta, cycle, dist = _dinkelbach(len(graph.states), edges)
    i0, i1, out = (sum(edges[ei][k] for ei in cycle) for k in (2, 3, 4))
    return CycleReport(eta, [kept[ei] for ei in cycle],
                       dict(zip(graph.states, dist)), i0 / SCALE,
                       i1 / SCALE, out / SCALE)


def max_cycle_ratio(graph: TransducerGraph, weights: Weight | None = None
                    ) -> tuple[float, CycleReport]:
    """Largest 2*out/(in0+in1) over directed cycles of non-special
    transitions, as a float, with its exact report.

    The value is exact: it is the witness cycle's own ratio, and the
    report's potentials show no cycle beats it.  Raises TransduceError
    when a cycle emits output without consuming input, or when no cycle
    emits output.
    """
    report = _cycle_ratio(graph, weights or graph.weights)
    return float(report.eta), report


# --- transduction -----------------------------------------------------------

def _chunked(word: str) -> str:
    """Rewrite a minimal form into strict chunk shape, preserving the element.

    Assumes the word does not start with a (the pair-level correction has
    already run); replaces a trailing {b,c,d}-letter with its chunk-shaped
    equivalent.  The result is a literal concatenation, not reduced.
    """
    if not word:
        return word
    if word[-1] != "a":
        word = word[:-1] + CHUNKED_LETTER[word[-1]]
    return word


# The answer prefix g for each pair of leading-a flags of the two inputs,
# with g's section pair: (c,a), (b,1) and (1,b) strip a leading a from
# both inputs, the first or the second.
ANSWER_PREFIXES = {(True, True): ("aba", "c", "a"),
                   (True, False): ("ada", "b", ""),
                   (False, True): ("d", "", "b"),
                   (False, False): ("", "", "")}


def _prefix_correction(w0: str, w1: str) -> tuple[str, str, str]:
    """Choose a short answer prefix g so both inputs lose leading a's.

    Multiplying the sought preimage by g on the left multiplies the input
    pair by the section pair of g, as ANSWER_PREFIXES lists them.
    """
    g, s0, s1 = ANSWER_PREFIXES[w0.startswith("a"), w1.startswith("a")]
    return (g, free_reduce(s0 + w0) if s0 else w0,
            free_reduce(s1 + w1) if s1 else w1)


@dataclass
class TransduceResult:
    output: str
    used_special: bool
    consumed_chunks: int


def transduce(graph: TransducerGraph, pair: Buffer) -> TransduceResult:
    """Run the machine on a section pair and return a preimage word.

    Preprocessing: canonicalize both components, strip leading a's via a
    short answer prefix, rewrite trailing letters into chunk shape, and
    append neutral (da)^4 blocks so the first stream exhausts at most four
    chunks before the second.  The run then alternates chunk consumption
    with output chains from START, accepting swapped successor
    orientations by emitting the mirror conjugate a*v*a; an odd output
    label stops it.  When the first stream is empty the residue is closed
    off through a special when the run sits unmirrored at START, the only
    state specials leave, and one reads the residue as its pad: the run
    writes that special's label.  Otherwise it is closed off through the
    baseline preimage of the remaining buffer, whose size is bounded by
    the graph's buffers plus eight letters.

    The run check takes the written parts' segment form once.  That form
    spells the answer, and the answer passes when its parity is even and
    the elements of its two section forms are those of the input pair,
    compared by identity.
    """
    forms = graph.forms
    e0, e1 = forms.settled(pair[0]), forms.settled(pair[1])
    w0, w1 = forms.table[e0], forms.table[e1]
    if not pair_in_section_image(w0, w1):
        raise TransduceError(f"not in the section image: ({w0!r}, {w1!r})")

    prefix, p0, p1 = _prefix_correction(w0, w1)
    p0, p1 = _chunked(p0), _chunked(p1)
    # the second stream ends 0-4 chunks longer, 1-4 if it was >= 4 longer
    gap = len(p1) // 2 - len(p0) // 2
    p0 += PADDING_BLOCK * ((gap - 1) // 4)
    p1 += PADDING_BLOCK * ((3 - gap) // 4)

    chunks0 = [p0[i:i + 2] for i in range(0, len(p0), 2)]
    chunks1 = [p1[i:i + 2] for i in range(0, len(p1), 2)]

    state = true = START
    parts = [prefix]
    pos = 0
    used_special = False

    while True:
        # mirrored when the state holds the true buffer swapped: the run then
        # reads chunks swapped and writes a*v*a, whose sections are v's swapped
        mirror = state != true
        if graph.states.get(state) == "output":
            t = graph.edge(state)
            if t is None:
                raise TransduceError(
                    f"stuck: no output transition at {buffer_text(state)}")
            if not in_H(t.output):
                raise TransduceError(
                    f"stuck: output {t.output!r} at {buffer_text(state)} has "
                    f"odd a-parity")
            parts.append("a" + t.output + "a" if mirror else t.output)
        else:
            if pos >= len(chunks0):
                break
            c0, c1 = chunks0[pos], chunks1[pos]
            pos += 1
            key = (c1, c0) if mirror else (c0, c1)
            t = graph.edge(state, key)
            if t is None:
                raise TransduceError(f"stuck: no chunk edge {key} at "
                                     f"{buffer_text(state)}")
        succ = graph.successor(state, t.reads, t.output or "")
        true = (succ[1], succ[0]) if mirror else succ
        state = t.dst
        if state != true and state != (true[1], true[0]):
            after = f"chunk {t.reads}" if t.output is None else repr(t.output)
            raise TransduceError(
                f"stuck: successor buffer mismatch after {after}")

    rest = "".join(chunks1[pos:])
    residue0 = true[0]
    residue1 = free_reduce(true[1] + rest)
    # START is symmetric, so there the run is unmirrored and true == START
    if state == START:
        t = graph.edge(START, ("", graph.forms.minimal_form(residue1)))
        if t is not None:
            parts.append(t.output)
            used_special = True
            residue1 = ""
    if residue0 or residue1:
        # The input pair is a section pair, every label written lies in H
        # and the section image is a subgroup, so the residue is a section
        # pair; a special's unchecked label leaves no residue.
        # The residue is tracked in true orientation already, so its
        # baseline preimage is appended unwrapped whatever the mirror state.
        parts.append(psi_preimage_basic(residue0, residue1))

    x = segments("".join(parts))
    answer = spell(x)
    odd, s0, s1 = segment_sections(x)
    if odd or segment_element(s0) is not e0 or segment_element(s1) is not e1:
        raise TransduceError("not in the section image: run check failed")
    return TransduceResult(answer, used_special, pos)


def preimage_constant(graph: TransducerGraph, weights: Weight | None = None) -> float:
    """The additive constant K of the run bound out <= eta*max(in) + K.

    Sums the worst-case contributions that are independent of the input:
    the heaviest answer prefix, the walk excess of the cycle analysis, eta times
    the chunk-rewriting and padding overhead on the consumed streams, and
    the closing residue's baseline preimage.
    """
    weights = weights or graph.weights
    report = _cycle_ratio(graph, weights)
    eta = float(report.eta)
    prefix = max(word_weight(g, weights)
                 for g, _, _ in ANSWER_PREFIXES.values()) / SCALE
    rewrite = max(word_weight(CHUNKED_LETTER[x], weights) - weights[x]
                  for x in "bcd") / SCALE
    padding = 2 * word_weight(PADDING_BLOCK, weights) / SCALE
    overhead = eta * (rewrite + padding + word_weight("ca", weights) / SCALE)
    max_buffer = max((len(comp) for b, kind in graph.states.items()
                      if kind == "input" for comp in b), default=0)
    # psi_preimage_basic's length bound for residues of max_buffer + 8
    residue_len = 6 * (max_buffer + 8) + 4
    closing = residue_len * max(weights.values()) / SCALE
    return prefix + report.excess + overhead + closing


def first_loop_ratio(graph: TransducerGraph, weights: Weight | None = None) -> float:
    """Ratio of the shortest loop at START reading (da,da)(da,da).

    This loop consumes the chunk (da,da) twice and emits one output label;
    it pins down the normalization 2*out/(in0+in1) of the cycle ratio.
    """
    weights = weights or graph.weights
    t1 = graph.edge(START, ("da", "da"))
    if t1 is None:
        raise TransduceError("initial state has no (da,da) edge")
    t2 = graph.edge(t1.dst, ("da", "da"))
    if t2 is None:
        raise TransduceError("no second (da,da) edge")
    out = graph.edge(t2.dst)
    if out is None or out.dst != START:
        raise TransduceError("the (da,da)(da,da) path does not close up")
    i = t1.consumed(weights)
    j = t2.consumed(weights)
    return 2 * out.emitted(weights) / (i[0] + i[1] + j[0] + j[1])

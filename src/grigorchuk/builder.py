"""Grow a section-preimage transducer from scratch.

Starting from the empty-buffer state with one unresolved edge, each
popped buffer is typed: if some candidate output word cancels enough
buffer weight per unit of its own weight (the quality score), the state
emits that word and hangs one edge at the shrunken buffer; otherwise the
state consumes chunks and hangs nine edges at the extended buffers.
The scan for that word tests each candidate against one running floor:
1/eta_prime until some candidate wins, then the best score so far.
Quality-driven typing steers cycles toward a low output-to-input weight
ratio; the finished machine's exact ratio is measured afterwards with
max_cycle_ratio.  Special end-of-input transitions are attached last, at
the empty buffer only: transduce reads them nowhere else, and
preimage_constant closes runs through the baseline preimage, so no
certified number depends on a special.  attach_specials writes them, for
build and for tools/make_fixture.py alike, each as one transition from
the empty buffer back to it that reads its pad and writes its label.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace

from .automaton import CHUNK_PAIRS, START, Buffer, Transition, TransducerGraph
from .elements import Element, element_of, mul
from .minforms import MinimalForms, SCALE, Weight, check_weights, word_weight
from .words import in_B, psi_preimage_basic, rev

# specials are the nonempty canonical forms in B of at most this many letters
SPECIAL_LEN = 8


@dataclass
class BuildParams:
    initial_weight: Weight
    delta: float = 0.01
    eta_prime: float = 4.0
    max_len: int = 20
    budget: int = 5000

    def validate(self) -> None:
        check_weights(self.initial_weight)
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        if not math.isfinite(self.delta):
            raise ValueError("delta must be finite")
        if not 2 < self.eta_prime <= 4:
            raise ValueError("eta_prime must lie in (2, 4]")
        if self.max_len < 4:
            raise ValueError("max_len must be at least 4")
        if self.budget < 1:
            raise ValueError("budget must be at least 1")


def _score(in0: int, in1: int, out0: int, out1: int, v_weight: int,
           delta: float) -> float:
    """Quality of an emission, from scaled weights: the buffer (in0, in1)
    shrinks to (out0, out1) by emitting a word of weight v_weight.  The
    score is the weight shed per unit of output, plus a small bonus for
    leaving a better-balanced buffer behind."""
    return (in0 + in1 - out0 - out1) / v_weight \
        + delta * (abs(in0 - in1) - abs(out0 - out1)) / SCALE


def _candidates(forms: MinimalForms, max_len: int
                ) -> list[tuple[Element, int, int, int]]:
    """The output candidates, in settle order (so by weight): one
    (element, weight, left_weight, right_weight) tuple per nonempty
    canonical form in H of at most max_len letters.  A form is in H
    exactly when its element's swap (the a-parity) is 0; its sections
    are the element's children, settled within the radius, and the three
    weights are those of the form and of its sections."""
    forms.settle_lengths(max_len)
    form_weight = forms.form_weight
    return [(e, form_weight[e], form_weight[e.left], form_weight[e.right])
            for e, v in forms.table.items()
            if v and e.swap == 0 and len(v) <= max_len]


def build(params: BuildParams, log: list[str] | None = None) -> TransducerGraph:
    """Run the construction; deterministic for fixed params.

    Raises RuntimeError("budget exceeded") if the frontier does not close
    up within the state budget, and RuntimeError("no special preimage
    found within bound") if a special's label is too long.
    """
    params.validate()
    graph = TransducerGraph(params.initial_weight)
    forms = graph.forms
    weights = graph.weights
    log = [] if log is None else log
    candidates = _candidates(forms, params.max_len)
    log.append(f"candidate outputs: {len(candidates)}")
    threshold = 1.0 / params.eta_prime
    delta = params.delta

    queue: deque[Buffer] = deque()
    # the sources of the output transitions aimed at each queued buffer,
    # so a buffer folded onto its swapped twin can retarget them
    waiting: dict[Buffer, list[Buffer]] = {}

    form_weight = forms.form_weight
    scanned = 0

    def best_output(buf: Buffer) -> tuple[Element, float] | None:
        # The highest quality wins, first found on ties, so rebuilds from
        # equal parameters are byte-identical.  The first candidate scanned
        # settles the forms up to the buffer's weight plus one, so a scan
        # cut off at once settles nothing.
        #
        # Emitting v leaves the remainders rev(vi) + ui, which count only if
        # settled.  The scan prices their inverses rev(ui) * vi instead: all
        # generators are involutions, so the two weigh the same, and extend
        # settles whole balls, so both or neither are settled.  The winner's
        # remainders are then spelled by graph.successor, like every edge's.
        #
        # A candidate wins when its quality q exceeds one running floor,
        # which starts at threshold - 1e-12 and becomes q + 1e-12 at each
        # win.  There are two upper bounds on q, and a candidate whose
        # bound does not clear floor cannot win.  Remainder weights are
        # >= 0, so q <= total/W + bonus at weight W; that bound falls along
        # the weight-sorted scan, so its first failure ends the scan.  The
        # triangle inequality gives remainder weights o0 >= |w0 - a0| and
        # o1 >= |w1 - a1|, with a0, a1 the weights of v's sections, so
        # q <= (total - |w0-a0| - |w1-a1|)/W + bonus skips a candidate.
        # Both numerators are exact integers and IEEE division and
        # addition are monotone, so the float bounds are safe.
        nonlocal scanned
        e0, e1 = element_of(rev(buf[0])), element_of(rev(buf[1]))
        w0, w1 = word_weight(buf[0], weights), word_weight(buf[1], weights)
        total = w0 + w1
        bonus = delta * abs(w0 - w1) / SCALE
        floor = threshold - 1e-12
        best = None
        for i, (cand, weight, a0, a1) in enumerate(candidates):
            if total / weight + bonus <= floor:
                break  # no later candidate can win
            if i == 0:
                forms.extend(total + SCALE)
            if (total - abs(w0 - a0) - abs(w1 - a1)) / weight + bonus \
                    <= floor:
                continue  # the triangle bound rules it out
            o0 = form_weight.get(mul(e0, cand.left))
            if o0 is None:
                continue
            o1 = form_weight.get(mul(e1, cand.right))
            if o1 is None:
                continue
            q = _score(w0, w1, o0, o1, weight, delta)
            if q > floor:
                best = (cand, q)
                floor = q + 1e-12
        else:
            i = len(candidates)  # no cut fired: all were scanned
        scanned += i
        return best

    # Chunk successors must be materialized under their exact buffer (the
    # file format recomputes them on reparse), so only successors of
    # output emissions may be folded onto an existing swapped twin.
    chunk_targets: set[Buffer] = set()

    def expand(buf: Buffer) -> None:
        """Hang the nine chunk edges of the input state buf."""
        for chunk in CHUNK_PAIRS:
            succ = graph.successor(buf, chunk)
            graph.add_transition(Transition(buf, succ, reads=chunk))
            chunk_targets.add(succ)
            queue.append(succ)

    graph.add_state(START, "input")
    expand(START)
    while queue:
        buf = queue.popleft()
        if buf in graph.states:
            continue
        twin = (buf[1], buf[0])
        if twin in graph.states and buf not in chunk_targets:
            for src in waiting.pop(buf, ()):
                graph.transitions[src, ("", "")] = replace(graph.edge(src),
                                                           dst=twin)
            continue
        if len(graph.states) >= params.budget:
            raise RuntimeError("budget exceeded")
        choice = best_output(buf)
        if choice is not None:
            e, q = choice
            word = forms.table[e]
            succ = graph.successor(buf, emitted=word)
            graph.add_state(buf, "output")
            twin = (succ[1], succ[0])
            fold = twin in graph.states and succ not in graph.states
            dst = twin if fold and succ not in chunk_targets else succ
            graph.add_transition(Transition(buf, dst, output=word))
            if dst == succ:
                waiting.setdefault(succ, []).append(buf)
                queue.append(succ)
            log.append(f"output {buf} emits {word} (q={q:.3f})")
        else:
            graph.add_state(buf, "input")
            expand(buf)
            log.append(f"input {buf}")

    attached = attach_specials(graph)
    n_in = list(graph.states.values()).count("input")
    log.append(f"states: {len(graph.states)} ({n_in} input), "
               f"specials attached: {attached}")
    log.append(f"candidates scanned: {scanned}")
    return graph


def attach_specials(graph: TransducerGraph) -> int:
    """Attach a special at the empty buffer for each nonempty form u in B
    of at most SPECIAL_LEN letters: one transition back to the empty
    buffer that reads ("", u) and writes u's baseline preimage.  Returns
    the number attached."""
    forms = graph.forms
    pads = [u for u in forms.enumerate_forms(SPECIAL_LEN, in_B) if u]
    for u in pads:
        label = forms.minimal_form(psi_preimage_basic("", u))
        if len(label) > 2 * SPECIAL_LEN + 12:
            raise RuntimeError(
                f"no special preimage found within bound at ('', '') "
                f"for {u!r}")
        graph.add_transition(
            Transition(START, START, reads=("", u), output=label))
    return len(pads)

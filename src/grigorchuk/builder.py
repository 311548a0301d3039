"""Grow a section-preimage transducer from scratch.

Starting from the empty-buffer state with one unresolved edge, each
popped buffer is typed: if some candidate output word cancels enough
buffer weight per unit of its own weight (the quality score), the state
emits that word and hangs one edge at the shrunken buffer; otherwise the
state consumes chunks and hangs nine edges at the extended buffers.
The scan for that word holds one running floor, 1/eta_prime until some
candidate wins and then the best score so far, and tests its bounds once
per run of equal candidate weight and once per section signature in it.
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
                ) -> tuple[list[Element], list[int], list[int], list[tuple]]:
    """The output candidates, one per nonempty canonical form in H of at
    most max_len letters, in settle order (so by weight), and their index,
    from one pass over the settled table.

    Returns (elements, left_weights, right_weights, runs): parallel lists
    of each candidate's element and the form weights of its two sections,
    and one (start, end, weight, signatures) tuple per weight, whose
    candidates are the contiguous slice start:end, with signatures their
    indices grouped by section weights, as (left_weight, right_weight,
    indices) in first-seen order.  A form is in H exactly when its
    element's swap (the a-parity) is 0; its sections are the element's
    children, settled within the radius.
    """
    forms.settle_lengths(max_len)
    form_weight = forms.form_weight
    elements: list[Element] = []
    lefts: list[int] = []
    rights: list[int] = []
    # each run's start, weight and signature groups, until its end is known
    starts: list[tuple[int, int, dict[tuple[int, int], list[int]]]] = []
    for e, v in forms.table.items():
        if v and e.swap == 0 and len(v) <= max_len:
            weight = form_weight[e]
            a0, a1 = form_weight[e.left], form_weight[e.right]
            if not starts or starts[-1][1] != weight:
                groups: dict[tuple[int, int], list[int]] = {}
                starts.append((len(elements), weight, groups))
            groups.setdefault((a0, a1), []).append(len(elements))
            elements.append(e)
            lefts.append(a0)
            rights.append(a1)
    ends = [start for start, _, _ in starts[1:]] + [len(elements)]
    runs = [(start, end, weight, [(a0, a1, group)
                                  for (a0, a1), group in groups.items()])
            for (start, weight, groups), end in zip(starts, ends)]
    return elements, lefts, rights, runs


def _best_output(buf: Buffer, forms: MinimalForms, candidates: tuple,
                 threshold: float, delta: float
                 ) -> tuple[tuple[Element, float] | None, int, int]:
    """The best emission at buf among the candidates _candidates returns,
    as (element, quality) or None, with the number of candidates scanned
    and of group products taken.

    The highest quality wins, first found on ties, so rebuilds from equal
    parameters are byte-identical.  The first candidate scanned settles
    the forms up to the buffer's weight plus one, so a scan cut off at
    once settles nothing.
    """
    # Emitting v leaves the remainders rev(vi) + ui, which count only if
    # settled.  The scan prices their inverses rev(ui) * vi instead: all
    # generators are involutions, so the two weigh the same, and extend
    # settles whole balls, so both or neither are settled.  The winner's
    # remainders are then spelled by graph.successor, like every edge's.
    #
    # A candidate wins when its quality q exceeds one running floor, which
    # starts at threshold - 1e-12 and becomes q + 1e-12 at each win.  Three
    # upper bounds on q rule candidates out, and a candidate whose bound
    # does not clear floor cannot win.  Remainder weights are >= 0, so
    # q <= total/W + bonus at weight W; that bound falls along the runs,
    # so its first failure ends the scan, and after a win it can end it
    # within a run.  The triangle inequality gives o0 >= |w0 - a0| and
    # o1 >= |w1 - a1|, with a0, a1 the weights of v's sections, so
    # q <= (total - |w0-a0| - |w1-a1|)/W + bonus; that bound is one per
    # signature (W, a0, a1), tested at the floor the run starts with and
    # again per candidate only once a win has raised the floor.  Once o0
    # is known, q <= (total - o0 - |w1-a1|)/W + bonus spares the second
    # product.  Every numerator is an exact integer and IEEE division and
    # addition are monotone, so the float bounds are safe, and the scan
    # scores the candidates the flat scan would, in the same order.
    weights, form_weight = forms.weights, forms.form_weight
    elements, lefts, rights, runs = candidates
    e0, e1 = element_of(rev(buf[0])), element_of(rev(buf[1]))
    w0, w1 = word_weight(buf[0], weights), word_weight(buf[1], weights)
    total = w0 + w1
    bonus = delta * abs(w0 - w1) / SCALE
    floor = threshold - 1e-12
    best = None
    products = 0
    for start, end, weight, signatures in runs:
        if total / weight + bonus <= floor:
            return best, start, products  # no later candidate can win
        if start == 0:
            forms.extend(total + SCALE)
        run_floor = floor
        members = [i for a0, a1, group in signatures
                   if (total - abs(w0 - a0) - abs(w1 - a1)) / weight + bonus
                   > run_floor for i in group]
        members.sort()  # candidate order, so ties go to the first found
        for i in members:
            a1 = rights[i]
            if floor > run_floor and (total - abs(w0 - lefts[i])
                                      - abs(w1 - a1)) / weight + bonus \
                    <= floor:
                continue
            cand = elements[i]
            o0 = form_weight.get(mul(e0, cand.left))
            products += 1
            if o0 is None \
                    or (total - o0 - abs(w1 - a1)) / weight + bonus <= floor:
                continue
            o1 = form_weight.get(mul(e1, cand.right))
            products += 1
            if o1 is None:
                continue
            q = _score(w0, w1, o0, o1, weight, delta)
            if q > floor:
                best = (cand, q)
                floor = q + 1e-12
                if i + 1 < end and total / weight + bonus <= floor:
                    return best, i + 1, products
    return best, len(elements), products


def build(params: BuildParams, log: list[str] | None = None) -> TransducerGraph:
    """Run the construction; deterministic for fixed params.

    Raises RuntimeError("budget exceeded") if the frontier does not close
    up within the state budget, and RuntimeError("no special preimage
    found within bound") if a special's label is too long.
    """
    params.validate()
    graph = TransducerGraph(params.initial_weight)
    forms = graph.forms
    log = [] if log is None else log
    candidates = _candidates(forms, params.max_len)
    log.append(f"candidate outputs: {len(candidates[0])}")
    threshold = 1.0 / params.eta_prime

    queue: deque[Buffer] = deque()
    # the sources of the output transitions aimed at each queued buffer,
    # so a buffer folded onto its swapped twin can retarget them
    waiting: dict[Buffer, list[Buffer]] = {}
    scanned = products = 0

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
        choice, n_scanned, n_products = _best_output(
            buf, forms, candidates, threshold, params.delta)
        scanned += n_scanned
        products += n_products
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
    log.append(f"candidate products: {products}")
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

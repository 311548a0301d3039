"""Acceptance gate: one test per shipped guarantee, each at its stated
tolerance.  Several targets are not met by the toolkit as built; those
tests assert the target anyway and fail with the measured value, so the
gap stays visible.  The measured values, their causes and what would
close each gap are written up under "Acceptance gaps" in README.md.
"""

import math
import random
import time
from fractions import Fraction
from itertools import product

import pytest

from grigorchuk import (
    BuildParams,
    OptimizerSchedule,
    alpha_of_eta,
    build,
    check_subgroup_growth,
    first_loop_ratio,
    is_trivial,
    max_cycle_ratio,
    optimize_weights,
    preimage_constant,
    psi,
    psi_preimage_basic,
    serialize_graph,
    sigma,
    tau,
    transduce,
    verify_graph,
    words_equal,
)
from grigorchuk.growth import gamma, gamma_by_signature
from grigorchuk.minforms import (MinimalForms, SCALE, UNIT_WEIGHTS,
                                 parse_weights, word_weight)
from grigorchuk.words import act, free_reduce, in_H

LEDGER = 'see "Acceptance gaps" in README.md'

# weights at which the construction's measured cycle ratio bottomed out
# across the searched parameter space
VALLEY = parse_weights("a=1 b=2.7 c=2.0 d=1.3")

# A floor under the bundled machine's maximum cycle ratio at every
# triangular weight; the optimum, 3.9312208 at b=6.1425 c=4.8968
# d=3.2456 (a=1), lies just above it.
FLOOR = Fraction(393122, 100000)

# Four cycles of the bundled machine, each a closed walk of (state,
# label) steps, with non-negative multipliers.  Their combined
# 2*out - FLOOR*in is non-negative at every triangular weight, so at each
# such weight one of them, and hence the machine, has ratio >= FLOOR.
FLOOR_CERTIFICATE = (
    (11878, (("(daba,da)", "acacadac"), ("(ada,-)", "(ba,ba)"),
             ("(adaba,ba)", "b"))),
    (3036, (("(-,-)", "(ca,ca)"), ("(ca,ca)", "(ca,ca)"),
            ("(caca,caca)", "adabacabacacadac"))),
    (13541, (("(ca,da)", "(ca,ca)"), ("(caca,daca)", "abacabacacadaca"),
             ("(-,-)", "(ca,da)"))),
    (1663, (("(daca,daca)", "cacabacacadac"), ("(-,-)", "(da,da)"),
            ("(da,da)", "(ca,ca)"))),
)


@pytest.fixture(scope="module")
def sample_pairs():
    """500 section pairs of random even-a words of length up to 14."""
    rng = random.Random(14)
    pairs = []
    while len(pairs) < 500:
        h = "".join(rng.choice("abcd")
                    for _ in range(rng.randrange(15)))
        if in_H(h):
            pairs.append(psi(h))
    return pairs


def test_01_fixture_cycle_ratio(fixture_graph):
    t0 = time.perf_counter()
    eta, witness = max_cycle_ratio(fixture_graph)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    recomputed = 2 * witness.out_weight / (
        witness.in_weight0 + witness.in_weight1)
    assert recomputed == pytest.approx(eta, abs=1e-9)
    assert eta == pytest.approx(3.83414, abs=5e-4), (
        f"measured eta {eta:.6f}; the bundled machine does not reach the "
        f"target figure; {LEDGER}")


def test_02_growth_exponent(fixture_graph):
    assert alpha_of_eta(4.0) == pytest.approx(0.5, abs=0)
    eta, _ = max_cycle_ratio(fixture_graph)
    alpha = alpha_of_eta(eta)
    assert alpha == pytest.approx(0.5157, abs=5e-4), (
        f"measured alpha {alpha:.6f} from eta {eta:.6f}; {LEDGER}")


def test_03_annotated_loop_ratio(fixture_graph):
    assert first_loop_ratio(fixture_graph) == pytest.approx(3.69, abs=5e-3)


def test_04_fixture_verification(fixture_graph):
    t0 = time.perf_counter()
    report = verify_graph(fixture_graph)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    assert report.ok
    assert report.violations == []
    assert report.input_states == 12


def test_05_transducer_soundness(fixture_graph, sample_pairs):
    eta, _ = max_cycle_ratio(fixture_graph)
    slack = preimage_constant(fixture_graph)
    w = fixture_graph.weights
    failures = 0
    for pair in sample_pairs:
        out = transduce(fixture_graph, pair).output
        back = psi(out)
        consistent = (words_equal(back[0], pair[0])
                      and words_equal(back[1], pair[1]))
        biggest = max(word_weight(pair[0], w), word_weight(pair[1], w))
        bounded = (word_weight(out, w) / SCALE
                   <= eta * biggest / SCALE + slack)
        failures += not (consistent and bounded)
    assert failures == 0


def test_06_baseline_constructor(sample_pairs):
    for pair in sample_pairs:
        out = psi_preimage_basic(pair[0], pair[1])
        assert len(out) <= 4 * max(len(pair[0]), len(pair[1])) + 12
        back = psi(out)
        assert words_equal(back[0], pair[0])
        assert words_equal(back[1], pair[1])
    for length in range(9):
        for letters in product("abcd", repeat=length):
            g = "".join(letters)
            left, right = psi(sigma(g))
            assert words_equal(left, tau(g))
            assert words_equal(right, g)


def test_07_growth_backends_agree():
    forms = MinimalForms(UNIT_WEIGHTS)
    by_form = [gamma(forms, n * SCALE) for n in range(11)]
    by_signature = gamma_by_signature(10)
    assert by_form == by_signature
    assert by_form[0] == 1
    assert by_form[1] == 5
    radii = [r * SCALE for r in range(9)]
    checks = check_subgroup_growth(forms, radii, in_H, 2,
                                   forms.weights["a"])
    assert all(c.holds for c in checks)


def test_08_builder_self_consistency():
    params = BuildParams(initial_weight=dict(VALLEY))
    graph = build(params)
    report = verify_graph(graph)
    assert report.ok
    assert report.violations == []
    again = build(BuildParams(initial_weight=dict(VALLEY)))
    assert serialize_graph(again) == serialize_graph(graph)
    eta, _ = max_cycle_ratio(graph)
    assert eta <= 4.0, (
        f"measured ratio {eta:.6f} at the best weights found; no searched "
        f"setting produced a machine at or below 4.0; {LEDGER}")


def _floor_coefficients(graph):
    """Replay FLOOR_CERTIFICATE on the graph; return, per letter, the
    coefficient of the multiplied sum of 2*out - FLOOR*in."""
    def buffer(text):
        return tuple("" if w == "-" else w for w in text[1:-1].split(","))

    total = dict.fromkeys("abcd", Fraction(0))
    for multiplier, steps in FLOOR_CERTIFICATE:
        assert multiplier >= 0
        consumed = emitted = ""
        for i, (src, label) in enumerate(steps):
            nxt = buffer(steps[(i + 1) % len(steps)][0])
            found = [t for t in graph.transitions.values()
                     if t.src == buffer(src) and t.dst == nxt
                     and not t.special
                     and (t.reads == buffer(label) if label[0] == "("
                          else t.output == label)]
            assert len(found) == 1, f"no transition {src} {label}"
            consumed += "".join(found[0].reads)
            emitted += found[0].output or ""
        for ch in "abcd":
            total[ch] += multiplier * (2 * emitted.count(ch)
                                       - FLOOR * consumed.count(ch))
    return total


def test_09_optimizer_descent(fixture_graph):
    # with a = 1, the triangular (b, c, d) are the non-negative mixtures
    # of the rays (0,1,1), (1,0,1) and (1,1,0)
    total = _floor_coefficients(fixture_graph)
    assert total["a"] >= 0
    for ray in ("cd", "bd", "bc"):
        assert total[ray[0]] + total[ray[1]] >= 0
    assert FLOOR > Fraction(39, 10)

    unit = {k: SCALE for k in "abcd"}
    weights, eta, trace = optimize_weights(
        fixture_graph, initial=unit, schedule=OptimizerSchedule())
    kept = [row.eta for row in trace if row.accepted]
    assert all(b < a for a, b in zip(kept, kept[1:]))
    b, c, d = weights["b"], weights["c"], weights["d"]
    assert b <= c + d and c <= b + d and d <= b + c
    assert eta <= FLOOR + 1e-4, (
        f"measured {eta:.6f} from unit weights against the certified floor "
        f"{float(FLOOR):.6f}; {LEDGER}")


def test_10_word_problem_cross_validation():
    strings = [format(i, f"0{n}b") for n in range(1, 9)
               for i in range(2 ** n)]
    for length in range(7):
        for letters in product("abcd", repeat=length):
            g = "".join(letters)
            if free_reduce(g) != g:
                continue
            brute = all(act(g, s) == s for s in strings)
            assert is_trivial(g) == brute
    assert is_trivial("adadadad")

"""Tests for the transducer construction: quality scoring, parameter
validation, and full deterministic builds."""

import hashlib
import math
import random

import pytest

from grigorchuk import (
    BuildParams,
    build,
    element_of,
    max_cycle_ratio,
    parse_graph,
    preimage_constant,
    psi,
    serialize_graph,
    transduce,
    verify_graph,
    words_equal,
)
from grigorchuk import elements
from grigorchuk.builder import _best_output, _candidates, _score
from grigorchuk.elements import ATOMS, cache_sizes, mul, segment_element
from grigorchuk.minforms import (SCALE, UNIT_WEIGHTS, MinimalForms,
                                 parse_weights, word_weight)
from grigorchuk.words import in_H, rev, segment_sections, segments

from conftest import assert_no_special_only_states, replay_certificate

# weights under which the construction lands on its lowest measured cycle
# ratio; several build tests share one graph because a build takes seconds
VALLEY = parse_weights("a=1 b=2.7 c=2.0 d=1.3")


def flat_best_output(buf, forms, candidates, threshold, delta):
    """The reference for builder._best_output: one pass over the
    candidates in order, scoring each against the running floor, with no
    bound but the weight bound that ends the scan.  Returns the best
    (element, quality) or None, the number of candidates scanned and the
    indices at which the floor rose."""
    elements, _, _, runs = candidates
    weights = [w for start, end, w, _ in runs for _ in range(start, end)]
    e0, e1 = element_of(rev(buf[0])), element_of(rev(buf[1]))
    w0 = word_weight(buf[0], forms.weights)
    w1 = word_weight(buf[1], forms.weights)
    total = w0 + w1
    bonus = delta * abs(w0 - w1) / SCALE
    floor = threshold - 1e-12
    best, wins = None, []
    for i, (cand, weight) in enumerate(zip(elements, weights)):
        if total / weight + bonus <= floor:
            return best, i, wins
        if i == 0:
            forms.extend(total + SCALE)
        o0 = forms.form_weight.get(mul(e0, cand.left))
        o1 = forms.form_weight.get(mul(e1, cand.right))
        if o0 is None or o1 is None:
            continue
        q = _score(w0, w1, o0, o1, weight, delta)
        if q > floor:
            best, floor = (cand, q), q + 1e-12
            wins.append(i)
    return best, len(weights), wins


@pytest.fixture(scope="module")
def valley_build():
    log = []
    return build(BuildParams(initial_weight=VALLEY), log=log), log


@pytest.fixture(scope="module")
def valley_graph(valley_build):
    return valley_build[0]


class TestScore:
    def test_full_cancellation_score(self):
        # emitting cacacaca (weight 152000 under TUNED_WEIGHTS) at the
        # (dada,dada) buffer (41200 a side) clears it entirely: the score
        # is the whole buffer weight over the output weight
        q = _score(41200, 41200, 0, 0, 152000, delta=0.0)
        assert q == pytest.approx(82400 / 152000, abs=1e-12)

    def test_balance_bonus(self):
        # aca (48000) clears the (d,a) buffer (10600, 10000); with unequal
        # component weights the delta term adds the recovered imbalance,
        # scaled down
        base = _score(10600, 10000, 0, 0, 48000, delta=0.0)
        bumped = _score(10600, 10000, 0, 0, 48000, delta=1.0)
        assert base == pytest.approx(20600 / 48000, abs=1e-12)
        assert bumped - base == pytest.approx(600 / 10000, abs=1e-12)


class TestParams:
    def test_defaults_valid(self):
        BuildParams(initial_weight=VALLEY).validate()

    def test_max_len_floor(self):
        with pytest.raises(ValueError, match="max_len"):
            BuildParams(initial_weight=VALLEY, max_len=2).validate()

    def test_eta_prime_range(self):
        with pytest.raises(ValueError, match="eta_prime"):
            BuildParams(initial_weight=VALLEY, eta_prime=2.0).validate()
        with pytest.raises(ValueError, match="eta_prime"):
            BuildParams(initial_weight=VALLEY, eta_prime=4.5).validate()
        BuildParams(initial_weight=VALLEY, eta_prime=4.0).validate()

    def test_delta_positive(self):
        with pytest.raises(ValueError, match="delta"):
            BuildParams(initial_weight=VALLEY, delta=0.0).validate()

    @pytest.mark.parametrize("delta", [math.inf, math.nan])
    def test_delta_finite(self, delta):
        # an infinite delta makes the bonus of a balanced buffer inf*0 = nan
        with pytest.raises(ValueError, match="delta"):
            BuildParams(initial_weight=VALLEY, delta=delta).validate()

    @pytest.mark.parametrize("budget", [0, -3])
    def test_budget_at_least_one(self, budget):
        with pytest.raises(ValueError, match="budget must be at least 1"):
            BuildParams(initial_weight=VALLEY, budget=budget).validate()
        BuildParams(initial_weight=VALLEY, budget=1).validate()

    def test_triangular_weights_required(self):
        lopsided = {"a": 10000, "b": 10000, "c": 10000, "d": 30001}
        with pytest.raises(ValueError, match="triangular"):
            BuildParams(initial_weight=lopsided).validate()


class TestBuild:
    def test_shape(self, valley_graph):
        kinds = list(valley_graph.states.values())
        assert len(valley_graph.states) == 182
        assert kinds.count("input") == 19
        assert kinds.count("output") == 163
        assert len(valley_graph.transitions) == 373
        assert sum(t.special for t in valley_graph.transitions.values()) == 39

    def test_verifies_clean(self, valley_graph):
        report = verify_graph(valley_graph)
        assert report.ok
        assert report.violations == []

    def test_cycle_ratio(self, valley_graph):
        eta, witness = max_cycle_ratio(valley_graph)
        assert eta == pytest.approx(4.123894, abs=1e-4)
        assert witness.cycle

    def test_transduce_sound_and_bounded(self, valley_graph):
        # runs through the built machine invert psi and keep the run bound
        # out <= eta*max(in) + K, closing through a special now and then
        eta, _ = max_cycle_ratio(valley_graph)
        slack = preimage_constant(valley_graph)
        w = valley_graph.weights
        rng = random.Random(7)
        specials_used = 0
        for _ in range(300):
            while True:
                h = "".join(rng.choice("abcd")
                            for _ in range(rng.randrange(41)))
                if in_H(h):
                    break
            pair = psi(h)
            result = transduce(valley_graph, pair)
            back = psi(result.output)
            assert words_equal(back[0], pair[0])
            assert words_equal(back[1], pair[1])
            biggest = max(word_weight(pair[0], w),
                          word_weight(pair[1], w)) / SCALE
            assert word_weight(result.output, w) / SCALE \
                <= eta * biggest + slack
            specials_used += result.used_special
        assert specials_used > 0

    def test_rebuild_byte_identical(self, valley_graph):
        again = build(BuildParams(initial_weight=VALLEY))
        assert serialize_graph(again) == serialize_graph(valley_graph)

    def test_build_log(self, valley_build):
        _, log = valley_build
        assert log[0] == "candidate outputs: 18221"
        assert any(line.startswith("output ") for line in log)
        assert log[-3] == "candidate products: 17394"
        assert log[-2] == "states: 182 (19 input), specials attached: 39"
        assert log[-1] == "candidates scanned: 142578"

    def test_candidates_weight_sorted(self):
        # every cut in _best_output stops the scan on this order; the runs
        # are the contiguous slices of one weight each, rising, and
        # together they hold every candidate once
        forms = MinimalForms(VALLEY)
        elements, _, _, runs = _candidates(forms, 12)
        weights = [forms.form_weight[e] for e in elements]
        assert weights == sorted(weights)
        assert [start for start, _, _, _ in runs] \
            == [0] + [end for _, end, _, _ in runs[:-1]]
        assert runs[-1][1] == len(weights)
        assert [w for start, end, w, _ in runs
                for _ in range(start, end)] == weights
        assert len({w for _, _, w, _ in runs}) == len(runs)

    def test_candidate_signatures(self):
        # within a run the candidates are grouped by their sections'
        # weights, one group per signature in first-seen order, each in
        # candidate order
        _, lefts, rights, runs = _candidates(MinimalForms(VALLEY), 12)
        signatures = 0
        for start, end, _, groups in runs:
            members = [i for _, _, group in groups for i in group]
            assert sorted(members) == list(range(start, end))
            assert [group[0] for _, _, group in groups] \
                == sorted(group[0] for _, _, group in groups)
            for a0, a1, group in groups:
                assert group == sorted(group)
                assert {(lefts[i], rights[i]) for i in group} == {(a0, a1)}
            assert len({(a0, a1) for a0, a1, _ in groups}) == len(groups)
            signatures += len(groups)
        assert (len(runs), signatures) == (58, 328)

    def test_candidate_sections(self):
        # each candidate's element has its word's sections as children, and
        # the lists hold their form weights for the scan's triangle bound;
        # the segment-form sections are the independent string reference
        forms = MinimalForms(VALLEY)
        elements, lefts, rights, _ = _candidates(forms, 12)
        for e, left_weight, right_weight in zip(elements, lefts, rights):
            word = forms.table[e]
            _, s0, s1 = segment_sections(segments(word))
            assert e.left is segment_element(s0)
            assert e.right is segment_element(s1)
            v0, v1 = psi(word)
            assert e.left is element_of(v0)
            assert e.right is element_of(v1)
            assert left_weight == forms.element_weight(v0)
            assert right_weight == forms.element_weight(v1)

    def test_candidate_words(self):
        # the candidates are the nonempty forms in H, in settle order, each
        # weighed as its word
        forms = MinimalForms(VALLEY)
        elements, _, _, runs = _candidates(forms, 12)
        words = [forms.table[e] for e in elements]
        assert words == [v for v in forms.enumerate_forms(12, in_H) if v]
        assert len(elements) == 862
        weights = [w for start, end, w, _ in runs
                   for _ in range(start, end)]
        for word, weight in zip(words, weights):
            assert in_H(word)
            assert weight == word_weight(word, VALLEY)

    def test_candidates_build_no_segment_elements(self, monkeypatch):
        # candidates are read off the settled tree: no word is turned into
        # an element, so a segment-form cache cut back to its seeds (the
        # words of at most one letter) stays that way
        monkeypatch.setattr(elements, "_ELEMENT",
                            {segments(w): e for w, e in ATOMS.items()})
        forms = MinimalForms(VALLEY)
        before = cache_sizes()["elements"]
        assert _candidates(forms, 12)
        assert cache_sizes()["elements"] == before == 5

    # sha256 of serialize_graph(build(...)) as a full, uncut scan gives it,
    # with the log's state count and candidates scanned; a cut or a skip
    # that changes a winner, or a skip that changes the count, fails here
    @pytest.mark.parametrize("kwargs, digest, states, scanned", [
        (dict(initial_weight=VALLEY, max_len=16),
         "dfaee3ac1ea8ac5f2b6438374b2c20b3d36d711879f8ba2faf014b7b20144f06",
         "182 (19 input), specials attached: 39", 105908),
        (dict(initial_weight=parse_weights("a=1 b=3.33 c=2.8 d=1.06"),
              max_len=14),
         "40a7789591023bda111e05da3b0694a3bff68302a290af6b2ae0650a8cede767",
         "126 (13 input), specials attached: 39", 37108),
        (dict(initial_weight=dict(UNIT_WEIGHTS), max_len=12),
         "889fabc63a1699c4c71fb08185cd08efb61af7c104bf746e20a1257d6109ca50",
         "160 (18 input), specials attached: 39", 63861),
        (dict(initial_weight=parse_weights("a=1 b=2.5 c=2.2 d=1.4"),
              max_len=14, eta_prime=3.6),
         "ab680534f7dd0a2d7de2fc780f758519fbee6464eb52abc62229d8e809c5a589",
         "150 (14 input), specials attached: 39", 67926),
        (dict(initial_weight=VALLEY, max_len=10, eta_prime=3.5),
         "52feef337c2806b7900bfeaea4f7580234ed0be4463d4855fbdb58df6322908f",
         "469 (46 input), specials attached: 39", 91339),
        # a larger delta makes the balance bonus decide winners
        (dict(initial_weight=VALLEY, max_len=12, delta=0.05),
         "636a9db5171ceccbc8b58f88ac644933c92a333f19c5cc7ff3a2a553cca30649",
         "161 (17 input), specials attached: 39", 59697),
        # an emission's remainder folds onto its stored twin when it is
        # emitted; without that fold this machine measures eta 5.5, not
        # 176/35
        (dict(initial_weight=parse_weights("a=1 b=2.5 c=2.2 d=1.4"),
              max_len=12, eta_prime=3.2, delta=0.05),
         "c3ec0339c47b69e0bc0afcedc02c0138b90e04e6b5dae7c956acf199d80c3e57",
         "188 (22 input), specials attached: 39", 83406),
    ], ids=["valley-quality", "b3.33-c2.8-d1.06", "unit", "eta-prime-3.6",
            "valley-eta-prime-3.5", "valley-delta-0.05", "twin-fold"])
    def test_output_digest(self, kwargs, digest, states, scanned):
        log = []
        graph = build(BuildParams(**kwargs), log=log)
        text = serialize_graph(graph)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert log[-2:] == [f"states: {states}",
                            f"candidates scanned: {scanned}"]
        # specials hang at the empty buffer, the one state transduce
        # reads them from, and make no state of their own
        assert all(t.src == ("", "") for t in graph.transitions.values()
                   if t.special)
        assert_no_special_only_states(graph)
        # the machine verifies clean, every label canonically spelled, and
        # the file verifies as the machine it was written from
        built, reparsed = verify_graph(graph), verify_graph(parse_graph(text))
        assert built.ok and built.notes == []
        assert (reparsed.ok, reparsed.violations, reparsed.swapped_successors) \
            == (built.ok, built.violations, built.swapped_successors)
        # and its eta comes with a certificate that replays
        replay_certificate(graph)

    def test_budget_exceeded(self):
        with pytest.raises(RuntimeError, match="budget exceeded"):
            build(BuildParams(initial_weight=VALLEY, budget=50))


class TestScan:
    # the indexed scan against the flat reference on random buffers: the
    # same winner (the same element object), quality and scanned count
    @pytest.mark.parametrize("weights, eta_prime, delta", [
        (VALLEY, 4.0, 0.01),
        (dict(UNIT_WEIGHTS), 4.0, 0.01),
        (parse_weights("a=1 b=3.33 c=2.8 d=1.06"), 3.5, 0.01),
        (parse_weights("a=1 b=2.5 c=2.2 d=1.4"), 3.2, 0.05),
    ], ids=["valley", "unit", "b3.33-c2.8-d1.06", "b2.5-eta-prime-3.2"])
    def test_indexed_scan_is_the_flat_scan(self, weights, eta_prime, delta):
        forms = MinimalForms(weights)
        candidates = _candidates(forms, 12)
        # random pairs of canonical forms up to weight 10 a side, the
        # empty word among them, alternating with the section pairs of
        # random candidates, which that candidate clears in full: its
        # quality then meets the weight bound, so the scan stops at once
        # (within a run unless it won on the run's last member)
        pool = [v for e, v in forms.table.items()
                if forms.form_weight[e] <= 10 * SCALE]
        rng = random.Random(f"{sorted(weights.items())}")
        elements, _, _, runs = candidates
        ends = {i: end for start, end, _, _ in runs
                for i in range(start, end)}
        starts = {start for start, _, _, _ in runs}
        last_member_wins = mid_run_stops = 0
        for k in range(200):
            if k % 2:
                buf = (rng.choice(pool), rng.choice(pool))
            else:
                e = rng.choice(elements)
                buf = (forms.table[e.left], forms.table[e.right])
            best, scanned, wins = flat_best_output(
                buf, forms, candidates, 1 / eta_prime, delta)
            got, got_scanned, products = _best_output(
                buf, forms, candidates, 1 / eta_prime, delta)
            assert got_scanned == scanned
            if best is None:
                assert got is None
            else:
                assert got[0] is best[0] and got[1] == best[1]
            # at most two products per candidate scanned
            assert products <= 2 * scanned
            last_member_wins += any(i + 1 == ends[i] for i in wins)
            mid_run_stops += bool(wins) and scanned not in starts \
                and scanned < len(elements)
        assert last_member_wins and mid_run_stops

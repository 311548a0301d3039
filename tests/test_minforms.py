"""Weighted minimal forms: weights, canonical spellings, enumeration."""

import ast
import hashlib
import heapq
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import grigorchuk
from grigorchuk import (MinimalForms, SCALE, TUNED_WEIGHTS, UNIT_WEIGHTS,
                        element_of, parse_weights, word_weight, words_equal)
from grigorchuk.elements import ATOMS, mul
from grigorchuk.minforms import format_scaled, is_triangular, scale_decimal
from grigorchuk.words import in_H, rev

words = st.text(alphabet="abcd", max_size=9)


@pytest.fixture(scope="module")
def unit_forms():
    return MinimalForms(dict(UNIT_WEIGHTS))


@pytest.fixture(scope="module")
def tuned_forms():
    return MinimalForms(dict(TUNED_WEIGHTS))


class TestWeights:
    def test_parse_block(self):
        w = parse_weights("a=1 b=3.33 c=2.8 d=1.06")
        assert w == TUNED_WEIGHTS

    def test_scaling_round_trip(self):
        for text in ("1", "3.33", "0.655", "12.0001"):
            assert format_scaled(scale_decimal(text)) == text

    def test_word_weight(self):
        assert word_weight("dada", TUNED_WEIGHTS) == 2 * 10_000 + 2 * 10_600

    def test_triangular(self):
        assert is_triangular(UNIT_WEIGHTS)
        assert is_triangular(TUNED_WEIGHTS)
        assert not is_triangular({"a": SCALE, "b": 5 * SCALE,
                                  "c": SCALE, "d": SCALE})

    def test_forms_require_triangular_weights(self):
        # the search over reduced words would settle c at weight 5, though
        # bd spells the same element at weight 2
        with pytest.raises(ValueError, match="triangular"):
            MinimalForms({"a": SCALE, "b": SCALE, "c": 5 * SCALE, "d": SCALE})

    @pytest.mark.parametrize("text", ["1.-5", "1.+5", "1_0", "0.0_1", "\u0663"])
    def test_scale_rejects_malformed(self, text):
        with pytest.raises(ValueError, match="malformed number"):
            scale_decimal(text)

    @pytest.mark.parametrize("text, message", [
        ("1.00001", "more than 4 fraction digits in '1.00001'"),
        ("", "empty number ''"), (".", "empty number '.'"),
        (" - ", "empty number ''")])
    def test_scale_rejects_long_or_empty(self, text, message):
        with pytest.raises(ValueError) as err:
            scale_decimal(text)
        assert str(err.value) == message

    def test_negative_weight_rejected(self):
        assert scale_decimal("-1.5") == -15_000
        with pytest.raises(ValueError, match="^weights must be positive$"):
            parse_weights("a=-1 b=1 c=1 d=1")

    def test_parse_rejects_repeated_generator(self):
        with pytest.raises(ValueError, match="repeated weight .* 'a'"):
            parse_weights("a=1 a=5 b=1 c=1 d=1")

    def test_parse_rejects_unknown_generator(self):
        with pytest.raises(ValueError, match="unknown generator 'e'"):
            parse_weights("a=1 b=1 c=1 d=1 e=1")

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_weights("a=1 b=x")
        with pytest.raises(ValueError):
            parse_weights("a=1 b=1 c=1")


class TestCanonicalForm:
    def test_appendix_convention(self, tuned_forms):
        assert tuned_forms.minimal_form("dada") == "adad"

    def test_klein_respelling(self, unit_forms):
        assert unit_forms.minimal_form("bc") == "d"

    def test_trivial_words(self, unit_forms):
        assert unit_forms.minimal_form("") == ""
        assert unit_forms.minimal_form("abba") == ""

    def test_tables_key_on_elements(self, unit_forms):
        # dada is weight-minimal under unit weights but not canonical, so
        # only its element, not the word, finds the form adad
        unit_forms.extend(4 * SCALE)
        assert unit_forms.table[element_of("dada")] == "adad"
        assert unit_forms.form_weight[element_of("dada")] == 4 * SCALE

    def test_lex_order_prefers_a_then_d(self, unit_forms):
        # among equal-weight equal-length spellings the order a < d < c < b
        # picks the least, matching the fixture's buffer spellings
        assert unit_forms.minimal_form("adad") == "adad"

    @given(words)
    def test_form_is_equal_and_no_heavier(self, unit_forms, w):
        m = unit_forms.minimal_form(w)
        assert words_equal(m, w)
        assert word_weight(m, UNIT_WEIGHTS) <= word_weight(w, UNIT_WEIGHTS)

    @given(words)
    def test_idempotent(self, tuned_forms, w):
        m = tuned_forms.minimal_form(w)
        assert tuned_forms.minimal_form(m) == m


def settled_digest(forms):
    return hashlib.sha256("\n".join(forms.table.values()).encode()).hexdigest()


class TestSettleOrder:
    # digests of the canonical forms in settle order, measured with a
    # search that pushed every one-letter extension; a change of any
    # form or of their order shows here
    def test_unit_weights(self):
        forms = MinimalForms(dict(UNIT_WEIGHTS))
        forms.extend(12 * SCALE)
        assert len(forms.table) == 1487
        assert settled_digest(forms) == (
            "ebeadbd0a30179505fc13adb297a71a7db87d3c3c7729ff2c6cdaf131e0adb46")

    def test_skewed_weights(self):
        forms = MinimalForms(parse_weights("a=1.3 b=1 c=1.7 d=0.9"))
        forms.extend(14 * SCALE)
        assert len(forms.table) == 906
        assert settled_digest(forms) == (
            "991c239ac0ae92b61b86d859961a1718dce693304fb731cec60ae8788d10c2cf")

    def test_steps_equal_one_call(self):
        once = MinimalForms(dict(TUNED_WEIGHTS))
        once.extend(20 * SCALE)
        steps = MinimalForms(dict(TUNED_WEIGHTS))
        for r in (0, 3 * SCALE, 3 * SCALE, 11 * SCALE + 1234, 20 * SCALE):
            steps.extend(r)
        assert list(steps.table.items()) == list(once.table.items())

    def test_weights_never_decrease(self, tuned_forms):
        tuned_forms.extend(16 * SCALE)
        weights = [word_weight(w, TUNED_WEIGHTS)
                   for w in tuned_forms.table.values()]
        assert weights == sorted(weights)
        # the weight stored at settle time is the form's own weight
        assert list(tuned_forms.form_weight) == list(tuned_forms.table)
        assert list(tuned_forms.form_weight.values()) == weights

    def test_element_budget(self):
        forms = MinimalForms(dict(UNIT_WEIGHTS), element_budget=5)
        forms.extend(SCALE)
        with pytest.raises(RuntimeError,
                           match="element budget 5 exceeded at radius 2"):
            forms.extend(2 * SCALE)


# The reference's own spelling of the tie-break order a < d < c < b: a
# word's key spells it over "0123", so (length, key) compares words as
# the settle's integer keys must.  A reduced word grows by the letters
# keyed by its last key digit.
EAGER_KEY = str.maketrans("adcb", "0123")
EAGER_WORD = str.maketrans("0123", "adcb")
EAGER_NEXT = {"": "adcb", "0": "dcb", "1": "a", "2": "a", "3": "a"}


class EagerForms(MinimalForms):
    """Reference settle from one heap of (weight, length, string key,
    element) that forms each word's element when it is pushed, and
    pushes no word whose element is settled already."""

    def __init__(self, weights, element_budget=10_000_000):
        super().__init__(weights, element_budget)
        self._heap = [(0, 0, "", ATOMS[""])]
        self._steps = {last: [(ch.translate(EAGER_KEY), weights[ch],
                               ATOMS[ch]) for ch in letters]
                       for last, letters in EAGER_NEXT.items()}
        self._radius = -1

    def extend(self, radius):
        if radius <= self._radius:
            return
        heap, table, form_weight = self._heap, self.table, self.form_weight
        while heap and heap[0][0] <= radius:
            weight, n, key, e = heapq.heappop(heap)
            if e in table:
                continue
            if len(table) >= self.element_budget:
                raise RuntimeError(
                    f"element budget {self.element_budget} exceeded at radius "
                    f"{format_scaled(weight)}")
            table[e] = key.translate(EAGER_WORD)
            form_weight[e] = weight
            for digit, cost, atom in self._steps[key[-1:]]:
                child = mul(e, atom)
                if child not in table:
                    heapq.heappush(heap, (weight + cost, n + 1, key + digit,
                                          child))
        self._radius = radius


VALLEY = parse_weights("a=1 b=2.7 c=2.0 d=1.3")
# near-degenerate triangular weights: b is 1e-4 short of c + d, and the
# forms up to radius 16 take 118 distinct weights, so most weight
# buckets of the settle hold few words
NEAR_DEGENERATE = parse_weights("a=1 b=1.9999 c=1.0001 d=0.9999")
SETTLE_CASES = pytest.mark.parametrize("weights, radius", [
    (UNIT_WEIGHTS, 16 * SCALE), (TUNED_WEIGHTS, 30 * SCALE),
    (VALLEY, 26 * SCALE), (NEAR_DEGENERATE, 16 * SCALE)],
    ids=["unit", "tuned", "valley", "near-degenerate"])


class TestLazySettle:
    # the settle forms an element when its word leaves its weight bucket;
    # the eager heap reference above forms it when the word is pushed
    @SETTLE_CASES
    @pytest.mark.parametrize("steps", [
        (), (0, 3 * SCALE, 3 * SCALE, 7 * SCALE + 1234, 15 * SCALE)],
        ids=["one-call", "stepwise"])
    def test_same_table(self, weights, radius, steps):
        lazy, eager = MinimalForms(dict(weights)), EagerForms(dict(weights))
        for r in (*steps, radius):
            lazy.extend(r)
            eager.extend(r)
            assert list(lazy.table.items()) == list(eager.table.items())
            assert list(lazy.form_weight.items()) == \
                list(eager.form_weight.items())

    # a word whose element is settled is dropped before the budget check,
    # so the radius in the message is that of the next new element; at
    # TUNED weights budgets 12 and 93 meet such a word first
    @SETTLE_CASES
    @pytest.mark.parametrize("budget", [0, 1, 12, 93, 1234])
    def test_budget_count(self, weights, radius, budget):
        outcomes = []
        for cls in (MinimalForms, EagerForms):
            forms = cls(dict(weights), element_budget=budget)
            with pytest.raises(RuntimeError) as info:
                forms.extend(radius)
            outcomes.append((str(info.value), list(forms.table.items())))
        assert outcomes[0] == outcomes[1]
        assert len(outcomes[0][1]) == budget

    # a budget error leaves the word it stopped at queued, so raising
    # the budget and settling again gives the table of one settle
    @pytest.mark.parametrize("budget", [1, 5, 100, 200])
    def test_resume_after_budget(self, budget):
        fresh = EagerForms(dict(UNIT_WEIGHTS))
        fresh.extend(8 * SCALE)
        resumed = MinimalForms(dict(UNIT_WEIGHTS), element_budget=budget)
        with pytest.raises(RuntimeError, match="element budget"):
            resumed.extend(8 * SCALE)
        resumed.element_budget = 10_000_000
        resumed.extend(8 * SCALE)
        assert len(fresh.table) == 271
        assert list(resumed.table.items()) == list(fresh.table.items())
        assert list(resumed.form_weight.items()) == \
            list(fresh.form_weight.items())

    # ba, ab and ada all weigh 2.9999 here; a key without its 4**len
    # term, or compared as a digit string, would settle ada first
    def test_shorter_word_settles_first(self):
        forms = MinimalForms(dict(NEAR_DEGENERATE))
        forms.extend(3 * SCALE)
        order = list(forms.table.values())
        assert {forms.form_weight[element_of(w)]
                for w in ("ba", "ab", "ada")} == {29_999}
        assert order.index("ab") < order.index("ba") < order.index("ada")

    # no element of the unsettled frontier is interned or multiplied
    def test_cache_sizes_after_unit_settle(self):
        sizes = ast.literal_eval(fresh_output(
            "from grigorchuk.elements import cache_sizes\n"
            "MinimalForms(dict(UNIT_WEIGHTS)).extend(20 * SCALE)\n"
            "print(cache_sizes())\n"))
        assert (sizes["interned"], sizes["products"]) == (31_948, 26_439)

    # on Python 3.11.7 this read 11.42 MiB when every interned node also
    # had a (swap, left, right) key tuple, and 9.44 MiB without them
    def test_traced_memory_after_unit_settle(self):
        traced = int(fresh_output(
            "import tracemalloc\n"
            "tracemalloc.start()\n"
            "forms = MinimalForms(dict(UNIT_WEIGHTS))\n"
            "forms.extend(20 * SCALE)\n"
            "print(tracemalloc.get_traced_memory()[0])\n"))
        assert traced <= 10.5 * 2**20


def fresh_output(code):
    """What code prints in a fresh interpreter that has imported
    MinimalForms, SCALE and UNIT_WEIGHTS."""
    src = Path(grigorchuk.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c",
         "from grigorchuk import MinimalForms, SCALE, UNIT_WEIGHTS\n" + code],
        check=True, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)})
    return out.stdout


@pytest.fixture(scope="module")
def valley_forms():
    return MinimalForms(dict(VALLEY))


class TestTriangleBound:
    # the builder skips candidates by |g*h| >= ||g| - |h||
    @given(st.text(alphabet="abcd", max_size=7),
           st.text(alphabet="abcd", max_size=7))
    def test_product_weight(self, valley_forms, g, h):
        assert element_of(g + h) is mul(element_of(g), element_of(h))
        gw = valley_forms.element_weight(g)
        hw = valley_forms.element_weight(h)
        assert valley_forms.element_weight(g + h) >= abs(gw - hw)
        assert valley_forms.element_weight(rev(g)) == gw


class TestEnumeration:
    def test_radius_zero(self, unit_forms):
        assert unit_forms.enumerate_forms(0) == [""]

    def test_radius_one(self, unit_forms):
        assert unit_forms.enumerate_forms(1) == ["", "a", "d", "c", "b"]

    def test_h_forms_up_to_two_letters(self, unit_forms):
        got = unit_forms.enumerate_forms(2, lambda w: w.count("a") % 2 == 0)
        assert got == ["", "d", "c", "b"]

    @pytest.mark.parametrize("text, max_len", [
        ("a=5 b=1 c=1 d=1", 3),
        ("a=5 b=1 c=1 d=1", 4),
        ("a=3 b=2 c=2 d=1", 7),
        ("a=1 b=3.33 c=2.8 d=1.06", 7),
        ("a=1 b=1 c=1 d=1", 6),
    ])
    def test_matches_full_settle(self, text, max_len):
        # an odd-length form such as aba holds more a's than heavy
        # letters, so the radius must cover an a-heavy spelling too
        weights = parse_weights(text)
        full = MinimalForms(weights)
        full.extend(max_len * max(weights.values()))
        for predicate in (None, in_H):
            expect = [w for w in full.table.values() if len(w) <= max_len
                      and (predicate is None or predicate(w))]
            got = MinimalForms(weights).enumerate_forms(max_len, predicate)
            assert got == expect

    def test_sorted_by_priority(self, tuned_forms):
        forms = tuned_forms.enumerate_forms(4)
        weights = [word_weight(w, TUNED_WEIGHTS) for w in forms]
        assert weights == sorted(weights)

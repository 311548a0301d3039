"""Hash-consed exact elements: identity, equality, multiplication."""

from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from grigorchuk import (SCALE, UNIT_WEIGHTS, MinimalForms, element_of,
                        free_reduce, is_trivial, words_equal)
from grigorchuk.elements import (_ELEMENT, ATOMS, IDENTITY, _node,
                                 cache_sizes, mul)
from grigorchuk.words import rev, segments

from conftest import long_words

words = st.text(alphabet="abcd", max_size=10)
# the relators (ad)^4, (ac)^8 and (ab)^16, which the word-problem benchmark
# conjugates into trivial words
RELATORS = ("ad" * 4, "ac" * 8, "ab" * 16)


class TestTriviality:
    def test_empty_is_identity(self):
        assert is_trivial("")

    def test_generators_nontrivial(self):
        for x in "abcd":
            assert not is_trivial(x)

    def test_involutions(self):
        for x in "abcd":
            assert is_trivial(x + x)

    def test_klein_relations(self):
        assert is_trivial("bcd")
        assert is_trivial("bdc")
        assert is_trivial("cbd")

    def test_ad_order_four(self):
        assert not is_trivial("adad")
        assert is_trivial("adadadad")


class TestHashConsing:
    def test_equal_words_share_node(self):
        assert element_of("bc") is element_of("d")
        assert element_of("abab") is element_of(free_reduce("abbbab"))

    def test_repr(self):
        assert repr(ATOMS["a"]) == "<elem a>"
        assert repr(element_of("ab")) == "<elem swap=1 <elem c> <elem a>>"

    def test_distinct_elements_differ(self):
        assert element_of("ab") is not element_of("ba")

    @given(words)
    def test_word_and_reduction_agree(self, w):
        assert element_of(w) is element_of(free_reduce(w))


class TestInterning:
    def test_one_node_per_swap_and_children(self):
        b, c = ATOMS["b"], ATOMS["c"]
        assert _node(0, ATOMS["a"], c) is b
        even, odd = _node(0, b, c), _node(1, b, c)
        assert even is not odd
        assert (odd.swap, odd.left, odd.right) == (1, b, c)
        before = cache_sizes()["interned"]
        assert _node(0, b, c) is even and _node(1, b, c) is odd
        assert cache_sizes()["interned"] == before

    def test_long_form_is_not_cached(self):
        # a conjugate of (ab)^16 by a 120-letter word: 137 segment values
        u = "abacad" * 20
        w = u + RELATORS[2] + rev(u)
        assert len(w) == 272
        assert is_trivial(w)
        assert max(map(len, _ELEMENT)) <= 16
        assert segments(w) not in _ELEMENT
        assert element_of(w) is element_of(w) is IDENTITY


class TestWordProblem:
    @pytest.mark.parametrize("query", [is_trivial, element_of,
                                       lambda w: words_equal("", w)],
                             ids=["is_trivial", "element_of", "words_equal"])
    def test_rejects_bad_letter(self, query):
        # ax has an odd number of a's, so it tests that is_trivial's
        # abelian reject does not answer for a word with a bad letter
        for w in ("axa", "ax"):
            with pytest.raises(ValueError,
                               match=f"invalid letter 'x' in word '{w}'"):
                query(w)

    @given(st.one_of(long_words,
                     st.builds(lambda u, r: u + r + rev(u), long_words,
                               st.sampled_from(RELATORS))))
    def test_trivial_is_identity(self, w):
        assert is_trivial(w) == (element_of(w) is IDENTITY)

    @given(long_words)
    def test_element_is_product_of_atoms(self, w):
        assert element_of(w) is reduce(mul, (ATOMS[x] for x in w), IDENTITY)


class TestProductCache:
    @given(long_words)
    def test_a_step_caches_nothing(self, w):
        g, expect = element_of(w), element_of(w + "a")
        before = cache_sizes()["products"]
        assert mul(g, ATOMS["a"]) is expect
        assert cache_sizes()["products"] == before

    def test_extend_adds_no_product_table(self):
        # one-generator steps fill only the seeded b, c and d tables
        before = cache_sizes()["product_tables"]
        MinimalForms(UNIT_WEIGHTS).extend(8 * SCALE)
        assert cache_sizes()["product_tables"] == before


class TestMultiplication:
    def test_atoms(self):
        assert mul(element_of("b"), element_of("c")) is element_of("d")
        assert mul(element_of("a"), element_of("a")) is element_of("")

    @given(words, words)
    def test_matches_concatenation(self, v, w):
        assert mul(element_of(v), element_of(w)) is element_of(v + w)

    @given(words)
    def test_inverse_by_reversal(self, w):
        assert words_equal(w + w[::-1], "")

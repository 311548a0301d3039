"""Word-level operations: reduction, the tree action, psi and sections."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grigorchuk import (act, free_reduce, in_B, in_H, pair_in_section_image,
                        psi, psi_preimage_basic, rev, sigma, tau, words_equal)
from grigorchuk.words import (SECTIONS_OF, check_word, d4_flip, residue,
                              sections, segments, spell)

from conftest import long_words

words = st.text(alphabet="abcd", max_size=12)
binary = st.text(alphabet="01", min_size=1, max_size=8)


# bc = cb = d, bd = db = c, cd = dc = b
THIRD = {
    ("b", "c"): "d", ("c", "b"): "d",
    ("b", "d"): "c", ("d", "b"): "c",
    ("c", "d"): "b", ("d", "c"): "b",
}


def letter_reduce(w):
    """Free reduction letter by letter: the reference for ``free_reduce``.

    Equal adjacent letters cancel, and adjacent {b,c,d}-letters merge into
    the third one, which may cascade.
    """
    out: list[str] = []
    for ch in w:
        while out:
            top = out[-1]
            if top == ch:
                out.pop()
                break
            merged = THIRD.get((top, ch))
            if merged is None:
                out.append(ch)
                break
            out.pop()
            ch = merged
        else:
            out.append(ch)
    return "".join(out)


def letter_sections(w):
    """Sections of w letter by letter: the reference for ``sections``."""
    p = 0
    s0: list[str] = []
    s1: list[str] = []
    for ch in w:
        if ch == "a":
            p ^= 1
            continue
        lo, hi = SECTIONS_OF[ch]
        if p == 0:
            s0.append(lo)
            s1.append(hi)
        else:
            s0.append(hi)
            s1.append(lo)
    return p, letter_reduce("".join(s0)), letter_reduce("".join(s1))


# the dihedral quotient as (t, e) = R^t * A^e, folded letter by letter:
# the reference for ``residue`` and ``d4_flip``
D4_ONE, D4_A, D4_D = (0, 0), (0, 1), (3, 1)
D4_OF_LETTER = {"a": D4_A, "b": D4_ONE, "c": D4_D, "d": D4_D}


def d4_mul(x, y):
    (t1, e1), (t2, e2) = x, y
    return ((t1 + (t2 if e1 == 0 else -t2)) % 4, e1 ^ e2)


def letter_residue(w):
    r = D4_ONE
    for ch in w:
        r = d4_mul(r, D4_OF_LETTER[ch])
    return r


def letter_flip(x):
    t, e = x
    base = ((-t) % 4, 0)
    return d4_mul(base, D4_D) if e else base


def all_words(max_len):
    stack = [""]
    while stack:
        w = stack.pop()
        yield w
        if len(w) < max_len:
            stack.extend(w + x for x in "abcd")


class TestReduction:
    def test_empty(self):
        assert free_reduce("") == ""

    def test_involutions_cancel(self):
        for x in "abcd":
            assert free_reduce(x + x) == ""

    def test_klein_products(self):
        assert free_reduce("bc") == "d"
        assert free_reduce("cd") == "b"
        assert free_reduce("db") == "c"
        assert free_reduce("badb") == "bac"

    def test_rejects_bad_letter(self):
        with pytest.raises(ValueError):
            check_word("abx")
        with pytest.raises(ValueError,
                           match="invalid letter 'x' in word 'abx'"):
            free_reduce("abx")

    @given(words)
    def test_idempotent(self, w):
        assert free_reduce(free_reduce(w)) == free_reduce(w)

    @given(words)
    def test_no_adjacent_same_class(self, w):
        r = free_reduce(w)
        for x, y in zip(r, r[1:]):
            assert (x == "a") != (y == "a")

    @given(words)
    def test_rev_is_inverse(self, w):
        assert free_reduce(w + rev(w)) == ""
        assert rev(rev(w)) == w


class TestSegments:
    def test_generators(self):
        assert segments("") == (0,)
        assert segments("a") == (0, 0)
        assert segments("bcd") == (0,)
        assert segments("abab") == (0, 1, 1)

    def test_inner_one_folds(self):
        # a bcd a = a a = 1, and b a bcd a c = b c = d
        assert segments("abcda") == (0,)
        assert segments("babcdac") == (3,)

    @pytest.mark.parametrize("w", ["axa", "abcdbcdbxa"],
                             ids=["table", "counts"])
    def test_rejects_bad_letter(self, w):
        with pytest.raises(ValueError,
                           match=f"invalid letter 'x' in word '{w}'"):
            segments(w)

    @given(long_words)
    def test_spells_free_reduction(self, w):
        assert spell(segments(w)) == letter_reduce(w)

    @given(long_words)
    def test_sections_match_letter_reference(self, w):
        assert sections(w) == letter_sections(w)

    def test_sections_fold_inner_one(self):
        # the d at odd parity leaves c's hi parts d, d between the right
        # section's a's: a d d a = 1
        assert sections("abacadacab") == (1, "cabac", "")

    def test_sections_reduced_words(self):
        # every reduced word with at most six a's: inner values are b, c, d
        for k in range(7):
            for inner in itertools.product((1, 2, 3), repeat=max(k - 1, 0)):
                for x0, xk in itertools.product(range(4), repeat=2):
                    x = (x0,) + inner + (xk,) if k else (x0,)
                    w = spell(x)
                    assert segments(w) == x
                    assert sections(w) == letter_sections(w)


class TestAction:
    def test_a_flips_first(self):
        assert act("a", "01") == "11"
        assert act("a", "10") == "00"

    def test_abab_on_zeros(self):
        assert act("abab", "0000") == "0110"

    def test_identity_word(self):
        assert act("", "0101") == "0101"

    @given(words, binary)
    def test_preserves_length(self, w, s):
        assert len(act(w, s)) == len(s)

    @given(words, binary)
    def test_reduction_preserves_action(self, w, s):
        assert act(w, s) == act(free_reduce(w), s)

    @given(words, binary)
    def test_inverse_action(self, w, s):
        assert act(rev(w), act(w, s)) == s


class TestPsi:
    def test_generator_sections(self):
        assert sections("b") == (0, "a", "c")
        assert psi("b") == ("a", "c")
        assert psi("d") == ("", "b")

    def test_even_a_words(self):
        assert psi("abab") == ("ca", "ac")
        assert psi("aca") == ("d", "a")

    def test_odd_word_has_no_section_pair(self):
        with pytest.raises(ValueError) as err:
            psi("dab")
        assert str(err.value) == ("word 'dab' has odd a-parity and no "
                                  "section pair")

    def test_parity(self):
        assert in_H("abab")
        assert in_H("aca")
        assert not in_H("ab")

    @given(words)
    def test_section_shrinks(self, w):
        r = free_reduce(w)
        if not in_H(r):
            return
        w0, w1 = psi(r)
        bound = (len(r) + 1) // 2 + 1
        assert len(w0) <= bound and len(w1) <= bound

    def test_section_identity_small(self):
        for w in all_words(5):
            if not in_H(w):
                continue
            w0, w1 = psi(w)
            for s in ("000", "101", "110"):
                assert act(w, "0" + s) == "0" + act(w0, s)
                assert act(w, "1" + s) == "1" + act(w1, s)


class TestSigmaTau:
    def test_generator_values(self):
        assert sigma("a") == "aca"
        assert sigma("b") == "d"
        assert sigma("d") == "c"
        assert tau("a") == "d"

    def test_doubling_identity_generators(self):
        for g in ("a", "b", "c", "d", "ab", "da"):
            w0, w1 = psi(free_reduce(sigma(g)))
            assert words_equal(w0, tau(g))
            assert words_equal(w1, g)


class TestDihedral:
    def test_signed_count_matches_letter_fold(self):
        for w in all_words(7):
            r = residue(w)
            assert r == letter_residue(w), w
            assert d4_flip(r) == letter_flip(r), w

    def test_bad_letter_rejected(self):
        with pytest.raises(ValueError, match="invalid letter 'x'"):
            in_B("abx")
        with pytest.raises(ValueError, match="invalid letter 'x'"):
            pair_in_section_image("abx", "")


class TestPreimage:
    def test_known_pair(self):
        assert pair_in_section_image("ca", "ac")
        assert psi_preimage_basic("ca", "ac") == "abab"

    def test_rejected_pair(self):
        assert not pair_in_section_image("da", "ca")
        with pytest.raises(ValueError):
            psi_preimage_basic("da", "ca")

    def test_b_membership(self):
        assert in_B("")
        assert in_B("b")
        assert not in_B("d")
        assert not in_B("a")

    def test_roundtrip_small(self):
        for h in all_words(5):
            if not in_H(h):
                continue
            h0, h1 = psi(h)
            if not pair_in_section_image(h0, h1):
                continue
            w = psi_preimage_basic(h0, h1)
            v0, v1 = psi(free_reduce(w))
            assert words_equal(v0, h0) and words_equal(v1, h1)

    def test_length_bound(self):
        # 4*|w0| + 2*|w1| + 4 holds for freely reduced w0, while the
        # bound 4*max(|w0|, |w1|) + 12 fails on this pair: 52 > 48
        w0, w1 = "cacacacab", "badadadad"
        w = psi_preimage_basic(w0, w1)
        assert len(w) == 52 > 4 * max(len(w0), len(w1)) + 12
        assert len(w) <= 4 * len(w0) + 2 * len(w1) + 4
        for h in all_words(5):
            if not in_H(h):
                continue
            h0, h1 = psi(h)
            if not pair_in_section_image(h0, h1):
                continue
            w = psi_preimage_basic(h0, h1)
            assert len(w) <= 4 * len(h0) + 2 * len(h1) + 4

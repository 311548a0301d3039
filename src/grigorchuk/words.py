"""Words over the generators of the first Grigorchuk group.

The group G acts on finite binary strings.  It is generated by four
involutions: ``a`` swaps the first bit, while ``b``, ``c``, ``d`` fix the
first bit and act recursively on the rest according to

    b = (a, c)    c = (a, d)    d = (1, b)

where ``(p, q)`` means "act as p below a leading 0 and as q below a
leading 1".  The letters b, c, d commute and multiply into each other
(bc = d and cyclically), so every group element is represented by a
reduced word in which a's and {b,c,d}-letters alternate.

Everything in this module is word-level and exact: free reduction,
the string action, the section decomposition of parity-even words, the
order-8 dihedral quotient used for membership tests (a word's residue
there is a signed count of its letters), and the auxiliary substitutions
that power the baseline preimage construction.

The segment form.  A reduced word is ``x0 a x1 a ... a xk`` with each
``xi`` in the Klein group {1, b, c, d}, and no inner ``xi`` (0 < i < k)
is 1.  ``segments`` encodes it as the tuple (x0, ..., xk) with 1, b, c, d
as 0, 1, 2, 3, so that XOR is the product, and every section is taken on
that tuple.  A value ``xi`` sits at a-parity ``i & 1``.  Its section pair
splits into a lo part, ``a`` for b and c and 1 for d, and a hi part, the
cyclic shift b -> c -> d -> b; at even parity the lo part goes to the
left section and the hi part to the right one, at odd parity the other
way.  So a section word reads lo parts of one parity between hi parts of
the other: each ``a`` in it comes from a b or c, and the hi parts between
two of its a's are those of the values between two such b's or c's.
Inner values are not 1 and the hi map is a bijection, so a section
segment that takes one hi part is not 1.  A section segment takes more
than one hi part only where a d, whose lo part is 1, sits between them;
so an inner 1 is left only at d positions, and the same stack pass that
folds ``u a 1 a v`` into ``uv`` for ``segments`` reduces each section.
"""

from __future__ import annotations

LETTERS = "abcd"

# x = (pair[0], pair[1]) as an action on subtrees; "" is the identity.
SECTIONS_OF = {"b": ("a", "c"), "c": ("a", "d"), "d": ("", "b")}


def check_word(w: str) -> None:
    """Raise ValueError unless w uses only the letters a, b, c, d."""
    for ch in w:
        if ch not in LETTERS:
            raise ValueError(f"invalid letter {ch!r} in word {w!r}")


# the Klein value of each {b,c,d}-string of at most six letters; a
# longer segment is valued by its letter counts
_KLEIN = {"": 0}
for _n in range(6):
    for _part in [p for p in _KLEIN if len(p) == _n]:
        for _x, _v in (("b", 1), ("c", 2), ("d", 3)):
            _KLEIN[_part + _x] = _KLEIN[_part] ^ _v
_SPELL = ("", "b", "c", "d")
# the hi part of each Klein value's sections: b -> c, c -> d, d -> b
_HI = (0, 2, 3, 1)


def _klein_count(part: str, w: str) -> int:
    """Klein value of a segment of w, from its letter-count parities."""
    b, c, d = part.count("b"), part.count("c"), part.count("d")
    if b + c + d != len(part):
        check_word(w)
    return (b + d) & 1 | ((c + d) & 1) << 1


def segments(w: str) -> tuple[int, ...]:
    """The segment form (x0, ..., xk) of w's reduced word (module docstring).

    Values each a-free segment, then folds every inner 1, ``u a 1 a v``
    into ``uv``, in one stack pass.  Raises ValueError on a letter outside
    a, b, c, d.
    """
    out: list[int] = []
    for part in w.split("a"):
        x = _KLEIN.get(part)
        if x is None:
            x = _klein_count(part, w)
        if len(out) > 1 and not out[-1]:
            out.pop()
            x ^= out.pop()
        out.append(x)
    return tuple(out)


def spell(x: tuple[int, ...]) -> str:
    """The reduced word of a segment form."""
    return "a".join([_SPELL[v] for v in x])


def segment_sections(x: tuple[int, ...]
                     ) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Parity and the two section segment forms of a segment form.

    Each value sends its lo part to one side and its hi part to the other
    (module docstring).  ``top0`` and ``top1`` are the open segments of
    the left and right sections, and the lists hold the closed ones below
    them.  A lo ``a`` closes the open segment of its side, or, when that
    segment is an inner 1, reopens the one before it: the stack pass of
    ``segments``.
    """
    left: list[int] = []
    right: list[int] = []
    top0 = top1 = 0
    even = True
    for v in x:
        if even:
            top1 ^= _HI[v]
            if v == 1 or v == 2:
                if left and not top0:
                    top0 = left.pop()
                else:
                    left.append(top0)
                    top0 = 0
        else:
            top0 ^= _HI[v]
            if v == 1 or v == 2:
                if right and not top1:
                    top1 = right.pop()
                else:
                    right.append(top1)
                    top1 = 0
        even = not even
    left.append(top0)
    right.append(top1)
    return (len(x) - 1) & 1, tuple(left), tuple(right)


def free_reduce(w: str) -> str:
    """Shortest word equal to w under xx = 1 and the {b,c,d} products.

    The spelling of w's segment form.  Raises ValueError on a letter
    outside a, b, c, d.
    """
    return spell(segments(w))


def rev(w: str) -> str:
    """Reversal of w; since all generators are involutions this inverts it."""
    return w[::-1]


def act_letter(x: str, s: str) -> str:
    """Apply a single generator to a binary string."""
    if not s:
        return s
    if x == "a":
        return ("1" if s[0] == "0" else "0") + s[1:]
    sub = SECTIONS_OF[x][int(s[0])]
    return s[0] + act(sub, s[1:])


def act(w: str, s: str) -> str:
    """Apply the word w to a binary string, leftmost letter first."""
    for x in w:
        s = act_letter(x, s)
    return s


def in_H(w: str) -> bool:
    """Whether w lies in the index-2 subgroup of words with evenly many a's.

    Such words preserve the first bit of every string, so they act on the
    two subtrees separately.
    """
    return w.count("a") % 2 == 0


def sections(w: str) -> tuple[int, str, str]:
    """Parity of w together with its two subtree section words.

    A letter x in {b, c, d} scanned at even a-parity contributes its
    0-section to the left subtree word and its 1-section to the right one;
    at odd parity the roles swap.  Returns (parity, left, right) with both
    section words freely reduced.
    """
    p, s0, s1 = segment_sections(segments(w))
    return p, spell(s0), spell(s1)


def psi(w: str) -> tuple[str, str]:
    """Section pair of a parity-even word: its actions on the two subtrees.

    This is the injection of the even-parity subgroup into G x G; it is
    multiplicative, so section words of products concatenate.
    """
    p, s0, s1 = sections(w)
    if p:
        raise ValueError(f"word {w!r} has odd a-parity and no section pair")
    return s0, s1


# --- the order-8 dihedral quotient -----------------------------------------
#
# Collapsing b kills the recursion: the images A of a and D of d generate
# a dihedral group of order 8 with rotation R = A*D.  Elements are encoded
# as (t, e) meaning R^t * A^e.  A and D (the image of c too) are
# reflections and b maps to 1, so a residue is a signed count: each a
# flips e, and each c or d adds 2*e - 1 to t before flipping e.  The
# normal closure of b is exactly the kernel of this quotient map, which
# makes membership testing exact and linear-time.


def residue(w: str) -> tuple[int, int]:
    """Image (t, e) of w in the dihedral quotient that collapses b."""
    t = e = 0
    for ch in w:
        if ch == "a":
            e ^= 1
        elif ch in "cd":
            t += 2 * e - 1
            e ^= 1
        elif ch != "b":
            check_word(w)
    return t % 4, e


def in_B(w: str) -> bool:
    """Whether w lies in the normal closure of b (the quotient kernel)."""
    return residue(w) == (0, 0)


def d4_flip(x: tuple[int, int]) -> tuple[int, int]:
    """The outer automorphism of the quotient induced by taking sections.

    A parity-even word w has first section in the closure of b exactly when
    the second section's residue equals this image of the first section's
    residue; it sends the rotation to its inverse and A to D.
    """
    t, e = x
    return (3 * e - t) % 4, e


def pair_in_section_image(w0: str, w1: str) -> bool:
    """Whether the pair of words is the section pair of some parity-even word.

    The image of the parity-even subgroup under the section map is the set
    of pairs whose dihedral residues correspond under ``d4_flip``.
    """
    return d4_flip(residue(w0)) == residue(w1)


# --- auxiliary substitutions and the baseline preimage ----------------------
#
# The letter substitution s below is a homomorphism into the parity-even
# subgroup whose section pair is (t(g), g) for the companion substitution t.
# Applying it to the second component of a target pair, after cancelling the
# first component through t, yields a preimage under the section map.

_SIGMA = {"a": "aca", "b": "d", "c": "b", "d": "c"}
_TAU = {"a": "d", "b": "", "c": "a", "d": "a"}


def sigma(w: str) -> str:
    """Letterwise substitution a -> aca, b -> d, c -> b, d -> c."""
    return "".join(_SIGMA[ch] for ch in w)


def tau(w: str) -> str:
    """Letterwise substitution a -> d, b -> 1, c -> a, d -> a."""
    return "".join(_TAU[ch] for ch in w)


def psi_preimage_basic(w0: str, w1: str) -> str:
    """A parity-even word whose section pair is (w0, w1), as elements.

    Uses psi(sigma(g)) = (tau(g), g) twice: first to realize the second
    component, then to cancel the leftover in the first.  For freely
    reduced w0 the result has at most 4*|w0| + 2*|w1| + 4 letters: a
    freely reduced x has at most (|x|+1)/2 letters a, so |sigma(x)| <=
    2*|x| + 1, and the word below is two letters a, sigma(w0) and sigma of
    a word of length at most |w0| + |w1|.  Raises ValueError when the pair
    is not a section pair.
    """
    if not pair_in_section_image(w0, w1):
        raise ValueError(f"pair ({w0!r}, {w1!r}) is not a section pair")
    h = "a" + sigma(w0) + "a" + sigma(free_reduce(rev(tau(w0)) + w1))
    return free_reduce(h)

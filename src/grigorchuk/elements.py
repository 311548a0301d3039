"""Exact group elements as hash-consed section trees.

A reduced word of length > 1 is determined by its a-parity together with
its two subtree sections, whose reduced lengths are at most half its own
(plus one).  Recursing on sections therefore terminates, and interning
every node by (parity, left, right) gives each group element one shared
immutable representative.  Equality of elements is pointer identity,
which makes the word problem a dictionary lookup after construction.
Elements define neither ``__eq__`` nor ``__hash__``, so the intern and
product tables here, and the minimal-form tables built on them, key on
the elements themselves.  The intern table is one dict per parity,
mapping a right child to the nodes over it keyed by their left child:
a (parity, left, right) key tuple would cost as much memory as the
node it finds, and be allocated on every lookup.

The word problem runs on segment forms (see ``words``): a reduced word
``x0 a x1 a ... a xk`` is the tuple of its Klein values (x0, ..., xk),
and its sections are taken on that tuple.  The element of a segment
form of at most 16 values is cached under it; a longer form, mostly a
one-off query, is rebuilt from its sections, which shrink to cached
ones within a few levels.  ``mul`` is the one product.  It caches g*h in
one table per right factor h, keyed by g; a right factor of a only
swaps the root and is never cached, so right steps by one generator,
which minimal forms grow by, fill only the b, c and d tables.
"""

from __future__ import annotations

from .words import segment_sections, segments


class Element:
    """Interned node of the section tree; compare with ``is``."""

    __slots__ = ("swap", "left", "right", "name")

    def __init__(self, swap: int, left: "Element | None", right: "Element | None",
                 name: str = ""):
        self.swap = swap
        self.left = left
        self.right = right
        self.name = name

    def __repr__(self) -> str:
        if self.name:
            return f"<elem {self.name}>"
        return f"<elem swap={self.swap} {self.left!r} {self.right!r}>"


# Atoms.  The identity is the unique leaf; a swaps the subtrees and acts
# trivially below, while b, c, d refer to each other cyclically (d's right
# section is b), so they are built as placeholders and patched afterwards.
IDENTITY = Element(0, None, None, "1")
GEN_A = Element(1, None, None, "a")
GEN_B = Element(0, None, None, "b")
GEN_C = Element(0, None, None, "c")
GEN_D = Element(0, None, None, "d")
GEN_A.left, GEN_A.right = IDENTITY, IDENTITY
GEN_B.left, GEN_B.right = GEN_A, GEN_C
GEN_C.left, GEN_C.right = GEN_A, GEN_D
GEN_D.left, GEN_D.right = IDENTITY, GEN_B

# The element of each word of length at most one.
ATOMS = {"": IDENTITY, "a": GEN_A, "b": GEN_B, "c": GEN_C, "d": GEN_D}

# Interned nodes, one table per swap: each maps a right child to the
# nodes over it, keyed by their left child.
_INTERN: tuple[dict[Element, dict[Element, Element]], ...] = ({}, {})
for _x in (GEN_A, GEN_B, GEN_C, GEN_D):
    _INTERN[_x.swap].setdefault(_x.right, {})[_x.left] = _x


def _node(swap: int, left: Element, right: Element) -> Element:
    if swap == 0 and left is IDENTITY and right is IDENTITY:
        return IDENTITY
    by_left = _INTERN[swap].get(right)
    if by_left is None:
        by_left = _INTERN[swap][right] = {}
    found = by_left.get(left)
    if found is None:
        found = by_left[left] = Element(swap, left, right)
    return found


# The element of each segment form of at most 16 values, keyed by the
# form; seeded with the words of length at most one.
_ELEMENT: dict[tuple[int, ...], Element] = {
    (0,): IDENTITY, (0, 0): GEN_A, (1,): GEN_B, (2,): GEN_C, (3,): GEN_D}


def segment_element(x: tuple[int, ...]) -> Element:
    """The interned element of the segment form x (see ``words``).

    Only a form of at most 16 values (a word of at most 31 letters) is
    cached; a longer one is rebuilt from its sections on each call.
    """
    found = _ELEMENT.get(x)
    if found is None:
        p, s0, s1 = segment_sections(x)
        found = _node(p, segment_element(s0), segment_element(s1))
        if len(x) <= 16:
            _ELEMENT[x] = found
    return found


# Products g*h, one table per right factor h, keyed by the left factor g.
# Products of distinct atoms from {b,c,d} close up cyclically, so the
# recursion below would chase b*c -> c*d -> d*b forever without these
# seeds; every other section pair is structurally smaller.
_MUL: dict[Element, dict[Element, Element]] = {
    x: {x: IDENTITY} for x in (GEN_B, GEN_C, GEN_D)}
for _x, _y, _z in ((GEN_B, GEN_C, GEN_D), (GEN_C, GEN_D, GEN_B),
                   (GEN_D, GEN_B, GEN_C)):
    _MUL[_y][_x] = _MUL[_x][_y] = _z


def mul(g: Element, h: Element) -> Element:
    """The product element g*h (g acting first, like word concatenation)."""
    if g is IDENTITY:
        return h
    if h is IDENTITY:
        return g
    if h is GEN_A:
        return _node(1 ^ g.swap, g.left, g.right)
    table = _MUL.get(h)
    if table is None:
        table = _MUL[h] = {}
    found = table.get(g)
    if found is None:
        if g.swap == 0:
            found = _node(h.swap, mul(g.left, h.left), mul(g.right, h.right))
        else:
            found = _node(1 ^ h.swap, mul(g.left, h.right), mul(g.right, h.left))
        table[g] = found
    return found


def cache_sizes() -> dict[str, int]:
    """Entries in each global table: interned nodes, cached products and
    their right factors, and the segment-form element cache."""
    return {"interned": sum(len(by_left) for table in _INTERN
                                for by_left in table.values()),
            "products": sum(map(len, _MUL.values())),
            "product_tables": len(_MUL), "elements": len(_ELEMENT)}


def element_of(w: str) -> Element:
    """The interned element represented by the word w."""
    return segment_element(segments(w))


def is_trivial(w: str) -> bool:
    """Whether the word w represents the identity of the group.

    The abelianization of the group is (Z/2)^3 on a, b, c, with d mapped
    to b + c, so a word with an odd number of a's, an odd #b + #d or an
    odd #c + #d is not trivial, and its element is never built.  A word
    with any other letter goes to ``element_of``, which rejects it.
    """
    na, nb, nc, nd = w.count("a"), w.count("b"), w.count("c"), w.count("d")
    if na + nb + nc + nd == len(w) and (na | (nb + nd) | (nc + nd)) & 1:
        return False
    return element_of(w) is IDENTITY


def words_equal(v: str, w: str) -> bool:
    """Whether two words represent the same group element."""
    return element_of(v) is element_of(w)

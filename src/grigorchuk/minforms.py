"""Weighted geodesic normal forms via uniform-cost Cayley search.

A weight assigns a positive cost to each generator; the weight of an
element is the cheapest total cost of a word representing it.  Weights
are read as decimals with at most four fraction digits and held as
integers scaled by 10^4, so priority comparisons are exact and runs are
reproducible.

The search settles elements in order of (weight, word length, fixed
letter order), which picks one canonical minimal form per element.  The
frontier is kept between calls, so raising the radius resumes rather
than restarts, also after an element budget error.

Only freely reduced words are searched, and each is pushed once, from
its one-letter-shorter prefix: a word ending in a grows by b, c or d, a
word ending in b, c or d grows by a.  Every other one-letter extension
reduces to a word pushed already: a cancellation gives the word's own
settled prefix, and a merge such as ``...ab + c -> ...ad`` gives a word
that the settled prefix ``...a`` pushed.  So the words that can settle,
and their priorities, are those of a search over all extensions, and the
canonical forms and their settle order are the same.

The frontier is a bucket queue (Dial's algorithm): pushed words are
grouped by their weight, and a small heap holds the distinct pending
weights.  The lightest bucket is sorted once by (length, key) and
settled in that order.  Keys are unique per word, so that is the order a
single priority queue of (weight, length, key) would pop.  Weights are
positive, so a settled word's children go to heavier buckets, and no
word joins a bucket once it has started.  A bucket is dropped only when
its loop ends, so a budget error leaves the frontier whole and a later
call settles the rest.

A bucket entry carries its parent's element and its last letter's atom,
not its own element: the product of the two by ``mul`` is formed only
when the entry is settled, and the entry is dropped if that element is
settled already.  Keys are unique per word, so the settle order does not
depend on when elements are formed, and no element of the unsettled
frontier is formed at all.  Settling caches only products whose right
factor is b, c or d (see ``elements``).  Forms settle in order of
non-decreasing weight.
"""

from __future__ import annotations

import heapq
from typing import Callable

from .elements import ATOMS, Element, element_of, mul
from .words import LETTERS, free_reduce

SCALE = 10_000

Weight = dict[str, int]

# Canonical tie-break order between equal-weight, equal-length words:
# letters sorted by increasing tuned weight (a, d, c, b).  A word's key
# spells it over "0123" in that order, so comparing keys of equal length
# compares the words.
_KEY = str.maketrans("adcb", "0123")
_WORD = str.maketrans("0123", "adcb")

# The letters a reduced word may grow by, keyed by its last key digit.
_NEXT = {"": "adcb", "0": "dcb", "1": "a", "2": "a", "3": "a"}

UNIT_WEIGHTS: Weight = {ch: SCALE for ch in LETTERS}
# The tuned weights shipped with the appendix fixture.
TUNED_WEIGHTS: Weight = {"a": 10_000, "b": 33_300, "c": 28_000, "d": 10_600}


def parse_weights(text: str) -> Weight:
    """Parse ``a=1 b=3.33 c=2.8 d=1.06`` into scaled-integer weights."""
    w: Weight = {}
    for part in text.replace(",", " ").split():
        if "=" not in part:
            raise ValueError(f"malformed weight assignment {part!r}")
        key, _, val = part.partition("=")
        if key not in LETTERS:
            raise ValueError(f"unknown generator {key!r} in weights")
        if key in w:
            raise ValueError(f"repeated weight for generator {key!r}")
        w[key] = scale_decimal(val)
    missing = [ch for ch in LETTERS if ch not in w]
    if missing:
        raise ValueError(f"weights missing for {', '.join(missing)}")
    check_weights(w)
    return w


def scale_decimal(text: str) -> int:
    """Exact conversion of a decimal with <= 4 fraction digits to units of 1e-4."""
    text = text.strip()
    neg = text.startswith("-")
    if neg:
        text = text[1:]
    whole, _, frac = text.partition(".")
    if len(frac) > 4:
        raise ValueError(f"more than 4 fraction digits in {text!r}")
    if not (whole or frac):
        raise ValueError(f"empty number {text!r}")
    if not (whole + frac).isascii() or not (whole + frac).isdigit():
        raise ValueError(f"malformed number {text!r}")
    value = int(whole or "0") * SCALE + int((frac + "0000")[:4] or "0")
    return -value if neg else value


def format_scaled(v: int) -> str:
    """Render a scaled integer back as a minimal decimal string."""
    sign = "-" if v < 0 else ""
    v = abs(v)
    whole, frac = divmod(v, SCALE)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:04d}".rstrip("0")


def format_weights(w: Weight) -> str:
    """The weights as parse_weights reads them: a=.. b=.. c=.. d=.."""
    return " ".join(f"{ch}={format_scaled(w[ch])}" for ch in LETTERS)


def check_weights(w: Weight) -> None:
    """Raise ValueError unless the weights are positive and triangular."""
    if any(w[ch] <= 0 for ch in LETTERS):
        raise ValueError("weights must be positive")
    if not is_triangular(w):
        raise ValueError("weights must be triangular: each of b, c, d "
                         "at most the sum of the other two")


def is_triangular(w: Weight) -> bool:
    """Whether each of b, c, d weighs at most the sum of the other two.

    Triangular weights guarantee that merging adjacent {b,c,d}-letters
    during free reduction never increases a word's weight.
    """
    b, c, d = w["b"], w["c"], w["d"]
    return b <= c + d and c <= b + d and d <= b + c


def word_weight(word: str, w: Weight) -> int:
    """Total scaled weight of a word's letters."""
    return sum(w[ch] for ch in word)


class MinimalForms:
    """Canonical minimal forms for one triangular weight, computed incrementally."""

    def __init__(self, weights: Weight, element_budget: int = 10_000_000):
        check_weights(weights)
        self.weights = dict(weights)
        self.element_budget = element_budget
        self.table: dict[Element, str] = {}
        # scaled weight of each settled form, keyed and ordered like table;
        # forms settle in priority order, so these never decrease
        self.form_weight: dict[Element, int] = {}
        # pushed, unsettled words by weight: (length, key, parent element,
        # last atom), the word's element being parent times atom; the heap
        # holds each weight that has a bucket
        self._buckets: dict[int, list[tuple[int, str, Element, Element]]] = {
            0: [(0, "", ATOMS[""], ATOMS[""])]}
        self._pending: list[int] = [0]
        self._grow = {last: [(ch.translate(_KEY), weights[ch], ATOMS[ch])
                             for ch in letters]
                      for last, letters in _NEXT.items()}
        self._settled_upto = -1

    def extend(self, radius: int) -> None:
        """Settle every element of weight <= radius (scaled units).

        Takes the pending buckets of weight <= radius, lightest first,
        each in (length, key) order, and settles each word whose element
        is new; a settled word pushes its reduced one-letter extensions
        (see the module docstring).
        """
        if radius <= self._settled_upto:
            return
        buckets, pending = self._buckets, self._pending
        table, form_weight = self.table, self.form_weight
        budget, grow = self.element_budget, self._grow
        while pending and pending[0] <= radius:
            weight = pending[0]
            bucket = buckets[weight]
            bucket.sort()
            for n, key, parent, atom in bucket:
                e = mul(parent, atom)
                if e in table:
                    continue
                if len(table) >= budget:
                    raise RuntimeError(
                        f"element budget {budget} exceeded at radius "
                        f"{format_scaled(weight)}")
                table[e] = key.translate(_WORD)
                form_weight[e] = weight
                for digit, cost, atom in grow[key[-1:]]:
                    heavier = weight + cost
                    child = buckets.get(heavier)
                    if child is None:
                        child = buckets[heavier] = []
                        heapq.heappush(pending, heavier)
                    child.append((n + 1, key + digit, e, atom))
            del buckets[weight]
            heapq.heappop(pending)
        self._settled_upto = radius

    def settled(self, word: str) -> Element:
        """The element of ``word``, settled if it was not."""
        e = element_of(word)
        if e not in self.table:
            self.extend(word_weight(free_reduce(word), self.weights))
        return e

    def minimal_form(self, word: str) -> str:
        """The canonical minimal-weight word for the element of ``word``."""
        return self.table[self.settled(word)]

    def element_weight(self, word: str) -> int:
        """Scaled weight of the element represented by ``word``."""
        return self.form_weight[self.settled(word)]

    def is_minimal(self, word: str) -> bool:
        """Whether ``word`` has the least weight among words for its element."""
        return word_weight(word, self.weights) == self.element_weight(word)

    def enumerate_forms(self, max_len: int,
                        predicate: Callable[[str], bool] | None = None
                        ) -> list[str]:
        """All canonical forms of length <= max_len satisfying the predicate.

        Canonical forms alternate the letter a with letters from {b, c, d},
        so a form of <= max_len letters holds floor(max_len/2) of each kind,
        plus one of either kind when max_len is odd; settling up to the
        heaviest such weight finds them all.  Forms settle in priority order
        (weight, length, letter order), so the result is in that order too.
        """
        heavy, a = max(self.weights[x] for x in "bcd"), self.weights["a"]
        self.extend(max_len // 2 * (heavy + a) + max_len % 2 * max(heavy, a))
        return [w for w in self.table.values()
                if len(w) <= max_len and (predicate is None or predicate(w))]

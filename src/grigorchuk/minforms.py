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
weights.  A bucket is two parallel lists, the words' integer keys and
the elements of their prefixes.  A word's key is 4**len(word) plus its
letters as base-4 digits in the tie-break order a < d < c < b, so keys
compare like (length, word), a child's key is its parent's times four
plus its last letter's digit, and that letter is ``key & 3``.  The
lightest bucket is sorted once by key and settled in that order.  Keys
are unique per word, so that is the order a single priority queue of
(weight, length, word) would pop.  Weights are positive, so a settled
word's children go to heavier buckets: each bucket finds its four child
buckets, one per last letter, once before its loop, and no word joins a
bucket once it has started.  A bucket is dropped only when its loop
ends, so a budget error leaves the frontier whole and a later call
settles the rest.

A word's element is the product by ``mul`` of its prefix's element and
its last letter's atom, formed only when the word is settled, and the
word is dropped if that element is settled already.  Its canonical
spelling is its prefix's form in ``table`` plus its last letter.  Keys
are unique per word, so the settle order does not depend on when
elements are formed, and no element of the unsettled frontier is formed
at all.  The empty word has no prefix: it settles first, apart from the
buckets, which hold its one-letter extensions from the start.  Settling
caches only products whose right factor is b, c or d (see
``elements``).  Forms settle in order of non-decreasing weight.
"""

from __future__ import annotations

import heapq
from typing import Callable

from .elements import ATOMS, IDENTITY, Element, element_of, mul
from .words import LETTERS, free_reduce

SCALE = 10_000

Weight = dict[str, int]

# Canonical tie-break order between equal-weight, equal-length words:
# letters sorted by increasing tuned weight.  A letter's index here is
# its digit in a word's key (see the module docstring).
_LETTER = "adcb"

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
        # pushed, unsettled words by weight: their keys, and beside them
        # the elements of their prefixes; the heap holds each weight that
        # has a bucket.  The empty word is settled apart, first, so its
        # one-letter extensions are queued from the start.
        self._buckets: dict[int, tuple[list[int], list[Element]]] = {}
        self._pending: list[int] = []
        for digit, ch in enumerate(_LETTER):
            keys, prefixes = self._bucket(weights[ch])
            keys.append(4 + digit)
            prefixes.append(IDENTITY)
        self._settled_upto = -1

    def _bucket(self, weight: int) -> tuple[list[int], list[Element]]:
        """The bucket of pushed words of this weight, made if missing."""
        found = self._buckets.get(weight)
        if found is None:
            found = self._buckets[weight] = ([], [])
            heapq.heappush(self._pending, weight)
        return found

    def extend(self, radius: int) -> None:
        """Settle every element of weight <= radius (scaled units).

        Settles the empty word, then takes the pending buckets of weight
        <= radius, lightest first, each in key order, and settles each
        word whose element is new.  Its spelling is its prefix's form
        plus its last letter, and it pushes its reduced one-letter
        extensions into the bucket's four child buckets, which are found
        once per bucket (see the module docstring).
        """
        if radius <= self._settled_upto:
            return
        buckets, pending = self._buckets, self._pending
        table, form_weight = self.table, self.form_weight
        budget = self.element_budget
        if not table:
            if budget < 1:
                raise RuntimeError(
                    f"element budget {budget} exceeded at radius 0")
            table[IDENTITY] = ""
            form_weight[IDENTITY] = 0
        costs = [self.weights[ch] for ch in _LETTER]
        atoms = [ATOMS[ch] for ch in _LETTER]
        while pending and pending[0] <= radius:
            weight = pending[0]
            keys, prefixes = buckets[weight]
            (ak, ap), (dk, dp), (ck, cp), (bk, bp) = [
                self._bucket(weight + cost) for cost in costs]
            for i in sorted(range(len(keys)), key=keys.__getitem__):
                key = keys[i]
                prefix = prefixes[i]
                last = key & 3
                e = mul(prefix, atoms[last])
                if e in table:
                    continue
                if len(table) >= budget:
                    raise RuntimeError(
                        f"element budget {budget} exceeded at radius "
                        f"{format_scaled(weight)}")
                table[e] = table[prefix] + _LETTER[last]
                form_weight[e] = weight
                key <<= 2
                if last:
                    ak.append(key)
                    ap.append(e)
                else:
                    dk.append(key | 1)
                    dp.append(e)
                    ck.append(key | 2)
                    cp.append(e)
                    bk.append(key | 3)
                    bp.append(e)
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

    def settle_lengths(self, max_len: int) -> None:
        """Settle every canonical form of at most max_len letters.

        Canonical forms alternate the letter a with letters from {b, c, d},
        so a form of <= max_len letters holds floor(max_len/2) of each kind,
        plus one of either kind when max_len is odd; settling up to the
        heaviest such weight finds them all.
        """
        heavy, a = max(self.weights[x] for x in "bcd"), self.weights["a"]
        self.extend(max_len // 2 * (heavy + a) + max_len % 2 * max(heavy, a))

    def enumerate_forms(self, max_len: int,
                        predicate: Callable[[str], bool] | None = None
                        ) -> list[str]:
        """All canonical forms of length <= max_len satisfying the predicate.

        Forms settle in priority order (weight, length, letter order), so
        the result is in that order too.
        """
        self.settle_lengths(max_len)
        return [w for w in self.table.values()
                if len(w) <= max_len and (predicate is None or predicate(w))]

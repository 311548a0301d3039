"""Weighted growth counts and the growth-exponent lower bound.

The growth function counts group elements of weight at most a radius.
Two independent enumeration back-ends are provided: the canonical-form
search (hash-consed section trees) and a cross-check that groups plain
reduced words by their action on short binary strings before confirming
equality exactly.  A cycle bound eta < 4 on the section-preimage
transducer converts into the exponent alpha = log 2 / log eta, and the
doubling argument turns one ball count into a lower bound on log-growth
at larger radii.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import product
from typing import Callable, Sequence

from .elements import Element, element_of
from .minforms import MinimalForms
from .words import LETTERS, act_letter

GrowthTable = list[tuple[int, int]]


def gamma_table(mfs: MinimalForms, radii: Sequence[int],
                predicate: Callable[[str], bool] | None = None) -> GrowthTable:
    """Ball counts at each requested scaled radius, in one pass.

    With a predicate, only elements whose canonical word passes it are
    counted.  It is intended for the kernel-membership predicates
    (parity-even subgroup, normal closure of b), which are properties of
    the element and hence independent of the word chosen.
    """
    radii = sorted(radii)
    if radii:
        mfs.extend(radii[-1])
    # forms come in settle order, so their weights never decrease
    weights = list(mfs.form_weight.values())
    if predicate is not None:
        weights = [w for w, form in zip(weights, mfs.table.values())
                   if predicate(form)]
    return [(r, bisect_right(weights, r)) for r in radii]


def gamma(mfs: MinimalForms, radius: int) -> int:
    """Number of elements of weight <= radius (scaled units)."""
    return gamma_table(mfs, [radius])[0][1]


def gamma_by_signature(max_len: int, probe_depth: int = 5) -> list[int]:
    """Unit-weight ball counts 0..max_len via the action cross-check.

    Enumerates all freely reduced words up to the length, buckets them by
    their action on every binary string of length <= probe_depth, and
    confirms equality inside each bucket exactly: a bucket holds the
    elements of its words, each built once.  Deliberately avoids the
    canonical-form machinery so the two back-ends can check each other.

    A letter maps each probe to a probe of the same length, so one table
    of letter steps over probe indices gives every action: a word's
    signature lists the index each probe goes to, and ``w + g`` sends
    probe i to ``step[g][sig(w)[i]]``.
    """
    probes = ["".join(bits) for n in range(1, probe_depth + 1)
              for bits in product("01", repeat=n)]
    index = {s: i for i, s in enumerate(probes)}
    step = {g: [index[act_letter(g, s)] for s in probes] for g in LETTERS}

    counts = []
    buckets: dict[tuple[int, ...], list[Element]] = {}
    frontier = [("", tuple(range(len(probes))))]
    total = 0
    for length in range(max_len + 1):
        for w, sig in frontier:
            known = buckets.setdefault(sig, [])
            e = element_of(w)
            if e not in known:
                known.append(e)
                total += 1
        counts.append(total)
        # a reduced word stays reduced by g exactly when it is empty or
        # one of its last letter and g is a and the other is not
        frontier = [(w + g, tuple(map(step[g].__getitem__, sig)))
                    for w, sig in frontier for g in LETTERS
                    if not w or (w[-1] == "a") != (g == "a")]
    return counts


@dataclass
class SubgroupGrowthCheck:
    radius: int
    lower: int
    middle: int
    upper: int

    @property
    def holds(self) -> bool:
        return self.lower <= self.middle <= self.upper


def check_subgroup_growth(mfs: MinimalForms, radii: Sequence[int],
                          predicate: Callable[[str], bool], index: int,
                          shift: int) -> list[SubgroupGrowthCheck]:
    """Finite-index sandwich on growth: g(n-K) <= N*g_sub(n) <= g(n+K).

    For a subgroup of index N whose cosets are reached by words of weight
    at most K, the subgroup ball of radius n, scaled by the index, is
    wedged between whole-group balls at radius n -+ K.
    """
    whole = dict(gamma_table(mfs, [r + s for r in radii for s in (-shift, shift)]))
    sub = dict(gamma_table(mfs, radii, predicate))
    return [SubgroupGrowthCheck(r, whole[r - shift], index * sub[r],
                                whole[r + shift]) for r in radii]


def alpha_of_eta(eta: float) -> float:
    """Growth exponent log 2 / log eta from a transducer cycle bound eta.

    A cycle ratio below 4 certifies growth at least exp(n^alpha) with
    alpha strictly above 1/2; eta = 4 is the baseline alpha = 0.5.
    """
    if not math.isfinite(eta):
        raise ValueError("eta must be finite")
    if eta <= 1:
        raise ValueError("eta must exceed 1")
    return 1.0 / math.log2(eta)


# 2.0 ** m overflows a float past this many doublings
MAX_DOUBLINGS = 1023


@dataclass
class BoundParams:
    """Inputs for the doubling lower bound on log-growth.

    eta: certified cycle bound of the transducer;
    shift: additive constant of the preimage weight bound;
    base_radius: radius L of the seed ball;
    base_count: ball count gamma(L) at the seed radius.
    """

    eta: float
    shift: float
    base_radius: float
    base_count: int


def lower_bound_log_gamma(n: float, p: BoundParams) -> tuple[int, float]:
    """Doubling steps m and a lower bound for log gamma(n).

    Each application of the preimage bound doubles the ball count at the
    cost of multiplying the radius by eta and adding the shift: after m
    steps the radius is eta^m * L + (eta^(m-1) + ... + 1) * shift and
    log gamma is at least 2^m * log(gamma(L)/4) + log 4.  Raises
    ValueError below the seed radius, unless the radius grows (eta > 1 and
    eta*L + shift > L), and when the bound exceeds a float.
    """
    if p.base_count < 4:
        raise ValueError("seed ball must contain at least 4 elements")
    if not n >= p.base_radius:
        raise ValueError("no bound: radius below the seed ball")
    if not (p.eta > 1 and p.eta * p.base_radius + p.shift > p.base_radius):
        raise ValueError("no bound: the radius must grow at each doubling "
                         "(eta > 1 and eta*L + shift > L)")
    m, radius = 0, p.base_radius
    while p.eta * radius + p.shift <= n:
        radius = p.eta * radius + p.shift
        m += 1
        if m > MAX_DOUBLINGS:
            raise ValueError(f"no bound: more than {MAX_DOUBLINGS} doublings")
    # math.log takes a seed count of any size; a quotient by 4.0 would
    # first convert it to a float, which overflows above about 1.8e308
    log_ratio = math.log(p.base_count) - math.log(4.0)
    bound = 2.0 ** m * log_ratio + math.log(4.0)
    if math.isinf(bound):
        raise ValueError(f"no bound: {m} doublings overflow a float")
    return m, bound

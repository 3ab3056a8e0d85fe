"""Independent brute-force oracle for avoider counts.

Written from the definitions only; it imports nothing from colorpart.
One sweep over all colored partitions of [n] with k colors records, for
each element, the set of colored sub-pattern types of length 2 and 3 it
contains.  Any set of patterns of length at most 3, in any sense, is then
counted from that histogram: an element avoids the set iff none of its
types matches a pattern.

Patterns are (word, colors) tuples, e.g. ((1, 1), (1, 2)) for 1^11^2.
``contains_vincular`` checks dashed permutation patterns the same way,
by trying every set of positions.
"""

from __future__ import annotations

import itertools
import re

_ELEMENT = re.compile(r"(\d)\^(\d)")


def parse(text: str) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Comma-separated pattern text -> tuple of (word, colors) patterns."""
    out = []
    for part in text.split(","):
        pairs = _ELEMENT.findall(part)
        if "".join("%s^%s" % p for p in pairs) != part.strip():
            raise ValueError("unsupported pattern text %r" % part)
        out.append((tuple(int(b) for b, _ in pairs), tuple(int(c) for _, c in pairs)))
    return tuple(out)


def canonical_text(text: str) -> str:
    """Patterns sorted by (word, colors), the order the CLI prints them in."""
    pats = sorted(parse(text))
    return ",".join("".join("%d^%d" % bc for bc in zip(w, c)) for w, c in pats)


def rgs(n: int):
    """Restricted growth strings of length n."""
    def grow(prefix, top):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for b in range(1, top + 2):
            prefix.append(b)
            yield from grow(prefix, max(top, b))
            prefix.pop()
    yield from grow([], 0)


def relabel(word) -> tuple[int, ...]:
    seen: dict[int, int] = {}
    return tuple(seen.setdefault(b, len(seen) + 1) for b in word)


def order_reduce(colors) -> tuple[int, ...]:
    ranks = {v: i for i, v in enumerate(sorted(set(colors)), start=1)}
    return tuple(ranks[v] for v in colors)


def colors_match(copy, pattern, sense: str) -> bool:
    if sense == "pattern":
        return order_reduce(copy) == order_reduce(pattern)
    if sense == "eq":
        return tuple(copy) == tuple(pattern)
    if sense == "lt":
        return all(c <= p for c, p in zip(copy, pattern))
    raise ValueError("unknown sense %r" % sense)


def contains_vincular(perm, values, bonds) -> bool:
    """True iff `perm` has a copy of the dashed pattern `values`.

    `bonds` holds the 1-based positions b whose pattern entries b and b+1
    must sit next to each other in `perm` (12-3 is (1, 2, 3) with {1}).
    """
    for idx in itertools.combinations(range(len(perm)), len(values)):
        if (all(idx[b] == idx[b - 1] + 1 for b in bonds)
                and order_reduce([perm[i] for i in idx]) == tuple(values)):
            return True
    return False


class Histogram:
    """Type-mask histogram of Pi_n wr C_k for sub-patterns up to `length`."""

    def __init__(self, n: int, k: int, length: int = 3):
        self.n, self.k, self.length = n, k, length
        self.types = [(w, c) for m in range(2, length + 1) for w in rgs(m)
                      for c in itertools.product(range(1, k + 1), repeat=m)]
        bit = {t: 1 << i for i, t in enumerate(self.types)}
        self.hist: dict[int, int] = {}
        for word in rgs(n):
            subsets = [(idx, relabel(word[i] for i in idx))
                       for m in range(2, min(length, n) + 1)
                       for idx in itertools.combinations(range(n), m)]
            for colors in itertools.product(range(1, k + 1), repeat=n):
                mask = 0
                for idx, w in subsets:
                    mask |= bit[(w, tuple(colors[i] for i in idx))]
                self.hist[mask] = self.hist.get(mask, 0) + 1

    @property
    def elements(self) -> int:
        return sum(self.hist.values())

    def count(self, patterns, sense: str) -> int:
        """Number of elements avoiding every pattern in `patterns`."""
        if not patterns:
            return self.elements
        forbid = 0
        for pw, pc in patterns:
            if len(pw) > self.length:
                raise ValueError("pattern longer than the histogram's types")
            if len(pw) > self.n:
                continue
            for i, (w, c) in enumerate(self.types):
                if w == pw and colors_match(c, pc, sense):
                    forbid |= 1 << i
        return sum(v for mask, v in self.hist.items() if not mask & forbid)

"""Containment and avoidance checks.

Colored partition patterns can be matched in three senses:

* pattern -- the colors on the copy are order-isomorphic to the
  pattern's colors,
* eq -- the colors on the copy equal the pattern's colors,
* lt -- the colors on the copy are elementwise at most the pattern's
  colors.

Containment is monotone: a partition contains a pattern when a copy
ends at one of its elements.  What the length-2 members of a pattern
set forbid is compiled once, by `pair_tables`, into two bitmask tables
over colors; the length-2 containment scan and the counting engines all
read them.  A copy of any other pattern is found by `copy_ends_at`,
which pins the copy's last element and reads nothing after it, so one
left-to-right walk can reject an element as soon as a copy ends there.

Vincular (dashed) permutation patterns are matched with adjacency
constraints on bonded positions.
"""

from __future__ import annotations

import enum
import functools
from typing import Iterable, Sequence

from .core import (
    ColoredPartition,
    ColoredPattern,
    Permutation,
    VincularPattern,
    reduce_word,
)


class Sense(enum.Enum):
    PATTERN = "pattern"
    EQ = "eq"
    LT = "lt"

    def __str__(self):
        return self.value


def copy_ends_at(word: Sequence[int], colors: Sequence[int], t: int,
                 pi: ColoredPattern, sense: Sense = Sense.PATTERN) -> bool:
    """True iff a copy of `pi` in entries 0..t of (word, colors) ends at t.

    Reads only entries 0..t.  A copy's elements share a block exactly
    when the pattern's do; in the pattern sense their colors are ordered
    as the pattern's, in the eq (lt) sense each color equals (is at
    most) the pattern's.  Entry t is the copy's last element; the others
    are chosen left to right, each checked against those already chosen.
    The empty pattern has no last element, so no copy of it ends anywhere.
    """
    pword, pcolors = pi.word, pi.colors
    last = len(pword) - 1
    if not 0 <= last <= t:
        return False
    ordered, eq, lt = sense is Sense.PATTERN, sense is Sense.EQ, sense is Sense.LT
    c, p = colors[t], pcolors[last]
    if eq and c != p or lt and c > p:
        return False
    chosen = [(last, t)]  # (position in pi, index into word) of the copy so far
    s, i = 0, 0           # place the copy's element s at index i or later
    while s < last:
        if i > t - last + s:  # no room left before t: move element s-1 on
            if s == 0:
                return False
            s, i = chosen.pop()
        else:
            b, c, pb, p = word[i], colors[i], pword[s], pcolors[s]
            if not (eq and c != p or lt and c > p):
                for a, j in chosen:
                    d, q = colors[j], pcolors[a]
                    if ((b == word[j]) != (pb == pword[a])
                            or ordered and (c > d) - (c < d) != (p > q) - (p < q)):
                        break
                else:
                    chosen.append((s, i))
                    s += 1
        i += 1
    return True


def contains_colored_generic(sigma: ColoredPartition, pi: ColoredPattern,
                             sense: Sense = Sense.PATTERN) -> bool:
    """Containment for patterns of any length: a copy ends at some element.

    The empty pattern is contained in every partition, the empty one too.
    """
    if pi.n == 0:
        return True
    return any(copy_ends_at(sigma.word, sigma.colors, t, pi, sense)
               for t in range(pi.n - 1, sigma.n))


@functools.lru_cache(maxsize=1024)
def pair_tables(patterns: tuple[ColoredPattern, ...], sense: Sense, k: int):
    """What the length-2 members of a pattern set forbid, as (same_bad, diff_bad).

    Bit c' of same_bad[c] is set when an earlier element of color c' in
    the same block as a new element of color c completes a copy in the
    given sense; diff_bad[c] does the same for an earlier element in
    another block.  Patterns of other lengths are left out.  The tables
    are memoized, so `patterns` must be a tuple.
    """
    same_bad = [0] * (k + 1)
    diff_bad = [0] * (k + 1)
    for pi in patterns:
        if pi.n != 2:
            continue
        table = same_bad if pi.word == (1, 1) else diff_bad
        for c in range(1, k + 1):
            for cp in range(1, k + 1):
                if copy_ends_at(pi.word, (cp, c), 1, pi, sense):
                    table[c] |= 1 << cp
    return tuple(same_bad), tuple(diff_bad)


def others_mask(own: int, holders: Sequence[int]) -> int:
    """Colors held by a block other than one whose color mask is `own`.

    holders[c] counts the blocks holding color c; two blocks may share it.
    """
    return sum(1 << c for c, h in enumerate(holders) if h > (own >> c & 1))


def _contains_pair(sigma: ColoredPartition, pi: ColoredPattern, sense: Sense) -> bool:
    # Constant-space scan for length-2 patterns: the hot path.
    same_bad, diff_bad = pair_tables((pi,), sense, sigma.k)
    word, colors = sigma.word, sigma.colors
    for j in range(1, sigma.n):
        bj, same, diff = word[j], same_bad[colors[j]], diff_bad[colors[j]]
        for i in range(j):
            if (same if word[i] == bj else diff) >> colors[i] & 1:
                return True
    return False


def contains_colored(sigma: ColoredPartition, pi: ColoredPattern,
                     sense: Sense = Sense.PATTERN) -> bool:
    """True iff `sigma` contains `pi` in the given sense."""
    if pi.n == 2:
        return _contains_pair(sigma, pi, sense)
    return contains_colored_generic(sigma, pi, sense)


def avoids(sigma: ColoredPartition, pi: ColoredPattern,
           sense: Sense = Sense.PATTERN) -> bool:
    return not contains_colored(sigma, pi, sense)


def avoids_all(sigma: ColoredPartition, patterns: Iterable[ColoredPattern],
               sense: Sense = Sense.PATTERN) -> bool:
    """True iff `sigma` avoids every pattern in the set (vacuously true for empty sets)."""
    return all(not contains_colored(sigma, pi, sense) for pi in patterns)


def contains_vincular(q: Permutation, p: VincularPattern) -> bool:
    """True iff `q` contains the dashed pattern `p`.

    Positions playing bonded pattern entries must be adjacent in `q`.
    """
    m, n = p.m, q.n
    if m > n:
        return False
    entries = q.entries

    def extend(positions: list[int]) -> bool:
        t = len(positions)
        if t == m:
            return reduce_word([entries[i - 1] for i in positions]) == p.values
        if t and t in p.bonds:
            candidates = [positions[-1] + 1]
        else:
            start = positions[-1] + 1 if positions else 1
            candidates = range(start, n - (m - t) + 2)
        for i in candidates:
            if i > n:
                break
            positions.append(i)
            if extend(positions):
                return True
            positions.pop()
        return False

    return extend([])


def avoids_vincular(q: Permutation, patterns: Iterable[VincularPattern]) -> bool:
    return all(not contains_vincular(q, p) for p in patterns)


def begins_with_ascent(q: Permutation) -> bool:
    """True iff `q` begins with a copy of 12 (first entry below second)."""
    if q.n < 2:
        return False
    return q.entries[0] < q.entries[1]

"""Containment and avoidance checks.

Colored partition patterns can be matched in three senses:

* pattern -- the colors on the copy are order-isomorphic to the
  pattern's colors,
* eq -- the colors on the copy equal the pattern's colors,
* lt -- the colors on the copy are elementwise at most the pattern's
  colors.

What a set of length-2 patterns forbids is compiled once, by
`pair_tables`, into two bitmask tables over colors; the length-2
containment scan and the counting engines all read them.  Longer
patterns are matched by subset enumeration.

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


def _color_match(copy_colors, pi: ColoredPattern, sense: Sense) -> bool:
    if sense is Sense.PATTERN:
        return reduce_word(copy_colors) == pi.reduced_colors
    if sense is Sense.EQ:
        return tuple(copy_colors) == pi.colors
    return all(c <= p for c, p in zip(copy_colors, pi.colors))


def contains_colored_generic(sigma: ColoredPartition, pi: ColoredPattern,
                             sense: Sense = Sense.PATTERN) -> bool:
    """Subset-enumeration containment check for patterns of any length.

    Walks increasing index sets, abandoning a partial embedding as soon
    as its partial canonical word can no longer extend to the pattern's.
    """
    m, n = pi.n, sigma.n
    if m == 0:
        return True
    if m > n:
        return False
    word, pword = sigma.word, pi.word

    def extend(idx: list[int], labels: dict[int, int]) -> bool:
        t = len(idx)
        if t == m:
            return _color_match([sigma.colors[i - 1] for i in idx], pi, sense)
        start = idx[-1] + 1 if idx else 1
        for i in range(start, n - (m - t) + 2):
            b = word[i - 1]
            if b in labels:
                if labels[b] != pword[t]:
                    continue
                new = None
            else:
                if pword[t] != len(labels) + 1:
                    continue
                new = b
                labels[b] = len(labels) + 1
            idx.append(i)
            if extend(idx, labels):
                return True
            idx.pop()
            if new is not None:
                del labels[new]
        return False

    return extend([], {})


@functools.lru_cache(maxsize=1024)
def pair_tables(patterns: tuple[ColoredPattern, ...], sense: Sense, k: int):
    """What a length-2 pattern set forbids, as (same_bad, diff_bad), or None.

    Bit c' of same_bad[c] is set when an earlier element of color c' in
    the same block as a new element of color c completes a copy in the
    given sense; diff_bad[c] does the same for an earlier element in
    another block.  None when some pattern is not of length 2.  The
    tables are memoized, so `patterns` must be a tuple.
    """
    same_bad = [0] * (k + 1)
    diff_bad = [0] * (k + 1)
    for pi in patterns:
        if pi.n != 2:
            return None
        table = same_bad if pi.word == (1, 1) else diff_bad
        for c in range(1, k + 1):
            for cp in range(1, k + 1):
                if _color_match((cp, c), pi, sense):
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

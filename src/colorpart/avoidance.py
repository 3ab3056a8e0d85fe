"""Containment and avoidance checks.

Colored partition patterns can be matched in three senses:

* pattern -- the colors on the copy are order-isomorphic to the
  pattern's colors,
* eq -- the colors on the copy equal the pattern's colors,
* lt -- the colors on the copy are elementwise at most the pattern's
  colors.

Containment is monotone: a partition contains a pattern when a copy
ends at one of its elements.  `copy_test` states that rule once for a
pattern set, as a test of one element that the scan `avoids_all` and
the avoider walk `enumeration._walk` both run: what the set's length-2
members forbid is compiled by `pair_tables` into two bitmask tables over
colors (the counting DP and the oracle read them too), and a copy of
any other pattern is found by `copy_ends_at`, which pins the copy's
last element and reads nothing after it.  `copy_ends_at` is the one
definition of the three senses; `avoids_all` serves a whole set, one
pattern being its smallest case.

Vincular (dashed) permutation patterns run through the same search, in
the pattern sense, as all-singleton colored patterns with bonds, in
`contains_vincular` and the permutation walk `iter_vincular_avoiders`.
"""

from __future__ import annotations

import enum
import functools
from typing import Iterable, Iterator, Sequence

from .core import (
    ColoredPartition,
    ColoredPattern,
    Permutation,
    VincularPattern,
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
    most) the pattern's; a bonded element (in `pi.bonds`) sits right
    after the previous one.  Entry t is the copy's last element; the
    others are chosen left to right, each checked against those already
    chosen.  The empty pattern has no last element, so no copy of it
    ends anywhere.
    """
    pword, pcolors, bonds = pi.word, pi.colors, pi.bonds
    last = len(pword) - 1
    if not 0 <= last <= t:
        return False
    ordered, eq, lt = sense is Sense.PATTERN, sense is Sense.EQ, sense is Sense.LT
    c, p = colors[t], pcolors[last]
    if eq and c != p or lt and c > p:
        return False
    tied = last in bonds  # the bond onto the last element pins element last-1 at t-1
    chosen = [(last, t)]  # (position in pi, index into word) of the copy so far
    s, room = 0, t - last  # place the copy's element s at an index in i..room
    i = t - 1 if tied and last == 1 else 0
    pb, p = pword[0], pcolors[0]  # element s's block and color
    while s < last:
        if i > room:      # no room left: move element s-1 on
            if s == 0:
                return False
            s, i = chosen.pop()
            room = i if s in bonds else t - last + s  # a bonded one had index i only
            pb, p = pword[s], pcolors[s]
        else:
            b, c = word[i], colors[i]
            if not (eq and c != p or lt and c > p):
                for a, j in chosen:
                    d, q = colors[j], pcolors[a]
                    if ((b == word[j]) != (pb == pword[a])
                            or ordered and (c > d) - (c < d) != (p > q) - (p < q)):
                        break
                else:
                    chosen.append((s, i))
                    s += 1
                    room = i + 1 if s in bonds else t - last + s
                    if tied and s == last - 1:
                        i = t - 2
                    pb, p = pword[s], pcolors[s]
        i += 1
    return True


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


@functools.lru_cache(maxsize=1024)
def copy_test(patterns: tuple[ColoredPattern, ...], sense: Sense, k: int):
    """The containment rule of a pattern set at k colors, as `ends(word, colors, t)`:
    True iff some pattern has a copy in entries 0..t that ends at t.

    `ends` reads only entries 0..t: earlier entries against the set's
    `pair_tables`, then `copy_ends_at` for every pattern of another length.
    The test is memoized, so `patterns` must be a tuple.
    """
    same_bad, diff_bad = pair_tables(patterns, sense, k)
    other_lengths = [pi for pi in patterns if pi.n != 2]

    def ends(word, colors, t):
        same, diff = same_bad[colors[t]], diff_bad[colors[t]]
        if same | diff:
            b = word[t]
            for i in range(t):
                if (same if word[i] == b else diff) >> colors[i] & 1:
                    return True
        for pi in other_lengths:
            if copy_ends_at(word, colors, t, pi, sense):
                return True
        return False

    return ends


def avoids_all(sigma: ColoredPartition, patterns: Iterable[ColoredPattern],
               sense: Sense = Sense.PATTERN) -> bool:
    """True iff `sigma` avoids every pattern in the set (vacuously true for empty sets).

    The one containment scan: no copy may end at any element, by the
    set's `copy_test`, the rule `enumeration._walk` generates by.  The
    empty pattern is contained in every partition, the empty one too.
    """
    patterns = tuple(patterns)
    if any(pi.n == 0 for pi in patterns):
        return False
    ends = copy_test(patterns, sense, sigma.k)
    for t in range(sigma.n):
        if ends(sigma.word, sigma.colors, t):
            return False
    return True


def contains_colored(sigma: ColoredPartition, pi: ColoredPattern,
                     sense: Sense = Sense.PATTERN) -> bool:
    """True iff `sigma` contains `pi` in the given sense."""
    return not avoids_all(sigma, (pi,), sense)


def avoids(sigma: ColoredPartition, pi: ColoredPattern,
           sense: Sense = Sense.PATTERN) -> bool:
    return avoids_all(sigma, (pi,), sense)


def contains_vincular(q: Permutation, p: VincularPattern) -> bool:
    """True iff a copy of `p` ends at some entry of `q`; the empty `p` is everywhere.

    `q` is the host whose entries are singleton blocks colored by value.
    """
    word = range(1, q.n + 1)
    return p.m == 0 or any(copy_ends_at(word, q.entries, t, p) for t in range(p.m - 1, q.n))


def _vincular_walk(m, patterns, ascent_led=False):
    """Left-to-right walk over the permutations of [m] avoiding `patterns`.

    Yields every avoider as the list the walk goes on to overwrite.  A
    prefix is dropped as soon as `copy_ends_at` finds a copy ending at
    its last entry; with `ascent_led`, also as soon as its second entry
    lies below its first, so only avoiders that begin with an ascent are
    reached.
    """
    if m < 0:
        raise ValueError("n must be nonnegative")
    if any(p.m == 0 for p in patterns) or ascent_led and m < 2:
        # every permutation contains the empty pattern; none of [0] or [1]
        # begins with an ascent
        return
    q = [0] * m
    word = range(1, m + 1)

    def walk(t, rest):
        if not rest:
            yield q
        for v in rest:
            if ascent_led and t == 1 and v < q[0]:
                continue
            q[t] = v
            if not any(copy_ends_at(word, q, t, p) for p in patterns):
                yield from walk(t + 1, rest - {v})

    yield from walk(0, frozenset(range(1, m + 1)))


def iter_vincular_avoiders(m: int, patterns: Sequence[VincularPattern]
                           ) -> Iterator[Permutation]:
    """The permutations of [m] avoiding every pattern, by a pruned walk.

    A prefix is dropped as soon as a copy ends at its last entry.
    """
    for q in _vincular_walk(m, patterns):
        yield Permutation(q)


def begins_with_ascent(q: Permutation) -> bool:
    """True iff `q` begins with a copy of 12 (first entry below second)."""
    if q.n < 2:
        return False
    return q.entries[0] < q.entries[1]

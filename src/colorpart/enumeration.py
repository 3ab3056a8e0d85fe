"""Exhaustive generation and avoidance counting.

When every forbidden pattern has length 2, counting runs a transfer DP
over the multiset of block color masks.  Every other set is counted,
and every set's avoiders are generated, by one left-to-right walk over
the colored words that rejects an element as soon as a copy ends at it:
a length-2 copy by the `avoidance.pair_tables` of the set, a copy of
any other length by `avoidance.copy_ends_at`.  Full enumeration over
`iter_colored` serves only as the oracle (`naive=True`).  The walk and
the oracle split their search by word prefix across `jobs` processes.
"""

from __future__ import annotations

import functools
import itertools
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .avoidance import Sense, avoids_all, copy_ends_at, others_mask, pair_tables
from .core import ColoredPartition, ColoredPattern, is_rgs, print_pattern_set

PREFIX_SPLIT_LENGTH = 4


def iter_rgs(n: int, prefix: Sequence[int] = ()) -> Iterator[tuple[int, ...]]:
    """Restricted growth strings of length n starting with `prefix`, lexicographically."""
    prefix = tuple(prefix)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if len(prefix) > n:
        raise ValueError("prefix longer than n")
    if not is_rgs(prefix):
        raise ValueError("prefix %r is not a restricted growth string" % (prefix,))
    if n == 0:
        yield ()
        return
    word = list(prefix) + [1] * (n - len(prefix))
    tops = list(itertools.accumulate(word, max))  # tops[i] = max of word[:i+1]
    fixed = max(len(prefix), 1)  # word[:fixed] never changes; word[0] is 1
    while True:
        yield tuple(word)
        i = n - 1
        while i >= fixed and word[i] == tops[i - 1] + 1:
            i -= 1
        if i < fixed:
            return
        word[i] += 1
        tops[i] = max(tops[i - 1], word[i])
        for j in range(i + 1, n):
            word[j] = 1
            tops[j] = tops[i]


def iter_colored(n: int, k: int = 2,
                 prefix: Sequence[int] = ()) -> Iterator[ColoredPartition]:
    """Pi_n wr C_k, words starting with `prefix`; word-major, colors varying fastest."""
    for word in iter_rgs(n, prefix):
        for colors in itertools.product(range(1, k + 1), repeat=n):
            yield ColoredPartition(word, colors, k)


# --- counting ------------------------------------------------------------

def _count_dp(n, k, tables):
    """Avoiders counted by a transfer DP over the block color masks.

    Whether a new element completes a length-2 copy depends only on its
    color, its own block's color mask and the union of the other blocks'
    masks, so the sorted tuple of block masks is a complete state.  Its
    weight is the number of colored partial partitions that reach it.
    """
    same_bad, diff_bad = tables
    states = {(): 1}
    for _ in range(n):
        nxt: dict[tuple[int, ...], int] = {}
        for state, weight in states.items():
            holders = [sum(m >> c & 1 for m in state) for c in range(k + 1)]
            # each existing block, weighted by how many share its mask,
            # then a new block
            for own, mult in itertools.chain(Counter(state).items(), ((0, 1),)):
                others = others_mask(own, holders)
                rest = list(state)
                if own:
                    rest.remove(own)
                for c in range(1, k + 1):
                    if own & same_bad[c] or others & diff_bad[c]:
                        continue
                    key = tuple(sorted(rest + [own | 1 << c]))
                    nxt[key] = nxt.get(key, 0) + weight * mult
        states = nxt
    return sum(states.values())


def _walk(n, k, patterns, sense, prefix=()):
    """Left-to-right walk over the colored words of size n that avoid `patterns`.

    Yields (word, colors) for every avoider whose word starts with the
    restricted growth string `prefix`, as lists the walk goes on to
    overwrite.  Containment is monotone, so an element is rejected as
    soon as a copy ends at it.
    """
    if any(pi.n == 0 for pi in patterns):
        return  # every partition contains the empty pattern
    same_bad, diff_bad = pair_tables(patterns, sense, k)
    other_lengths = [pi for pi in patterns if pi.n != 2]
    word = [0] * n
    colors = [0] * n
    masks = [0] * (n + 2)     # masks[b]: colors in block b
    holders = [0] * (k + 1)   # holders[c]: blocks holding color c

    def walk(t, top):
        if t == n:
            yield word, colors
            return
        for b in (prefix[t],) if t < len(prefix) else range(1, top + 2):
            own = masks[b]
            others = others_mask(own, holders)
            word[t] = b
            for c in range(1, k + 1):
                if own & same_bad[c] or others & diff_bad[c]:
                    continue
                colors[t] = c
                if any(copy_ends_at(word, colors, t, pi, sense) for pi in other_lengths):
                    continue
                fresh = not own >> c & 1
                masks[b] = own | 1 << c
                holders[c] += fresh
                yield from walk(t + 1, max(top, b))
                masks[b] = own
                holders[c] -= fresh

    yield from walk(0, 0)


def _count_walk(n, k, patterns, sense, prefix=()):
    """The walk's count of the avoiders whose word starts with `prefix`."""
    return sum(1 for _ in _walk(n, k, patterns, sense, prefix))


def _count_naive(n, k, patterns, sense, prefix=()):
    """Full-enumeration oracle: test every colored partition."""
    return sum(1 for s in iter_colored(n, k, prefix) if avoids_all(s, patterns, sense))


def count_avoiders(n: int, k: int, patterns: Sequence[ColoredPattern],
                   sense: Sense = Sense.PATTERN, *, naive: bool = False,
                   jobs: int = 1) -> int:
    """|{sigma in Pi_n wr C_k : sigma avoids every pattern}|."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    patterns = tuple(patterns)
    if naive:
        count = _count_naive
    elif all(pi.n == 2 for pi in patterns):
        return _count_dp(n, k, pair_tables(patterns, sense, k))
    else:
        count = _count_walk
    workers = min(jobs, os.cpu_count() or 1)
    if workers > 1 and n > PREFIX_SPLIT_LENGTH:
        task = functools.partial(count, n, k, patterns, sense)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return sum(pool.map(task, iter_rgs(PREFIX_SPLIT_LENGTH), chunksize=4))
    return count(n, k, patterns, sense)


def iter_avoiders(n: int, k: int, patterns: Sequence[ColoredPattern],
                  sense: Sense = Sense.PATTERN) -> Iterator[ColoredPartition]:
    """Generate the avoiders, in the walk's order."""
    # one tuple per word, shared by its avoiders as iter_colored shares it,
    # keeps large avoider sets small
    words: dict[tuple[int, ...], tuple[int, ...]] = {}
    for word, colors in _walk(n, k, tuple(patterns), sense):
        w = tuple(word)
        yield ColoredPartition(words.setdefault(w, w), tuple(colors), k)


def avoider_set(n: int, k: int, patterns: Sequence[ColoredPattern],
                sense: Sense = Sense.PATTERN) -> set[ColoredPartition]:
    """The avoiders themselves (for set-identity checks; small n only)."""
    return set(iter_avoiders(n, k, patterns, sense))


@dataclass(frozen=True)
class AvoidanceSequence:
    """Counts |Pi_n wr C_k(S)| for n = 1..n_max."""

    pattern_set: str
    sense: Sense
    k: int
    counts: tuple[int, ...]

    @property
    def n_max(self) -> int:
        return len(self.counts)


def avoidance_sequence(patterns: Sequence[ColoredPattern], sense: Sense = Sense.PATTERN,
                       k: int = 2, n_max: int = 6, *, naive: bool = False,
                       jobs: int = 1) -> AvoidanceSequence:
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    patterns = tuple(patterns)
    counts = tuple(count_avoiders(n, k, patterns, sense, naive=naive, jobs=jobs)
                   for n in range(1, n_max + 1))
    return AvoidanceSequence(print_pattern_set(patterns), sense, k, counts)


@dataclass(frozen=True)
class WilfClassification:
    """Pattern sets grouped by identical avoidance sequences up to n_max."""

    n_max: int
    classes: tuple[tuple[tuple[ColoredPattern, ...], ...], ...]
    sequences: tuple[tuple[int, ...], ...]

    def __len__(self):
        return len(self.classes)


def wilf_classify(family: Sequence[Sequence[ColoredPattern]], sense: Sense = Sense.PATTERN,
                  k: int = 2, n_max: int = 6, *, naive: bool = False,
                  jobs: int = 1) -> WilfClassification:
    """Group pattern sets whose count vectors agree for all n <= n_max."""
    if not family:
        raise ValueError("family must be nonempty")
    buckets: dict[tuple[int, ...], list[tuple[ColoredPattern, ...]]] = {}
    for patterns in family:
        patterns = tuple(sorted(patterns, key=lambda p: (p.word, p.colors)))
        seq = avoidance_sequence(patterns, sense, k, n_max, naive=naive, jobs=jobs).counts
        buckets.setdefault(seq, []).append(patterns)
    classes = []
    for seq, members in buckets.items():
        members.sort(key=print_pattern_set)
        classes.append((members, seq))
    classes.sort(key=lambda pair: print_pattern_set(pair[0][0]))
    return WilfClassification(
        n_max,
        tuple(tuple(members) for members, _ in classes),
        tuple(seq for _, seq in classes),
    )


# --- canonical 2-pattern machinery --------------------------------------

def canonical_pair_patterns(k: int = 2) -> tuple[ColoredPattern, ...]:
    """The six canonical colored patterns of [2] (colors reduced)."""
    pats = []
    for word in ((1, 1), (1, 2)):
        for colors in ((1, 1), (1, 2), (2, 1)):
            pats.append(ColoredPattern(word, colors, k))
    return tuple(pats)


def containment_profiles(n: int, k: int = 2) -> dict[int, int]:
    """Histogram of pattern-sense containment masks over Pi_n wr C_k.

    Bit i of a mask is set when the partition contains the i-th
    canonical 2-pattern (order of `canonical_pair_patterns`).  One full
    naive sweep answers every subset-avoidance count at once:
    |Pi_n wr C_k(S)| = sum of histogram values over masks disjoint from
    S's mask.
    """
    full = (1 << 6) - 1
    six = [pair_tables((pi,), Sense.PATTERN, k) for pi in canonical_pair_patterns(k)]
    # hits[side][cj][ci]: the canonical patterns that an earlier element of
    # color ci completes with a later one of color cj, read from same_bad
    # (side 0: one block) or diff_bad (side 1: two blocks)
    hits = [[[sum(1 << b for b, tables in enumerate(six) if tables[side][cj] >> ci & 1)
              for ci in range(k + 1)] for cj in range(k + 1)] for side in (0, 1)]
    hist: dict[int, int] = {}
    for word in iter_rgs(n):
        same = [[i for i in range(j) if word[i] == word[j]] for j in range(n)]
        diff = [[i for i in range(j) if word[i] != word[j]] for j in range(n)]
        for cols in itertools.product(range(1, k + 1), repeat=n):
            mask = 0
            for j in range(1, n):
                same_hit, diff_hit = hits[0][cols[j]], hits[1][cols[j]]
                for i in same[j]:
                    mask |= same_hit[cols[i]]
                for i in diff[j]:
                    mask |= diff_hit[cols[i]]
                if mask == full:
                    break
            hist[mask] = hist.get(mask, 0) + 1
    return hist


def count_from_profiles(hist: dict[int, int],
                        patterns: Sequence[ColoredPattern]) -> int:
    """Avoider count from a `containment_profiles` histogram."""
    canonical = [p.key() for p in canonical_pair_patterns()]
    smask = 0
    for p in patterns:
        smask |= 1 << canonical.index(p.canonical().key())
    return sum(v for mask, v in hist.items() if mask & smask == 0)


# --- empirical verification reports -------------------------------------

@dataclass
class VerificationReport:
    name: str
    checks: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_color_symmetries(n_max: int = 6, k: int = 2, sense: Sense = Sense.PATTERN,
                  *, jobs: int = 1) -> VerificationReport:
    """Color reversal and complement preserve avoidance sequences."""
    from .core import color_complement, color_reverse

    report = VerificationReport("color-symmetry")
    for pi in canonical_pair_patterns(k):
        base = avoidance_sequence((pi,), sense, k, n_max, jobs=jobs).counts
        for label, image in (("reverse", color_reverse(pi)),
                             ("complement", color_complement(pi))):
            other = avoidance_sequence((image,), sense, k, n_max, jobs=jobs).counts
            desc = "%s ~ %s (%s)" % (pi.word_text(), image.word_text(), label)
            if base == other:
                report.checks.append(desc)
            else:
                report.failures.append("%s: %r != %r" % (desc, base, other))
    return report


# pattern-sense avoiders of the left set coincide (as sets) with
# EQ-sense avoiders of the right set
EQ_PATTERN_IDENTITIES = (
    ("1^11^1", "1^11^1,1^21^2"),
    ("1^11^2", "1^11^2"),
    ("1^12^1", "1^12^1,1^22^2"),
    ("1^12^2", "1^12^2"),
)


def verify_eq_pattern_identities(n_max: int = 6) -> VerificationReport:
    """Set equality of pattern-sense and EQ-sense avoider families."""
    from .core import parse_pattern_set

    report = VerificationReport("pattern/EQ set identities")
    for pat_text, eq_text in EQ_PATTERN_IDENTITIES:
        pat = parse_pattern_set(pat_text)
        eq = parse_pattern_set(eq_text)
        for n in range(1, n_max + 1):
            left = avoider_set(n, 2, pat, Sense.PATTERN)
            right = avoider_set(n, 2, eq, Sense.EQ)
            desc = "pat{%s} = eq{%s} at n=%d" % (pat_text, eq_text, n)
            if left == right:
                report.checks.append(desc)
            else:
                witness = next(iter(left.symmetric_difference(right)))
                report.failures.append("%s: witness %s" % (desc, witness.word_text()))
    return report


def nmax_cap() -> int | None:
    """Optional enumeration size cap from the PPL_NMAX_CAP env var."""
    raw = os.environ.get("PPL_NMAX_CAP")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError("PPL_NMAX_CAP must be an integer, got %r" % raw)
